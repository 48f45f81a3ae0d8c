"""SMT-LIB 2 emission of the closedness sentence for a masked factorization set.

The emitted file asks, over nonlinear real arithmetic: is there a target
matrix that masked products approximate to arbitrary precision but never
reach?  sat means the set is not closed.  Deciding the sentence is the
external solver's problem; no termination promise is made (or possible) here.

Variables (indices 1-based, layers l counted from the input): a_<i>_<j> is
the declared target entry (i, j); x<l>_<r>_<c> is the universally bound copy
of entry (r, c) of factor l, y<l>_<r>_<c> its existential copy; eps is epsilon.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from .patterns import SupportPattern


@dataclass(frozen=True)
class QeSentenceStats:
    """Shape of the emitted sentence: two polynomial atoms of degree twice the
    depth, over target entries + one epsilon + two copies of each mask entry."""

    num_polynomials: int
    max_degree: int
    num_variables: int


# most variables, and most monomials in one masked product, that a sentence
# may hold: it keeps each file to a few megabytes, and no quantifier
# elimination finishes on a sentence of that size anyway
SENTENCE_CAP = 10_000


def expected_variable_count(pattern: SupportPattern) -> int:
    return pattern.output_dim * pattern.input_dim + 1 + 2 * sum(pattern.mask_sizes())


def monomial_count(pattern: SupportPattern) -> int:
    """Monomials of the masked product, one per path through the masks,
    counted per node layer by layer without expanding them."""
    paths = Counter(r for r, _ in pattern.masks[0])
    for mask in pattern.masks[1:]:
        nxt = Counter()
        for r, k in mask:
            nxt[r] += paths[k]
        paths = nxt
    return sum(paths.values())


def _targets(pattern: SupportPattern) -> dict[tuple[int, int], str]:
    rows, cols = range(pattern.output_dim), range(pattern.input_dim)
    return {(i, j): f"a_{i + 1}_{j + 1}" for i in rows for j in cols}


def _factor_names(pattern: SupportPattern, prefix: str) -> list[dict[tuple[int, int], str]]:
    return [
        {(r, c): f"{prefix}{layer}_{r + 1}_{c + 1}" for r, c in sorted(mask)}
        for layer, mask in enumerate(pattern.masks, 1)
    ]


def _product_monomials(pattern: SupportPattern, prefix: str) -> dict[tuple[int, int], list[tuple[str, ...]]]:
    """Entry (i, j) of the masked product as a list of variable-name monomials.

    A monomial is one nonzero path through the factors, one variable per
    layer.  Paths grow layer by layer, grouped by the node they end at.
    """
    ends = {j: {j: [()]} for j in range(pattern.input_dim)}
    for layer in _factor_names(pattern, prefix):
        nxt = defaultdict(lambda: defaultdict(list))
        for (r, k), var in layer.items():
            for j, monos in ends.get(k, {}).items():
                nxt[r][j] += [mono + (var,) for mono in monos]
        ends = nxt
    return {(i, j): monos for i, starts in ends.items() for j, monos in starts.items()}


def _sum(terms, op: str = "+") -> str:
    """(+ t1 t2 ...), or the one term alone; op="*" renders a product alike."""
    return terms[0] if len(terms) == 1 else f"({op} {' '.join(terms)})"


def _polynomial(pattern: SupportPattern, prefix: str) -> tuple[list[str], str]:
    """One copy's binder variables and its squared error sum((a_ij - product_ij)^2)."""
    monos = _product_monomials(pattern, prefix)
    diffs = [
        f"(- {a} {_sum([_sum(m, '*') for m in monos[entry]])})" if entry in monos else a
        for entry, a in _targets(pattern).items()
    ]
    variables = [v for layer in _factor_names(pattern, prefix) for v in layer.values()]
    return variables, _sum([f"(* {d} {d})" for d in diffs])


def _bind(quantifier: str, variables: list[str], body: str) -> str:
    """(quantifier ((v Real) ...) body), or body alone: SMT-LIB has no empty binder."""
    binder = " ".join(f"({v} Real)" for v in variables)
    return f"({quantifier} ({binder}) {body})" if variables else body


def emit_qe_sentence(pattern: SupportPattern, out_path) -> QeSentenceStats:
    """Write the sentence to out_path and return its shape statistics.

    A pattern whose sentence would exceed SENTENCE_CAP variables or product
    monomials raises ValueError before anything is built or written.  The
    statistics are recomputed from the emitted text (declared constants
    plus quantifier-bound variables) and checked against the closed-form
    count before returning; a mismatch raises RuntimeError.
    """
    if expected_variable_count(pattern) > SENTENCE_CAP or monomial_count(pattern) > SENTENCE_CAP:
        raise ValueError(
            f"the sentence would hold more than {SENTENCE_CAP} variables or product monomials"
        )
    x_vars, p_forall = _polynomial(pattern, "x")
    y_vars, p_exists = _polynomial(pattern, "y")
    exists = _bind("exists", y_vars, f"(< (- {p_exists} eps) 0)")
    text = "\n".join([
        "; closedness probe for a masked factorization set",
        "; sat: some target is approximable to arbitrary precision by masked",
        "; products yet never attained, so the set is not closed",
        "(set-logic NRA)",
        *(f"(declare-const {a} Real)" for a in _targets(pattern).values()),
        f"(assert {_bind('forall', x_vars, f'(> {p_forall} 0)')})",
        f"(assert {_bind('forall', ['eps'], f'(=> (> eps 0) {exists})')})",
        "(check-sat)",
    ]) + "\n"
    with open(out_path, "w") as fh:
        fh.write(text)
    stats = QeSentenceStats(
        num_polynomials=2,
        max_degree=2 * pattern.depth,
        num_variables=count_variables(text),
    )
    expected = expected_variable_count(pattern)
    if stats.num_variables != expected:
        raise RuntimeError(f"emitted {stats.num_variables} variables, formula gives {expected}")
    return stats


def count_variables(smt_text: str) -> int:
    """Declared constants plus quantifier-bound variables in an emitted file."""
    declared = re.findall(r"\(declare-const\s+(\S+)\s+Real\)", smt_text)
    bound = re.findall(r"\((\w+) Real\)", smt_text)
    return len(declared) + len(bound)
