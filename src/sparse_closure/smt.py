"""SMT-LIB 2 emission of the closedness sentence for a masked factorization set.

The emitted file asks, over nonlinear real arithmetic: is there a target
matrix that masked products approximate to arbitrary precision but never
reach?  sat means the set is not closed.  Deciding the sentence is the
external solver's problem; no termination promise is made (or possible) here.
"""

from __future__ import annotations

import re
from collections import Counter
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


def _product_monomials(pattern: SupportPattern, prefix: str) -> dict[tuple[int, int], list[tuple[str, ...]]]:
    """Entry (i, j) of the masked product as a list of variable-name monomials.

    Layer-by-layer expansion: a monomial is one nonzero path through the
    factors, one variable per layer.
    """
    entries: dict[tuple[int, int], list[tuple[str, ...]]] = {}
    for (r, c) in sorted(pattern.masks[0]):
        entries.setdefault((r, c), []).append((f"{prefix}1_{r + 1}_{c + 1}",))
    for layer in range(1, pattern.depth):
        nxt: dict[tuple[int, int], list[tuple[str, ...]]] = {}
        for (r, k) in sorted(pattern.masks[layer]):
            var = f"{prefix}{layer + 1}_{r + 1}_{k + 1}"
            for (kr, c), monos in entries.items():
                if kr != k:
                    continue
                bucket = nxt.setdefault((r, c), [])
                for mono in monos:
                    bucket.append(mono + (var,))
        entries = nxt
    return entries


def _squared_error_sexpr(pattern: SupportPattern, prefix: str) -> str:
    """(sum over all target entries of (a_ij - product_ij)^2) as an s-expression."""
    monos = _product_monomials(pattern, prefix)
    terms = []
    for i in range(pattern.output_dim):
        for j in range(pattern.input_dim):
            a = f"a_{i + 1}_{j + 1}"
            entry = monos.get((i, j), [])
            if not entry:
                diff = a
            else:
                prods = [m[0] if len(m) == 1 else "(* " + " ".join(m) + ")" for m in entry]
                total = prods[0] if len(prods) == 1 else "(+ " + " ".join(prods) + ")"
                diff = f"(- {a} {total})"
            terms.append(f"(* {diff} {diff})")
    return terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"


def _factor_vars(pattern: SupportPattern, prefix: str) -> list[str]:
    out = []
    for layer, mask in enumerate(pattern.masks):
        for (r, c) in sorted(mask):
            out.append(f"{prefix}{layer + 1}_{r + 1}_{c + 1}")
    return out


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
    a_vars = [
        f"a_{i + 1}_{j + 1}"
        for i in range(pattern.output_dim)
        for j in range(pattern.input_dim)
    ]
    x_vars = _factor_vars(pattern, "x")
    y_vars = _factor_vars(pattern, "y")
    p_forall = _squared_error_sexpr(pattern, "x")
    p_exists = _squared_error_sexpr(pattern, "y")

    lines = [
        "; closedness probe for a masked factorization set",
        "; sat: some target is approximable to arbitrary precision by masked",
        "; products yet never attained, so the set is not closed",
        "(set-logic NRA)",
    ]
    for v in a_vars:
        lines.append(f"(declare-const {v} Real)")
    if x_vars:
        binder = " ".join(f"({v} Real)" for v in x_vars)
        lines.append(f"(assert (forall ({binder}) (> {p_forall} 0)))")
    else:
        lines.append(f"(assert (> {p_forall} 0))")
    if y_vars:
        inner_binder = " ".join(f"({v} Real)" for v in y_vars)
        inner = f"(exists ({inner_binder}) (< (- {p_exists} eps) 0))"
    else:
        inner = f"(< (- {p_exists} eps) 0)"
    lines.append(f"(assert (forall ((eps Real)) (=> (> eps 0) {inner})))")
    lines.append("(check-sat)")
    text = "\n".join(lines) + "\n"

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
