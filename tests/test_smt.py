import re

import numpy as np
import pytest

from sparse_closure import smt
from sparse_closure.patterns import (
    SupportPattern,
    dense_pattern,
    lu_pattern,
    masked_factors,
    product,
    validate_pattern,
)
from sparse_closure.smt import emit_qe_sentence, expected_variable_count


def tokenize(text):
    return re.findall(r"\(|\)|[^\s()]+", text)


def parse_sexpr(tokens, pos=0):
    if tokens[pos] == "(":
        out = []
        pos += 1
        while tokens[pos] != ")":
            node, pos = parse_sexpr(tokens, pos)
            out.append(node)
        return out, pos + 1
    return tokens[pos], pos + 1


def evaluate_sexpr(node, env):
    if isinstance(node, str):
        return env[node] if node in env else float(node)
    op, *args = node
    vals = [evaluate_sexpr(a, env) for a in args]
    if op == "+":
        return sum(vals)
    if op == "*":
        out = 1.0
        for v in vals:
            out *= v
        return out
    if op == "-":
        return vals[0] - sum(vals[1:]) if len(vals) > 1 else -vals[0]
    raise ValueError(f"unexpected operator {op}")


def count_vars_independent(text: str) -> int:
    """Test-side recount: constants plus binder occurrences, parsed line by line."""
    declared = [ln for ln in text.splitlines() if ln.startswith("(declare-const")]
    binders = re.findall(r"\(([A-Za-z]\w*) Real\)", text)
    return len(declared) + len(binders)


def formula_count(pattern: SupportPattern) -> int:
    # output*input target entries, one epsilon, two copies of every mask entry
    return pattern.output_dim * pattern.input_dim + 1 + 2 * sum(
        len(m) for m in pattern.masks
    )


def reference_sentence(pattern: SupportPattern) -> str:
    """The sentence as an earlier, separately written builder spelled it:
    its first layer had a loop of its own, every later layer scanned all
    partial entries for each mask entry, and the binders were listed apart."""

    def product_monomials(prefix):
        entries = {}
        for (r, c) in sorted(pattern.masks[0]):
            entries.setdefault((r, c), []).append((f"{prefix}1_{r + 1}_{c + 1}",))
        for layer in range(1, pattern.depth):
            nxt = {}
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

    def squared_error(prefix):
        monos = product_monomials(prefix)
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

    def factor_vars(prefix):
        out = []
        for layer, mask in enumerate(pattern.masks):
            for (r, c) in sorted(mask):
                out.append(f"{prefix}{layer + 1}_{r + 1}_{c + 1}")
        return out

    a_vars = [
        f"a_{i + 1}_{j + 1}"
        for i in range(pattern.output_dim)
        for j in range(pattern.input_dim)
    ]
    x_vars = factor_vars("x")
    y_vars = factor_vars("y")
    p_forall = squared_error("x")
    p_exists = squared_error("y")
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
    return "\n".join(lines) + "\n"


def first_difference(text: str, reference: str):
    """None when the texts are equal, else the first differing offset with
    some context; a plain == on megabyte sentences makes pytest's failure
    report take a minute."""
    if text == reference:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, reference)) if a != b), min(len(text), len(reference)))
    return at, text[max(0, at - 40) : at + 40], reference[max(0, at - 40) : at + 40]


def reference_panel():
    """520 seeded patterns: depth 1-4, dims 1-5, mask density drawn from
    [0, 1], every tenth pattern with all masks empty."""
    rng = np.random.default_rng(21)
    for k in range(520):
        depth = int(rng.integers(1, 5))
        dims = tuple(int(rng.integers(1, 6)) for _ in range(depth + 1))
        density = 0.0 if k % 10 == 0 else float(rng.uniform(0.0, 1.0))
        masks = tuple(
            frozenset(
                (r, c) for r in range(dims[i + 1]) for c in range(dims[i]) if rng.random() < density
            )
            for i in range(depth)
        )
        yield SupportPattern(dims=dims, masks=masks)


def random_pattern(rng, max_depth=3, max_dim=4):
    depth = int(rng.integers(1, max_depth + 1))
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(depth + 1))
    masks = []
    for i in range(depth):
        n_rows, n_cols = dims[i + 1], dims[i]
        mask = frozenset(
            (r, c) for r in range(n_rows) for c in range(n_cols) if rng.random() < 0.6
        )
        masks.append(mask)
    return SupportPattern(dims=dims, masks=tuple(masks))


class TestEmission:
    def test_lu_d2_has_17_variables(self, tmp_path):
        path = tmp_path / "lu2.smt2"
        stats = emit_qe_sentence(lu_pattern(2), path)
        text = path.read_text()
        # 2*2 target entries + 1 epsilon + 2*(3+3) factor copies = 17
        assert stats.num_variables == 17
        assert count_vars_independent(text) == 17

    def test_variable_count_mismatch_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(smt, "expected_variable_count", lambda pattern: 16)
        with pytest.raises(RuntimeError, match="emitted 17 variables, formula gives 16"):
            emit_qe_sentence(lu_pattern(2), tmp_path / "lu2.smt2")

    def test_single_entry_single_layer_degenerate(self, tmp_path):
        pattern = validate_pattern({"dims": [1, 1], "masks": [[[1, 1]]]})
        stats = emit_qe_sentence(pattern, tmp_path / "one.smt2")
        assert stats.num_variables == 1 + 1 + 2
        assert stats.max_degree == 2

    def test_two_atoms_and_degree(self, tmp_path):
        rng = np.random.default_rng(4)
        for k in range(15):
            pattern = random_pattern(rng)
            path = tmp_path / f"p{k}.smt2"
            stats = emit_qe_sentence(pattern, path)
            text = path.read_text()
            assert stats.num_polynomials == 2
            assert text.count("(assert ") == 2
            assert stats.max_degree == 2 * pattern.depth
            assert stats.num_variables == formula_count(pattern)
            assert count_vars_independent(text) == formula_count(pattern)

    def test_monomial_count_matches_the_expansion(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            pattern = random_pattern(rng)
            monos = smt._product_monomials(pattern, "x")
            assert smt.monomial_count(pattern) == sum(len(m) for m in monos.values())

    def test_monomials_have_one_variable_per_layer(self, tmp_path):
        path = tmp_path / "deep.smt2"
        emit_qe_sentence(dense_pattern((1, 1, 1, 1)), path)
        text = path.read_text()
        # depth 3, single chain: the product monomial multiplies three variables
        assert "(* x1_1_1 x2_1_1 x3_1_1)" in text

    def test_wellformed_sexpressions(self, tmp_path):
        rng = np.random.default_rng(9)
        for k in range(10):
            pattern = random_pattern(rng)
            path = tmp_path / f"w{k}.smt2"
            emit_qe_sentence(pattern, path)
            text = path.read_text()
            assert text.count("(") == text.count(")")
            assert text.strip().endswith("(check-sat)")
            assert "(set-logic NRA)" in text

    def test_empty_mask_pattern_skips_quantifiers(self, tmp_path):
        pattern = SupportPattern(dims=(2, 2), masks=(frozenset(),))
        path = tmp_path / "empty.smt2"
        stats = emit_qe_sentence(pattern, path)
        text = path.read_text()
        assert "forall ((eps Real))" in text
        assert stats.num_variables == 4 + 1  # targets + epsilon only
        assert "(forall ()" not in text

    def test_emitted_polynomial_evaluates_to_squared_error(self, tmp_path):
        # independent oracle: parse the emitted s-expression and evaluate it
        # at random assignments against the library's own product path
        rng = np.random.default_rng(77)
        for pattern in (lu_pattern(3), dense_pattern((2, 2, 2, 2))):
            path = tmp_path / "probe.smt2"
            emit_qe_sentence(pattern, path)
            text = path.read_text()
            tokens = tokenize(text[text.index("(assert") :])
            tree, _ = parse_sexpr(tokens)
            if sum(len(m) for m in pattern.masks):
                p_expr = tree[1][2][1]  # assert -> forall -> (> P 0) -> P
            else:
                p_expr = tree[1][1]
            for _ in range(5):
                a = rng.uniform(-2, 2, size=(pattern.output_dim, pattern.input_dim))
                factors = masked_factors(
                    pattern,
                    [rng.uniform(-2, 2, size=pattern.layer_shape(i)) for i in range(pattern.depth)],
                )
                env = {
                    f"a_{i + 1}_{j + 1}": a[i, j]
                    for i in range(pattern.output_dim)
                    for j in range(pattern.input_dim)
                }
                for layer, mat in enumerate(factors.factors):
                    for (r, c) in pattern.masks[layer]:
                        env[f"x{layer + 1}_{r + 1}_{c + 1}"] = mat[r, c]
                expected = float(np.sum((a - product(factors)) ** 2))
                assert evaluate_sexpr(p_expr, env) == pytest.approx(expected, rel=1e-12)


class TestReferenceSentence:
    def test_panel_matches_the_reference_byte_for_byte(self, tmp_path):
        path = tmp_path / "panel.smt2"
        panel = list(reference_panel())
        assert {p.depth for p in panel} == {1, 2, 3, 4}
        assert {d for p in panel for d in p.dims} == {1, 2, 3, 4, 5}
        assert any(not any(p.masks) for p in panel)
        assert any(all(p.is_full(i) for i in range(p.depth)) for p in panel if p.depth > 1)
        for pattern in panel:
            emit_qe_sentence(pattern, path)
            assert first_difference(path.read_text(), reference_sentence(pattern)) is None, pattern

    @pytest.mark.parametrize(
        "pattern",
        [lu_pattern(d) for d in range(2, 9)] + [dense_pattern((6, 6, 6, 6)), dense_pattern((4, 8, 8, 8, 4))],
        ids=[f"lu{d}" for d in range(2, 9)] + ["dense6666", "dense48884"],
    )
    def test_named_patterns_match_the_reference_byte_for_byte(self, pattern, tmp_path):
        path = tmp_path / "named.smt2"
        emit_qe_sentence(pattern, path)
        assert first_difference(path.read_text(), reference_sentence(pattern)) is None


class TestSizeCap:
    @pytest.mark.parametrize(
        "dims",
        [(100, 100), (1, 30, 30, 30, 1)],
        ids=["over-variable-cap", "over-monomial-cap"],
    )
    def test_cap_refuses_before_the_builder_runs(self, dims, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("the sentence builder ran past the cap")

        monkeypatch.setattr(smt, "_polynomial", fail)
        monkeypatch.setattr(smt, "_product_monomials", fail)
        pattern = dense_pattern(dims)
        over_variables = expected_variable_count(pattern) > smt.SENTENCE_CAP
        over_monomials = smt.monomial_count(pattern) > smt.SENTENCE_CAP
        assert over_variables != over_monomials  # each case trips exactly one cap
        path = tmp_path / "capped.smt2"
        with pytest.raises(ValueError, match="more than 10000"):
            emit_qe_sentence(pattern, path)
        assert not path.exists()
