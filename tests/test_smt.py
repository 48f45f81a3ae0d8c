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
