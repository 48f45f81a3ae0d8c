"""Membership in the lower-upper factorizable set, cross-validated against
two independent oracles: the closed-form 2x2 condition and a symbolic
feasibility check (Groebner basis emptiness) on 3x3 instances."""

import itertools

import numpy as np
import pytest

from sparse_closure.closure import closure_gap_witness_lu, lu_membership


def lu_exists_2x2(a11, a12, a21, a22) -> bool:
    # closed form, derived by solving the four bilinear equations of
    # [[l11,0],[l21,l22]] @ [[u11,u12],[0,u22]] = A symbolically:
    # a11 = l11 u11, a12 = l11 u12, a21 = l21 u11, a22 = l21 u12 + l22 u22.
    # If a11 != 0 pick l11 = 1, u11 = a11 and solve the rest; if a11 = 0 then
    # l11 u11 = 0 forces a12 a21 = (l11 u12)(l21 u11) = 0.
    return a11 != 0 or a12 * a21 == 0


def lu_exists_groebner(entries):
    """Independent symbolic oracle: the bilinear system L U = A has a solution
    iff its Groebner basis is not {1}; ranks over the rationals make
    solvability field-independent, so complex emptiness decides the real case."""
    import sympy as sp

    n = len(entries)
    Ls = sp.symbols(f"l0:{n * n}")
    Us = sp.symbols(f"u0:{n * n}")
    L = sp.Matrix(n, n, lambda i, j: Ls[i * n + j] if i >= j else 0)
    U = sp.Matrix(n, n, lambda i, j: Us[i * n + j] if i <= j else 0)
    eqs = [sp.expand((L * U)[i, j] - entries[i][j]) for i in range(n) for j in range(n)]
    gens = [s for s in Ls + Us if any(s in e.free_symbols for e in eqs)]
    gb = sp.groebner(eqs, *gens, order="grevlex")
    return gb.exprs != [sp.S.One]


class TestLuMembership:
    def test_antidiagonal_2x2_rejected(self):
        assert lu_membership([[0, 1], [1, 0]]) is False

    def test_identity_accepted(self):
        assert lu_membership([[1, 0], [0, 1]]) is True

    def test_offdiagonal_with_zero_accepted(self):
        # [[0,a],[b,0]] factors iff a = 0 or b = 0
        assert lu_membership([[0, 0], [5, 0]]) is True
        assert lu_membership([[0, 7], [0, 0]]) is True
        assert lu_membership([[0, 7], [5, 0]]) is False

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            lu_membership([[1, 2, 3], [4, 5, 6]])

    def test_exhaustive_2x2_against_closed_form(self):
        values = range(-2, 3)
        for a11, a12, a21, a22 in itertools.product(values, repeat=4):
            expected = lu_exists_2x2(a11, a12, a21, a22)
            got = lu_membership([[a11, a12], [a21, a22]])
            assert got == expected, f"disagreement at {[[a11, a12], [a21, a22]]}"

    def test_integer_numpy_array(self):
        assert lu_membership(np.array([[0, 1], [1, 0]])) is False
        assert lu_membership(np.eye(3, dtype=int)) is True

    def test_rational_entries(self):
        from fractions import Fraction as F

        assert lu_membership([[F(1, 3), F(2, 7)], [F(-5, 2), F(0)]]) is True
        assert lu_membership([[F(0), F(1, 3)], [F(2, 9), F(0)]]) is False

    def test_3x3_against_groebner_oracle(self):
        rng = np.random.default_rng(23)
        cases = [rng.integers(-2, 3, size=(3, 3)).tolist() for _ in range(30)]
        cases.append([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # anti-diagonal
        cases.append(np.eye(3, dtype=int).tolist())
        for entries in cases:
            assert lu_membership(entries) == lu_exists_groebner(entries), entries


class TestGapWitness:
    def test_d2_is_the_antidiagonal(self):
        assert closure_gap_witness_lu(2) == ((0, 1), (1, 0))

    def test_d3_is_the_antidiagonal(self):
        w = closure_gap_witness_lu(3)
        assert [[int(x) for x in row] for row in w] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_witness_rejected_for_small_d(self):
        for d in range(2, 6):
            assert lu_membership(closure_gap_witness_lu(d)) is False

    def test_d1_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            closure_gap_witness_lu(1)
