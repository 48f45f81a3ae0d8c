from fractions import Fraction

import numpy as np
import pytest

from sparse_closure.rational import as_fraction, format_fraction, format_matrix, matrix, vector


class TestAsFraction:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-2/7", Fraction(-2, 7)), ("+4", Fraction(4)), ("6/4", Fraction(3, 2)),
    ])
    def test_documented_string_forms(self, text, value):
        assert as_fraction(text) == value

    @pytest.mark.parametrize("text", ["1e999999", "1.5", " 3", "3 ", "1_000", "0x10", "", "/2", "1/", "--1"])
    def test_other_strings_rejected(self, text):
        with pytest.raises(ValueError, match="integer or a 'p/q' string"):
            as_fraction(text)

    @pytest.mark.parametrize("value", ["1/0", float("inf"), float("nan")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValueError, match="not a finite rational"):
            as_fraction(value)

    def test_round_trip_through_format(self):
        for x in (Fraction(0), Fraction(-5), Fraction(7, 3), Fraction(-1, 10**30)):
            assert as_fraction(format_fraction(x)) == x


class TestMatrixAndVector:
    def test_numpy_arrays(self):
        assert matrix(np.array([[0, 1], [2, 3]])) == ((0, 1), (2, 3))
        assert matrix(np.array([[0.5, 1.0]])) == ((Fraction(1, 2), Fraction(1)),)
        assert vector(np.array([1, -2])) == (1, -2)

    @pytest.mark.parametrize("rows", ["12", [[1, 2], "34"], [[1, 2], {"3": 0, "4": 0}], {"a": [1]}, 5])
    def test_rows_must_be_lists(self, rows):
        with pytest.raises(TypeError, match="expected a list"):
            matrix(rows)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            matrix([[1, 2], [3]])

    def test_format_matrix(self):
        assert format_matrix(matrix([["1/2", 3], [-4, "0"]])) == [["1/2", "3"], ["-4", "0"]]
