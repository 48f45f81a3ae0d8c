"""Exact rational linear algebra on top of fractions.Fraction.

Matrices are tuples of row tuples.  Everything here is exact: no floats,
no thresholds.  Used by the membership criteria and the polyhedron engine,
where a wrong sign or a rounded pivot would silently change a verdict.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

RationalMatrix = tuple[tuple[Fraction, ...], ...]
RationalVector = tuple[Fraction, ...]

_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', floats and Fractions to Fraction.

    Floats convert exactly (binary expansion), which keeps round-trips
    lossless.  Strings must be in the form format_fraction writes (no
    decimals or exponents, so '1e999999' cannot ask for a huge integer).
    Zero denominators and non-finite values raise ValueError, like any
    other malformed scalar.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, str) and not _RATIONAL_STRING.fullmatch(x):
        raise ValueError(f"{x!r:.40} is not an integer or a 'p/q' string")
    if isinstance(x, (int, str, float)):
        try:
            return Fraction(x)
        except (ArithmeticError, ValueError) as exc:  # '1/0', inf, nan, too many digits
            raise ValueError(f"{x!r:.40} is not a finite rational") from exc
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def format_fraction(x: Fraction) -> str:
    """Render as 'p/q' (or 'p' when integral), the serialization format."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _as_list(values, what: str):
    values = values.tolist() if hasattr(values, "tolist") else values  # numpy arrays
    if not isinstance(values, (list, tuple)):
        raise TypeError(f"expected a list of {what}, got {type(values).__name__}")
    return values


def vector(values) -> RationalVector:
    """A list or tuple of scalars (or a 1-d numpy array) as a rational vector."""
    return tuple(as_fraction(x) for x in _as_list(values, "rationals"))


def row_lengths(rows) -> tuple[int, ...]:
    """The length of each row `matrix` would read, with its TypeError for
    what is not a list; the entries are not converted."""
    return tuple(len(_as_list(row, "rationals")) for row in _as_list(rows, "rows"))


def matrix(rows) -> RationalMatrix:
    """A list or tuple of rows (or a 2-d numpy array) as a rational matrix."""
    out = tuple(vector(row) for row in _as_list(rows, "rows"))
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in rational matrix")
    return out


def format_matrix(m: RationalMatrix) -> list[list[str]]:
    """The JSON form of a rational matrix: rows of 'p/q' strings."""
    return [[format_fraction(x) for x in row] for row in m]


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if not a or not b:
        raise ValueError("empty matrix in product")
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank by fraction-free-ish Gaussian elimination, exact over Q.

    Operates on a copy.  An empty matrix (no rows or no columns) has rank 0.
    """
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for c in range(n_cols):
        piv = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, n_rows):
            if m[i][c] != 0:
                f = m[i][c] / pv
                mi, mr = m[i], m[r]
                for j in range(c, n_cols):
                    mi[j] -= f * mr[j]
        r += 1
        if r == n_rows:
            break
    return r


def submatrix(a: RationalMatrix, rows: Sequence[int], cols: Sequence[int]) -> RationalMatrix:
    return tuple(tuple(a[i][j] for j in cols) for i in rows)
