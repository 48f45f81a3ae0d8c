"""Exact rational linear algebra on top of fractions.Fraction.

Matrices are tuples of row tuples.  Everything here is exact: no floats,
no thresholds.  Used by the membership criteria and the polyhedron engine,
where a wrong sign or a rounded pivot would silently change a verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

RationalMatrix = tuple[tuple[Fraction, ...], ...]
RationalVector = tuple[Fraction, ...]


def as_fraction(x) -> Fraction:
    """Coerce ints, strings like '3/4', floats and Fractions to Fraction.

    Floats convert exactly (binary expansion), which keeps round-trips
    lossless; callers that care about decimal-looking values should pass
    strings or Fractions.  Zero denominators and non-finite values raise
    ValueError, like any other malformed scalar.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, str, float)):
        try:
            return Fraction(x)
        except ArithmeticError as exc:  # '1/0' or an infinite float
            raise ValueError(f"{x!r} is not a finite rational") from exc
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def format_fraction(x: Fraction) -> str:
    """Render as 'p/q' (or 'p' when integral), the serialization format."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def matrix(rows: Iterable[Iterable]) -> RationalMatrix:
    out = tuple(tuple(as_fraction(x) for x in row) for row in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in rational matrix")
    return out


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if not a or not b:
        raise ValueError("empty matrix in product")
    if len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} times {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(a: RationalMatrix, v: RationalVector) -> RationalVector:
    if not a or len(a[0]) != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


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
