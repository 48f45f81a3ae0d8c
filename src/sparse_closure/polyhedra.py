"""Exact rational halfspace systems and Fourier-Motzkin projection.

A polyhedron is {z : Cz <= y} with C and y rational.  Variable elimination
pairs every lower bound with every upper bound, so row counts can explode
doubly exponentially; a hard row cap (the row_cap argument) makes the engine
fail loudly instead of thrashing.  Only non-strict inequalities are
supported: the sets this engine exists for are closed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, starmap

from .rational import format_fraction, format_matrix, vector, matrix as rational_matrix

DEFAULT_ROW_CAP = 100_000
# above this many rows the O(m^3) implication test of _prune is skipped
PAIR_LIMIT = 96


class RowCapExceeded(RuntimeError):
    """Raised when an elimination step would exceed the configured row cap."""


@dataclass(frozen=True)
class RationalPolyhedron:
    """Immutable halfspace system; rows are (coefficients, rhs) with exact entries."""

    num_vars: int
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        if isinstance(self.num_vars, bool) or not isinstance(self.num_vars, int):
            raise TypeError(f"num_vars must be an integer, got {self.num_vars!r}")
        if self.num_vars < 1:
            raise ValueError("a polyhedron needs at least one variable")
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs length mismatch")
        for row in self.rows:
            if len(row) != self.num_vars:
                raise ValueError("row width does not match num_vars")

    @property
    def num_rows(self) -> int:
        return len(self.rows)


def polyhedron(num_vars: int, rows, rhs) -> RationalPolyhedron:
    return RationalPolyhedron(num_vars=num_vars, rows=rational_matrix(rows), rhs=vector(rhs))


def contains(poly: RationalPolyhedron, point) -> bool:
    """Exact membership: every inequality holds at the point."""
    pt = vector(point)
    if len(pt) != poly.num_vars:
        raise ValueError(f"point has {len(pt)} coordinates, polyhedron has {poly.num_vars}")
    for row, b in zip(poly.rows, poly.rhs):
        if sum(c * x for c, x in zip(row, pt)) > b:
            return False
    return True


def _integer_row(row, b) -> tuple[int, ...]:
    """The row (coefficients, rhs) scaled by the lcm of its denominators:
    integers, rhs last, in integer arithmetic only."""
    entries = (*row, b)
    scale = math.lcm(*(c.denominator for c in entries))
    return tuple(c.numerator * (scale // c.denominator) for c in entries)


def _normalize(num_vars: int, integer_rows) -> RationalPolyhedron:
    """Scale each integer row (rhs last) to coprime integers, drop rows
    0 <= b with b >= 0, keep rows 0 <= b with b < 0 as the infeasible
    marker 0 <= -1 (it must survive projection), deduplicate (keeping the
    tightest rhs) and sort.  Fractions are built once per distinct value."""
    best: dict[tuple[int, ...], int] = {}
    for row in integer_rows:
        coeffs, b = row[:-1], row[-1]
        g = math.gcd(*coeffs)
        if g == 0:
            if b >= 0:
                continue
            b = -1
        else:
            g = math.gcd(g, b)
            coeffs, b = tuple(c // g for c in coeffs), b // g
        if best.get(coeffs, b) >= b:  # a new row or a tighter rhs
            best[coeffs] = b
    ordered = sorted(best.items())
    shared = {v: Fraction(v) for v in {*best.values(), *(c for row in best for c in row)}}
    return RationalPolyhedron(
        num_vars=num_vars,
        rows=tuple(tuple(map(shared.__getitem__, row)) for row, _ in ordered),
        rhs=tuple(shared[b] for _, b in ordered),
    )


def eliminate_variable(
    poly: RationalPolyhedron, idx: int, row_cap: int = DEFAULT_ROW_CAP
) -> RationalPolyhedron:
    """Project out variable idx (0-based): the result contains t iff some
    value of the eliminated coordinate satisfies all constraints.

    Rows not mentioning the variable pass through; every (positive, negative)
    coefficient pair combines into one implied row.  The rows are scaled to
    integers once, after the row cap is checked, and combined in integer
    arithmetic.  The output is canonicalized and lexicographically sorted,
    so it is deterministic.
    """
    if not (0 <= idx < poly.num_vars):
        raise ValueError(f"variable index {idx} out of range for {poly.num_vars} variables")
    if poly.num_vars == 1:
        raise ValueError("cannot eliminate the last remaining variable")
    zero, pos, neg = [], [], []
    for row, b in zip(poly.rows, poly.rhs):
        (zero if row[idx] == 0 else pos if row[idx] > 0 else neg).append((row, b))

    if len(zero) + len(pos) * len(neg) > row_cap:
        raise RowCapExceeded(
            f"elimination would produce {len(zero) + len(pos) * len(neg)} rows "
            f"(cap {row_cap}); raise the row cap to allow it"
        )

    def split(part):  # integer rows as (coefficient of idx, the other entries with the rhs last)
        return [(r[idx], r[:idx] + r[idx + 1 :]) for r in starmap(_integer_row, part)]

    combined = [rest for _, rest in split(zero)]
    neg = split(neg)
    for cp, rp in split(pos):
        for cn, rn in neg:
            # cp * (negative row) + (-cn) * (positive row): idx coefficient cancels
            combined.append(tuple(cp * xn - cn * xp for xp, xn in zip(rp, rn)))
    return _prune(_normalize(poly.num_vars - 1, combined))


def project(poly: RationalPolyhedron, keep, row_cap: int = DEFAULT_ROW_CAP) -> RationalPolyhedron:
    """Project onto the variables keep (0-based, kept in ascending order) by
    eliminating every other one, highest index first.  No rows is the whole
    space of any width, answered without visiting the variables.  Every
    result is canonical (drop_redundant), also when nothing is eliminated.

    After the first elimination the system is canonical, and eliminating a
    column that is zero in every row would only drop it, so such columns are
    dropped together in one pass."""
    keep = sorted(set(keep))
    if not keep or not 0 <= keep[0] <= keep[-1] < poly.num_vars:
        raise ValueError(f"keep must name at least one variable, each within 1..{poly.num_vars} (1-based)")
    if poly.num_rows == 0:
        return RationalPolyhedron(len(keep), (), ())
    if len(keep) == poly.num_vars:
        return drop_redundant(poly)
    first, *rest = sorted(set(range(poly.num_vars)).difference(keep), reverse=True)
    poly = eliminate_variable(poly, first, row_cap=row_cap)
    zero = {i for i in rest if not any(row[i] for row in poly.rows)}
    cols = [i for i in range(poly.num_vars) if i not in zero]
    poly = RationalPolyhedron(len(cols), tuple(tuple(row[i] for i in cols) for row in poly.rows), poly.rhs)
    for idx in [cols.index(i) for i in rest if i not in zero]:
        poly = eliminate_variable(poly, idx, row_cap=row_cap)
    return poly


def drop_redundant(poly: RationalPolyhedron) -> RationalPolyhedron:
    """Cheap redundancy pruning that preserves the represented set.

    Canonicalization merges duplicates and keeps the tightest rhs of each
    row; _prune then drops every row implied by one kept row scaled or by a
    nonnegative combination of two kept rows.  That test is O(m^3) in the
    worst case and is skipped above PAIR_LIMIT rows.
    """
    return _prune(_normalize(poly.num_vars, map(_integer_row, poly.rows, poly.rhs)))


def _prune(poly: RationalPolyhedron) -> RationalPolyhedron:
    """The implication stage of drop_redundant on a normalized system.

    Rows are visited in order, and a row goes if one kept row scaled, or a
    nonnegative combination of two kept rows, implies it; rows not yet
    visited count as kept.  The test is exact integer arithmetic on the
    canonical rows.  Systems of at most two or more than PAIR_LIMIT rows are
    returned as they are.  The rows it keeps stay canonical, unique and sorted.

    Each row's sign support (one bit per positive column, one per negative
    column) rules most tests out.  A row scaled by lambda > 0 keeps every
    sign.  A pair a, b is tested only where la*a + lb*b = det*t (det > 0)
    can hold with la, lb > 0; with a zero multiplier it is a scaled row,
    tested first.  Then t's signs fix b's sign on every column where a and
    t share no nonzero sign (_partner_signs).  Only tests these bit sets
    allow are run.
    """
    m = poly.num_rows
    if m <= 2 or m > PAIR_LIMIT:
        return poly
    n = poly.num_vars
    rows = [(tuple(int(c) for c in row), int(b)) for row, b in zip(poly.rows, poly.rhs)]
    signs = [sum(1 << (k + n * (c < 0)) for k, c in enumerate(row) if c) for row, _ in rows]
    keep = [True] * m
    for r, t in enumerate(rows):
        st = signs[r]
        kept = [(signs[i], s) for i, s in enumerate(rows) if keep[i] and i != r]
        keep[r] = not (any(sa == st and _scales_to(s, t) for sa, s in kept)
                       or any(_combines_to(a, b, t)
                              for i, (sa, a) in enumerate(kept)
                              for mask, bits in [_partner_signs(sa, st, n)]
                              for sb, b in kept[i + 1:] if sb & mask == bits))
    rows_kept, rhs_kept = tuple(compress(poly.rows, keep)), tuple(compress(poly.rhs, keep))
    return RationalPolyhedron(poly.num_vars, rows_kept, rhs_kept)


def _partner_signs(sa: int, st: int, n: int) -> tuple[int, int]:
    """(mask, bits) of the sign supports sa, st of rows a, t in n columns:
    la*a + lb*b = det*t with la, lb, det > 0 needs sb & mask == bits.  Where
    a and t share a nonzero sign, b is free; elsewhere b has t's sign, or
    -a's sign where t is zero."""
    cols = (1 << n) - 1
    shared = sa & st
    fixed = cols & ~(shared | shared >> n)
    zero_t = cols & ~(st | st >> n)
    flipped = (sa >> n) & zero_t | (sa & zero_t) << n
    mask = fixed | fixed << n
    return mask, st & mask | flipped


def _scales_to(s, t) -> bool:
    """Does the integer row s, scaled by some lambda >= 0, imply the row t?"""
    (cs, ys), (ct, yt) = s, t
    k = next((k for k, c in enumerate(cs) if c != 0), None)
    if k is None:
        return False
    p, q = (ct[k], cs[k]) if cs[k] > 0 else (-ct[k], -cs[k])  # lambda = p / q
    return p >= 0 and p * ys <= q * yt and all(q * x == p * y for x, y in zip(ct, cs))


def _combines_to(a, b, t) -> bool:
    """Do two independent integer rows a, b imply t by a nonnegative
    combination?  Cramer's rule on the first pair of columns with a nonzero
    determinant, scaled by the determinant, gives the only candidate."""
    (ca, ya), (cb, yb), (ct, yt) = a, b, t
    n = len(ct)
    for i in range(n):
        for j in range(i + 1, n):
            det = ca[i] * cb[j] - ca[j] * cb[i]
            if det == 0:
                continue
            la = ct[i] * cb[j] - ct[j] * cb[i]
            lb = ca[i] * ct[j] - ca[j] * ct[i]
            if det < 0:
                det, la, lb = -det, -la, -lb
            return (la >= 0 and lb >= 0 and la * ya + lb * yb <= det * yt
                    and all(la * x + lb * y == det * z for x, y, z in zip(ca, cb, ct)))
    return False


def affine_image(matrix, base: RationalPolyhedron, row_cap: int = DEFAULT_ROW_CAP) -> RationalPolyhedron:
    """Halfspace description of {Az : z in base} for a rational matrix A:
    introduce t = Az as two inequalities per output, stack the base
    constraints, then project onto t."""
    a = rational_matrix(matrix)
    if not a:
        raise ValueError("affine image needs at least one output coordinate")
    n = base.num_vars
    if any(len(row) != n for row in a):
        raise ValueError("matrix width must equal the base dimension")
    p = len(a)
    rows = [r[:-1] + (0,) * p + r[-1:] for r in map(_integer_row, base.rows, base.rhs)]
    for k, arow in enumerate(a):
        # A[k,:] z - t_k <= 0 and t_k - A[k,:] z <= 0
        row = _integer_row(arow + tuple(-int(i == k) for i in range(p)), 0)
        rows += [row, tuple(-v for v in row)]
    return project(_normalize(n + p, rows), range(n, n + p), row_cap)


def to_json(poly: RationalPolyhedron) -> dict:
    return {
        "num_vars": poly.num_vars,
        "C": format_matrix(poly.rows),
        "y": [format_fraction(b) for b in poly.rhs],
    }


def from_json(data: dict) -> RationalPolyhedron:
    return polyhedron(data["num_vars"], data["C"], data["y"])


def load(path) -> RationalPolyhedron:
    with open(path) as fh:
        return from_json(json.load(fh))


def save(poly: RationalPolyhedron, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json(poly), fh, indent=1)
        fh.write("\n")
