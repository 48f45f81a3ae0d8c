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

from .rational import format_fraction, format_matrix, vector, matrix as rational_matrix

DEFAULT_ROW_CAP = 100_000
# above this many rows the O(m^3) pairwise redundancy check is skipped
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


def _canonical_row(row: tuple[Fraction, ...], b: Fraction):
    """Scale so coefficients and rhs become coprime integers; drop trivial rows.

    Returns None for rows 0 <= b with b >= 0 (always true).  Rows 0 <= b with
    b < 0 are kept: they mark infeasibility and must survive projection.
    """
    if all(c == 0 for c in row):
        if b >= 0:
            return None
        return row, Fraction(-1)  # canonical infeasible marker: 0 <= -1
    denom_lcm = 1
    for c in (*row, b):
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in (*row, b)]
    g = 0
    for v in ints:
        g = math.gcd(g, abs(v))
    ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints[:-1]), Fraction(ints[-1])


def _normalize(num_vars: int, raw_rows) -> RationalPolyhedron:
    """Canonicalize, deduplicate (keeping the tightest rhs) and sort rows."""
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for row, b in raw_rows:
        canon = _canonical_row(row, b)
        if canon is None:
            continue
        crow, cb = canon
        prev = best.get(crow)
        if prev is None or cb < prev:
            best[crow] = cb
    ordered = sorted(best.items())
    return RationalPolyhedron(
        num_vars=num_vars,
        rows=tuple(row for row, _ in ordered),
        rhs=tuple(b for _, b in ordered),
    )


def eliminate_variable(
    poly: RationalPolyhedron, idx: int, row_cap: int = DEFAULT_ROW_CAP
) -> RationalPolyhedron:
    """Project out variable idx (0-based): the result contains t iff some
    value of the eliminated coordinate satisfies all constraints.

    Rows not mentioning the variable pass through; every (positive, negative)
    coefficient pair combines into one implied row.  The output is
    canonicalized and lexicographically sorted, so it is deterministic.
    """
    if not (0 <= idx < poly.num_vars):
        raise ValueError(f"variable index {idx} out of range for {poly.num_vars} variables")
    if poly.num_vars == 1:
        raise ValueError("cannot eliminate the last remaining variable")
    zero, pos, neg = [], [], []
    for row, b in zip(poly.rows, poly.rhs):
        coeff = row[idx]
        rest = row[:idx] + row[idx + 1 :]
        if coeff == 0:
            zero.append((rest, b))
        elif coeff > 0:
            pos.append((coeff, rest, b))
        else:
            neg.append((coeff, rest, b))

    if len(zero) + len(pos) * len(neg) > row_cap:
        raise RowCapExceeded(
            f"elimination would produce {len(zero) + len(pos) * len(neg)} rows "
            f"(cap {row_cap}); raise the row cap to allow it"
        )

    combined = list(zero)
    for cp, rp, bp in pos:
        for cn, rn, bn in neg:
            # cp * (negative row) + (-cn) * (positive row): idx coefficient cancels
            row = tuple(cp * xn - cn * xp for xp, xn in zip(rp, rn))
            combined.append((row, cp * bn - cn * bp))
    return _prune(_normalize(poly.num_vars - 1, combined))


def project(poly: RationalPolyhedron, keep, row_cap: int = DEFAULT_ROW_CAP) -> RationalPolyhedron:
    """Project onto the variables keep (0-based, kept in ascending order) by
    eliminating every other one, highest index first.  No rows is the whole
    space of any width, answered without visiting the variables.  Every
    result is canonical (drop_redundant), also when nothing is eliminated."""
    keep = sorted(set(keep))
    if not keep or not 0 <= keep[0] <= keep[-1] < poly.num_vars:
        raise ValueError(f"keep must name at least one variable, each within 1..{poly.num_vars} (1-based)")
    if poly.num_rows == 0:
        return RationalPolyhedron(len(keep), (), ())
    if len(keep) == poly.num_vars:
        return drop_redundant(poly)
    for idx in sorted(set(range(poly.num_vars)).difference(keep), reverse=True):
        poly = eliminate_variable(poly, idx, row_cap=row_cap)
    return poly


def drop_redundant(poly: RationalPolyhedron) -> RationalPolyhedron:
    """Cheap redundancy pruning that preserves the represented set.

    Always removes duplicates and rhs-dominated copies (handled by
    canonicalization) plus rows implied by a nonnegative combination of at
    most two other rows.  The pairwise stage is O(m^3) in the worst case and
    is skipped above PAIR_LIMIT rows.
    """
    return _prune(_normalize(poly.num_vars, zip(poly.rows, poly.rhs)))


def _prune(poly: RationalPolyhedron) -> RationalPolyhedron:
    """The pairwise stage of drop_redundant on a normalized system; the rows
    it keeps stay canonical, unique and sorted."""
    rows = list(zip(poly.rows, poly.rhs))
    m = len(rows)
    if m <= 2 or m > PAIR_LIMIT:
        return poly
    keep = [True] * m
    for r in range(m):
        target_row, target_b = rows[r]
        implied = False
        for a in range(m):
            if a == r or not keep[a]:
                continue
            for b_idx in range(a, m):
                if b_idx == r or not keep[b_idx]:
                    continue
                lam = _two_row_combination(rows[a], rows[b_idx], target_row)
                if lam is None:
                    continue
                la, lb = lam
                if la * rows[a][1] + lb * rows[b_idx][1] <= target_b:
                    implied = True
                    break
            if implied:
                break
        if implied:
            keep[r] = False
    kept = [i for i in range(m) if keep[i]]
    rows_kept, rhs_kept = tuple(poly.rows[i] for i in kept), tuple(poly.rhs[i] for i in kept)
    return RationalPolyhedron(poly.num_vars, rows_kept, rhs_kept)


def _two_row_combination(row_a, row_b, target):
    """Nonnegative (la, lb) with la*a + lb*b == target, or None.

    Solves the first two independent coordinates and verifies the rest.
    """
    a, b = row_a[0], row_b[0]
    n = len(target)
    for i in range(n):
        for j in range(i + 1, n):
            det = a[i] * b[j] - a[j] * b[i]
            if det == 0:
                continue
            la = (target[i] * b[j] - target[j] * b[i]) / det
            lb = (a[i] * target[j] - a[j] * target[i]) / det
            if la < 0 or lb < 0:
                return None
            if all(la * a[k] + lb * b[k] == target[k] for k in range(n)):
                return la, lb
            return None
    # rows proportional: try single-row scaling of each
    for base in (a, b):
        nz = next((k for k in range(n) if base[k] != 0), None)
        if nz is None:
            continue
        lam = target[nz] / base[nz]
        if lam >= 0 and all(lam * base[k] == target[k] for k in range(n)):
            return (lam, Fraction(0)) if base is a else (Fraction(0), lam)
    return None


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
    rows = []
    zero_t = (Fraction(0),) * p
    for row, b in zip(base.rows, base.rhs):
        rows.append((row + zero_t, b))
    for k, arow in enumerate(a):
        t_pos = tuple(Fraction(1) if i == k else Fraction(0) for i in range(p))
        t_neg = tuple(-v for v in t_pos)
        # t_k - A[k,:] z <= 0 and A[k,:] z - t_k <= 0
        rows.append((tuple(-v for v in arow) + t_pos, Fraction(0)))
        rows.append((arow + t_neg, Fraction(0)))
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
