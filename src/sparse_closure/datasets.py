"""Pathological training sets: rational grids, hyperplane-free cubes, and
datasets labeled by an unattainable linear target.

Everything is exact rational.  The edge-intersection predicate and the free
hypercube search implement the counting argument that guarantees a cube
untouched by any of H hyperplanes once the grid resolution reaches 3*N*H.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .patterns import SupportPattern, pattern_to_json
from .rational import as_fraction, format_fraction, matvec


class FreeCubeNotFound(RuntimeError):
    """No hyperplane-free elementary cube exists at this resolution.

    Only possible below the guaranteed resolution 3*N*H; raised with the
    offending parameters so callers can re-run at a finer grid.
    """


class TooManyPoints(ValueError):
    """The requested grid would materialize more points than the cap allows."""


@dataclass(frozen=True)
class Grid:
    """The rational grid {0, 1/p, ..., 1}^dimension (implicit point set)."""

    resolution: int
    dimension: int

    def __post_init__(self):
        if self.resolution < 1 or self.dimension < 1:
            raise ValueError("resolution and dimension must be positive")

    @property
    def cardinality(self) -> int:
        return (self.resolution + 1) ** self.dimension

    def points(self):
        p = self.resolution
        for idx in iter_product(range(p + 1), repeat=self.dimension):
            yield tuple(Fraction(i, p) for i in idx)


@dataclass(frozen=True)
class Hyperplane:
    """{x : normal . x + offset == 0}; the normal must be nonzero."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ValueError("a hyperplane needs a nonzero normal")

    def evaluate(self, point) -> Fraction:
        return sum(w * as_fraction(x) for w, x in zip(self.normal, point)) + self.offset


def hyperplane(normal, offset) -> Hyperplane:
    return Hyperplane(
        normal=tuple(as_fraction(w) for w in normal), offset=as_fraction(offset)
    )


def edge_intersects(plane: Hyperplane, base, axis: int, resolution: int) -> bool:
    """Does the plane cross the grid edge from base to base + e_axis/p?

    True when the endpoint evaluations have opposite signs or exactly one of
    them is zero; an edge lying entirely inside the plane (both zero) does
    not count as intersecting.
    """
    n = len(plane.normal)
    if not (0 <= axis < n):
        raise ValueError(f"axis {axis} out of range for dimension {n}")
    v0 = plane.evaluate(base)
    v1 = v0 + plane.normal[axis] * Fraction(1, resolution)
    return v0 * v1 <= 0 and not (v0 == 0 and v1 == 0)


def cube_edges(base, resolution: int):
    """Yield (endpoint, axis) for all N * 2^(N-1) edges of the elementary cube
    with the given base corner (each edge runs from endpoint along axis)."""
    n = len(base)
    step = Fraction(1, resolution)
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        for bits in iter_product((0, 1), repeat=n - 1):
            vertex = list(base)
            for i, bit in zip(others, bits):
                vertex[i] += bit * step
            yield tuple(vertex), axis


def cube_is_free(planes, base, resolution: int) -> bool:
    """Exhaustive check: no edge of the cube at base intersects any plane."""
    for vertex, axis in cube_edges(base, resolution):
        for plane in planes:
            if edge_intersects(plane, vertex, axis, resolution):
                return False
    return True


def find_free_hypercube(planes, resolution: int, dimension: int):
    """First grid base (lexicographic scan) whose elementary cube no plane cuts.

    Guaranteed to exist when resolution >= 3 * dimension * len(planes); a
    FreeCubeNotFound below that threshold is a legitimate outcome, above it
    it would be a bug and raises RuntimeError instead.
    """
    if resolution < 1:
        raise ValueError("resolution must be positive")
    p = resolution
    for idx in iter_product(range(p), repeat=dimension):
        base = tuple(Fraction(i, p) for i in idx)
        if cube_is_free(planes, base, p):
            return base
    guaranteed = 3 * dimension * len(planes)
    if p >= guaranteed:
        raise RuntimeError(
            f"no free cube at resolution {p} >= 3*N*H = {guaranteed}: counting bound violated"
        )
    raise FreeCubeNotFound(
        f"no free cube at resolution {p} (< 3*N*H = {guaranteed}); increase the resolution"
    )


def theoretical_resolution(pattern: SupportPattern) -> int:
    """Grid resolution sufficient for the pathological construction:
    3 * N_0 * 4^(sum of hidden layer widths).  Exact big integer; it is
    astronomically large for realistic widths, which is why dataset builders
    accept an override."""
    hidden_sum = sum(pattern.dims[1:-1])
    return 3 * pattern.dims[0] * 4**hidden_sum


@dataclass(frozen=True)
class LabeledDataset:
    """Paired rational inputs and targets of equal length."""

    inputs: tuple[tuple[Fraction, ...], ...]
    targets: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets must have equal length")

    def __len__(self) -> int:
        return len(self.inputs)


def build_bad_dataset(
    a,
    pattern: SupportPattern,
    p_override: int | None = None,
    point_cap: int = 10_000_000,
) -> tuple[LabeledDataset, int]:
    """Grid inputs on [0,1]^{N_0} labeled by x -> Ax, plus the resolution used.

    With no override the theoretical resolution applies, which exceeds any
    practical cap almost immediately; training-scale sets pass p_override
    (small grids already exhibit the divergence phenomenon).
    """
    rows = tuple(tuple(as_fraction(x) for x in row) for row in _rows_of(a))
    if len(rows) != pattern.output_dim or any(
        len(r) != pattern.input_dim for r in rows
    ):
        raise ValueError(
            f"target matrix must be {pattern.output_dim} x {pattern.input_dim}"
        )
    p = theoretical_resolution(pattern) if p_override is None else p_override
    if p < 1:
        raise ValueError("resolution must be positive")
    count = (p + 1) ** pattern.input_dim
    if count > point_cap:
        hint = "" if p_override is not None else " (pass p_override for a usable grid)"
        raise TooManyPoints(f"grid would hold {count} points, cap is {point_cap}{hint}")
    grid = Grid(resolution=p, dimension=pattern.input_dim)
    inputs = tuple(grid.points())
    targets = tuple(matvec(rows, x) for x in inputs)
    return LabeledDataset(inputs=inputs, targets=targets), p


def _rows_of(a):
    try:
        return a.tolist()
    except AttributeError:
        return a


def write_dataset(
    dataset: LabeledDataset,
    csv_path,
    header_path,
    a,
    pattern: SupportPattern,
    resolution: int,
) -> None:
    """CSV with x columns then y columns (exact 'p/q' strings) plus a JSON
    header recording the target matrix, pattern and resolution."""
    n_in = len(dataset.inputs[0]) if dataset.inputs else 0
    n_out = len(dataset.targets[0]) if dataset.targets else 0
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(n_in)] + [f"y{i + 1}" for i in range(n_out)])
        for x, y in zip(dataset.inputs, dataset.targets):
            writer.writerow([format_fraction(v) for v in (*x, *y)])
    header = {
        "A": [[format_fraction(as_fraction(v)) for v in row] for row in _rows_of(a)],
        "pattern": pattern_to_json(pattern),
        "p": resolution,
        "num_points": len(dataset),
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=1)
        fh.write("\n")
