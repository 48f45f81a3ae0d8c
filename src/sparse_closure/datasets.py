"""Pathological training sets: rational grids, hyperplane-free cubes, and
datasets labeled by an unattainable linear target.

Everything is exact rational.  The edge-intersection predicate and the free
hypercube search implement the counting argument that guarantees a cube
untouched by any of H hyperplanes once the grid resolution reaches 3*N*H.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from itertools import product as iter_product
from math import lcm
from operator import itemgetter

from .patterns import SupportPattern, _integer, pattern_to_json
from .rational import as_fraction, format_fraction, format_matrix, matrix, row_lengths, vector


class FreeCubeNotFound(RuntimeError):
    """No hyperplane-free elementary cube exists at this resolution.

    Only possible below the guaranteed resolution 3*N*H; raised with the
    offending parameters so callers can re-run at a finer grid.
    """


# a refused grid's point count is printed only up to this many bits (about
# 3,900 digits, inside the interpreter's 4,300-digit limit for str(int))
PRINTED_COUNT_BITS = 13_000


# most grid points a dataset may hold unless the caller raises the cap
DEFAULT_POINT_CAP = 10_000_000


# rows write_dataset transposes and writes at a time
WRITE_CHUNK_ROWS = 4096


class TooManyPoints(ValueError):
    """The requested grid would materialize more points than the cap allows."""


@dataclass(frozen=True)
class Grid:
    """The rational grid {0, 1/p, ..., 1}^dimension (implicit point set)."""

    resolution: int
    dimension: int

    def __post_init__(self):
        if _integer(self.resolution, "resolution") < 1 or _integer(self.dimension, "dimension") < 1:
            raise ValueError("resolution and dimension must be positive")

    @property
    def cardinality(self) -> int:
        return (self.resolution + 1) ** self.dimension

    def points(self):
        """Every point in lexicographic order, the last coordinate fastest;
        the coordinates are drawn from one table of p + 1 shared Fraction(i, p)."""
        p = self.resolution
        return iter_product([Fraction(i, p) for i in range(p + 1)], repeat=self.dimension)


@dataclass(frozen=True)
class Hyperplane:
    """{x : normal . x + offset == 0}; the normal must be nonzero."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ValueError("a hyperplane needs a nonzero normal")

    def evaluate(self, point) -> Fraction:
        if len(point) != len(self.normal):
            raise ValueError(f"point has {len(point)} coordinates, the normal has {len(self.normal)}")
        return sum(w * as_fraction(x) for w, x in zip(self.normal, point)) + self.offset


def hyperplane(normal, offset) -> Hyperplane:
    return Hyperplane(normal=vector(normal), offset=as_fraction(offset))


def cube_is_free(planes, base, resolution: int) -> bool:
    """No plane cuts the cube base + [0, 1/p]^N, meeting it without
    containing it.  On the cube, p times a plane's value spans p f(base) +
    [sum of its negative, sum of its positive normal entries]; the cube is
    free iff each such range lies strictly on one side of 0 (a nonzero
    normal makes it no single value), which is the answer an edge-by-edge
    walk gives."""
    if resolution < 1:
        raise ValueError("resolution must be positive")
    for plane in planes:
        scaled = plane.evaluate(base) * resolution
        low = scaled + sum(min(c, 0) for c in plane.normal)
        high = scaled + sum(max(c, 0) for c in plane.normal)
        if low <= 0 <= high and low != high:
            return False
    return True


def find_free_hypercube(planes, resolution: int, dimension: int):
    """First grid base (lexicographic scan) whose elementary cube no plane cuts.

    Guaranteed to exist when resolution >= 3 * dimension * len(planes); a
    FreeCubeNotFound below that threshold is a legitimate outcome, above it
    it would be a bug and raises RuntimeError instead.
    """
    if _integer(resolution, "resolution") < 1:
        raise ValueError("resolution must be positive")
    if _integer(dimension, "dimension") < 1:
        raise ValueError("dimension must be positive")
    if any(len(plane.normal) != dimension for plane in planes):
        raise ValueError(f"every plane's normal must have length {dimension}")
    p = resolution
    for base in iter_product([Fraction(i, p) for i in range(p)], repeat=dimension):
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


def dataset_resolution(lengths, pattern: SupportPattern, p_override: int | None, point_cap: int) -> int:
    """The grid resolution of build_bad_dataset for a target whose rows have
    the given lengths.  A wrong shape or a grid above point_cap is refused
    before the grid is built or the target converted."""
    if len(lengths) != pattern.output_dim or any(n != pattern.input_dim for n in lengths):
        raise ValueError(
            f"target matrix must be {pattern.output_dim} x {pattern.input_dim}"
        )
    if p_override is None:
        hint = " (pass p_override for a usable grid)"
        # the resolution 3 N_0 4^H exceeds 4^H = 2^(2H): once that passes the
        # cap, refuse before building a 2H-bit integer
        hidden = sum(pattern.dims[1:-1])
        if 2 * hidden >= point_cap.bit_length():
            raise TooManyPoints(
                f"grid at resolution 3*N0*4^{hidden} would hold more than {point_cap} points{hint}"
            )
        p = theoretical_resolution(pattern)
    else:
        hint, p = "", _integer(p_override, "p_override")
    if p < 1:
        raise ValueError("resolution must be positive")
    grid = Grid(resolution=p, dimension=pattern.input_dim)
    # (p+1)^N0 has between N0 * (bits - 1) and N0 * bits bits: a count too
    # long to print is compared with the cap by bit lengths, unbuilt
    n0, bits = grid.dimension, (p + 1).bit_length()
    if n0 * bits > PRINTED_COUNT_BITS and n0 * (bits - 1) >= point_cap.bit_length():
        raise TooManyPoints(f"grid would hold more than {point_cap} points{hint}")
    if grid.cardinality > point_cap:
        raise TooManyPoints(f"grid would hold {grid.cardinality} points, cap is {point_cap}{hint}")
    return p


def build_bad_dataset(
    a,
    pattern: SupportPattern,
    p_override: int | None = None,
    point_cap: int = DEFAULT_POINT_CAP,
) -> tuple[LabeledDataset, int]:
    """Grid inputs on [0,1]^{N_0} labeled by x -> Ax, plus the resolution used.

    With no override the theoretical resolution applies, which exceeds any
    practical cap almost immediately; training-scale sets pass p_override
    (small grids already exhibit the divergence phenomenon).
    """
    p = dataset_resolution(row_lengths(a), pattern, p_override, point_cap)
    grid = Grid(resolution=p, dimension=pattern.input_dim)
    # row r is nums / den in integers over its common denominator, so its label
    # at idx / p is Fraction(nums . idx, den * p).  In grid order the label
    # column is one run over the last coordinate for each point of the others,
    # and points whose other coordinates give the same partial dot product
    # share a run; one cache per row (a dict keyed by the numerator) builds
    # each distinct label once and shares it
    steps = range(p + 1)
    columns = []
    for row in matrix(a):
        den = lcm(*(x.denominator for x in row))
        *head, tail = [x.numerator * (den // x.denominator) for x in row]
        prefix = [0]
        for c in head:
            prefix = [s + c * i for s in prefix for i in steps]
        label = cache(partial(Fraction, denominator=den * p))
        offsets = [tail * i for i in steps]
        runs = {s: tuple(map(label, map(s.__add__, offsets))) for s in set(prefix)}
        columns.append(chain.from_iterable(map(runs.__getitem__, prefix)))
    return LabeledDataset(inputs=tuple(grid.points()), targets=tuple(zip(*columns))), p


def write_dataset(
    dataset: LabeledDataset,
    csv_path,
    header_path,
    a,
    pattern: SupportPattern,
    resolution: int,
) -> None:
    """CSV with x columns then y columns (exact 'p/q' strings) plus a JSON
    header recording the target matrix, pattern and resolution.  Each value
    object is formatted once: the grid table and the label caches share
    them.  The rows are written WRITE_CHUNK_ROWS at a time, each chunk
    transposed into columns, so a value's text is found by its id with no
    Python call per entry.  Joining with ',' and CRLF gives csv.writer's
    bytes, since no 'p/q' field holds a comma, a quote or a line break."""
    n_in = len(dataset.inputs[0]) if dataset.inputs else 0
    n_out = len(dataset.targets[0]) if dataset.targets else 0
    # the text of every value object met so far, keyed by id; the objects are
    # held too, so no id is reused during the write
    held: dict[int, Fraction] = {}
    texts: dict[int, str] = {}

    def column_texts(column):
        ids = [*map(id, column)]
        distinct = dict(zip(ids, column))
        held.update(distinct)
        new = set(distinct).difference(texts)
        texts.update(zip(new, map(format_fraction, map(distinct.__getitem__, new))))
        return map(texts.__getitem__, ids)

    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(n_in)] + [f"y{i + 1}" for i in range(n_out)]) + "\r\n")
        for start in range(0, len(dataset), WRITE_CHUNK_ROWS):
            xs = dataset.inputs[start : start + WRITE_CHUNK_ROWS]
            ys = dataset.targets[start : start + WRITE_CHUNK_ROWS]
            columns = [[*map(itemgetter(i), xs)] for i in range(n_in)]
            columns += [[*map(itemgetter(i), ys)] for i in range(n_out)]
            fh.write("\r\n".join(map(",".join, zip(*map(column_texts, columns)))))
            fh.write("\r\n")
    header = {
        "A": format_matrix(matrix(a)),
        "pattern": pattern_to_json(pattern),
        "p": resolution,
        "num_points": len(dataset),
    }
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=1)
        fh.write("\n")
