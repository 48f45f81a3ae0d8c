import csv
import json
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import product as iter_product
from math import lcm
from operator import mul

import edge_walk
import numpy as np
import pytest

from sparse_closure import datasets
from sparse_closure.closure import closure_gap_witness_lu
from sparse_closure.datasets import (
    DEFAULT_POINT_CAP,
    FreeCubeNotFound,
    Grid,
    LabeledDataset,
    TooManyPoints,
    build_bad_dataset,
    cube_is_free,
    dataset_resolution,
    find_free_hypercube,
    hyperplane,
    theoretical_resolution,
    write_dataset,
)
from sparse_closure.patterns import SupportPattern, dense_pattern, lu_pattern, pattern_to_json
from sparse_closure.rational import format_fraction, format_matrix, matrix, row_lengths


def random_plane(rng, dim):
    while True:
        normal = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(dim)]
        if any(c != 0 for c in normal):
            return hyperplane(normal, Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))))


def reference_dataset(a, pattern, p_override):
    """Reference labelling in Fraction arithmetic: each grid point built from
    fresh Fraction(i, p) coordinates and labelled by the matrix-vector product
    of the converted target, one Fraction multiply and add per entry."""
    p = dataset_resolution(row_lengths(a), pattern, p_override, DEFAULT_POINT_CAP)
    rows = matrix(a)
    inputs = tuple(
        tuple(Fraction(i, p) for i in idx)
        for idx in iter_product(range(p + 1), repeat=pattern.input_dim)
    )
    targets = tuple(tuple(sum(x * y for x, y in zip(row, v)) for row in rows) for v in inputs)
    return LabeledDataset(inputs=inputs, targets=targets), p


def reference_build(a, pattern, p_override):
    """build_bad_dataset one Python pass per grid point: the point drawn from a
    table of shared Fraction(i, p), and each label the integer dot product of
    its row's numerators with the point's indices, looked up in one cache per
    row."""
    p = dataset_resolution(row_lengths(a), pattern, p_override, DEFAULT_POINT_CAP)
    table = tuple(Fraction(i, p) for i in range(p + 1))
    labels = []
    for row in matrix(a):
        den = lcm(*(x.denominator for x in row))
        nums = [x.numerator * (den // x.denominator) for x in row]
        labels.append((nums, cache(partial(Fraction, denominator=den * p))))
    inputs, targets = [], []
    for idx in iter_product(range(p + 1), repeat=pattern.input_dim):
        inputs.append(tuple(map(table.__getitem__, idx)))
        targets.append(tuple([label(sum(map(mul, nums, idx))) for nums, label in labels]))
    return LabeledDataset(inputs=tuple(inputs), targets=tuple(targets)), p


def reference_write(dataset, csv_path, header_path, a, pattern, resolution):
    """write_dataset through csv.writer, one row and one memo call per value."""
    n_in = len(dataset.inputs[0]) if dataset.inputs else 0
    n_out = len(dataset.targets[0]) if dataset.targets else 0
    memo = {}

    def text(v):
        if (hit := memo.get(id(v))) is None:
            hit = memo[id(v)] = v, format_fraction(v)
        return hit[1]

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(n_in)] + [f"y{i + 1}" for i in range(n_out)])
        writer.writerows([*map(text, x), *map(text, y)] for x, y in zip(dataset.inputs, dataset.targets))
    header = {"A": format_matrix(matrix(a)), "pattern": pattern_to_json(pattern), "p": resolution,
              "num_points": len(dataset)}
    with open(header_path, "w") as fh:
        json.dump(header, fh, indent=1)
        fh.write("\n")


def written(write, dataset, directory, a, pattern, p):
    """The CSV and header bytes that write puts in directory."""
    directory.mkdir(exist_ok=True)
    csv_path, header_path = directory / "d.csv", directory / "d.json"
    write(dataset, csv_path, header_path, a, pattern, p)
    return csv_path.read_bytes(), header_path.read_bytes()


def python_calls(fn, *args):
    """fn(*args) and the number of Python-level calls it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, calls


def random_entry(rng):
    """An integer, a fraction with a small denominator, a 'p/q' string or an
    exact float, negative about half the time."""
    sign = int(rng.choice((-1, 1)))
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return sign * int(rng.integers(0, 6))
    if kind == 1:
        return Fraction(sign * int(rng.integers(0, 13)), int(rng.integers(1, 13)))
    if kind == 2:
        return f"{sign * int(rng.integers(0, 13))}/{int(rng.integers(1, 13))}"
    return sign * float(rng.choice((0.1, 0.25, 0.3, 1.5, 1e-3, 7.0)))


def random_target(rng, n_out, n_in):
    """A random n_out x n_in target; about one in five is an integer numpy
    array, and about one row in five of the others is all zeros."""
    if rng.random() < 0.2:
        return rng.integers(-4, 5, size=(n_out, n_in))
    return [
        [0] * n_in if rng.random() < 0.2 else [random_entry(rng) for _ in range(n_in)]
        for _ in range(n_out)
    ]


class TestEdgeIsCut:
    """The edge predicate of the edge-walk reference, on hand cases."""

    def test_sign_change_across_half(self):
        plane = hyperplane([1], Fraction(-1, 2))
        assert edge_walk.edge_is_cut(plane, (Fraction(1, 3),), 0, 3) is True

    def test_edge_inside_plane_does_not_count(self):
        # plane x2 = 0, edge along axis 1 at x2 = 0: both endpoints evaluate to 0
        plane = hyperplane([0, 1], 0)
        assert edge_walk.edge_is_cut(plane, (Fraction(0), Fraction(0)), 0, 3) is False

    def test_strictly_one_side(self):
        plane = hyperplane([1], Fraction(-1, 2))
        assert edge_walk.edge_is_cut(plane, (Fraction(0),), 0, 3) is False

    def test_touching_single_endpoint_counts(self):
        plane = hyperplane([1], Fraction(-1, 3))
        assert edge_walk.edge_is_cut(plane, (Fraction(0),), 0, 3) is True


class TestFreeHypercube:
    def test_point_of_another_dimension_refused(self):
        # zip would evaluate x1 + x2 - 3/2 on the prefix (1,), giving -1/2
        plane = hyperplane([1, 1], Fraction(-3, 2))
        with pytest.raises(ValueError, match="point has 1 coordinates, the normal has 2"):
            plane.evaluate((Fraction(1),))
        with pytest.raises(ValueError, match="point has 1 coordinates, the normal has 2"):
            cube_is_free([plane], (Fraction(0),), 3)
        assert plane.evaluate((Fraction(1), Fraction(1, 2))) == 0

    def test_one_dimensional_first_free_base(self):
        # plane at 1/2 cuts only the middle cell of [0,1] at resolution 3:
        # first free base in lexicographic order is 0
        plane = hyperplane([1], Fraction(-1, 2))
        base = find_free_hypercube([plane], 3, 1)
        assert base == (Fraction(0),)
        assert cube_is_free([plane], base, 3)

    def test_no_planes_returns_origin(self):
        assert find_free_hypercube([], 4, 2) == (Fraction(0), Fraction(0))

    def test_random_instances_verify_exhaustively(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            planes = [random_plane(rng, dim) for _ in range(int(rng.integers(1, 5)))]
            resolution = 3 * dim * len(planes)
            base = find_free_hypercube(planes, resolution, dim)
            assert cube_is_free(planes, base, resolution)

    def test_not_found_only_below_guarantee(self):
        # resolution 1 < 3*1*1: the single cell [0,1] is cut by x = 1/2
        plane = hyperplane([1], Fraction(-1, 2))
        with pytest.raises(FreeCubeNotFound):
            find_free_hypercube([plane], 1, 1)

    def test_dimension_below_one_refused(self):
        # as Grid refuses it; the scan over range(p)^0 would return the empty base
        plane = hyperplane([1, 1], Fraction(-3, 2))
        for dimension in (0, -1):
            with pytest.raises(ValueError, match="dimension must be positive"):
                find_free_hypercube([plane], 4, dimension)
            with pytest.raises(ValueError, match="dimension must be positive"):
                Grid(resolution=4, dimension=dimension)

    def test_planes_of_another_dimension_refused(self):
        planes = [hyperplane([1], Fraction(-1, 2)), hyperplane([1, 1], Fraction(-3, 2))]
        with pytest.raises(ValueError, match="normal must have length 1"):
            find_free_hypercube(planes, 6, 1)
        with pytest.raises(ValueError, match="normal must have length 3"):
            find_free_hypercube(planes[1:], 9, 3)

    def test_counting_bound_violation_raises(self, monkeypatch):
        # at the guaranteed resolution a free cube must exist; a missing one is
        # a defect, reported by an exception that python -O does not strip
        monkeypatch.setattr(datasets, "cube_is_free", lambda planes, base, p: False)
        plane = hyperplane([1], Fraction(-1, 2))
        with pytest.raises(RuntimeError, match="counting bound violated"):
            find_free_hypercube([plane], 3, 1)

    def test_edge_count_per_cube(self):
        base = (Fraction(0), Fraction(0), Fraction(0))
        assert sum(1 for _ in edge_walk.cube_edges(base, 2)) == 3 * 2**2

    def test_at_most_two_intersecting_edges_per_grid_line(self):
        # counting bound behind the resolution guarantee
        rng = np.random.default_rng(21)
        for _ in range(20):
            dim = 2
            p = int(rng.integers(3, 9))
            plane = random_plane(rng, dim)
            for axis in range(dim):
                other = 1 - axis
                for fixed in range(p + 1):
                    count = 0
                    for i in range(p):
                        point = [None, None]
                        point[axis] = Fraction(i, p)
                        point[other] = Fraction(fixed, p)
                        if edge_walk.edge_is_cut(plane, tuple(point), axis, p):
                            count += 1
                    assert count <= 2


def grid_plane(rng, dim, p):
    """A plane with a small integer normal through a point of the half-step
    grid {0, 1/2p, ..., 1}^dim, so that it passes through cube vertices,
    edge midpoints and face centres, and (axis-aligned) contains faces."""
    while True:
        normal = [int(c) for c in rng.integers(-2, 3, size=dim)]
        if any(normal):
            break
    point = [Fraction(int(k), 2 * p) for k in rng.integers(0, 2 * p + 1, size=dim)]
    return hyperplane(normal, -sum(c * x for c, x in zip(normal, point)))


def grid_instance(rng):
    dim, p = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    return [grid_plane(rng, dim, p) for _ in range(int(rng.integers(1, 4)))], p, dim


class TestRangeTestMatchesEdgeWalk:
    """cube_is_free asks once per plane whether its range over the cube's
    vertices holds 0; the edge walk of edge_walk.py asks every edge.  They
    agree:
    - the cube's edge graph is connected;
    - a nonzero normal cannot vanish on every vertex;
    - so, unless all vertices share one strict sign, some edge either
      changes sign or joins a zero vertex to a nonzero one.
    """

    def test_cube_verdicts_match_on_a_seeded_panel(self):
        rng = np.random.default_rng(22)
        cut = 0
        for _ in range(10_000):
            planes, p, dim = grid_instance(rng)
            base = tuple(Fraction(int(i), p) for i in rng.integers(0, p, size=dim))
            free = edge_walk.cube_is_free(planes, base, p)
            assert cube_is_free(planes, base, p) is free, (planes, base, p)
            cut += not free
        # both verdicts are well represented, so the panel is not vacuous
        assert 2_000 < cut < 8_000

    def test_search_returns_the_reference_scan_base(self):
        rng = np.random.default_rng(23)
        found = 0
        for _ in range(1_000):
            planes, p, dim = grid_instance(rng)
            expected = edge_walk.first_free_base(planes, p, dim)
            if expected is None:
                with pytest.raises(FreeCubeNotFound):
                    find_free_hypercube(planes, p, dim)
            else:
                assert find_free_hypercube(planes, p, dim) == expected, (planes, p, dim)
                found += 1
        assert 200 < found < 900

    def test_resolution_below_one_refused(self):
        # at -3 the cube on the other side of base would be tested: the plane
        # x = 1/2 misses [0, 1/3] but cuts [1/3, 2/3], the cube at base 1/3
        plane = hyperplane([1], Fraction(-1, 2))
        base = (Fraction(1, 3),)
        assert not cube_is_free([plane], base, 3)
        for resolution in (0, -3):
            with pytest.raises(ValueError, match="resolution must be positive"):
                cube_is_free([plane], base, resolution)


class TestTheoreticalResolution:
    def test_single_hidden_unit(self):
        pattern = dense_pattern((1, 1, 1))
        assert theoretical_resolution(pattern) == 12  # 3 * 1 * 4^1

    def test_two_by_two(self):
        pattern = dense_pattern((2, 2, 2))
        assert theoretical_resolution(pattern) == 96  # 3 * 2 * 4^2

    def test_scaling_in_hidden_width(self):
        narrow = theoretical_resolution(dense_pattern((1, 1, 1)))
        wide = theoretical_resolution(dense_pattern((1, 2, 1)))
        assert wide == 4 * narrow

    def test_deep_pattern_sums_hidden_layers(self):
        pattern = dense_pattern((2, 3, 4, 1))
        assert theoretical_resolution(pattern) == 3 * 2 * 4**7


class TestGrid:
    def test_cardinality_matches_enumeration(self):
        for p, n in [(1, 1), (2, 2), (3, 2), (2, 3)]:
            grid = Grid(resolution=p, dimension=n)
            points = list(grid.points())
            assert len(points) == grid.cardinality == (p + 1) ** n
            assert len(set(points)) == len(points)

    @pytest.mark.parametrize("name, resolution, dimension", [
        ("resolution", 2.5, 2), ("resolution", True, 2), ("dimension", 2, 2.5), ("dimension", 2, True),
    ])
    def test_a_size_that_is_not_an_integer_is_refused_by_name(self, name, resolution, dimension):
        # unchecked, Grid(2.5, 2) had cardinality 12.25 and the scan raised TypeError
        plane = hyperplane([1, 1], Fraction(-3, 2))
        with pytest.raises(ValueError, match=f"^{name} .* is not an integer$"):
            Grid(resolution=resolution, dimension=dimension)
        with pytest.raises(ValueError, match=f"^{name} .* is not an integer$"):
            find_free_hypercube([plane], resolution, dimension)


class TestBuildBadDataset:
    @pytest.mark.parametrize("p", [2.5, True, float("nan")])
    def test_a_resolution_that_is_not_an_integer_is_refused(self, p):
        # unchecked, 2.5 raised AttributeError on bit_length and True built the p = 1 grid
        with pytest.raises(ValueError, match="^p_override .* is not an integer$"):
            build_bad_dataset(closure_gap_witness_lu(2), lu_pattern(2), p_override=p)

    def test_a_numpy_integer_resolution_is_read_as_an_int(self):
        witness = closure_gap_witness_lu(2)
        got = build_bad_dataset(witness, lu_pattern(2), p_override=np.int64(3))
        assert got == build_bad_dataset(witness, lu_pattern(2), p_override=3)
        assert type(got[1]) is int

    def test_lu_d2_small_grid(self):
        pattern = lu_pattern(2)
        witness = closure_gap_witness_lu(2)
        dataset, p = build_bad_dataset(witness, pattern, p_override=4)
        assert p == 4
        assert len(dataset) == 25
        for x, y in zip(dataset.inputs, dataset.targets):
            assert y == (x[1], x[0])  # anti-diagonal flip, exact

    def test_zero_target_matrix(self):
        pattern = lu_pattern(2)
        zero = ((0, 0), (0, 0))
        dataset, _ = build_bad_dataset(zero, pattern, p_override=2)
        assert all(y == (Fraction(0), Fraction(0)) for y in dataset.targets)

    def test_theoretical_resolution_when_small_enough(self):
        pattern = dense_pattern((1, 1, 1))
        dataset, p = build_bad_dataset(((1,),), pattern)
        assert p == 12 and len(dataset) == 13

    def test_lu_d2_theoretical_grid_fits_under_cap(self):
        # (3*2*16 + 1)^2 = 9409 points: the full construction is materializable
        dataset, p = build_bad_dataset(closure_gap_witness_lu(2), lu_pattern(2))
        assert p == 96 and len(dataset) == 97**2

    def test_point_cap_without_override(self):
        with pytest.raises(TooManyPoints, match="p_override"):
            build_bad_dataset(closure_gap_witness_lu(4), lu_pattern(4))

    def test_point_cap_with_override(self):
        with pytest.raises(TooManyPoints, match="grid would hold 121 points, cap is 100"):
            build_bad_dataset(
                closure_gap_witness_lu(2), lu_pattern(2), p_override=10, point_cap=100
            )

    def test_wide_grid_refused_before_the_count_is_built(self, monkeypatch):
        # 2^(10^6) points: 301,030 digits, too long for str()
        monkeypatch.setattr(Grid, "cardinality", property(lambda grid: pytest.fail("the count was built")))
        monkeypatch.setattr(datasets, "matrix", lambda a: pytest.fail("the target was converted"))
        pattern = SupportPattern(dims=(10**6, 1, 1), masks=(frozenset(), frozenset()))
        with pytest.raises(TooManyPoints, match="grid would hold more than 10000000 points"):
            build_bad_dataset(np.zeros((1, 10**6), dtype=int), pattern, p_override=1)

    def test_integer_numpy_target(self):
        expected, _ = build_bad_dataset(((0, 1), (1, 0)), lu_pattern(2), p_override=2)
        for a in (np.array([[0, 1], [1, 0]]), [np.array([0, 1]), np.array([1, 0])]):
            assert build_bad_dataset(a, lu_pattern(2), p_override=2)[0] == expected

    def test_wide_pattern_refused_before_the_resolution_is_built(self, monkeypatch):
        # 3*N0*4^H with H = 1e9 would be a 2e9-bit integer
        def no_resolution(pattern):
            pytest.fail("the theoretical resolution was built")

        monkeypatch.setattr(datasets, "theoretical_resolution", no_resolution)
        pattern = SupportPattern(dims=(2, 10**9, 2), masks=(frozenset(), frozenset()))
        with pytest.raises(TooManyPoints, match=r"4\^1000000000 would hold more than 100 points"):
            build_bad_dataset(((0, 1), (1, 0)), pattern, point_cap=100)

    def test_matches_the_fraction_reference_byte_for_byte(self, tmp_path):
        rng = np.random.default_rng(41)
        shapes = [(1, 1), (1, 3), (3, 1), (2, 2), (3, 2), (2, 1)]
        for case in range(200):
            n_out, n_in = shapes[case % len(shapes)]
            pattern = dense_pattern((n_in, 1, n_out))
            a = random_target(rng, n_out, n_in)
            p = int(rng.choice((1, 2, 3, 7)))
            expected = reference_dataset(a, pattern, p)
            got = build_bad_dataset(a, pattern, p_override=p)
            assert got == expected
            files = []
            for k, (dataset, q) in enumerate((expected, got)):
                csv_path, header_path = tmp_path / f"{k}.csv", tmp_path / f"{k}.json"
                write_dataset(dataset, csv_path, header_path, a, pattern, q)
                files.append((csv_path.read_bytes(), header_path.read_bytes()))
            assert files[0] == files[1]

    # negative, fractional and mixed-denominator rows, one to three inputs
    FIXED_TARGETS = [
        [[Fraction(-3, 4)]],
        [["-1/3", "5/7", -2]],
        [[Fraction(1, 6), "-3/10"], [Fraction(-5, 9), 0]],
        [[-1, 2, 0], ["7/12", "-1/8", "1/3"], [0, 0, "-2/5"]],
    ]

    @pytest.mark.parametrize("chunk", [1, 5, datasets.WRITE_CHUNK_ROWS])
    def test_column_passes_match_the_per_point_reference(self, tmp_path, monkeypatch, chunk):
        # the build and the writer against their per-point forms, with write
        # chunks small enough that most datasets span several
        monkeypatch.setattr(datasets, "WRITE_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(43)
        targets = self.FIXED_TARGETS + [
            random_target(rng, int(rng.integers(1, 4)), 1 + case % 3) for case in range(30)
        ]
        for case, a in enumerate(targets):
            n_out, n_in = len(a), len(a[0])
            pattern = dense_pattern((n_in, 1, n_out))
            p = int(rng.choice((1, 2, 3, 6)))
            expected = reference_build(a, pattern, p)
            got = build_bad_dataset(a, pattern, p_override=p)
            assert got == expected, case
            # the reference labelling's values are unshared objects
            for dataset, q in (got, reference_dataset(a, pattern, p)):
                new = written(write_dataset, dataset, tmp_path / "new", a, pattern, q)
                assert new == written(reference_write, dataset, tmp_path / "ref", a, pattern, q), case

    def test_build_and_write_make_no_python_call_per_point(self, tmp_path):
        # lu(2) at p = 96, 9,409 points: the per-point forms make 19,284
        # (build) and 48,614 (write) Python-level calls
        pattern, witness = lu_pattern(2), closure_gap_witness_lu(2)
        (dataset, p), calls = python_calls(build_bad_dataset, witness, pattern)
        assert p == 96 and calls < 1_000
        assert (dataset, p) == reference_build(witness, pattern, None)
        csv_path, header_path = tmp_path / "d.csv", tmp_path / "d.json"
        _, calls = python_calls(write_dataset, dataset, csv_path, header_path, witness, pattern, p)
        assert calls < 3_000
        assert (csv_path.read_bytes(), header_path.read_bytes()) == written(
            reference_write, dataset, tmp_path / "ref", witness, pattern, p
        )

    def test_labels_use_no_per_entry_fraction_arithmetic(self, monkeypatch):
        # each label is one integer dot product over its row's common
        # denominator: no Fraction multiply or add per entry and point
        a = closure_gap_witness_lu(2)

        def no_arithmetic(self, other):
            pytest.fail("a label was built from Fraction arithmetic")

        monkeypatch.setattr(Fraction, "__mul__", no_arithmetic)
        monkeypatch.setattr(Fraction, "__add__", no_arithmetic)
        dataset, p = build_bad_dataset(a, lu_pattern(2))
        monkeypatch.undo()
        assert p == 96 and dataset.targets[1] == (Fraction(1, 96), Fraction(0))

    def test_targets_exact_rational(self):
        pattern = SupportPattern(
            dims=(2, 1, 1), masks=(frozenset({(0, 0), (0, 1)}), frozenset({(0, 0)}))
        )
        a = ((Fraction(1, 3), Fraction(2, 7)),)
        dataset, _ = build_bad_dataset(a, pattern, p_override=3)
        for x, y in zip(dataset.inputs, dataset.targets):
            assert y[0] == Fraction(1, 3) * x[0] + Fraction(2, 7) * x[1]


class TestSerialization:
    def test_each_shared_value_is_formatted_once(self, tmp_path, monkeypatch):
        # lu(2) at p = 96: 97 shared coordinates and 97 shared labels per
        # output, against 4 * 97^2 = 37,636 entries in the CSV
        pattern, witness = lu_pattern(2), closure_gap_witness_lu(2)
        dataset, p = build_bad_dataset(witness, pattern)
        csv_path, header_path = tmp_path / "d.csv", tmp_path / "d.json"
        write_dataset(dataset, csv_path, header_path, witness, pattern, p)
        expected = csv_path.read_bytes()
        calls = []
        format_fraction = datasets.format_fraction

        def counted(v):
            calls.append(v)
            return format_fraction(v)

        monkeypatch.setattr(datasets, "format_fraction", counted)
        write_dataset(dataset, csv_path, header_path, witness, pattern, p)
        assert p == 96 and len(calls) <= 3 * 97
        assert csv_path.read_bytes() == expected

    def test_csv_and_header(self, tmp_path):
        pattern = lu_pattern(2)
        witness = closure_gap_witness_lu(2)
        dataset, p = build_bad_dataset(witness, pattern, p_override=2)
        csv_path = tmp_path / "data.csv"
        header_path = tmp_path / "data.json"
        write_dataset(dataset, csv_path, header_path, witness, pattern, p)
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x1", "x2", "y1", "y2"]
        assert len(rows) == 1 + 9
        header = json.loads(header_path.read_text())
        assert header["p"] == 2
        assert header["A"] == [["0", "1"], ["1", "0"]]
        write_dataset(dataset, csv_path, header_path, np.array([[0, 1], [1, 0]]), pattern, p)
        assert json.loads(header_path.read_text())["A"] == [["0", "1"], ["1", "0"]]
        assert header["pattern"]["dims"] == [2, 2, 2]
