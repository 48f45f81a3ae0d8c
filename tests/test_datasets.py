import csv
import json
from fractions import Fraction

import numpy as np
import pytest

from sparse_closure import datasets
from sparse_closure.closure import closure_gap_witness_lu
from sparse_closure.datasets import (
    FreeCubeNotFound,
    Grid,
    TooManyPoints,
    build_bad_dataset,
    cube_edges,
    cube_is_free,
    edge_intersects,
    find_free_hypercube,
    hyperplane,
    theoretical_resolution,
    write_dataset,
)
from sparse_closure.patterns import SupportPattern, dense_pattern, lu_pattern


def random_plane(rng, dim):
    while True:
        normal = [Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(dim)]
        if any(c != 0 for c in normal):
            return hyperplane(normal, Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))))


class TestEdgeIntersects:
    def test_sign_change_across_half(self):
        plane = hyperplane([1], Fraction(-1, 2))
        assert edge_intersects(plane, (Fraction(1, 3),), 0, 3) is True

    def test_edge_inside_plane_does_not_count(self):
        # plane x2 = 0, edge along axis 1 at x2 = 0: both endpoints evaluate to 0
        plane = hyperplane([0, 1], 0)
        assert edge_intersects(plane, (Fraction(0), Fraction(0)), 0, 3) is False

    def test_strictly_one_side(self):
        plane = hyperplane([1], Fraction(-1, 2))
        assert edge_intersects(plane, (Fraction(0),), 0, 3) is False

    def test_touching_single_endpoint_counts(self):
        plane = hyperplane([1], Fraction(-1, 3))
        assert edge_intersects(plane, (Fraction(0),), 0, 3) is True

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError, match="axis"):
            edge_intersects(hyperplane([1], 0), (Fraction(0),), 1, 3)


class TestFreeHypercube:
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

    def test_counting_bound_violation_raises(self, monkeypatch):
        # at the guaranteed resolution a free cube must exist; a missing one is
        # a defect, reported by an exception that python -O does not strip
        monkeypatch.setattr(datasets, "cube_is_free", lambda planes, base, p: False)
        plane = hyperplane([1], Fraction(-1, 2))
        with pytest.raises(RuntimeError, match="counting bound violated"):
            find_free_hypercube([plane], 3, 1)

    def test_edge_count_per_cube(self):
        base = (Fraction(0), Fraction(0), Fraction(0))
        assert sum(1 for _ in cube_edges(base, 2)) == 3 * 2**2

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
                        if edge_intersects(plane, tuple(point), axis, p):
                            count += 1
                    assert count <= 2


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


class TestBuildBadDataset:
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
        with pytest.raises(TooManyPoints):
            build_bad_dataset(
                closure_gap_witness_lu(2), lu_pattern(2), p_override=10, point_cap=100
            )

    def test_targets_exact_rational(self):
        pattern = SupportPattern(
            dims=(2, 1, 1), masks=(frozenset({(0, 0), (0, 1)}), frozenset({(0, 0)}))
        )
        a = ((Fraction(1, 3), Fraction(2, 7)),)
        dataset, _ = build_bad_dataset(a, pattern, p_override=3)
        for x, y in zip(dataset.inputs, dataset.targets):
            assert y[0] == Fraction(1, 3) * x[0] + Fraction(2, 7) * x[1]


class TestSerialization:
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
        assert header["pattern"]["dims"] == [2, 2, 2]
