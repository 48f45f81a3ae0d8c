import numpy as np
import pytest
from check_report import report_to_json

from sparse_closure.closure import (
    Closedness,
    ClosednessVerdict,
    check_theorem5_conditions,
    closedness_verdict,
    lu_membership,
    scalar_output_projection_distance,
)
from sparse_closure.patterns import (
    SupportPattern,
    dense_pattern,
    lu_pattern,
    validate_pattern,
)


def random_mask(rng, n_rows, n_cols, density=0.5):
    return frozenset(
        (r, c) for r in range(n_rows) for c in range(n_cols) if rng.random() < density
    )


class TestClosednessVerdict:
    def test_lu_d2_not_closed_with_antidiagonal_witness(self):
        v = closedness_verdict(lu_pattern(2))
        assert v.status is Closedness.NOT_CLOSED
        assert v.witness == ((0, 1), (1, 0))
        assert lu_membership(v.witness) is False

    def test_scalar_output_closed_for_arbitrary_masks(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pattern = SupportPattern(
                dims=(10, 5, 1),
                masks=(random_mask(rng, 5, 10), random_mask(rng, 1, 5)),
            )
            v = closedness_verdict(pattern)
            assert v.status is Closedness.CLOSED
            assert v.rule == "scalar-output-row-support"

    def test_dense_shallow_closed_by_rank_rule(self):
        v = closedness_verdict(dense_pattern((5, 4, 3)))
        assert v.status is Closedness.CLOSED
        assert v.rule == "dense-bounded-rank"

    def test_single_layer_closed(self):
        pattern = validate_pattern({"dims": [3, 2], "masks": [[[1, 1], [2, 3]]]})
        v = closedness_verdict(pattern)
        assert v.status is Closedness.CLOSED
        assert v.rule == "single-layer-coordinate-subspace"

    def test_depth_three_unknown(self):
        v = closedness_verdict(dense_pattern((2, 2, 2, 2)))
        assert v.status is Closedness.UNKNOWN
        assert v.rule is None

    def test_unknown_verdict_writes_nothing(self, tmp_path, monkeypatch):
        # the verdict is a value; writing the solver sentence is the CLI's job
        monkeypatch.chdir(tmp_path)
        pattern = SupportPattern(
            dims=(2, 2, 2),
            masks=(frozenset({(0, 0), (1, 1)}), frozenset({(0, 0), (1, 1)})),
        )
        assert closedness_verdict(pattern) == ClosednessVerdict(Closedness.UNKNOWN)
        assert list(tmp_path.iterdir()) == []

    def test_lu_family_not_closed(self):
        for d in (2, 3, 4):
            v = closedness_verdict(lu_pattern(d))
            assert v.status is Closedness.NOT_CLOSED
            assert lu_membership(v.witness) is False

    def test_rule_order_scalar_before_dense(self):
        # dense scalar-output pattern satisfies both; the scalar rule fires first
        v = closedness_verdict(dense_pattern((4, 3, 1)))
        assert v.rule == "scalar-output-row-support"


class TestSufficientCondition:
    def test_dense_shallow_holds(self):
        report = check_theorem5_conditions(dense_pattern((3, 4, 2)))
        assert report.condition1_full_output_mask is True
        assert report.holds is True
        assert all(sv.status is Closedness.CLOSED for sv in report.subset_verdicts)
        assert len(report.subset_verdicts) == 2**4 - 1

    def test_scalar_output_full_second_mask_holds(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            pattern = SupportPattern(
                dims=(6, 4, 1),
                masks=(
                    random_mask(rng, 4, 6),
                    frozenset((0, c) for c in range(4)),
                ),
            )
            report = check_theorem5_conditions(pattern)
            assert report.holds is True

    def test_partial_output_mask_fails_condition1(self):
        pattern = SupportPattern(
            dims=(3, 3, 2),
            masks=(
                frozenset((r, c) for r in range(3) for c in range(3)),
                frozenset({(0, 0), (1, 1)}),
            ),
        )
        report = check_theorem5_conditions(pattern)
        assert report.condition1_full_output_mask is False
        assert report.holds is False

    def test_subsets_sorted_by_size_then_lex(self):
        report = check_theorem5_conditions(dense_pattern((2, 3, 2)))
        keys = [(len(sv.hidden), sv.hidden) for sv in report.subset_verdicts]
        assert keys == sorted(keys)

    def test_hidden_cap_refuses(self):
        with pytest.raises(ValueError, match="refusing"):
            check_theorem5_conditions(dense_pattern((2, 17, 2)))

    def test_depth_requirement(self):
        with pytest.raises(ValueError, match="two-layer"):
            check_theorem5_conditions(dense_pattern((2, 2, 2, 2)))

    def test_json_round_trip_shape(self):
        report = check_theorem5_conditions(dense_pattern((2, 2, 1)))
        data = report_to_json(report)
        assert set(data) == {"condition1_full_output_mask", "subsets", "holds"}
        assert data["subsets"][0]["hidden"] == [1]  # 1-based externally


class TestScalarProjection:
    def test_distance_is_norm_outside_support(self):
        pattern = SupportPattern(
            dims=(4, 2, 1),
            masks=(frozenset({(0, 0), (1, 2)}), frozenset({(0, 0), (0, 1)})),
        )
        a = np.array([[1.0, -2.0, 3.0, 0.5]])
        # support union is {0, 2}; residual picks up coordinates 1 and 3
        expected = float(np.sqrt(4.0 + 0.25))
        assert scalar_output_projection_distance(a, pattern) == pytest.approx(expected, abs=1e-15)
