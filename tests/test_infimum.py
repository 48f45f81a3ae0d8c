import numpy as np
import pytest

from sparse_closure.closure import closure_gap_witness_lu, scalar_output_projection_distance
from sparse_closure.infimum import infimum_oracle
from sparse_closure.patterns import (
    SupportPattern,
    dense_pattern,
    lu_pattern,
    product,
    random_factors,
)


class TestFeasibleTargets:
    def test_product_of_random_masked_factors_is_reached(self):
        rng = np.random.default_rng(7)
        for pattern in (lu_pattern(2), lu_pattern(3), dense_pattern((3, 2, 3))):
            target = product(random_factors(pattern, rng))
            result = infimum_oracle(target, pattern, budget=20_000, seed=0)
            assert result.distance < 1e-8

    def test_depth_three_feasible(self):
        rng = np.random.default_rng(12)
        pattern = dense_pattern((2, 3, 2, 2))
        target = product(random_factors(pattern, rng))
        result = infimum_oracle(target, pattern, budget=20_000, seed=1)
        assert result.distance < 1e-8

    def test_factors_respect_masks(self):
        rng = np.random.default_rng(3)
        pattern = lu_pattern(3)
        target = product(random_factors(pattern, rng))
        result = infimum_oracle(target, pattern, budget=5_000, seed=0)
        for i, f in enumerate(result.factors.factors):
            off = ~pattern.mask_arrays[i]
            assert np.all(f[off] == 0.0)


# the search seeds of the benchmark's gap panel
GAP_SEEDS = (0, 1, 2, 3)


class TestGapTargets:
    @pytest.mark.parametrize("seed", GAP_SEEDS)
    def test_lu_antidiagonal_gap_signature(self, seed):
        # distance heads to zero while the factor norms blow past 1e3
        pattern = lu_pattern(2)
        target = np.array(closure_gap_witness_lu(2), dtype=float)
        result = infimum_oracle(target, pattern, budget=100_000, seed=seed)
        assert result.distance < 1e-6
        assert result.max_factor_norm > 1e3
        # the polish stops once the valley stalls it instead of spending the
        # budget there (thousands of residual evaluations without the stop)
        assert result.stats.polish_evaluations <= 200

    @pytest.mark.parametrize("seed", GAP_SEEDS)
    def test_lu_d3_gap_signature(self, seed):
        pattern = lu_pattern(3)
        target = np.array(closure_gap_witness_lu(3), dtype=float)
        result = infimum_oracle(target, pattern, budget=100_000, seed=seed)
        assert result.distance < 1e-6
        assert result.max_factor_norm > 1e3


class TestScalarOutputProjection:
    def test_distance_matches_closed_form(self):
        rng = np.random.default_rng(31)
        for trial in range(6):
            n0, n1 = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            first = frozenset(
                (r, c) for r in range(n1) for c in range(n0) if rng.random() < 0.5
            )
            second = frozenset((0, c) for c in range(n1) if rng.random() < 0.7)
            pattern = SupportPattern(dims=(n0, n1, 1), masks=(first, second))
            target = rng.uniform(-2, 2, size=(1, n0))
            result = infimum_oracle(target, pattern, budget=8_000, seed=trial)
            expected = scalar_output_projection_distance(target, pattern)
            assert result.distance == pytest.approx(expected, abs=1e-9)


class TestValidation:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            infimum_oracle(np.eye(2), lu_pattern(2), budget=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            infimum_oracle(np.eye(3), lu_pattern(2), budget=10)
