import re
import tracemalloc
from collections import Counter
from dataclasses import astuple, fields

import numpy as np
import pytest
from block_reference import best_approximation, block_diagonal_pattern, butterfly_pattern

from sparse_closure import infimum
from sparse_closure.closure import _disjoint_blocks, closure_gap_witness_lu
from sparse_closure.infimum import SearchStats, infimum_oracle
from sparse_closure.patterns import (
    SupportPattern,
    chain_product,
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


def scalar_output_panel(rng):
    for _ in range(6):
        n0, n1 = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        first = frozenset(
            (r, c) for r in range(n1) for c in range(n0) if rng.random() < 0.5
        )
        second = frozenset((0, c) for c in range(n1) if rng.random() < 0.7)
        yield SupportPattern(dims=(n0, n1, 1), masks=(first, second))


def closed_by_rule_panel(rng, count=8):
    """Random two-layer patterns (dims 1-5, density 0.3-1) that the
    rank-one-block rule closes, with more than one output."""
    while count:
        dims = tuple(int(rng.integers(1, 6)) for _ in range(3))
        density = rng.uniform(0.3, 1.0)
        masks = tuple(
            frozenset((r, c) for r in range(dims[i + 1]) for c in range(dims[i]) if rng.random() < density)
            for i in range(2)
        )
        pattern = SupportPattern(dims=dims, masks=masks)
        if dims[2] > 1 and _disjoint_blocks(pattern) is not None:
            count -= 1
            yield pattern


PANELS = {
    "scalar-output": scalar_output_panel,
    "block-diagonal": lambda rng: [
        block_diagonal_pattern([(3, 1, 2), (2, 1, 3), (3, 2, 3)]),
        block_diagonal_pattern([(2, 2, 4), (1, 1, 1), (4, 1, 2)]),
    ],
    "butterfly-4": lambda rng: [butterfly_pattern(2)],
    "butterfly-9": lambda rng: [butterfly_pattern(3)],
    "random-closed": closed_by_rule_panel,
}


class TestExactReference:
    """infimum_oracle graded against the exact best approximation of
    block_reference on patterns the rank-one-block rule closes, with random
    targets (mostly outside the set)."""

    @pytest.mark.parametrize("panel", sorted(PANELS))
    def test_search_meets_the_exact_distance(self, panel):
        rng = np.random.default_rng(31)
        for trial, pattern in enumerate(PANELS[panel](rng)):
            target = rng.normal(size=(pattern.output_dim, pattern.input_dim))
            scale = 1.0 + float(np.linalg.norm(target))
            exact, factors = best_approximation(target, pattern)
            attained = float(np.linalg.norm(target - product(factors)))
            assert abs(attained - exact) <= 1e-12 * scale
            result = infimum_oracle(target, pattern, budget=8_000, seed=trial)
            # nothing in the set is closer than the exact distance ...
            assert result.distance >= exact - 1e-9 * scale
            # ... and the search gets within 1e-6 of it, relatively
            assert result.distance <= exact * (1 + 1e-6) + 1e-9 * scale

    def test_scalar_output_distance_is_the_norm_outside_the_support(self):
        pattern = SupportPattern(
            dims=(4, 2, 1),
            masks=(frozenset({(0, 0), (1, 2)}), frozenset({(0, 0), (0, 1)})),
        )
        # the reachable inputs are {0, 2}; the residual picks up 1 and 3
        distance, _ = best_approximation(np.array([[1.0, -2.0, 3.0, 0.5]]), pattern)
        assert distance == pytest.approx(float(np.sqrt(4.0 + 0.25)), abs=1e-15)

    def test_a_pattern_the_rule_leaves_open_is_refused(self):
        with pytest.raises(ValueError, match="rank-one-block rule"):
            best_approximation(np.eye(2), lu_pattern(2))


class TestValidation:
    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            infimum_oracle(np.eye(2), lu_pattern(2), budget=0)

    @pytest.mark.parametrize("s", [1e154, 1e200, 1e308])
    def test_a_target_whose_squared_norm_overflows_is_refused(self, s):
        # unchecked, with warnings ignored, every restart's distance was inf
        # at 1e200 (a TypeError on the best factors, never set) and the SVD
        # did not converge at 1e308; the check itself warns of nothing
        with pytest.raises(ValueError, match="^target must be finite, and so must its squared Frobenius norm$"):
            infimum_oracle([[0, s], [s, 0]], lu_pattern(2), budget=2000)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            infimum_oracle(np.eye(3), lu_pattern(2), budget=10)

    @pytest.mark.parametrize("argument, value", [
        ("budget", float("nan")), ("budget", 2.5), ("budget", 10.0), ("budget", True), ("budget", "10"),
        ("restarts", True), ("restarts", 2.5), ("restarts", float("nan")), ("restarts", np.float64(2.0)),
        ("seed", True), ("seed", False), ("seed", 0.5),
    ])
    def test_a_count_that_is_not_an_integer_is_refused_by_name(self, argument, value):
        # unchecked, a nan budget ran no sweep and returned its random start,
        # True ran as 1, and restarts=2.5 failed inside range
        kwargs = {"budget": 10, argument: value}
        with pytest.raises(ValueError, match=f"^{argument} .* is not an integer$"):
            infimum_oracle(np.eye(2), lu_pattern(2), **kwargs)

    def test_numpy_integers_are_read_as_ints(self):
        target = np.array(closure_gap_witness_lu(2), dtype=float)
        got = infimum_oracle(target, lu_pattern(2), budget=np.int64(40), seed=np.uint8(1), restarts=np.int32(2))
        want = infimum_oracle(target, lu_pattern(2), budget=40, seed=1, restarts=2)
        assert got.stats == want.stats and got.stats.restarts == 2
        assert same_bits(got.distance, want.distance)
        assert all(same_bits(a, b) for a, b in zip(got.factors.factors, want.factors.factors))

    def test_the_cap_counts_what_the_polish_holds_at_once(self, monkeypatch):
        # the cap once counted only the stacked (A + M) x M system, less than
        # a third of what the polish holds; tracemalloc does not see lstsq's
        # copy of it or LAPACK's workspace, so its peak is a lower bound
        pattern = dense_pattern((12, 6, 12))
        target = np.random.default_rng(0).standard_normal((12, 12))
        monkeypatch.setattr(infimum, "SYSTEM_BYTES_CAP", 0)
        with pytest.raises(ValueError, match="cap is 0$") as refusal:
            infimum_oracle(target, pattern, budget=400)
        counted = int(re.search(r"(\d+)[- ]byte", str(refusal.value)).group(1))
        monkeypatch.undo()
        tracemalloc.start()
        try:
            result = infimum_oracle(target, pattern, budget=400, seed=0, restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.stats.polish_calls == 1
        assert peak < counted

    def test_the_cap_admits_lu71_and_refuses_lu72(self, monkeypatch):
        # the polish holds neither identity, so the cap counts
        # 8*(3*N_L*N_0*M + 2*M^2) bytes; lu(71) is the largest lu(d) under 2^30
        def no_design(*args):
            raise RuntimeError("the search started")

        monkeypatch.setattr(infimum, "_design", no_design)
        with pytest.raises(RuntimeError, match="the search started"):
            infimum_oracle(np.eye(71), lu_pattern(71), budget=10)
        with pytest.raises(ValueError, match="^a search over 5256 mask entries would hold 1095939072 bytes"):
            infimum_oracle(np.eye(72), lu_pattern(72), budget=10)


class TestFirstFactorPassesThrough:
    def test_extrapolation_moves_only_the_factors_the_next_sweep_reads(self, monkeypatch):
        # the sweep solves the first factor from the others, so no log ratio
        # or exponential is taken for it
        calls = Counter()
        for name in ("_log_ratio", "_clipped_exp"):
            def counted(*args, _name=name, _fn=getattr(infimum, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(infimum, name, counted)
        pattern = lu_pattern(3)
        target = np.array(closure_gap_witness_lu(3), dtype=float)
        stats = infimum_oracle(target, pattern, budget=100_000, seed=0).stats
        extrapolations = stats.extrapolations_accepted + stats.extrapolations_rejected
        assert stats.sweeps > 0 and stats.extrapolations_accepted > 0
        assert calls["_log_ratio"] == (pattern.depth - 1) * stats.sweeps
        assert calls["_clipped_exp"] == (pattern.depth - 1) * extrapolations


def reference_oracle(A, pattern, budget, seed, restarts=8):
    """The search as it ran before its per-search plan: a fresh design with
    two np.eye per factor update, np.linalg.norm for every norm, and the
    nan_to_num/clip log ratio.  Returns (distance, factors, max_factor_norm,
    stats) for a bitwise comparison with infimum_oracle."""
    masks = pattern.mask_arrays
    mask_entries = [np.nonzero(m) for m in masks]
    per_restart = max(budget // restarts, pattern.depth)
    counts = Counter()

    def distance(xs):
        return float(np.linalg.norm(A - chain_product(xs)))

    def max_norm(xs):
        return max(float(np.linalg.norm(x)) for x in xs)

    def design(xs, i, rows, cols):
        left = chain_product([*xs[i + 1 :], np.eye(A.shape[0])])
        right = chain_product([np.eye(A.shape[1]), *xs[:i]])
        return (left[:, rows][:, None, :] * right[cols, :].T[None, :, :]).reshape(A.size, len(rows))

    def sweep(xs):
        xs = list(xs)
        for i, (rows, cols) in enumerate(mask_entries):
            if len(rows) == 0:
                continue
            sol, *_ = np.linalg.lstsq(design(xs, i, rows, cols), A.reshape(-1), rcond=None)
            xs[i] = np.zeros_like(xs[i])
            xs[i][rows, cols] = sol
        return xs

    def descend(xs, budget):
        depth, used, stall = len(xs), 0, 0
        dist = distance(xs)
        seen, last_best = max_norm(xs), dist
        while used + depth <= budget:
            prev = xs
            xs = sweep(xs)
            used += depth
            counts["sweeps"] += 1
            dist = distance(xs)
            seen = max(seen, max_norm(xs))
            log_ratios = []
            for x, xp in zip(xs, prev):
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    r = np.abs(x / np.where(xp == 0.0, 1.0, xp))
                r = np.where(np.abs(xp) > 1e-300, r, 1.0)
                r = np.nan_to_num(r, nan=1.0, posinf=10.0, neginf=1.0)
                log_ratios.append(np.log(np.clip(r, 0.1, 10.0)))
            power = 1.0
            while used + depth <= budget:
                with np.errstate(over="ignore"):
                    cand = [(x * np.exp(np.clip(lr * power, -700.0, 700.0))) * m
                            for x, lr, m in zip(xs, log_ratios, masks)]
                cand = sweep(cand)
                used += depth
                cand_dist = distance(cand)
                if np.isfinite(cand_dist) and cand_dist < dist and max_norm(cand) < infimum._NORM_GUARD:
                    counts["extrapolations_accepted"] += 1
                    xs, dist = cand, cand_dist
                    seen = max(seen, max_norm(xs))
                    power *= 2.0
                else:
                    counts["extrapolations_rejected"] += 1
                    break
            if dist < 1e-14:
                break
            last_best, stall = infimum._stall(dist, last_best, stall)
            if stall >= infimum._STALL_ROUNDS:
                break
        return dist, xs, seen, used

    def polish(xs, budget):
        if not any(len(rows) for rows, _ in mask_entries):
            return distance(xs), xs
        counts["polish_calls"] += 1
        dist = distance(xs)
        last_best, stall, damping = dist, 0, 1e-3
        for _ in range(max(budget // len(xs), 2)):
            jac = np.hstack([design(xs, i, rows, cols) for i, (rows, cols) in enumerate(mask_entries)])
            n = jac.shape[1]
            step, *_ = np.linalg.lstsq(
                np.vstack([jac, np.sqrt(damping) * np.eye(n)]),
                np.concatenate([(A - chain_product(xs)).ravel(), np.zeros(n)]),
                rcond=None,
            )
            cand = [x.copy() for x in xs]
            start = 0
            for x, (rows, cols) in zip(cand, mask_entries):
                x[rows, cols] += step[start : start + len(rows)]
                start += len(rows)
            counts["polish_evaluations"] += 1
            cand_dist = distance(cand)
            if cand_dist < dist:
                xs, dist, damping = cand, cand_dist, damping / 3.0
            else:
                damping *= 2.0
            if dist < 1e-14:
                break
            last_best, stall = infimum._stall(dist, last_best, stall)
            if stall >= infimum._STALL_ROUNDS:
                counts["polish_stall_stops"] += 1
                break
        return dist, xs

    best_dist, best_factors, seen_norm = np.inf, None, 0.0
    for r in range(restarts):
        counts["restarts"] += 1
        rng = np.random.default_rng([seed, r])
        xs = [rng.uniform(-1.0, 1.0, size=m.shape) * m for m in masks]
        dist, xs, seen, used = descend(xs, per_restart)
        seen_norm = max(seen_norm, seen)
        if used < per_restart and 1e-13 < dist and max_norm(xs) < 1e6:
            dist, xs = polish(xs, per_restart - used)
            seen_norm = max(seen_norm, max_norm(xs))
        if dist < best_dist:
            best_dist, best_factors = dist, [x.copy() for x in xs]
        if best_dist < 1e-13:
            break
    stats = tuple(counts[f.name] for f in fields(SearchStats))
    return float(best_dist), best_factors, float(seen_norm), stats


def differential_panel():
    """(name, target, pattern, budget, seed): the lu(2)-lu(4) gap searches of
    the CLI's seeds, then random depth-2 and depth-3 patterns with realizable
    and random targets."""
    for d in (2, 3, 4):
        for seed in GAP_SEEDS:
            yield f"lu{d}-gap-{seed}", np.array(closure_gap_witness_lu(d), dtype=float), lu_pattern(d), 100_000, seed
    rng = np.random.default_rng(2024)
    for k in range(32):
        depth = 2 + k % 2
        dims = tuple(int(v) for v in rng.integers(1, 5, size=depth + 1))
        masks = tuple(
            frozenset((r, c) for r in range(dims[j + 1]) for c in range(dims[j]) if rng.random() < 0.6)
            for j in range(depth)
        )
        pattern = SupportPattern(dims=dims, masks=masks)
        if k % 4 < 2:
            yield f"depth{depth}-realizable-{k}", product(random_factors(pattern, rng)), pattern, 2_000, k
        else:
            yield f"depth{depth}-random-{k}", rng.uniform(-2.0, 2.0, size=(dims[-1], dims[0])), pattern, 2_000, k


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstReference:
    def test_panel_is_bitwise_identical(self):
        panel = list(differential_panel())
        assert len(panel) >= 40
        polished = 0
        for name, target, pattern, budget, seed in panel:
            result = infimum_oracle(target, pattern, budget=budget, seed=seed)
            distance, factors, max_factor_norm, stats = reference_oracle(target, pattern, budget, seed)
            assert same_bits(result.distance, distance), name
            assert same_bits(result.max_factor_norm, max_factor_norm), name
            assert astuple(result.stats) == stats, name
            assert len(result.factors.factors) == len(factors), name
            for got, want in zip(result.factors.factors, factors):
                # tobytes compares the sign of every zero as well
                assert same_bits(got, want), name
                assert np.array_equal(np.signbit(got), np.signbit(want)), name
            polished += result.stats.polish_calls > 0
        # the panel reaches the polish as well as the descent
        assert polished >= 10

    def test_lu3_search_builds_its_identities_once_and_calls_no_norm(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "eye", counted("eye", np.eye))
        monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
        target = np.array(closure_gap_witness_lu(3), dtype=float)
        result = infimum_oracle(target, lu_pattern(3), budget=100_000, seed=0)
        # one identity per side of the product, one damping identity per polish
        assert calls["eye"] <= 2 + result.stats.polish_calls
        assert calls["norm"] == 0

    def test_the_polish_builds_no_identity_and_stacks_nothing(self, monkeypatch):
        # the damped system is allocated once per polish and written in place
        calls = Counter()
        for name in ("eye", "vstack", "hstack"):
            def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        target = np.random.default_rng(0).standard_normal((12, 12))
        result = infimum_oracle(target, dense_pattern((12, 6, 12)), budget=400, seed=0, restarts=1)
        assert result.stats.polish_calls == 1 and result.stats.polish_evaluations > 1
        # one identity per side of the product, built by the plan
        assert calls == {"eye": 2}
