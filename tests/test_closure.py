import time
from collections import Counter
from functools import cached_property
from itertools import permutations

import numpy as np
import pytest
import compress_reference
import lu_reference
import theorem5_reference
from atlas import atlas
from block_reference import bit_indices, butterfly_pattern
from check_report import report_to_json

from sparse_closure import closure, patterns
from sparse_closure.closure import (
    DEFAULT_MAX_HIDDEN,
    RULE_DISJOINT_BLOCKS,
    RULE_LU_GAP,
    Closedness,
    ClosednessVerdict,
    TooManyMultisets,
    _disjoint_blocks,
    check_theorem5_conditions,
    closedness_verdict,
    closure_gap_witness_lu,
    lu_membership,
)
from sparse_closure.patterns import (
    SupportPattern,
    compress_hidden,
    dense_pattern,
    full_mask,
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
            assert v.rule == "disjoint-rank-one-blocks"

    def test_dense_shallow_closed_by_block_rule(self):
        # one group of 4 neurons on a 3 x 5 rectangle: a coordinate group
        v = closedness_verdict(dense_pattern((5, 4, 3)))
        assert v.status is Closedness.CLOSED
        assert v.rule == "disjoint-rank-one-blocks"
        # one group of 2 neurons on a 3 x 5 rectangle: rank at most 2
        assert _disjoint_blocks(dense_pattern((5, 2, 3))) == ([], [(0b111, 0b11111, 2)])
        assert closedness_verdict(dense_pattern((5, 2, 3))).rule == "disjoint-rank-one-blocks"

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
        # the verdict is a value; writing the solver sentence is the CLI's job.
        # Two rank-one blocks, {0,1} x {0,1} and {1,2} x {1,2}, share (1, 1)
        monkeypatch.chdir(tmp_path)
        pattern = SupportPattern(
            dims=(3, 2, 3),
            masks=(
                frozenset({(0, 0), (0, 1), (1, 1), (1, 2)}),
                frozenset({(0, 0), (1, 0), (1, 1), (2, 1)}),
            ),
        )
        assert closedness_verdict(pattern) == ClosednessVerdict(Closedness.UNKNOWN)
        assert list(tmp_path.iterdir()) == []

    def test_lu_family_not_closed(self):
        for d in (2, 3, 4):
            v = closedness_verdict(lu_pattern(d))
            assert v.status is Closedness.NOT_CLOSED
            assert lu_membership(v.witness) is False


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

    def test_subsets_are_not_validated_again_and_the_index_is_built_once(self, monkeypatch):
        rng = np.random.default_rng(12)
        pattern = SupportPattern((5, 12, 4), (random_mask(rng, 12, 5), random_mask(rng, 4, 12)))
        calls = Counter()
        post_init, index = SupportPattern.__post_init__, SupportPattern.hidden_neurons.func

        def counted_post_init(self):
            calls["__post_init__"] += 1
            post_init(self)

        def counted_index(self):
            calls["hidden_neurons"] += 1
            return index(self)

        counted = cached_property(counted_index)
        counted.__set_name__(SupportPattern, "hidden_neurons")
        monkeypatch.setattr(SupportPattern, "__post_init__", counted_post_init)
        monkeypatch.setattr(SupportPattern, "hidden_neurons", counted)
        report = check_theorem5_conditions(pattern)
        assert len(report.subset_verdicts) == 4095
        # the parent's index is built once: each subset holds its kept
        # neurons' pairs of it
        assert calls == {"hidden_neurons": 1}

    @pytest.mark.parametrize("dims", [(5, 12, 4), (4, 12, 4)])
    def test_subset_verdicts_build_no_masks(self, monkeypatch, dims):
        # (4, 12, 4) also sends its 495 four-neuron subsets to the lu matcher
        rng = np.random.default_rng(30)
        pattern = SupportPattern(dims, (random_mask(rng, 12, dims[0]), random_mask(rng, dims[2], 12)))
        seen = Counter()
        verdict = closure.closedness_verdict

        def watched(child):
            seen["masks before"] += "masks" in vars(child)
            result = verdict(child)
            seen["masks after"] += "masks" in vars(child)
            seen["verdicts"] += 1
            return result

        with monkeypatch.context() as m:
            m.setattr(closure, "closedness_verdict", watched)
            report = check_theorem5_conditions(pattern)
        # one verdict per signature multiset: the 12 neurons' signatures
        # differ here, so each of the 4095 subsets carries its own
        assert seen == {"masks before": 0, "masks after": 0, "verdicts": multiset_count(pattern)}
        with monkeypatch.context() as m:
            m.setattr(closure, "compress_hidden", compress_reference.compress_hidden)
            reference = check_theorem5_conditions(pattern)
        assert report_to_json(report) == report_to_json(reference)

    def test_hidden_cap_refuses(self):
        # 17 neurons with distinct signatures carry 2^17 - 1 multisets
        distinct = SupportPattern((17, 17, 1), (frozenset((k, k) for k in range(17)),
                                                frozenset((0, k) for k in range(17))))
        with pytest.raises(ValueError, match="refusing"):
            check_theorem5_conditions(distinct)

    def test_depth_requirement(self):
        with pytest.raises(ValueError, match="two-layer"):
            check_theorem5_conditions(dense_pattern((2, 2, 2, 2)))

    def test_json_round_trip_shape(self):
        report = check_theorem5_conditions(dense_pattern((2, 2, 1)))
        data = report_to_json(report)
        assert set(data) == {"condition1_full_output_mask", "subsets", "holds"}
        assert data["subsets"][0]["hidden"] == [1]  # 1-based externally


def bench_enum_patterns(seed, r):
    """The enum patterns of certify round r at this seed, drawn as
    bench/workloads.py draws them: N1 = 8..13, dense with odds 1/3."""
    rng = np.random.default_rng([seed, r])
    for n1 in range(8, 14):
        dims = (int(rng.integers(3, 6)), n1, int(rng.integers(1, 5)))
        density = 1.0 if rng.random() < 1 / 3 else rng.uniform(0.4, 0.8)
        masks = [rng.random((dims[i + 1], dims[i])) < density for i in range(2)]
        yield SupportPattern(dims, tuple(frozenset((int(a), int(b)) for a, b in zip(*np.nonzero(m)))
                                         for m in masks))


def repeated_signature_pattern(rng, n1):
    """A two-layer pattern whose N1 neurons share a few random signatures,
    in shuffled order, so most subsets share their multiset with others."""
    n0, n2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    kinds = [(int(rng.integers(0, 2**n2)), int(rng.integers(0, 2**n0))) for _ in range(int(rng.integers(1, 4)))]
    neurons = [kinds[int(rng.integers(len(kinds)))] for _ in range(n1)]
    first = frozenset((k, c) for k, (_, cols) in enumerate(neurons) for c in range(n0) if cols >> c & 1)
    second = frozenset((r, k) for k, (rows, _) in enumerate(neurons) for r in range(n2) if rows >> r & 1)
    return SupportPattern((n0, n1, n2), (first, second))


def multiset_count(pattern):
    count = 1
    for m in Counter(pattern.hidden_neurons).values():
        count *= m + 1
    return count - 1


DIFFERENTIAL_PANELS = {
    "bench-enum": lambda: [p for seed in (1, 2, 3) for r in (0, 1, 2) for p in bench_enum_patterns(seed, r)],
    "random": lambda: [SupportPattern(dims, (random_mask(rng, dims[1], dims[0], density),
                                             random_mask(rng, dims[2], dims[1], density)))
                       for rng in [np.random.default_rng(34)]
                       for dims in [(3, 6, 2), (4, 9, 4), (2, 11, 3), (5, 12, 1)]
                       for density in (0.3, 0.6, 0.9)],
    "dense": lambda: [dense_pattern(dims) for dims in [(1, 1, 1), (2, 5, 2), (4, 12, 3), (2, 16, 2)]],
    "butterfly": lambda: [butterfly_pattern(p) for p in (2, 3, 4)],
    "lu": lambda: [lu_pattern(d) for d in (2, 3, 4)],
    "repeated": lambda: [repeated_signature_pattern(np.random.default_rng([34, n1]), n1)
                         for n1 in (1, 2, 5, 8, 11, 14, 16)],
}


class TestSignatureMultisets:
    @pytest.mark.parametrize("panel", DIFFERENTIAL_PANELS)
    def test_report_equals_one_verdict_per_subset(self, monkeypatch, panel):
        # each multiset is decided once, and every subset that carries it
        # is listed with that verdict, as the per-subset loop lists it
        for pattern in DIFFERENTIAL_PANELS[panel]():
            reference = theorem5_reference.check_theorem5_conditions(pattern)
            seen = Counter()
            verdict = closure.closedness_verdict

            def counted(child):
                seen[frozenset(Counter(child.hidden_neurons).items())] += 1
                return verdict(child)

            with monkeypatch.context() as m:
                m.setattr(closure, "closedness_verdict", counted)
                report = check_theorem5_conditions(pattern)
            assert report_to_json(report) == report_to_json(reference), pattern
            assert report.holds is reference.holds
            assert report.verdicts == len(seen) == multiset_count(pattern) == sum(seen.values())

    def test_dense_patterns_past_the_old_cap_are_decided(self):
        start = time.perf_counter()
        report = check_theorem5_conditions(dense_pattern((5, 400, 4)))
        assert time.perf_counter() - start < 1.0
        assert (report.holds, report.verdicts, report.subset_verdicts) == (True, 400, ())
        report = check_theorem5_conditions(dense_pattern((2, 17, 2)))
        assert (report.holds, report.verdicts, report.subset_verdicts) == (True, 17, ())

    def test_above_the_cap_holds_is_read_from_the_multisets(self):
        # a second signature that overlaps the dense one: every subset
        # holding both is undecided, and the report says so without listing
        pattern = SupportPattern((2, 17, 2), (full_mask(17, 2), full_mask(2, 17) - {(0, 16)}))
        report = check_theorem5_conditions(pattern)
        assert (report.holds, report.verdicts, report.subset_verdicts) == (False, 17 * 2 - 1, ())
        listed = check_theorem5_conditions(pattern, max_hidden=17)
        assert listed.verdicts == report.verdicts and len(listed.subset_verdicts) == 2**17 - 1
        assert {sv.status for sv in listed.subset_verdicts} == {Closedness.CLOSED, Closedness.UNKNOWN}

    @pytest.mark.parametrize("pattern, max_hidden", [
        (dense_pattern((2, 17, 2)), 4),  # 17 multisets against 15
        (dense_pattern((2, 1, 2)), 0),
        (lu_pattern(3), 2),  # 7 multisets against 3
        (SupportPattern((3, 10**6, 2), (frozenset(), frozenset())), DEFAULT_MAX_HIDDEN),
    ])
    def test_too_many_multisets_are_refused_before_any_verdict(self, monkeypatch, pattern, max_hidden):
        def no_verdict(child):
            pytest.fail("a verdict was computed")

        monkeypatch.setattr(closure, "closedness_verdict", no_verdict)
        with pytest.raises(TooManyMultisets, match=f"refusing .* \\(cap {max_hidden}\\)"):
            check_theorem5_conditions(pattern, max_hidden=max_hidden)

    def test_a_layer_wider_than_the_cap_is_refused_before_its_index_is_built(self):
        # each single neuron is a multiset, so 2^16 neurons are too many unread
        pattern = SupportPattern((1, 2**16, 1), (frozenset(), frozenset()))
        with pytest.raises(TooManyMultisets, match="refusing to decide the 65536 hidden neurons'"):
            check_theorem5_conditions(pattern)
        assert "hidden_neurons" not in vars(pattern)

    def test_a_cap_far_above_the_pattern_builds_no_power_of_it(self):
        report = check_theorem5_conditions(dense_pattern((2, 3, 2)), max_hidden=10**18)
        assert report == check_theorem5_conditions(dense_pattern((2, 3, 2)))
        assert report.verdicts == 3 and len(report.subset_verdicts) == 7
        report = check_theorem5_conditions(dense_pattern((2, 3, 2)), max_hidden=np.int64(2))
        assert (report.verdicts, report.subset_verdicts) == (3, ())

    @pytest.mark.parametrize("max_hidden", [float("nan"), 2.5, 16.0, True, "16", None])
    def test_a_cap_that_is_not_an_integer_is_refused(self, monkeypatch, max_hidden):
        # nan once listed every subset of any pattern (n1 > nan is false),
        # and True capped at 1 with the message "cap True"
        monkeypatch.setattr(closure, "closedness_verdict", lambda child: pytest.fail("a verdict"))
        with pytest.raises(ValueError, match="^max_hidden .* is not an integer$"):
            check_theorem5_conditions(dense_pattern((2, 3, 2)), max_hidden=max_hidden)


class TestDisjointBlocks:
    def test_one_neuron_to_one_output_is_a_coordinate_group(self):
        pattern = SupportPattern(dims=(3, 2, 1), masks=(frozenset({(0, 1)}), frozenset({(0, 0)})))
        assert _disjoint_blocks(pattern) == ([(0b1, 0b10, 1)], [])

    def test_neurons_without_both_sides_are_dropped(self):
        pattern = SupportPattern(dims=(3, 2, 1), masks=(frozenset({(0, 1)}), frozenset()))
        assert _disjoint_blocks(pattern) == ([], [])
        assert closedness_verdict(pattern).rule == RULE_DISJOINT_BLOCKS

    def test_coordinate_groups_may_overlap(self):
        # neuron 0 on {0} x {0,1}, neuron 1 on {0,1} x {0}: both share (0, 0)
        pattern = SupportPattern(
            dims=(2, 2, 2),
            masks=(frozenset({(0, 0), (0, 1), (1, 0)}), frozenset({(0, 0), (0, 1), (1, 1)})),
        )
        assert _disjoint_blocks(pattern) == ([(0b1, 0b11, 1), (0b11, 0b1, 1)], [])

    def test_equal_supports_form_one_bounded_rank_group(self):
        # two neurons on the whole 3 x 3 rectangle: rank at most 2
        pattern = SupportPattern(
            dims=(3, 3, 3),
            masks=(frozenset((r, c) for r in (0, 2) for c in range(3)),
                   frozenset((r, c) for r in range(3) for c in (0, 2))),
        )
        assert _disjoint_blocks(pattern) == ([], [(0b111, 0b111, 2)])

    @pytest.mark.parametrize("d", range(2, 7))
    def test_lu_never_passes(self, d):
        # neuron 0 holds a rank-one block on the whole matrix, neuron d-1 the
        # coordinate (d-1, d-1)
        assert _disjoint_blocks(lu_pattern(d)) is None
        assert closedness_verdict(lu_pattern(d)).rule == RULE_LU_GAP


def parent_verdict(pattern):
    """The dispatch before the rank-one-block rule: one layer, scalar output
    and dense two layers closed, lu(d) for d >= 2 in its own hidden
    labelling not closed."""
    if pattern.depth == 1:
        return ClosednessVerdict(Closedness.CLOSED, rule="single-layer-coordinate-subspace")
    if pattern.depth == 2 and pattern.output_dim == 1:
        return ClosednessVerdict(Closedness.CLOSED, rule="scalar-output-row-support")
    if pattern.depth == 2 and pattern.is_full(0) and pattern.is_full(1):
        return ClosednessVerdict(Closedness.CLOSED, rule="dense-bounded-rank")
    if lu_reference.is_lu_pattern(pattern) and pattern.dims[0] >= 2:
        return lu_gap(pattern.dims[0])
    return ClosednessVerdict(Closedness.UNKNOWN)


def lu_gap(d):
    return ClosednessVerdict(Closedness.NOT_CLOSED, rule=RULE_LU_GAP, witness=closure_gap_witness_lu(d))


class TestAgainstTheParentDispatch:
    def test_decided_verdicts_keep_their_status(self):
        rng = np.random.default_rng(27)
        panel = [lu_pattern(d) for d in range(1, 6)]
        for _ in range(2_400):
            dims = tuple(int(rng.integers(1, 6)) for _ in range(3))
            panel.append(SupportPattern(dims=dims, masks=(
                random_mask(rng, dims[1], dims[0], rng.uniform(0.3, 1.0)),
                random_mask(rng, dims[2], dims[1], rng.uniform(0.3, 1.0)),
            )))
        counts = Counter()
        for pattern in panel:
            old, new = parent_verdict(pattern), closedness_verdict(pattern)
            scalar = pattern.output_dim == 1
            dense = pattern.is_full(0) and pattern.is_full(1)
            if old.status is not Closedness.UNKNOWN:
                assert new.status is old.status, pattern
                assert new.witness == old.witness
            if scalar or dense:
                assert new.status is Closedness.CLOSED, pattern
            counts[old.status, new.status] += 1
            counts["scalar"] += scalar
            counts["dense"] += dense and not scalar
        assert counts[Closedness.NOT_CLOSED, Closedness.NOT_CLOSED] == 4
        assert counts["scalar"] > 300 and counts["dense"] > 50
        # the rule decides some patterns the parent left open, and not all
        assert counts[Closedness.UNKNOWN, Closedness.CLOSED] > 100
        assert counts[Closedness.UNKNOWN, Closedness.UNKNOWN] > 100


class TestButterfly:
    @pytest.mark.parametrize("p", [2, 3])
    def test_closed_on_the_pattern_and_every_subset(self, p):
        pattern = butterfly_pattern(p)
        assert closedness_verdict(pattern).rule == RULE_DISJOINT_BLOCKS
        # p^2 rank-one blocks on p x p rectangles, pairwise disjoint
        coordinate, bounded = _disjoint_blocks(pattern)
        assert coordinate == [] and len(bounded) == p * p
        assert all(len(bit_indices(r)) == len(bit_indices(c)) == p for r, c, _ in bounded)
        report = check_theorem5_conditions(pattern)
        assert len(report.subset_verdicts) == 2 ** (p * p) - 1
        assert all(sv.rule == RULE_DISJOINT_BLOCKS for sv in report.subset_verdicts)
        # the output mask is not full, so the sufficient condition fails
        assert report.holds is False


def relabelled(pattern, hidden, rows, cols):
    first, second = pattern.masks
    return SupportPattern(pattern.dims, (frozenset((hidden[k], cols[c]) for k, c in first),
                                         frozenset((rows[r], hidden[k]) for r, k in second)))


class TestLuRule:
    def test_decided_without_building_the_lu_pattern(self, monkeypatch):
        def no_build(d):
            pytest.fail("lu_pattern was built")

        monkeypatch.setattr(patterns, "lu_pattern", no_build)
        # neuron 0 on {0,1} x {0,1} meets the coordinate neuron 1 on {0} x {0},
        # so the block rule fails and the LU rule sorts 10^6 signatures
        n = 10**6
        overlap = SupportPattern(dims=(n, n, n), masks=(frozenset({(0, 0), (0, 1), (1, 0)}),
                                                        frozenset({(0, 0), (1, 0), (0, 1)})))
        assert closedness_verdict(overlap) == ClosednessVerdict(Closedness.UNKNOWN)

    def test_agrees_with_the_mask_reference(self):
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 4, 65):  # lu(65)'s signatures pass bit 63
            lu = lu_pattern(d)
            relabellings = {relabelled(lu, perm, range(d), range(d))
                            for perm in (permutations(range(d)) if d <= 4 else ())}
            for _ in range(50):
                # drop, add or move entries of lu(d), or take a random pattern
                masks = tuple(
                    frozenset(
                        (r, c) for r in range(d) for c in range(d)
                        if ((r, c) in m) != (rng.random() < 0.15)
                    )
                    for m in lu.masks
                )
                if rng.random() < 0.3:
                    masks = (masks[1], masks[0])
                pattern = SupportPattern(dims=(d, d, d), masks=masks)
                want = lu_reference.is_lu_relabelling(pattern)
                assert (closedness_verdict(pattern).rule == RULE_LU_GAP) is (d >= 2 and want)
                if d <= 4:  # the reference against every relabelling
                    assert want is (pattern in relabellings)
            assert lu_reference.is_lu_relabelling(lu)

    @staticmethod
    def one_pair_edits(pattern):
        # every copy with one pair of one mask added or removed
        d = pattern.dims[0]
        for i in range(2):
            for pair in ((r, c) for r in range(d) for c in range(d)):
                masks = list(pattern.masks)
                masks[i] = masks[i] ^ {pair}
                yield SupportPattern(pattern.dims, tuple(masks))

    def panel(self):
        # (how lu(d) was edited, the edited pattern)
        rng = np.random.default_rng(30)
        for d in range(1, 7):
            lu = lu_pattern(d)
            identity = tuple(range(d))
            if d <= 4:
                perms = list(permutations(identity))
            else:
                perms = [identity] + [tuple(int(v) for v in rng.permutation(d)) for _ in range(40)]
            for perm in perms:
                yield "hidden", relabelled(lu, perm, identity, identity)
                yield "rows", relabelled(lu, identity, perm, identity)
                yield "cols", relabelled(lu, identity, identity, perm)
            if d <= 5:
                for pattern in self.one_pair_edits(lu):
                    yield "edit", pattern

    def test_the_index_decides_what_the_masks_decide(self):
        found = Counter()
        for kind, pattern in self.panel():
            d = pattern.dims[0]
            want = lu_reference.is_lu_relabelling(pattern)
            verdict = closedness_verdict(pattern)
            assert (verdict.rule == RULE_LU_GAP) is (d >= 2 and want), pattern
            if kind == "hidden" and d >= 2:
                assert verdict == lu_gap(d)
            else:
                # the block rule, then lu(d) in its own labelling only
                blocks = _disjoint_blocks(pattern) is not None
                old = lu_reference.is_lu_pattern(pattern) and not blocks
                assert verdict.status is (Closedness.CLOSED if blocks else
                                          Closedness.NOT_CLOSED if old else Closedness.UNKNOWN)
            # a compressed child is decided from the index it inherits,
            # without building its masks
            child = compress_hidden(pattern, range(pattern.dims[1]))
            assert closedness_verdict(child) == verdict
            assert "masks" not in vars(child)
            if kind in ("rows", "cols"):  # only the identity keeps lu(d)
                assert want is (pattern == lu_pattern(d))
            found[kind, want] += 1
        # lu(d) and every relabelling of it for d <= 4, 40 more each for d = 5, 6
        assert found["hidden", True] == 1 + 2 + 6 + 24 + 2 * 41
        assert found["rows", True] >= 6 and found["rows", False] > 100
        assert found["edit", False] == 2 * (1 + 4 + 9 + 16 + 25) and found["edit", True] == 0


class TestAtlas:
    @pytest.mark.parametrize("dims, closed, gaps, unknown", [
        ((2, 2, 2), 240, 2, 14),  # the gaps: lu(2) and its relabelling
        ((2, 3, 2), 3_568, 0, 528),
    ])
    def test_every_pattern_of_a_shape(self, dims, closed, gaps, unknown):
        assert atlas(dims) == Counter({
            (Closedness.CLOSED, RULE_DISJOINT_BLOCKS): closed,
            (Closedness.NOT_CLOSED, RULE_LU_GAP): gaps,
            (Closedness.UNKNOWN, None): unknown,
        })  # a missing key counts as zero
