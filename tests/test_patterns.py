import re

import numpy as np
import pytest
from fractions import Fraction

from sparse_closure.closure import Closedness, closedness_verdict, closure_gap_witness_lu
from sparse_closure.patterns import (
    SparseFactors,
    SupportPattern,
    compress_hidden,
    dense_pattern,
    lu_pattern,
    masked_factors,
    pattern_to_json,
    product,
    random_factors,
    restrict_to_hidden,
    validate_pattern,
)


def random_two_layer(rng, max_dim=6):
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(3))
    masks = []
    for i in range(2):
        n_rows, n_cols = dims[i + 1], dims[i]
        density = rng.uniform(0.2, 0.9)
        mask = frozenset(
            (r, c)
            for r in range(n_rows)
            for c in range(n_cols)
            if rng.random() < density
        )
        masks.append(mask)
    return SupportPattern(dims=dims, masks=tuple(masks))


class TestMaskArrays:
    def test_one_read_only_array_per_layer(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pattern = random_two_layer(rng)
            arrays = pattern.mask_arrays
            assert pattern.mask_arrays is arrays
            for i, (arr, mask) in enumerate(zip(arrays, pattern.masks)):
                assert arr.dtype == bool and arr.shape == pattern.layer_shape(i)
                assert set(zip(*np.nonzero(arr))) == mask
                assert not arr.flags.writeable


class TestValidatePattern:
    def test_lu_d2_from_json(self):
        raw = {"dims": [2, 2, 2], "masks": [[[1, 1], [1, 2], [2, 2]], [[1, 1], [2, 1], [2, 2]]]}
        pattern = validate_pattern(raw)
        assert pattern == lu_pattern(2)

    def test_minimal_single_layer(self):
        pattern = validate_pattern({"dims": [1, 1], "masks": [[[1, 1]]]})
        assert pattern.depth == 1
        assert pattern.masks[0] == frozenset({(0, 0)})

    def test_out_of_bounds_pair_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            validate_pattern({"dims": [2, 2], "masks": [[[3, 1]]]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="masks"):
            validate_pattern({"dims": [2, 2, 2], "masks": [[[1, 1]]]})

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            validate_pattern({"dims": [2, 0], "masks": [[]]})

    @pytest.mark.parametrize("raw, match", [
        ({"dims": [2, True, 2], "masks": [[[1, 1]], [[1, 1]]]}, "dimensions must be positive integers"),
        ({"dims": [2, 2], "masks": [[[True, 1]]]}, "mask indices must be positive integers"),
        ({"dims": [2, 2], "masks": [""]}, "each mask must be a list"),
        ({"dims": [2, 2], "masks": [{}]}, "each mask must be a list"),
        ({"dims": [2, 2], "masks": [[[1, 1, 1]]]}, r"each mask entry must be a \[row, col\] pair, got \[1, 1, 1\]"),
        ({"dims": [2, 2], "masks": [[[1]]]}, r"each mask entry must be a \[row, col\] pair, got \[1\]"),
        ({"dims": [2, 2], "masks": [[5]]}, r"each mask entry must be a \[row, col\] pair, got 5"),
        ({"dims": 5, "masks": [[[1, 1]]]}, "dims must be a list of positive integers, got 5"),
        ({"dims": [2, 2], "masks": 5}, "masks must be a list of masks, got 5"),
    ], ids=["bool-dim", "bool-index", "string-mask", "object-mask", "long-pair", "short-pair", "scalar-pair",
            "scalar-dims", "scalar-masks"])
    def test_wrongly_typed_entries_rejected(self, raw, match):
        with pytest.raises(ValueError, match=match):
            validate_pattern(raw)

    def test_json_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pattern = random_two_layer(rng)
            assert validate_pattern(pattern_to_json(pattern)) == pattern


class TestMasksGivenAsLists:
    # is_full and the LU matcher once counted mask pairs, so a repeated pair in
    # a list mask made lu(2) look dense and a rank-one pattern look like lu(2);
    # the rank-one pattern is one rank-one block on the whole matrix, closed
    LU2 = [[(0, 0), (0, 1), (1, 1), (1, 1)], [(0, 0), (1, 0), (1, 1), (0, 0)]]
    RANK_ONE = [[[0, 0], [0, 0], [0, 1]], [[0, 0], [1, 0], [1, 1]]]
    # numpy-integer indices, as np.argwhere gives them: 1 << np.int64(64) is
    # 0, so neuron 0's columns {64, 65} once read as empty and the two
    # overlapping rank-one blocks as one, a false CLOSED
    WIDE = [[tuple(pair) for pair in np.argwhere(mask_array)]
            for mask_array in SupportPattern(dims=(66, 2, 2), masks=(
                frozenset({(0, 64), (0, 65), (1, 0), (1, 64)}),
                frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}))).mask_arrays]

    @pytest.mark.parametrize("dims, masks, status", [
        ([2, 2, 2], LU2, Closedness.NOT_CLOSED),
        ([2, 2, 2], RANK_ONE, Closedness.CLOSED),
        ([66, 2, 2], WIDE, Closedness.UNKNOWN),
    ], ids=["lu2", "rank-one", "numpy-int-wide"])
    def test_list_forms_equal_their_frozenset_forms(self, dims, masks, status):
        given = SupportPattern(dims=dims, masks=masks)
        frozen = SupportPattern(dims=tuple(dims),
                                masks=tuple(frozenset((int(r), int(c)) for r, c in m) for m in masks))
        assert given == frozen and hash(given) == hash(frozen)
        assert given.dims == tuple(dims) and all(type(m) is frozenset for m in given.masks)
        assert all(type(i) is int for m in given.masks for pair in m for i in pair)
        assert closedness_verdict(given) == closedness_verdict(frozen)
        assert closedness_verdict(given).status is status

    @pytest.mark.parametrize("entry, name", [((0.5, 0), "0.5"), ((0, True), "True"),
                                             ((np.float64(1.0), 0), repr(np.float64(1.0)))])
    def test_a_float_or_bool_index_is_refused_by_name(self, entry, name):
        # unchecked, (0.5, 0) passed the bounds and failed later in mask_arrays
        with pytest.raises(ValueError, match=f"^mask 1 entry index {re.escape(name)} is not an integer$"):
            SupportPattern(dims=(2, 2, 2), masks=(frozenset({(0, 0), entry}), frozenset()))

    def test_lu2_gets_the_anti_diagonal_witness(self):
        pattern = SupportPattern(dims=[2, 2, 2], masks=self.LU2)
        assert pattern == lu_pattern(2)
        assert closedness_verdict(pattern).witness == closure_gap_witness_lu(2)

    def test_frozenset_masks_are_kept_as_given(self):
        masks = lu_pattern(3).masks
        assert SupportPattern(dims=(3, 3, 3), masks=masks).masks is masks


class TestRestrictToHidden:
    def test_lu_d2_single_neuron(self):
        # oracle: filter the index sets by the subset definition directly
        pattern = lu_pattern(2)
        restricted = restrict_to_hidden(pattern, {0})
        expected_first = frozenset(p for p in pattern.masks[0] if p[0] in {0})
        expected_second = frozenset(p for p in pattern.masks[1] if p[1] in {0})
        assert restricted.masks == (expected_first, expected_second)
        # concretely (1-based): second keeps column 1 = {(1,1),(2,1)}, first keeps row 1
        assert restricted.masks[0] == frozenset({(0, 0), (0, 1)})
        assert restricted.masks[1] == frozenset({(0, 0), (1, 0)})
        assert restricted.dims == pattern.dims

    def test_full_subset_is_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pattern = random_two_layer(rng)
            assert restrict_to_hidden(pattern, range(pattern.dims[1])) == pattern

    def test_dense_shallow_keeps_full_rows_and_columns(self):
        pattern = dense_pattern((2, 3, 1))
        restricted = restrict_to_hidden(pattern, {1, 2})
        assert restricted.masks[0] == frozenset({(1, 0), (1, 1), (2, 0), (2, 1)})
        assert restricted.masks[1] == frozenset({(0, 1), (0, 2)})

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            restrict_to_hidden(lu_pattern(2), set())

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            restrict_to_hidden(lu_pattern(2), {5})

    def test_nested_restriction_property(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            pattern = random_two_layer(rng)
            n1 = pattern.dims[1]
            s1 = set(int(i) for i in rng.choice(n1, size=max(1, n1 // 2), replace=False))
            inner = s1 if len(s1) == 1 else set(list(s1)[: max(1, len(s1) - 1)])
            direct = restrict_to_hidden(pattern, inner)
            nested = restrict_to_hidden(restrict_to_hidden(pattern, s1), inner)
            assert direct == nested


class TestProduct:
    def test_identity_factors(self):
        pattern = dense_pattern((3, 3, 3))
        eye = np.eye(3)
        assert np.array_equal(product(masked_factors(pattern, [eye, eye])), eye)

    def test_lu_hand_multiply(self):
        # [[1,0],[1,1]] @ [[1,1],[0,1]] = [[1,1],[1,2]] by hand
        pattern = lu_pattern(2)
        x1 = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
        x2 = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
        result = product(SparseFactors(pattern=pattern, factors=(x1, x2)))
        assert result == ((Fraction(1), Fraction(1)), (Fraction(1), Fraction(2)))

    def test_zero_factor_gives_zero(self):
        pattern = lu_pattern(3)
        rng = np.random.default_rng(1)
        factors = random_factors(pattern, rng)
        zeroed = SparseFactors(
            pattern=pattern, factors=(np.zeros((3, 3)), factors.factors[1])
        )
        assert np.array_equal(product(zeroed), np.zeros((3, 3)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            SparseFactors(pattern=lu_pattern(2), factors=(np.eye(3), np.eye(2)))

    def test_off_mask_entry_rejected(self):
        bad = np.array([[1.0, 0.0], [1.0, 1.0]])  # (2,1) entry violates upper mask
        with pytest.raises(ValueError, match="off-mask"):
            SparseFactors(pattern=lu_pattern(2), factors=(bad, np.eye(2)))

    def test_ragged_rational_factor_rejected(self):
        upper = ((Fraction(1), Fraction(1)), (Fraction(0),))
        lower = ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(1)))
        with pytest.raises(ValueError, match="shape"):
            SparseFactors(pattern=lu_pattern(2), factors=(upper, lower))

    def test_first_off_mask_entry_reported(self):
        # row-major order: (2,1) comes before (3,1) and (3,2)
        bad = np.tril(np.ones((3, 3)))
        with pytest.raises(ValueError, match=r"factor 1 has a nonzero off-mask entry at \(2,1\)"):
            SparseFactors(pattern=lu_pattern(3), factors=(bad, np.eye(3)))

    def test_masking_before_product_changes_nothing(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pattern = random_two_layer(rng)
            raw = [rng.normal(size=pattern.layer_shape(i)) for i in range(2)]
            once = masked_factors(pattern, raw)
            twice = masked_factors(pattern, list(once.factors))
            assert np.array_equal(product(once), product(twice))


class TestCompressHidden:
    def test_compress_matches_restrict_semantics(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            pattern = random_two_layer(rng)
            n1 = pattern.dims[1]
            subset = sorted(int(i) for i in rng.choice(n1, size=max(1, n1 // 2), replace=False))
            restricted = restrict_to_hidden(pattern, subset)
            compressed = compress_hidden(restricted, subset)
            assert compressed.dims == (pattern.dims[0], len(subset), pattern.dims[2])
            # every kept pair survives reindexing
            for new_r, old_r in enumerate(subset):
                row_old = {c for r, c in restricted.masks[0] if r == old_r}
                row_new = {c for r, c in compressed.masks[0] if r == new_r}
                assert row_old == row_new

    @pytest.mark.parametrize("operation", [compress_hidden, restrict_to_hidden])
    @pytest.mark.parametrize("hidden, name", [
        ([1.5], "1.5"), ([True], "True"), ([0, False], "False"), ([1.0], "1.0"),
        (["1"], "'1'"), ([np.float64(2.0)], repr(np.float64(2.0))),
    ])
    def test_non_integer_index_refused_by_name(self, operation, hidden, name):
        # unchecked, 1.5 compresses to a neuron with no connection, which the
        # rule closes, and True names neuron 1
        with pytest.raises(ValueError, match=f"^hidden index {re.escape(name)} is not an integer$"):
            operation(lu_pattern(3), hidden)

    @pytest.mark.parametrize("operation", [compress_hidden, restrict_to_hidden])
    def test_numpy_integers_name_their_neurons(self, operation):
        pattern = lu_pattern(3)
        assert operation(pattern, np.array([2, 0])) == operation(pattern, [0, 2])
        assert operation(pattern, [np.int8(1), np.uint64(1)]) == operation(pattern, (1,))

    @pytest.mark.parametrize("hidden", [[5], [-1], [0, 2]], ids=["past-the-end", "negative", "one-of-two"])
    def test_out_of_range_subset_refused_as_restriction_refuses_it(self, hidden):
        # one owner of the subset rules: an index outside range(N_1) names no neuron
        pattern = lu_pattern(2)
        with pytest.raises(ValueError, match="out of range for N_1=2") as restricted:
            restrict_to_hidden(pattern, hidden)
        with pytest.raises(ValueError, match="out of range for N_1=2") as compressed:
            compress_hidden(pattern, hidden)
        assert str(compressed.value) == str(restricted.value)


def read_masks(pattern):
    pattern.masks
    return pattern


@pytest.mark.parametrize("make", [
    lambda: lu_pattern(3),
    lambda: dense_pattern((2, 3, 2, 1)),
    lambda: compress_hidden(lu_pattern(3), [0, 2]),
    lambda: read_masks(compress_hidden(lu_pattern(3), [0, 2])),
    lambda: object.__new__(SupportPattern),
], ids=["validated", "depth-3", "child", "child-masks-read", "unfilled"])
def test_a_misspelled_attribute_raises_attribute_error_naming_it(make):
    # masks are built on a missing-attribute lookup, which must not swallow
    # any other name, nor recurse on a pattern that holds no neuron index
    pattern = make()
    for name in ("mask", "hidden_neuron", "dim", "__setstate__"):
        with pytest.raises(AttributeError, match=f"'SupportPattern' object has no attribute '{name}'") as info:
            getattr(pattern, name)
        assert info.value.name == name and info.value.obj is pattern
    if not vars(pattern):
        with pytest.raises(AttributeError, match="no attribute 'masks'"):
            pattern.masks
