"""Property-based checks of the exact invariants (hypothesis-generated inputs)."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import compress_reference
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparse_closure.closure import RULE_DISJOINT_BLOCKS, check_theorem5_conditions, closedness_verdict
from sparse_closure.patterns import SupportPattern, compress_hidden, lu_pattern, restrict_to_hidden
from sparse_closure.polyhedra import contains, eliminate_variable, polyhedron
from sparse_closure.smt import emit_qe_sentence

small_int = st.integers(min_value=-3, max_value=3)


@st.composite
def two_layer_patterns(draw):
    n0 = draw(st.integers(1, 4))
    n1 = draw(st.integers(1, 4))
    n2 = draw(st.integers(1, 4))
    m0 = draw(st.frozensets(st.tuples(st.integers(0, n1 - 1), st.integers(0, n0 - 1)), max_size=8))
    m1 = draw(st.frozensets(st.tuples(st.integers(0, n2 - 1), st.integers(0, n1 - 1)), max_size=8))
    return SupportPattern(dims=(n0, n1, n2), masks=(m0, m1))


@st.composite
def systems(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 6))
    rows = [[draw(small_int) for _ in range(n)] for _ in range(m)]
    rhs = [draw(small_int) for _ in range(m)]
    return polyhedron(n, rows, rhs)


def interval_feasible(poly, idx, point):
    lo, hi = None, None
    others = [i for i in range(poly.num_vars) if i != idx]
    for row, b in zip(poly.rows, poly.rhs):
        rest = sum(row[i] * p for i, p in zip(others, point))
        coeff = row[idx]
        if coeff == 0:
            if rest > b:
                return False
        elif coeff > 0:
            bound = (b - rest) / coeff
            hi = bound if hi is None else min(hi, bound)
        else:
            bound = (b - rest) / coeff
            lo = bound if lo is None else max(lo, bound)
    return lo is None or hi is None or lo <= hi


@settings(max_examples=60, deadline=None)
@given(
    systems(),
    st.integers(0, 3),
    st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=3, max_size=3),
)
def test_elimination_sound_and_complete(poly, idx_raw, point_raw):
    idx = idx_raw % poly.num_vars
    point = tuple(point_raw[: poly.num_vars - 1])
    projected = eliminate_variable(poly, idx)
    assert contains(projected, point) == interval_feasible(poly, idx, point)


@settings(max_examples=60, deadline=None)
@given(two_layer_patterns(), st.data())
def test_nested_restriction_collapses(pattern, data):
    n1 = pattern.dims[1]
    outer = data.draw(st.frozensets(st.integers(0, n1 - 1), min_size=1))
    inner = data.draw(st.frozensets(st.sampled_from(sorted(outer)), min_size=1))
    direct = restrict_to_hidden(pattern, inner)
    nested = restrict_to_hidden(restrict_to_hidden(pattern, outer), inner)
    assert direct == nested


@st.composite
def compressions(draw):
    # a pattern, hidden neurons to keep, and neurons of that child to keep
    pattern = draw(two_layer_patterns())
    outer = draw(st.lists(st.integers(0, pattern.dims[1] - 1), min_size=1))
    inner = draw(st.lists(st.integers(0, len(set(outer)) - 1), min_size=1))
    return pattern, outer, inner


def rectangle(rows, cols):
    return frozenset((r, c) for r in rows for c in cols)


# signatures past bit 63 on both sides: neurons 0 and 1 share one rectangle,
# neuron 4 has no input, and neuron 5 meets neuron 0's rectangle.  Its
# example below keeps all but neuron 2 (unknown), then neurons 0, 1 and 3
# (closed)
WIDE = SupportPattern(dims=(70, 6, 130), masks=(
    rectangle((0, 1), range(60, 70)) | rectangle((2,), range(3)) | rectangle((3,), range(64, 67))
    | rectangle((5,), (65, 69)),
    rectangle(range(100, 130), (0, 1)) | rectangle((64, 65), (2,)) | rectangle((0,), (3,))
    | rectangle(range(70, 81), (4,)) | rectangle((128, 129), (5,)),
))


@settings(max_examples=150, deadline=None)
@given(compressions())
@example((WIDE, [5, 4, 3, 1, 0, 3], [2, 0, 1]))
def test_compression_matches_the_whole_mask_reference(case):
    # the small masks leave many neurons with an empty side; the second
    # compression reads the index slice the first one handed its child
    pattern, outer, inner = case
    child = compress_hidden(pattern, outer)
    reference = compress_reference.compress_hidden(pattern, outer)
    pairs = [(child, reference),
             (compress_hidden(child, inner), compress_reference.compress_hidden(reference, inner))]
    for got, want in pairs:
        assert got == want and hash(got) == hash(want)
        assert all(np.array_equal(a, b) for a, b in zip(got.mask_arrays, want.mask_arrays))
        assert got.hidden_neurons == want.hidden_neurons  # the reference builds its own
        assert closedness_verdict(got) == closedness_verdict(want)


LAZY_CHILD_VIEWS = {
    "==": lambda p: p,
    "hash": hash,
    "deepcopy": copy.deepcopy,
    "pickle": lambda p: pickle.loads(pickle.dumps(p)),
    "replace": dataclasses.replace,
    "mask_arrays": lambda p: tuple(a.tobytes() for a in p.mask_arrays),
    "mask_sizes": lambda p: p.mask_sizes(),
}


@settings(max_examples=150, deadline=None)
@given(two_layer_patterns(), st.data())
def test_a_lazy_child_is_the_reference_compression_before_and_after_its_masks_are_read(pattern, data):
    hidden = data.draw(st.lists(st.integers(0, pattern.dims[1] - 1), min_size=1))
    reference = compress_reference.compress_hidden(pattern, hidden)

    def children():
        # one child whose masks are unset, one whose masks were read
        lazy, read = compress_hidden(pattern, hidden), compress_hidden(pattern, hidden)
        read.masks
        assert "masks" not in vars(lazy) and "masks" in vars(read)
        return lazy, read

    for name, view in LAZY_CHILD_VIEWS.items():
        for child in children():
            assert view(child) == view(reference), name
    # a frozenset's repr lists its pairs in hash-table order, which hangs on
    # the order they were inserted in, and the reference inserts them in its
    # parent's order: so the repr is compared as the pattern it spells
    namespace = {"SupportPattern": SupportPattern, "frozenset": frozenset}
    texts = {repr(child) for child in children()}
    assert len(texts) == 1
    assert eval(texts.pop(), namespace) == reference


def relabel_hidden(pattern, perm):
    # hidden neuron k becomes neuron perm[k]: W2 P^T and P W1, the same products
    first, second = pattern.masks
    return SupportPattern(dims=pattern.dims, masks=(
        frozenset((perm[k], c) for k, c in first),
        frozenset((r, perm[k]) for r, k in second),
    ))


@st.composite
def hidden_relabellings(draw):
    pattern = draw(two_layer_patterns())
    return pattern, tuple(draw(st.permutations(range(pattern.dims[1]))))


@settings(max_examples=150, deadline=None)
@given(hidden_relabellings())
# lu(3) relabelled, and a relabelled lu(4) put back in lu(4)'s own order:
# random draws almost never give either
@example((lu_pattern(3), (2, 0, 1)))
@example((relabel_hidden(lu_pattern(4), (3, 1, 0, 2)), (2, 1, 3, 0)))
def test_hidden_relabelling_keeps_every_verdict(case):
    # every rule reads the multiset of hidden signatures, so the verdict,
    # witness included, and each Theorem-5 subset verdict carry over
    pattern, perm = case
    permuted = relabel_hidden(pattern, perm)
    assert closedness_verdict(permuted) == closedness_verdict(pattern)
    report, moved = check_theorem5_conditions(pattern), check_theorem5_conditions(permuted)
    by_subset = {sv.hidden: (sv.status, sv.rule) for sv in moved.subset_verdicts}
    for sv in report.subset_verdicts:
        assert by_subset[tuple(sorted(perm[k] for k in sv.hidden))] == (sv.status, sv.rule)
    assert moved.holds is report.holds


@settings(max_examples=150, deadline=None)
@given(two_layer_patterns(), st.data())
def test_verdict_invariant_under_permutations(pattern, data):
    # relabelling inputs, hidden neurons or outputs maps the set onto an
    # isomorphic one, and the rank-one-block rule must not see the labels.
    # The LU matcher knows lu(d) only with its inputs and outputs in their
    # own order, so a row- or column-relabelled lu(d) is unknown and the
    # property is stated for the rule's verdicts
    n0, n1, n2 = pattern.dims
    p0, p1, p2 = (data.draw(st.permutations(range(n))) for n in (n0, n1, n2))
    permuted = SupportPattern(dims=pattern.dims, masks=(
        frozenset((p1[r], p0[c]) for r, c in pattern.masks[0]),
        frozenset((p2[r], p1[c]) for r, c in pattern.masks[1]),
    ))
    closed = closedness_verdict(pattern).rule == RULE_DISJOINT_BLOCKS
    assert (closedness_verdict(permuted).rule == RULE_DISJOINT_BLOCKS) is closed


@settings(max_examples=150, deadline=None)
@given(two_layer_patterns())
@example(relabel_hidden(lu_pattern(3), (1, 2, 0)))
@example(relabel_hidden(lu_pattern(4), (3, 1, 0, 2)))
def test_verdict_invariant_under_transposition(pattern):
    # (W2 W1)^T = W1^T W2^T: the transposed set belongs to the reversed dims
    # with the masks transposed and swapped, and holds the transposed witness
    # (a hidden relabelling of lu(d) transposes to one)
    first, second = pattern.masks
    transposed = SupportPattern(dims=pattern.dims[::-1], masks=(
        frozenset((c, r) for r, c in second),
        frozenset((c, r) for r, c in first),
    ))
    before, after = closedness_verdict(pattern), closedness_verdict(transposed)
    assert (after.status, after.rule) == (before.status, before.rule)
    assert after.witness == (before.witness and tuple(zip(*before.witness)))


@settings(max_examples=40, deadline=None)
@given(two_layer_patterns())
def test_sentence_statistics_formula(pattern):
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".smt2") as fh:
        stats = emit_qe_sentence(pattern, fh.name)
    assert stats.num_polynomials == 2
    assert stats.max_degree == 2 * pattern.depth
    assert stats.num_variables == (
        pattern.output_dim * pattern.input_dim + 1 + 2 * sum(len(m) for m in pattern.masks)
    )
