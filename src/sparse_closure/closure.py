"""Structural closedness rules for masked factorization sets.

The decision procedure is a fixed-order rule dispatch: one layer, the
disjoint rank-one-block rule for two layers, the triangular lower-upper gap.
When no rule applies the honest answer is Unknown, which the command line
can back with an emitted solver file (see sparse_closure.smt).  Verdicts are
pure values: no call here writes a file.  Membership tests are exact
rational, never float.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from itertools import product as cartesian_product
from typing import Optional

from .patterns import SupportPattern, _integer, compress_hidden
from .rational import RationalMatrix, matrix, rank, submatrix


class Closedness(enum.Enum):
    CLOSED = "closed"
    NOT_CLOSED = "not_closed"
    UNKNOWN = "unknown"


# rule identifiers, ordered; first match wins
RULE_SINGLE_LAYER = "single-layer-coordinate-subspace"
RULE_DISJOINT_BLOCKS = "disjoint-rank-one-blocks"
RULE_LU_GAP = "lu-antidiagonal-gap"

# the sufficient condition decides at most 2^16 - 1 signature multisets and
# lists the subsets only when N_1 <= 16, unless the caller raises the cap
DEFAULT_MAX_HIDDEN = 16


class TooManyMultisets(ValueError):
    """The hidden subsets' signature multisets outnumber 2^max_hidden - 1."""


@dataclass(frozen=True)
class ClosednessVerdict:
    status: Closedness
    rule: Optional[str] = None
    witness: Optional[RationalMatrix] = None


def lu_membership(a) -> bool:
    """Exact test: does the square matrix factor as lower * upper triangular?

    Uses the leading-submatrix rank criterion
        rank(A[:k,:k]) + k >= rank(A[:k,:]) + rank(A[:,:k])  for all k,
    evaluated by rational Gaussian elimination.  Cross-validated in the test
    suite against a closed-form 2x2 oracle and a symbolic feasibility check
    on 3x3 instances.
    """
    m = matrix(a)
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("lu_membership expects a square matrix")
    full = range(n)
    for k in range(1, n + 1):
        lead = rank(submatrix(m, range(k), range(k)))
        top = rank(submatrix(m, range(k), full))
        left = rank(submatrix(m, full, range(k)))
        if lead + k < top + left:
            return False
    return True


def closure_gap_witness_lu(d: int) -> RationalMatrix:
    """The anti-diagonal identity: approximable by lower*upper products to any
    precision, never attained.  Defined for d >= 2."""
    if d < 2:
        raise ValueError("the anti-diagonal witness needs d >= 2")
    return tuple(
        tuple(Fraction(1) if c == d - 1 - r else Fraction(0) for c in range(d))
        for r in range(d)
    )


def _disjoint_blocks(pattern: SupportPattern):
    """The block decomposition of a two-layer pattern, or None on an overlap.

    Hidden neuron k adds the rank-one matrices u v^T with supp u in R_k
    (column k of mask 2) and supp v in C_k (row k of mask 1); the signatures
    (R_k, C_k), as bitmasks, are read from pattern.hidden_neurons, their one
    encoding.  Neurons with an empty side add nothing; the others are
    counted by (R, C), and a group of m neurons adds the matrices on R x C
    of rank at most m.  A group with m >= min(|R|, |C|) adds every matrix
    on R x C: a coordinate group.

    Returns (coordinate, bounded), each a list of (rows, cols, m) with rows
    and cols as bitmasks and m the group's neuron count, when every bounded
    group's rectangle is disjoint from every other group's; None at the
    first overlap.
    """
    groups = {}
    for key in pattern.hidden_neurons:
        groups[key] = groups.get(key, 0) + 1
    coordinate, bounded = [], []
    for (r, c), m in groups.items():
        # a bounded group meets no earlier group, a coordinate one no earlier bounded one
        if r and c:
            small = m < min(r.bit_count(), c.bit_count())
            for r2, c2, _ in coordinate + bounded if small else bounded:
                if r & r2 and c & c2:
                    return None
            (bounded if small else coordinate).append((r, c, m))
    return coordinate, bounded


def closedness_verdict(pattern: SupportPattern) -> ClosednessVerdict:
    """Fixed-order structural dispatch.

    1. one layer: the set is a coordinate subspace, closed;
    2. two layers whose hidden neurons have disjoint rank-one supports
       (see _disjoint_blocks): closed.  The coordinate groups together add
       the coordinate subspace on the union of their rectangles, and the
       other groups bounded-rank sets on rectangles disjoint from it and
       from each other.  A direct sum of closed sets on disjoint coordinates
       is closed, and the best approximation splits by blocks: the
       disjoint/identical-support regime of Le, Riccietti & Gribonval,
       "Spurious valleys, NP-hardness, and tractability of sparse matrix
       factorization with fixed support" (SIAM J. Matrix Anal. Appl.,
       2023).  Scalar output (|R| = 1), dense layers (one group) and the
       two-factor butterfly supports are such patterns;
    3. the triangular lower-upper pattern lu(d), hidden neurons in any
       order: not closed, anti-diagonal witness.  Neuron k of lu(d) has the
       signature ((1 << d) - (1 << k)) twice; for d >= 2 the first and last
       overlap, so rule 2 fails (lu(1) is one coordinate group);
    4. otherwise unknown (smt.emit_qe_sentence writes the sentence that
       would decide it).

    Rules 2 and 3 read a pattern only through the multiset of its hidden
    neurons' signatures (R_k, C_k), so relabelling the hidden neurons
    (W2 P^T, P W1: the same product set) keeps the verdict.
    """
    if pattern.depth == 1:
        return ClosednessVerdict(Closedness.CLOSED, rule=RULE_SINGLE_LAYER)
    if pattern.depth == 2 and _disjoint_blocks(pattern) is not None:
        return ClosednessVerdict(Closedness.CLOSED, rule=RULE_DISJOINT_BLOCKS)
    d = pattern.dims[0]
    if pattern.dims == (d, d, d) and all(
        r == c == (1 << d) - (1 << k)  # lu(d)'s signatures decrease with k
        for k, (r, c) in enumerate(sorted(pattern.hidden_neurons, reverse=True))
    ):
        return ClosednessVerdict(Closedness.NOT_CLOSED, rule=RULE_LU_GAP, witness=closure_gap_witness_lu(d))
    return ClosednessVerdict(Closedness.UNKNOWN)


@dataclass(frozen=True)
class SubsetVerdict:
    hidden: tuple[int, ...]  # 0-based, sorted
    status: Closedness
    rule: Optional[str]


@dataclass(frozen=True)
class SufficiencyReport:
    """Outcome of the shallow sufficient-condition check.

    condition1: the output-layer mask is full.
    subset_verdicts: closedness of the factorization set restricted to every
    nonempty hidden subset, in deterministic (size, lexicographic) order;
    empty when N_1 is above the cap, where the subsets are not listed.
    holds: condition1 and every subset verdict is Closed.
    verdicts: how many closedness verdicts were computed, one per distinct
    multiset of signatures that a nonempty hidden subset carries.
    """

    condition1_full_output_mask: bool
    subset_verdicts: tuple[SubsetVerdict, ...]
    holds: bool
    verdicts: int


def check_theorem5_conditions(
    pattern: SupportPattern, max_hidden: int = DEFAULT_MAX_HIDDEN
) -> SufficiencyReport:
    """Evaluate the two-part sufficient condition for a two-layer pattern.

    A subset's verdict depends only on the multiset of its kept neurons'
    signatures (R_k, C_k) (see closedness_verdict), so each multiset is
    decided once, on its first subset in (size, lexicographic) order (the
    first c_g neurons of each signature g), compressed onto those neurons.
    N_1 neurons, m_g of signature g, carry prod(m_g + 1) - 1 multisets (N_1
    when dense); more than 2^max_hidden - 1 are refused with
    TooManyMultisets before any verdict.  The subsets are listed only when
    N_1 <= max_hidden; holds is read from the multisets either way.
    """
    if pattern.depth != 2:
        raise ValueError("the sufficient condition applies to two-layer patterns")
    max_hidden = _integer(max_hidden, "max_hidden")
    n1 = pattern.dims[1]
    groups = {}  # signature -> its neurons in index order, signatures in first-seen order
    # prod(m_g + 1) - 1 >= N_1, so a layer that alone passes the cap is
    # refused without grouping its signatures
    if n1.bit_length() <= max_hidden:
        for k, signature in enumerate(pattern.hidden_neurons):
            groups.setdefault(signature, []).append(k)
    # a subset's key is its count vector (c_g) in mixed radix (m_g + 1), the
    # last signature's digit lowest, so cartesian_product lists keys in order;
    # the cap is checked on the partial product, never building 2^max_hidden
    place, keys = {}, 1 if groups else n1 + 1
    for signature, members in reversed(groups.items()):
        place[signature] = keys
        keys *= len(members) + 1
        if (keys - 1).bit_length() > max_hidden:
            break
    if (keys - 1).bit_length() > max_hidden:
        raise TooManyMultisets(
            f"refusing to decide the {n1} hidden neurons' signature multisets: "
            f"more than 2^{max_hidden} - 1 (cap {max_hidden}); raise max_hidden explicitly to force it"
        )
    decided = []  # (status, rule) by key, from key 1: key 0 is the empty subset
    for counts in islice(cartesian_product(*[range(len(m) + 1) for m in groups.values()]), 1, None):
        kept = [k for members, c in zip(groups.values(), counts) for k in members[:c]]
        v = closedness_verdict(compress_hidden(pattern, kept))
        decided.append((v.status, v.rule))
    listed = ()
    if n1 <= max_hidden:
        digits = [place[signature] for signature in pattern.hidden_neurons]
        listed = tuple([SubsetVerdict(subset, *decided[sum([digits[k] for k in subset]) - 1])
                        for size in range(1, n1 + 1) for subset in combinations(range(n1), size)])
    condition1 = pattern.is_full(1)
    return SufficiencyReport(
        condition1_full_output_mask=condition1,
        subset_verdicts=listed,
        holds=condition1 and all(status is Closedness.CLOSED for status, _ in decided),
        verdicts=len(decided),
    )
