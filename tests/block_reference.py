"""Exact best approximation on two-layer patterns that the rank-one-block
rule closes, and the pattern families the tests grade it on.

When the rule closes a pattern, its factorization set is a direct sum on
disjoint coordinates (closure._disjoint_blocks gives the blocks, and the
neurons of each block are those whose signature (R_k, C_k) in
pattern.hidden_neurons is its rectangle), so the best approximation of a
target A splits by blocks:
- a bounded-rank group with rows R, columns C and m neurons contributes the
  tail of A[R, C]'s singular values beyond m (Eckart-Young);
- the entries of coordinate groups contribute 0;
- entries outside every rectangle contribute in full.
"""

import numpy as np

from sparse_closure.closure import _disjoint_blocks
from sparse_closure.patterns import SparseFactors, SupportPattern


def bit_indices(bits):
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def best_approximation(a, pattern):
    """(distance, factors): the distance from a to the pattern's
    factorization set, and SparseFactors whose product attains it.  Refuses
    a pattern that the rule does not close."""
    blocks = _disjoint_blocks(pattern) if pattern.depth == 2 else None
    if blocks is None:
        raise ValueError("the exact reference needs a pattern closed by the rank-one-block rule")
    coordinate, bounded = blocks
    members = {}
    for k, signature in enumerate(pattern.hidden_neurons):
        members.setdefault(signature, []).append(k)
    a = np.asarray(a, dtype=float)
    w1, w2 = np.zeros(pattern.layer_shape(0)), np.zeros(pattern.layer_shape(1))
    covered = np.zeros(a.shape, dtype=bool)
    for rows, cols, _ in coordinate:
        # each entry of the union is matched by the first group that holds it
        r, c, neurons = bit_indices(rows), bit_indices(cols), members[rows, cols]
        part = np.where(covered[np.ix_(r, c)], 0.0, a[np.ix_(r, c)])
        covered[np.ix_(r, c)] = True
        if len(r) <= len(c):  # neuron k carries output row r[j]
            for j, k in enumerate(neurons[: len(r)]):
                w2[r[j], k] = 1.0
                w1[k, c] = part[j]
        else:  # neuron k carries input column c[j]
            for j, k in enumerate(neurons[: len(c)]):
                w1[k, c[j]] = 1.0
                w2[r, k] = part[:, j]
    tail = 0.0
    for rows, cols, m in bounded:
        r, c, neurons = bit_indices(rows), bit_indices(cols), members[rows, cols]
        u, s, vt = np.linalg.svd(a[np.ix_(r, c)], full_matrices=False)
        tail += float(np.sum(s[m:] ** 2))
        root = np.sqrt(s[:m])
        w2[np.ix_(r, neurons)] = u[:, :m] * root
        w1[np.ix_(neurons, c)] = root[:, None] * vt[:m]
        covered[np.ix_(r, c)] = True
    outside = float(np.sum(a[~covered] ** 2))
    return (tail + outside) ** 0.5, SparseFactors(pattern=pattern, factors=(w1, w2))


def butterfly_pattern(p):
    """The two-factor butterfly support of size n = p^2 (Dao et al., ICML
    2019): the first factor is block-diagonal with p x p blocks, the second
    links coordinates congruent mod p.  Hidden neuron k = a*p + b reads
    input block a and writes the outputs congruent to b."""
    n = p * p
    first = frozenset((k, c) for k in range(n) for c in range(n) if k // p == c // p)
    second = frozenset((r, k) for r in range(n) for k in range(n) if r % p == k % p)
    return SupportPattern(dims=(n, n, n), masks=(first, second))


def block_diagonal_pattern(blocks):
    """Two layers of dense blocks on the diagonal: block i has n_in inputs,
    m hidden neurons and n_out outputs, for (n_in, m, n_out) in blocks."""
    first, second, offsets = set(), set(), [0, 0, 0]
    for n_in, m, n_out in blocks:
        i0, h0, o0 = offsets
        first |= {(h0 + h, i0 + c) for h in range(m) for c in range(n_in)}
        second |= {(o0 + r, h0 + h) for r in range(n_out) for h in range(m)}
        offsets = [i0 + n_in, h0 + m, o0 + n_out]
    return SupportPattern(dims=tuple(offsets), masks=(frozenset(first), frozenset(second)))
