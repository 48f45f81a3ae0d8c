"""Support patterns for fixed-support factorizations and sparse networks.

A pattern fixes, per layer, which weight-matrix entries may be nonzero.
Masks are stored as index-pair sets (0-based internally); the JSON wire
format is 1-based and is converted exactly once, in the parser.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rational import matmul, matrix

Mask = frozenset[tuple[int, int]]


@dataclass(frozen=True)
class SupportPattern:
    """Layer dimensions plus one index-pair mask per layer.

    dims is (N_0, ..., N_L) from input to output; masks[i] constrains the
    weight matrix of layer i+1, of shape N_{i+1} x N_i, as a set of 0-based
    (row, col) pairs.  Instances are immutable and safe to share.
    """

    dims: tuple[int, ...]
    masks: tuple[Mask, ...]

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError("a pattern needs at least an input and an output layer")
        if any(not isinstance(n, int) or n <= 0 for n in self.dims):
            raise ValueError(f"dimensions must be positive integers, got {self.dims}")
        if len(self.masks) != len(self.dims) - 1:
            raise ValueError(
                f"{len(self.dims)} dims require {len(self.dims) - 1} masks, got {len(self.masks)}"
            )
        for i, mask in enumerate(self.masks):
            n_rows, n_cols = self.dims[i + 1], self.dims[i]
            for r, c in mask:
                if not (0 <= r < n_rows and 0 <= c < n_cols):
                    raise ValueError(
                        f"mask {i + 1} entry ({r + 1},{c + 1}) is outside its "
                        f"{n_rows}x{n_cols} layer (1-based bounds)"
                    )

    @property
    def depth(self) -> int:
        return len(self.masks)

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    def layer_shape(self, i: int) -> tuple[int, int]:
        """Shape of the i-th factor/weight matrix, i in 0..depth-1."""
        return self.dims[i + 1], self.dims[i]

    def mask_array(self, i: int) -> np.ndarray:
        """Boolean mask matrix for layer i (True where entries may be nonzero)."""
        out = np.zeros(self.layer_shape(i), dtype=bool)
        for r, c in self.masks[i]:
            out[r, c] = True
        return out

    def is_full(self, i: int) -> bool:
        n_rows, n_cols = self.layer_shape(i)
        return len(self.masks[i]) == n_rows * n_cols

    def mask_sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.masks)


def validate_pattern(raw) -> SupportPattern:
    """Build a SupportPattern from the parsed JSON form.

    Expects {"dims": [N0, ..., NL], "masks": [[[r, c], ...], ...]} with
    1-based indices and masks listed from the first layer to the last.
    Raises ValueError on out-of-bounds pairs, length mismatches or
    non-positive dimensions.
    """
    if not isinstance(raw, dict) or "dims" not in raw or "masks" not in raw:
        raise ValueError("pattern must be an object with 'dims' and 'masks'")
    dims = tuple(raw["dims"])
    masks = []
    for layer in raw["masks"]:
        pairs = set()
        for pair in layer:
            r, c = pair
            if not (isinstance(r, int) and isinstance(c, int)) or r < 1 or c < 1:
                raise ValueError(f"mask indices must be positive integers, got {pair}")
            pairs.add((r - 1, c - 1))
        masks.append(frozenset(pairs))
    return SupportPattern(dims=dims, masks=tuple(masks))


def pattern_to_json(pattern: SupportPattern) -> dict:
    """Inverse of validate_pattern (1-based, masks sorted for determinism)."""
    return {
        "dims": list(pattern.dims),
        "masks": [sorted([r + 1, c + 1] for r, c in mask) for mask in pattern.masks],
    }


def load_pattern(path) -> SupportPattern:
    with open(path) as fh:
        return validate_pattern(json.load(fh))


def full_mask(n_rows: int, n_cols: int) -> Mask:
    return frozenset((r, c) for r in range(n_rows) for c in range(n_cols))


def dense_pattern(dims: Sequence[int]) -> SupportPattern:
    dims = tuple(dims)
    masks = tuple(full_mask(dims[i + 1], dims[i]) for i in range(len(dims) - 1))
    return SupportPattern(dims=dims, masks=masks)


def lu_pattern(d: int) -> SupportPattern:
    """Two-layer d x d pattern: upper-triangular first, lower-triangular second.

    Products of factors supported this way are exactly the matrices with an
    exact lower-upper factorization.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    upper = frozenset((i, j) for i in range(d) for j in range(d) if i <= j)
    lower = frozenset((i, j) for i in range(d) for j in range(d) if i >= j)
    return SupportPattern(dims=(d, d, d), masks=(upper, lower))


def is_lu_pattern(pattern: SupportPattern) -> bool:
    if pattern.depth != 2:
        return False
    d = pattern.dims[0]
    if pattern.dims != (d, d, d):
        return False
    return pattern == lu_pattern(d)


def restrict_to_hidden(pattern: SupportPattern, hidden: Iterable[int]) -> SupportPattern:
    """Keep only connections through the given hidden neurons (two-layer only).

    hidden is a 0-based subset of range(N_1).  Pairs of the first mask whose
    row is outside the subset are dropped, as are pairs of the second mask
    whose column is outside; dims are unchanged.
    """
    if pattern.depth != 2:
        raise ValueError("hidden restriction is defined for two-layer patterns")
    subset = frozenset(hidden)
    if not subset:
        raise ValueError("hidden subset must be nonempty")
    n1 = pattern.dims[1]
    if any(not (0 <= i < n1) for i in subset):
        raise ValueError(f"hidden subset {sorted(subset)} out of range for N_1={n1}")
    first = frozenset((r, c) for r, c in pattern.masks[0] if r in subset)
    second = frozenset((r, c) for r, c in pattern.masks[1] if c in subset)
    return SupportPattern(dims=pattern.dims, masks=(first, second))


def compress_hidden(pattern: SupportPattern, hidden: Sequence[int]) -> SupportPattern:
    """Reindex a two-layer pattern onto the given hidden neurons only.

    The factorization set is unchanged by dropping hidden neurons that carry
    no connection, so this is the step that lets the shallow closedness rules
    apply to sub-network patterns.
    """
    if pattern.depth != 2:
        raise ValueError("hidden compression is defined for two-layer patterns")
    kept = sorted(set(hidden))
    if not kept:
        raise ValueError("hidden subset must be nonempty")
    index = {old: new for new, old in enumerate(kept)}
    first = frozenset((index[r], c) for r, c in pattern.masks[0] if r in index)
    second = frozenset((r, index[c]) for r, c in pattern.masks[1] if c in index)
    return SupportPattern(dims=(pattern.dims[0], len(kept), pattern.dims[2]), masks=(first, second))


def row_support_union(pattern: SupportPattern) -> frozenset[int]:
    """Input coordinates reachable through some output-connected hidden neuron.

    For a two-layer pattern this is the union of first-layer row supports
    over hidden neurons that appear in the second mask; the factorization
    set of a scalar-output pattern is the coordinate subspace on this set.
    """
    if pattern.depth != 2:
        raise ValueError("row support union is defined for two-layer patterns")
    connected = {c for _, c in pattern.masks[1]}
    return frozenset(c for r, c in pattern.masks[0] if r in connected)


@dataclass(frozen=True)
class SparseFactors:
    """A concrete factor tuple respecting a pattern's masks.

    Factors are dense arrays (float64) or rational matrices (tuples of
    Fraction rows); off-mask entries must be exactly zero.
    """

    pattern: SupportPattern
    factors: tuple

    def __post_init__(self):
        if len(self.factors) != self.pattern.depth:
            raise ValueError("one factor per layer required")
        for i, f in enumerate(self.factors):
            shape = _shape_of(f)
            if shape != self.pattern.layer_shape(i):
                raise ValueError(
                    f"factor {i + 1} has shape {shape}, expected {self.pattern.layer_shape(i)}"
                )
            mask = self.pattern.masks[i]
            n_rows, n_cols = shape
            for r in range(n_rows):
                for c in range(n_cols):
                    if (r, c) not in mask and _entry(f, r, c) != 0:
                        raise ValueError(
                            f"factor {i + 1} has a nonzero off-mask entry at ({r + 1},{c + 1})"
                        )


def _shape_of(f) -> tuple[int, int]:
    if isinstance(f, np.ndarray):
        if f.ndim != 2:
            raise ValueError("factors must be 2-dimensional")
        return f.shape[0], f.shape[1]
    return len(f), len(f[0]) if f else 0


def _entry(f, r: int, c: int):
    if isinstance(f, np.ndarray):
        return f[r, c]
    return f[r][c]


def chain_product(mats, mul=operator.matmul):
    """mats[-1] @ ... @ mats[0] on raw matrices, accumulated from the left.

    No validation: this is the inner-loop form behind product and the
    infimum search.  Pass mul=rational.matmul for exact rational matrices.
    """
    out = mats[-1]
    for m in reversed(mats[:-1]):
        out = mul(out, m)
    return out


def product(factors: SparseFactors):
    """Multiply the factors last-to-first: returns an N_L x N_0 matrix.

    Rational inputs give an exact rational result; float inputs give float64.
    """
    mats = list(factors.factors)
    if all(isinstance(m, np.ndarray) and m.dtype != object for m in mats):
        return chain_product(mats)
    rows = [matrix(m.tolist() if isinstance(m, np.ndarray) else m) for m in mats]
    return chain_product(rows, matmul)


def masked_factors(pattern: SupportPattern, arrays: Sequence[np.ndarray]) -> SparseFactors:
    """Zero off-mask entries of the given arrays and wrap as SparseFactors."""
    cleaned = []
    for i, arr in enumerate(arrays):
        cleaned.append(np.where(pattern.mask_array(i), arr, 0.0))
    return SparseFactors(pattern=pattern, factors=tuple(cleaned))


def random_factors(pattern: SupportPattern, rng: np.random.Generator, scale: float = 1.0) -> SparseFactors:
    arrays = [
        rng.uniform(-scale, scale, size=pattern.layer_shape(i))
        for i in range(pattern.depth)
    ]
    return masked_factors(pattern, arrays)
