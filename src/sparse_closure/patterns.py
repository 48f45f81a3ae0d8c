"""Support patterns for fixed-support factorizations and sparse networks.

A pattern fixes, per layer, which weight-matrix entries may be nonzero.
Masks are stored as index-pair sets (0-based internally); the JSON wire
format is 1-based and is converted exactly once, in the parser.  Only the
float helpers import numpy, when they run, so exact callers never load it.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .rational import matmul, matrix

if TYPE_CHECKING:
    import numpy as np

Mask = frozenset[tuple[int, int]]

NEURON_INDEX_CAP = 2**30 // 81  # hidden_neurons peaks at about 81 bytes a neuron


@dataclass(frozen=True)
class SupportPattern:
    """Layer dimensions plus one index-pair mask per layer.

    dims is (N_0, ..., N_L) from input to output; masks[i] constrains the
    weight matrix of layer i+1, of shape N_{i+1} x N_i, as a set of 0-based
    (row, col) pairs.  Instances are immutable and safe to share.

    Every pattern built here is validated: the constructor checks every
    pair and stores it as ints.  The one exception is compress_hidden's
    child, built by _compressed from dims and its slice of a validated
    parent's hidden_neurons alone, so it is in bounds by construction.  Its
    masks are decoded from those (R_k, C_k) bits the first time they are
    read (==, hash, repr, pickling and mask_arrays all read them), by
    __getattr__, which runs only while masks is unset; a closedness verdict
    reads dims and hidden_neurons only, so it never builds them.
    """

    dims: tuple[int, ...]
    masks: tuple[Mask, ...]

    def __post_init__(self):
        if len(self.dims) < 2:
            raise ValueError("a pattern needs at least an input and an output layer")
        if any(isinstance(n, bool) or not isinstance(n, int) or n <= 0 for n in self.dims):
            raise ValueError(f"dimensions must be positive integers, got {self.dims}")
        if len(self.masks) != len(self.dims) - 1:
            raise ValueError(
                f"{len(self.dims)} dims require {len(self.dims) - 1} masks, got {len(self.masks)}"
            )
        convert = type(self.dims) is not tuple or type(self.masks) is not tuple
        masks = list(self.masks)
        for i, mask in enumerate(masks):
            # a pair count needs distinct pairs, a signature bit an int (1 << np.int64(64) is 0)
            if type(mask) is not frozenset or not all(type(r) is type(c) is int for r, c in mask):
                name, convert = f"mask {i + 1} entry index", True
                masks[i] = mask = frozenset([(_integer(r, name), _integer(c, name)) for r, c in mask])
            n_rows, n_cols = self.dims[i + 1], self.dims[i]
            for r, c in mask:
                if not (0 <= r < n_rows and 0 <= c < n_cols):
                    raise ValueError(
                        f"mask {i + 1} entry ({r + 1},{c + 1}) is outside its "
                        f"{n_rows}x{n_cols} layer (1-based bounds)"
                    )
        if convert:
            object.__setattr__(self, "dims", tuple(self.dims))
            object.__setattr__(self, "masks", tuple(masks))

    def __getattr__(self, name):
        # normal lookup failed: only a compressed child lacks masks, and it
        # decodes them once from the bits of its hidden_neurons
        neurons = vars(self).get("hidden_neurons")
        if name != "masks" or neurons is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}",
                                 name=name, obj=self)
        # bin(bits)[:1:-1] spells bit 0 first, so a "1" at position i is index i
        masks = (frozenset([(j, c) for j, (_, cols) in enumerate(neurons)
                            for c, bit in enumerate(bin(cols)[:1:-1]) if bit == "1"]),
                 frozenset([(r, j) for j, (rows, _) in enumerate(neurons)
                            for r, bit in enumerate(bin(rows)[:1:-1]) if bit == "1"]))
        object.__setattr__(self, "masks", masks)
        return masks

    @property
    def depth(self) -> int:
        return len(self.dims) - 1

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def output_dim(self) -> int:
        return self.dims[-1]

    def layer_shape(self, i: int) -> tuple[int, int]:
        """Shape of the i-th factor/weight matrix, i in 0..depth-1."""
        return self.dims[i + 1], self.dims[i]

    @cached_property
    def mask_arrays(self) -> tuple[np.ndarray, ...]:
        """Boolean mask matrix of each layer (True where entries may be
        nonzero), built on first use and read-only, so every caller shares it."""
        import numpy as np

        arrays = tuple(np.zeros(self.layer_shape(i), dtype=bool) for i in range(self.depth))
        for out, mask in zip(arrays, self.masks):
            for r, c in mask:
                out[r, c] = True
            out.flags.writeable = False
        return arrays

    @cached_property
    def hidden_neurons(self) -> tuple[tuple[int, int], ...]:
        """The one encoding of a hidden neuron k of a two-layer pattern: its
        signature (R_k, C_k), bitmasks of the output rows of column k of the
        second mask and the input columns of row k of the first, built on
        first use; refused past NEURON_INDEX_CAP neurons.  Both two-layer
        rules of closure.closedness_verdict read it, and a compress_hidden
        child holds the kept neurons' pairs in place of masks."""
        if self.depth != 2:
            raise ValueError("hidden neurons are indexed for two-layer patterns")
        if self.dims[1] > NEURON_INDEX_CAP:
            raise ValueError(f"refusing to index {self.dims[1]} hidden neurons "
                             f"(cap {NEURON_INDEX_CAP}, about 81 bytes each)")
        rows, cols = [0] * self.dims[1], [0] * self.dims[1]
        for k, c in self.masks[0]:
            cols[k] |= 1 << c
        for r, k in self.masks[1]:
            rows[k] |= 1 << r
        return tuple(zip(rows, cols))

    @classmethod
    def _compressed(cls, dims, neurons) -> SupportPattern:
        # trusted: neurons are pairs of a validated pattern's index, so
        # the masks __getattr__ decodes from them are in bounds
        pattern = object.__new__(cls)
        vars(pattern).update(dims=dims, hidden_neurons=neurons)
        return pattern

    def is_full(self, i: int) -> bool:
        n_rows, n_cols = self.layer_shape(i)
        return len(self.masks[i]) == n_rows * n_cols

    def mask_sizes(self) -> tuple[int, ...]:
        return tuple(len(m) for m in self.masks)


def validate_pattern(raw) -> SupportPattern:
    """Build a SupportPattern from the parsed JSON form.

    Expects {"dims": [N0, ..., NL], "masks": [[[r, c], ...], ...]} with
    1-based indices and masks listed from the first layer to the last.
    Raises ValueError, naming the field, on a wrongly typed or shaped field,
    out-of-bounds pairs, length mismatches or non-positive dimensions.
    """
    if not isinstance(raw, dict) or "dims" not in raw or "masks" not in raw:
        raise ValueError("pattern must be an object with 'dims' and 'masks'")
    dims, layers = raw["dims"], raw["masks"]
    if not isinstance(dims, list):
        raise ValueError(f"dims must be a list of positive integers, got {dims!r:.40}")
    if not isinstance(layers, list):
        raise ValueError(f"masks must be a list of masks, got {layers!r:.40}")
    masks = []
    for layer in layers:
        if not isinstance(layer, list):
            raise ValueError(f"each mask must be a list of [row, col] pairs, got {layer!r:.40}")
        pairs = set()
        for pair in layer:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"each mask entry must be a [row, col] pair, got {pair!r:.40}")
            r, c = pair
            if any(isinstance(i, bool) or not isinstance(i, int) or i < 1 for i in (r, c)):
                raise ValueError(f"mask indices must be positive integers, got {pair}")
            pairs.add((r - 1, c - 1))
        masks.append(frozenset(pairs))
    return SupportPattern(dims=tuple(dims), masks=tuple(masks))


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


def _hidden_subset(pattern: SupportPattern, hidden: Iterable[int], operation: str) -> list[int]:
    """The distinct hidden neurons named by hidden, sorted; refused unless the
    pattern has two layers and the subset is nonempty and inside range(N_1),
    and every index is an integer (a numpy integer is read through
    operator.index; a bool or a float is refused)."""
    if pattern.depth != 2:
        raise ValueError(f"hidden {operation} is defined for two-layer patterns")
    kept = sorted({_integer(k, "hidden index") for k in hidden})
    if not kept:
        raise ValueError("hidden subset must be nonempty")
    n1 = pattern.dims[1]
    if kept[0] < 0 or kept[-1] >= n1:
        raise ValueError(f"hidden subset {kept} out of range for N_1={n1}")
    return kept


def _integer(value, name: str) -> int:
    # an int, or a numpy integer through operator.index; a bool, or a float
    # such as 1.5 or nan, is refused with a ValueError naming what it is
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ValueError(f"{name} {value!r} is not an integer")
    return operator.index(value)


def restrict_to_hidden(pattern: SupportPattern, hidden: Iterable[int]) -> SupportPattern:
    """Keep only connections through the given hidden neurons (two-layer only).

    hidden is a 0-based subset of range(N_1).  Pairs of the first mask whose
    row is outside the subset are dropped, as are pairs of the second mask
    whose column is outside; dims are unchanged.
    """
    subset = frozenset(_hidden_subset(pattern, hidden, "restriction"))
    first = frozenset((r, c) for r, c in pattern.masks[0] if r in subset)
    second = frozenset((r, c) for r, c in pattern.masks[1] if c in subset)
    return SupportPattern(dims=pattern.dims, masks=(first, second))


def compress_hidden(pattern: SupportPattern, hidden: Sequence[int]) -> SupportPattern:
    """Reindex a two-layer pattern onto the given hidden neurons only.

    The factorization set is unchanged by dropping hidden neurons that carry
    no connection, so this is the step that lets the shallow closedness rules
    apply to sub-network patterns.  The child holds only its dims and the
    kept neurons' (R_k, C_k) pairs of pattern.hidden_neurons, as its own
    index: a neuron's pair names no hidden index, so it is the same in the
    child.  The child is not re-validated, and its masks are decoded from
    those bits only when something reads them (see SupportPattern), so a
    subset whose verdict reads only the index costs a slice of it.
    """
    kept = _hidden_subset(pattern, hidden, "compression")
    index = pattern.hidden_neurons
    dims = (pattern.dims[0], len(kept), pattern.dims[2])
    return SupportPattern._compressed(dims, tuple([index[k] for k in kept]))


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
        import numpy as np

        for i, f in enumerate(self.factors):
            # a rational factor becomes an object array; a ragged one is 1-d
            arr = f if isinstance(f, np.ndarray) else np.array(f, dtype=object)
            if arr.shape != self.pattern.layer_shape(i):
                raise ValueError(
                    f"factor {i + 1} has shape {arr.shape}, expected {self.pattern.layer_shape(i)}"
                )
            off_mask = np.argwhere((arr != 0) & ~self.pattern.mask_arrays[i])
            if len(off_mask):
                r, c = off_mask[0]
                raise ValueError(
                    f"factor {i + 1} has a nonzero off-mask entry at ({r + 1},{c + 1})"
                )


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
    import numpy as np

    mats = list(factors.factors)
    if all(isinstance(m, np.ndarray) and m.dtype != object for m in mats):
        return chain_product(mats)
    return chain_product([matrix(m) for m in mats], matmul)


def masked_factors(pattern: SupportPattern, arrays: Sequence[np.ndarray]) -> SparseFactors:
    """Zero off-mask entries of the given arrays and wrap as SparseFactors."""
    import numpy as np

    cleaned = tuple(np.where(m, arr, 0.0) for m, arr in zip(pattern.mask_arrays, arrays))
    return SparseFactors(pattern=pattern, factors=cleaned)


def random_factors(pattern: SupportPattern, rng: np.random.Generator) -> SparseFactors:
    arrays = [rng.uniform(-1.0, 1.0, size=pattern.layer_shape(i)) for i in range(pattern.depth)]
    return masked_factors(pattern, arrays)
