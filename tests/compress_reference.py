"""Hidden-subset compression as it ran before the per-neuron index.

`compress_hidden` scans every pair of both masks and builds its child with
the validating SupportPattern constructor, so the child's hidden_neurons,
one (R_k, C_k) signature bitmask pair per neuron, is built from scratch on
first use.  patterns.compress_hidden instead holds the kept neurons' pairs
of the parent's index, decodes masks from their bits only when read, and
skips re-validation; tests compare the two.
"""

from sparse_closure.patterns import SupportPattern, _hidden_subset


def compress_hidden(pattern, hidden):
    kept = _hidden_subset(pattern, hidden, "compression")
    index = {old: new for new, old in enumerate(kept)}
    first = frozenset((index[r], c) for r, c in pattern.masks[0] if r in index)
    second = frozenset((r, index[c]) for r, c in pattern.masks[1] if c in index)
    return SupportPattern(dims=(pattern.dims[0], len(kept), pattern.dims[2]), masks=(first, second))
