"""The lower-upper pattern tests as they run on the masks.

Masks hold distinct in-bounds pairs, so d(d+1)/2 pairs on or above (below)
the diagonal are the whole upper (lower) triangle.  closure's LU rule reads
the hidden-neuron index instead; tests compare the two.
"""


def is_lu_pattern(pattern):
    """pattern == lu_pattern(d): hidden neuron k must be lu(d)'s neuron k."""
    d = pattern.dims[0]
    if pattern.dims != (d, d, d):
        return False
    upper, lower = pattern.masks
    return (len(upper) == d * (d + 1) // 2 == len(lower)
            and all(r <= c for r, c in upper) and all(r >= c for r, c in lower))


def is_lu_relabelling(pattern):
    """Some relabelling of the hidden neurons gives lu_pattern(d).

    Row k of lu(d)'s upper triangle holds d - k pairs, so the only
    relabelling that can work sends the neuron with the largest row in the
    first mask to 0, the next to 1, and so on; tied rows fail either way.
    """
    d = pattern.dims[0]
    if pattern.dims != (d, d, d):
        return False
    upper, lower = pattern.masks
    sizes = [0] * d
    for k, _ in upper:
        sizes[k] += 1
    order = sorted(range(d), key=lambda k: -sizes[k])
    new = {k: i for i, k in enumerate(order)}
    relabelled = type(pattern)(pattern.dims, (frozenset((new[k], c) for k, c in upper),
                                              frozenset((r, new[k]) for r, k in lower)))
    return is_lu_pattern(relabelled)
