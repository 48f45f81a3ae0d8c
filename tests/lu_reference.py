"""The lower-upper pattern test as it ran on the masks.

Masks hold distinct in-bounds pairs, so d(d+1)/2 pairs on or above (below)
the diagonal are the whole upper (lower) triangle.  patterns.is_lu_pattern
reads the hidden-neuron index instead; tests compare the two.
"""


def is_lu_pattern(pattern):
    d = pattern.dims[0]
    if pattern.dims != (d, d, d):
        return False
    upper, lower = pattern.masks
    return (len(upper) == d * (d + 1) // 2 == len(lower)
            and all(r <= c for r, c in upper) and all(r >= c for r, c in lower))
