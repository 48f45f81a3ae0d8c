"""Exhaustive edge-walk reference for the free-hypercube predicates.

A plane cuts the elementary cube at base iff it crosses one of the cube's
N * 2^(N-1) edges: its values v0, v1 at the two ends have v0 * v1 <= 0 and
are not both zero.
"""

from fractions import Fraction
from itertools import product as iter_product


def cube_edges(base, resolution):
    """Yield (endpoint, axis) for all N * 2^(N-1) edges of the elementary cube
    with the given base corner (each edge runs from endpoint along axis)."""
    n = len(base)
    step = Fraction(1, resolution)
    for axis in range(n):
        others = [i for i in range(n) if i != axis]
        for bits in iter_product((0, 1), repeat=n - 1):
            vertex = list(base)
            for i, bit in zip(others, bits):
                vertex[i] += bit * step
            yield tuple(vertex), axis


def edge_is_cut(plane, endpoint, axis, resolution):
    v0 = plane.evaluate(endpoint)
    v1 = v0 + plane.normal[axis] * Fraction(1, resolution)
    return v0 * v1 <= 0 and not (v0 == 0 and v1 == 0)


def cube_is_free(planes, base, resolution):
    return not any(
        edge_is_cut(plane, endpoint, axis, resolution)
        for endpoint, axis in cube_edges(base, resolution)
        for plane in planes
    )


def first_free_base(planes, resolution, dimension):
    """The lexicographically first free base, or None when every cube is cut."""
    for idx in iter_product(range(resolution), repeat=dimension):
        base = tuple(Fraction(i, resolution) for i in idx)
        if cube_is_free(planes, base, resolution):
            return base
    return None
