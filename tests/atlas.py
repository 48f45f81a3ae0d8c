"""Verdict atlas: closedness_verdict on every two-layer pattern of given dims,
counted by (status, rule).

Each of the 2^(N1*N0) first masks is paired with each of the 2^(N2*N1)
second masks, so (3, 3, 3) is 262,144 patterns.  Print one atlas with
    PYTHONPATH=src python tests/atlas.py 3 3 3
"""

from collections import Counter
from itertools import product

from sparse_closure.closure import closedness_verdict
from sparse_closure.patterns import SupportPattern


def all_masks(n_rows, n_cols):
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    return [frozenset(cell for i, cell in enumerate(cells) if bits >> i & 1)
            for bits in range(1 << len(cells))]


def atlas(dims) -> Counter:
    n0, n1, n2 = dims
    counts = Counter()
    for masks in product(all_masks(n1, n0), all_masks(n2, n1)):
        verdict = closedness_verdict(SupportPattern(tuple(dims), masks))
        counts[verdict.status, verdict.rule] += 1
    return counts


if __name__ == "__main__":
    import sys

    for (status, rule), count in sorted(atlas([int(n) for n in sys.argv[1:]]).items(),
                                        key=lambda item: -item[1]):
        print(f"{status.value:<11} {rule or '-':<26} {count}")
