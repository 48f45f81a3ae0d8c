"""The sufficient condition as it ran before signature multisets.

`check_theorem5_conditions` computes one closedness verdict per nonempty
hidden subset, in (size, lexicographic) order, where
closure.check_theorem5_conditions computes one per multiset of the kept
neurons' signatures and copies it to every subset that carries that
multiset; tests compare the two.
"""

from itertools import combinations

from sparse_closure.closure import Closedness, SubsetVerdict, SufficiencyReport, closedness_verdict
from sparse_closure.patterns import compress_hidden


def check_theorem5_conditions(pattern):
    n1 = pattern.dims[1]
    verdicts = []
    for size in range(1, n1 + 1):
        for subset in combinations(range(n1), size):
            v = closedness_verdict(compress_hidden(pattern, subset))
            verdicts.append(SubsetVerdict(hidden=subset, status=v.status, rule=v.rule))
    condition1 = pattern.is_full(1)
    holds = condition1 and all(v.status is Closedness.CLOSED for v in verdicts)
    return SufficiencyReport(condition1, tuple(verdicts), holds, verdicts=len(verdicts))
