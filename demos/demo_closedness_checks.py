"""Walk through the closedness rules on a gallery of support patterns.

Run from the repository root:  python demos/demo_closedness_checks.py
"""

from sparse_closure import (
    check_theorem5_conditions,
    closedness_verdict,
    dense_pattern,
    lu_pattern,
    validate_pattern,
)

print("=" * 72)
print("1. Dense two-layer patterns: one group of equal rank-one supports")
print("=" * 72)
print("hidden neuron k adds the rank-one matrices on the rectangle R_k x C_k")
print("(R_k: column k of the second mask, C_k: row k of the first); m neurons")
print("on one rectangle add the matrices of rank at most m on it.")
for dims in ((5, 4, 3), (5, 2, 3)):
    verdict = closedness_verdict(dense_pattern(dims))
    print(f"dense {dims}: {verdict.status.value} (rule: {verdict.rule})")
print("with 4 neurons on a 3x5 rectangle every 3x5 matrix is reached (a coordinate")
print("subspace); with 2 it is the 3x5 matrices of rank at most 2.  Both sets are")
print("closed, so training always has a minimizer.\n")

print("=" * 72)
print("2. Scalar output and butterfly supports: disjoint rank-one blocks")
print("=" * 72)
pattern = validate_pattern(
    {
        "dims": [10, 5, 1],
        "masks": [
            [[1, 1], [1, 4], [2, 2], [3, 7], [5, 10]],
            [[1, 1], [1, 3], [1, 5]],
        ],
    }
)
verdict = closedness_verdict(pattern)
print(f"scalar output: {verdict.status.value} (rule: {verdict.rule})")
print("with one output each rectangle is one row, which its neuron fills")
print("entirely: the set is the coordinate subspace on the union of first-layer")
print("row supports over connected neurons.")
butterfly = validate_pattern(
    {
        "dims": [4, 4, 4],
        "masks": [
            [[k, c] for k in range(1, 5) for c in range(1, 5) if (k - 1) // 2 == (c - 1) // 2],
            [[r, k] for r in range(1, 5) for k in range(1, 5) if r % 2 == k % 2],
        ],
    }
)
verdict = closedness_verdict(butterfly)
print(f"two-factor butterfly of size 4: {verdict.status.value} (rule: {verdict.rule})")
print("its four neurons hold rank-one blocks on pairwise disjoint 2x2 rectangles.")
print("The rule: a group whose neuron count is below its rectangle's shorter")
print("side may overlap no other rectangle.  Then the set is a direct sum of")
print("closed sets on disjoint coordinates, so it is closed (Le, Riccietti &")
print("Gribonval, SIAM J. Matrix Anal. Appl., 2023).\n")

print("=" * 72)
print("3. The lower-upper triangular pattern: the canonical failure")
print("=" * 72)
for d in (2, 3, 4):
    verdict = closedness_verdict(lu_pattern(d))
    print(f"d={d}: {verdict.status.value} (rule: {verdict.rule})")
witness = closedness_verdict(lu_pattern(2)).witness
print("witness (d=2):", [[str(x) for x in row] for row in witness])
print("the anti-diagonal identity can be approximated by lower*upper products")
print("to any precision, but never equals one: the factorization set is not")
print("closed, so a training problem targeting it has no optimal parameters.\n")

print("=" * 72)
print("4. The two-part sufficient condition for shallow patterns")
print("=" * 72)
pattern = dense_pattern((4, 3, 2))
report = check_theorem5_conditions(pattern)
print(f"full output mask: {report.condition1_full_output_mask}")
print(f"all {len(report.subset_verdicts)} hidden-subset factorization sets closed: "
      f"{all(sv.status.value == 'closed' for sv in report.subset_verdicts)}")
print(f"sufficient condition holds: {report.holds}")

pattern = lu_pattern(2)
report = check_theorem5_conditions(pattern)
print(f"\nfor the triangular pattern: full output mask = "
      f"{report.condition1_full_output_mask}, holds = {report.holds}")
for sv in report.subset_verdicts:
    print(f"  hidden subset {tuple(i + 1 for i in sv.hidden)}: {sv.status.value}")
