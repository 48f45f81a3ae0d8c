"""Build the finite training set on which the lower-upper architecture has no
optimal parameters, and show the grid machinery it rests on.

Run from the repository root:  python demos/demo_pathological_dataset.py
"""

import tempfile
from fractions import Fraction
from pathlib import Path

from sparse_closure import (
    build_bad_dataset,
    closure_gap_witness_lu,
    find_free_hypercube,
    lu_pattern,
    theoretical_resolution,
)
from sparse_closure.datasets import cube_is_free, hyperplane, write_dataset

print("grid resolutions guaranteeing the construction (they grow fast):")
for d in (2, 3, 4):
    pattern = lu_pattern(d)
    p = theoretical_resolution(pattern)
    print(f"  d={d}: resolution {p}, grid size {(p + 1) ** d:.3e}")
print()

print("for d=2 the guaranteed grid is small enough to materialize fully:")
pattern = lu_pattern(2)
witness = closure_gap_witness_lu(2)
dataset, p = build_bad_dataset(witness, pattern)
print(f"  resolution {p}, {len(dataset)} labeled points, targets y = Ax exact")
with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "lu2_full.csv"
    write_dataset(dataset, csv_path, Path(tmp) / "lu2_full.json", witness, pattern, p)
    print(f"  written as CSV ({csv_path.stat().st_size} bytes, + header json)\n")

print("practical training sets use a small override (divergence shows anyway):")
dataset, p = build_bad_dataset(witness, pattern, p_override=4)
print(f"  resolution {p}: {len(dataset)} points; first three:")
for x, y in list(zip(dataset.inputs, dataset.targets))[:3]:
    print(f"    x = {tuple(map(str, x))}, y = {tuple(map(str, y))}")
print()

print("the free-hypercube search behind the construction:")
planes = [
    hyperplane([1, 0], Fraction(-1, 2)),
    hyperplane([1, -1], Fraction(1, 5)),
]
resolution = 3 * 2 * len(planes)
base = find_free_hypercube(planes, resolution, 2)
print(f"  2 hyperplanes, resolution {resolution}: free cube at base "
      f"{tuple(map(str, base))}")
print(f"  re-checked, each plane has one strict sign on the cube's vertices: "
      f"{cube_is_free(planes, base, resolution)}")
print("  (no edge of that elementary cube meets any of the hyperplanes, so a")
print("  piecewise-linear function with those boundaries is affine on it)")
