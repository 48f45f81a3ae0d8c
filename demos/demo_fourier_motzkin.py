"""Exact polyhedron projection: eliminate variables from a rational halfspace
system and check membership of the image of a polytope under a linear map.

Run from the repository root:  python demos/demo_fourier_motzkin.py
"""

from fractions import Fraction

from sparse_closure.polyhedra import (
    affine_image,
    contains,
    eliminate_variable,
    polyhedron,
    to_json,
)

print("start: the unit cube in 3 variables (6 inequalities)")
cube = polyhedron(
    3,
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    [1, 0, 1, 0, 1, 0],
)
print(f"rows: {cube.num_rows}\n")

print("eliminate variable 3, then variable 2:")
step1 = eliminate_variable(cube, 2)
step2 = eliminate_variable(step1, 1)
print(f"after one elimination: {step1.num_rows} rows")
print(f"after two eliminations: {step2.num_rows} rows")
print("remaining system:", to_json(step2), "\n")

print("image of the cube under the sum functional t = x1 + x2 + x3:")
image = affine_image([[1, 1, 1]], cube)
print("image system:", to_json(image))
for t in (0, Fraction(3, 2), 3, Fraction(31, 10), -1):
    print(f"  t = {t}: {'inside' if contains(image, [t]) else 'outside'}")
print()

print("everything above ran in exact rational arithmetic: each elimination")
print("pairs every lower bound with every upper bound, which is why row")
print("counts can explode and why a hard row cap guards the engine")
print("(the row_cap argument; `sparse-closure project --row-cap` on the command line).")
