"""Emit the solver sentence that decides closedness of a masked factorization
set, and relate its size to the pattern.

Run from the repository root:  python demos/demo_qe_sentence.py
"""

import tempfile
from pathlib import Path

from sparse_closure import emit_qe_sentence, lu_pattern
from sparse_closure.patterns import SupportPattern

print("the sentence asks: is there a target matrix that masked products")
print("approximate to arbitrary precision but never attain?  sat = not closed\n")

with tempfile.TemporaryDirectory() as tmp:
    for d in (2, 3):
        pattern = lu_pattern(d)
        path = Path(tmp) / f"lu{d}.smt2"
        stats = emit_qe_sentence(pattern, path)
        mask_total = sum(len(m) for m in pattern.masks)
        print(f"lower-upper d={d}: {path.name}")
        print(f"  polynomial atoms: {stats.num_polynomials}")
        print(f"  maximum degree:   {stats.max_degree} (= 2 x depth)")
        print(f"  variables:        {stats.num_variables} "
              f"(= {d * d} target entries + 1 epsilon + 2 x {mask_total} factor copies)")
    print()

    print("head of the d=2 file:")
    with open(Path(tmp) / "lu2.smt2") as fh:
        for line in list(fh)[:7]:
            print("  " + line.rstrip())
    print()

    print("a sparse custom pattern emits a smaller sentence:")
    pattern = SupportPattern(
        dims=(2, 2, 2),
        masks=(frozenset({(0, 0), (1, 1)}), frozenset({(0, 0), (1, 1)})),
    )
    stats = emit_qe_sentence(pattern, Path(tmp) / "diag.smt2")
    print(f"  diagonal-only masks: {stats.num_variables} variables, degree {stats.max_degree}")
print()
print("deciding these sentences is the external solver's job; even d=3 is")
print("beyond current quantifier-elimination tools, which is why the library")
print("reports 'unknown' rather than pretending to decide.")
