"""Train a fixed-support ReLU network toward an unrealizable linear map and
watch the weight norms diverge; weight decay stops the divergence at the
price of a worse fit.

A scaled-down version of the full experiment (the command line runs the
complete one: sparse-closure train-lu --out traces/).

Run from the repository root:  python demos/demo_lu_divergence.py
"""

import tempfile

from sparse_closure.experiments import desk_spec, run_experiment

print("training the lower-upper pattern toward the anti-diagonal identity")
print("d=10, 2000 samples, 60 epochs, 3 seeds per setting\n")

with tempfile.TemporaryDirectory() as tmp:
    for regularized in (False, True):
        label = "weight decay 5e-4" if regularized else "no regularization"
        spec = desk_spec(
            regularized,
            out_dir=tmp,
            dimension=10,
            num_samples=2_000,
            epochs=60,
            runs=3,
        )
        result = run_experiment(spec)
        agg = result.aggregate()
        print(f"--- {label} ---")
        print("epoch  rel_empirical  rel_jacobian  |W1|_F  |W2|_F")
        for e in (1, 10, 30, 60):
            i = e - 1
            print(
                f"{e:>5}  {agg['rel_empirical_mean'][i]:>13.4f}  "
                f"{agg['rel_jacobian_mean'][i]:>12.4f}  "
                f"{agg['frob_W1_mean'][i]:>6.2f}  {agg['frob_W2_mean'][i]:>6.2f}"
            )
        growth = agg["frob_W2_mean"][-1] / agg["frob_W2_mean"][0]
        print(f"second-layer norm grew {growth:.1f}x over the run\n")

print("the target matrix is the anti-diagonal identity; the unregularized")
print("run fits it better and better only by sending weights to infinity,")
print("while the regularized run trades fit quality for bounded parameters.")
