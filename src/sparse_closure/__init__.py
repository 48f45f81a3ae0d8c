"""Closedness analysis of fixed-support factorization sets, pathological
dataset construction, and divergence experiments for sparse ReLU networks.

The public names load lazily (PEP 562): `import sparse_closure` imports no
module of the package, and a name's module is imported when the name is
first read.  So the exact-rational commands never load numpy.  A resolved
name is not stored on the package: each read goes to its module, whose
attribute may have been swapped since (a tracer's wrapper, say).
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each public name
_EXPORTS = {
    "closure": ("Closedness", "ClosednessVerdict", "check_theorem5_conditions", "closedness_verdict",
                "closure_gap_witness_lu", "lu_membership"),
    "datasets": ("Grid", "Hyperplane", "LabeledDataset", "build_bad_dataset", "find_free_hypercube",
                 "theoretical_resolution"),
    "infimum": ("InfimumResult", "SearchStats", "infimum_oracle"),
    "patterns": ("SparseFactors", "SupportPattern", "dense_pattern", "lu_pattern", "product",
                 "restrict_to_hidden", "validate_pattern"),
    "polyhedra": ("RationalPolyhedron", "affine_image", "contains", "drop_redundant",
                  "eliminate_variable", "project"),
    "relu": ("NetworkParams", "StackTrace", "TrainingConfig", "TrainingTrace", "forward", "init_params",
             "jacobian_at", "loss_and_grad", "metrics", "normalize_first_layer", "sgd_step", "train"),
    "smt": ("QeSentenceStats", "emit_qe_sentence"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
