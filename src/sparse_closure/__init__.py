"""Closedness analysis of fixed-support factorization sets, pathological
dataset construction, and divergence experiments for sparse ReLU networks."""

__version__ = "0.1.0"

from .closure import (
    Closedness,
    ClosednessVerdict,
    check_theorem5_conditions,
    closedness_verdict,
    closure_gap_witness_lu,
    lu_membership,
)
from .datasets import (
    Grid,
    Hyperplane,
    LabeledDataset,
    build_bad_dataset,
    edge_intersects,
    find_free_hypercube,
    theoretical_resolution,
)
from .infimum import InfimumResult, SearchStats, infimum_oracle
from .patterns import (
    SparseFactors,
    SupportPattern,
    dense_pattern,
    lu_pattern,
    product,
    restrict_to_hidden,
    row_support_union,
    validate_pattern,
)
from .polyhedra import (
    AffineImageSet,
    RationalPolyhedron,
    affine_image,
    contains,
    drop_redundant,
    eliminate_variable,
)
from .relu import (
    NetworkParams,
    TrainingConfig,
    TrainingTrace,
    forward,
    init_params,
    jacobian_at,
    loss_and_grad,
    metrics,
    normalize_first_layer,
    sgd_step,
    train,
)
from .smt import QeSentenceStats, emit_qe_sentence

__all__ = [
    "Closedness",
    "ClosednessVerdict",
    "Grid",
    "Hyperplane",
    "InfimumResult",
    "LabeledDataset",
    "NetworkParams",
    "QeSentenceStats",
    "RationalPolyhedron",
    "SearchStats",
    "AffineImageSet",
    "SparseFactors",
    "SupportPattern",
    "TrainingConfig",
    "TrainingTrace",
    "affine_image",
    "build_bad_dataset",
    "check_theorem5_conditions",
    "closedness_verdict",
    "closure_gap_witness_lu",
    "contains",
    "dense_pattern",
    "drop_redundant",
    "edge_intersects",
    "eliminate_variable",
    "emit_qe_sentence",
    "find_free_hypercube",
    "forward",
    "infimum_oracle",
    "init_params",
    "jacobian_at",
    "loss_and_grad",
    "lu_membership",
    "lu_pattern",
    "metrics",
    "normalize_first_layer",
    "product",
    "restrict_to_hidden",
    "row_support_union",
    "sgd_step",
    "theoretical_resolution",
    "train",
    "validate_pattern",
]
