"""Training-divergence experiments on the lower-upper triangular architecture.

A two-layer network with triangular supports is trained toward the linear
map x -> Jx, J the anti-diagonal identity, the canonical target that the
architecture can approximate but never realize.  Without weight decay the
factor norms grow without bound while both losses keep improving; with the
standard decay the norms stay put at the price of a worse fit.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .patterns import lu_pattern
from .relu import TrainingConfig, TrainingTrace, init_params, train, write_trace_csv

# Desk-scale defaults: small enough for laptop minutes, stepped enough for the
# divergence signature to show inside 200 epochs.  The initialization scale is
# deliberately above 1: the regularized equilibrium norm is initialization
# independent, so starting too small reads as spurious "norm growth" in the
# regularized run as well.  The optimizer's other defaults are TrainingConfig's.
DESK_DIMENSION = 20
DESK_SAMPLES = 10_000
DESK_BATCH = 25
DESK_INIT_SCALE = 2.2

# the source paper's scale, as desk_spec overrides
PAPER_SCALE = {"dimension": 100, "num_samples": 100_000, "batch_size": 3000, "init_scale": 1.0}

STANDARD_WEIGHT_DECAY = 5e-4


@dataclass(frozen=True)
class ExperimentSpec:
    """One multi-seed training experiment (a single weight-decay setting)."""

    out_dir: Path
    config: TrainingConfig
    dimension: int = DESK_DIMENSION
    num_samples: int = DESK_SAMPLES
    runs: int = 10
    init_scale: float = DESK_INIT_SCALE

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.num_samples < self.config.batch_size:
            raise ValueError("need at least one full batch of samples")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")

    @property
    def regularized(self) -> bool:
        """Whether the run uses weight decay; this also labels its trace files."""
        return self.config.weight_decay > 0


def desk_spec(regularized: bool, out_dir, **overrides) -> ExperimentSpec:
    """A desk-scale experiment with any TrainingConfig or ExperimentSpec field
    overridden by keyword.  weight_decay defaults to STANDARD_WEIGHT_DECAY
    when regularized and to 0 otherwise; an explicit value wins."""
    overrides.setdefault("weight_decay", STANDARD_WEIGHT_DECAY if regularized else 0.0)
    overrides.setdefault("batch_size", DESK_BATCH)
    config = {f.name: overrides.pop(f.name) for f in fields(TrainingConfig) if f.name in overrides}
    return ExperimentSpec(out_dir=Path(out_dir), config=TrainingConfig(**config), **overrides)


def anti_diagonal_identity(d: int) -> np.ndarray:
    return np.fliplr(np.eye(d))


def run_single_seed(spec: ExperimentSpec, run_index: int) -> tuple[TrainingTrace, float, float]:
    """Train one seed; returns (trace, initial |W1|_F, initial |W2|_F).

    The per-run stream is seeded by (config.seed, run_index), and the data,
    the initialization and the shuffles all consume it in a fixed order, so
    results are bit-reproducible regardless of scheduling.
    """
    rng = np.random.default_rng([spec.config.seed, run_index])
    d = spec.dimension
    target = anti_diagonal_identity(d)
    inputs = rng.uniform(-1.0, 1.0, size=(d, spec.num_samples))
    targets = target @ inputs
    params = init_params(lu_pattern(d), rng, scale=spec.init_scale)
    w1_init = float(np.linalg.norm(params.weights[0]))
    w2_init = float(np.linalg.norm(params.weights[1]))
    trace = train(params, inputs, targets, target, spec.config, rng)
    return trace, w1_init, w2_init


@dataclass(frozen=True)
class ExperimentResult:
    traces: tuple[TrainingTrace, ...]
    initial_w1: tuple[float, ...]
    initial_w2: tuple[float, ...]

    def aggregate(self) -> dict[str, np.ndarray]:
        """Per-epoch mean and std over seeds, truncated to the shortest trace
        (traces only differ in length if the divergence guard fired)."""
        n = min(len(t) for t in self.traces)
        out: dict[str, np.ndarray] = {"epoch": np.arange(1, n + 1)}
        for name in self.traces[0].columns():
            arr = np.asarray([t.columns()[name][:n] for t in self.traces])
            out[f"{name}_mean"] = arr.mean(axis=0)
            out[f"{name}_std"] = arr.std(axis=0)
        return out


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> ExperimentResult:
    """All seeds of one experiment, optionally in parallel processes.

    Seeds are independent; results are collected in seed order so the output
    does not depend on scheduling.
    """
    if workers is None:
        workers = min(spec.runs, os.cpu_count() or 1)
    if workers <= 1 or spec.runs == 1:
        rows = [run_single_seed(spec, r) for r in range(spec.runs)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_single_seed, [spec] * spec.runs, range(spec.runs)))
    return ExperimentResult(
        traces=tuple(r[0] for r in rows),
        initial_w1=tuple(r[1] for r in rows),
        initial_w2=tuple(r[2] for r in rows),
    )


def write_experiment(spec: ExperimentSpec, result: ExperimentResult) -> list[Path]:
    """Per-seed trace CSVs plus an aggregate mean/std CSV; returns the paths."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    label = "regularized" if spec.regularized else "unregularized"
    paths = []
    for r, trace in enumerate(result.traces):
        path = spec.out_dir / f"trace_{label}_seed{spec.config.seed}_run{r}.csv"
        trace.write_csv(path)
        paths.append(path)
    agg_path = spec.out_dir / f"trace_{label}_aggregate.csv"
    write_trace_csv(agg_path, result.aggregate())
    paths.append(agg_path)
    return paths
