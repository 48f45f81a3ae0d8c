"""Training-divergence experiments on the lower-upper triangular architecture.

A two-layer network with triangular supports is trained toward the linear
map x -> Jx, J the anti-diagonal identity, the canonical target that the
architecture can approximate but never realize: closedness_verdict's gap
witness for lu(d), taken as floats.  Without weight decay the
factor norms grow without bound while both losses keep improving; with the
standard decay the norms stay put at the price of a worse fit.
"""

from __future__ import annotations

import warnings

# Unused here: the benchmark's tracer (bench/tracing.py) reads this name on
# every run.  Remove it with that binding.
from concurrent.futures import ProcessPoolExecutor  # noqa: F401
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .closure import closedness_verdict
from .patterns import _integer, lu_pattern
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

# All seeds of an experiment train in one process with their data resident:
# runs * d * (samples + 4d) float64 values of data, weights and velocities,
# about 800 MB at PAPER_SCALE with 10 runs.  Larger experiments are refused
# before anything is allocated.
RESIDENT_BYTES_CAP = 2**30


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
        for name in ("dimension", "num_samples", "runs"):
            _integer(getattr(self, name), name)
        if self.dimension < 2:
            raise ValueError("dimension must be >= 2")
        if self.num_samples < self.config.batch_size:
            raise ValueError("need at least one full batch of samples")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        resident = 8 * self.runs * self.dimension * (self.num_samples + 4 * self.dimension)
        if resident > RESIDENT_BYTES_CAP:
            raise ValueError(
                f"{self.runs} runs at d={self.dimension} with {self.num_samples} samples would hold "
                f"{resident} bytes of data and weights, cap is {RESIDENT_BYTES_CAP}"
            )

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


@dataclass(frozen=True)
class ExperimentResult:
    traces: tuple[TrainingTrace, ...]
    initial_w1: tuple[float, ...]
    initial_w2: tuple[float, ...]

    def aggregate(self) -> dict[str, np.ndarray]:
        """Per-epoch mean and std over seeds, for every epoch that some run
        recorded, and in the last column, `runs`, how many runs they cover.

        At each epoch they are taken over the runs whose values there are
        all finite.  A run that the divergence guard stopped has no values
        after that epoch, and none at it either if its weights went
        non-finite.  Where no run counts, the mean and std are NaN.
        """
        n = max(len(t) for t in self.traces)
        columns = {name: np.full((len(self.traces), n), np.nan) for name in self.traces[0].columns()}
        for r, trace in enumerate(self.traces):
            for name, values in trace.columns().items():
                columns[name][r, : len(trace)] = values
        counted = np.logical_and.reduce([np.isfinite(arr) for arr in columns.values()])
        out: dict[str, np.ndarray] = {"epoch": np.arange(1, n + 1)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the empty epochs' 0/0
            for name, arr in columns.items():
                out[f"{name}_mean"] = arr.mean(axis=0, where=counted)
                out[f"{name}_std"] = arr.std(axis=0, where=counted)
        out["runs"] = counted.sum(axis=0)
        return out


def _train_runs(spec: ExperimentSpec, runs) -> ExperimentResult:
    """The given runs of spec, trained together as one stack.

    Run r draws from its own stream, seeded by (config.seed, r): its data,
    then its initialization, then one shuffle per epoch.  So a run's result
    is bit-reproducible and does not depend on which runs share its stack.
    """
    d, n = spec.dimension, spec.num_samples
    pattern = lu_pattern(d)
    rngs = [np.random.default_rng([spec.config.seed, r]) for r in runs]
    samples = np.empty((len(rngs), n, d))  # run-major rows, the layout train gathers from
    networks = []
    for rng, rows in zip(rngs, samples):
        rows[...] = rng.uniform(-1.0, 1.0, size=(d, n)).T
        networks.append(init_params(pattern, rng, scale=spec.init_scale))
    w1 = tuple(float(np.linalg.norm(net.weights[0])) for net in networks)
    w2 = tuple(float(np.linalg.norm(net.weights[1])) for net in networks)
    target = np.array(closedness_verdict(pattern).witness, dtype=float)
    result = train(networks, samples.swapaxes(1, 2), target, spec.config, rngs)
    return ExperimentResult(traces=tuple(result.traces), initial_w1=w1, initial_w2=w2)


def run_single_seed(spec: ExperimentSpec, run_index: int) -> tuple[TrainingTrace, float, float]:
    """Train one seed; returns (trace, initial |W1|_F, initial |W2|_F), the
    same as run_index's entries in run_experiment's result."""
    result = _train_runs(spec, [run_index])
    return result.traces[0], result.initial_w1[0], result.initial_w2[0]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """All seeds of one experiment, trained together as one stack."""
    return _train_runs(spec, range(spec.runs))


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
