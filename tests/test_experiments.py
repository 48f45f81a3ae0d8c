import csv
import warnings

import numpy as np
import pytest

from sparse_closure.experiments import (
    DESK_BATCH,
    DESK_DIMENSION,
    PAPER_SCALE,
    STANDARD_WEIGHT_DECAY,
    ExperimentResult,
    desk_spec,
    run_experiment,
    write_experiment,
)
from sparse_closure.relu import TrainingTrace


class TestDeskSpec:
    def test_desk_defaults(self, tmp_path):
        spec = desk_spec(False, tmp_path)
        assert (spec.dimension, spec.config.batch_size, spec.config.epochs, spec.runs) == (
            DESK_DIMENSION, DESK_BATCH, 200, 10,
        )
        assert spec.config.weight_decay == 0.0 and not spec.regularized

    def test_regularized_uses_the_standard_decay(self, tmp_path):
        spec = desk_spec(True, tmp_path)
        assert spec.config.weight_decay == STANDARD_WEIGHT_DECAY and spec.regularized

    @pytest.mark.parametrize("regularized, decay", [(False, 1e-3), (True, 0.0), (True, 2e-3)])
    def test_explicit_decay_wins_and_sets_the_label(self, tmp_path, regularized, decay):
        spec = desk_spec(regularized, tmp_path, weight_decay=decay)
        assert spec.config.weight_decay == decay
        assert spec.regularized == (decay > 0)

    def test_paper_scale_preset(self, tmp_path):
        spec = desk_spec(False, tmp_path, **PAPER_SCALE)
        assert (spec.dimension, spec.num_samples, spec.config.batch_size, spec.init_scale) == (
            100, 100_000, 3000, 1.0,
        )

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            desk_spec(False, tmp_path, epoch=3)

    @pytest.mark.parametrize("name, value", [
        ("runs", 2.5), ("runs", True), ("dimension", 2.5),
        ("num_samples", 100.5), ("num_samples", float("nan")),
    ])
    def test_a_count_that_is_not_an_integer_is_refused_by_name(self, tmp_path, name, value):
        # unchecked, these raised TypeError inside run_experiment, and
        # runs=True trained one run
        with pytest.raises(ValueError, match=f"^{name} .* is not an integer$"):
            desk_spec(False, tmp_path, **{name: value})


def test_diverging_runs_are_flagged_without_warnings(tmp_path):
    # with warnings as errors, an overflow mid-epoch would raise instead of
    # leaving the runs to the divergence guard
    spec = desk_spec(False, tmp_path, dimension=6, num_samples=300, epochs=8, batch_size=10,
                     runs=3, learning_rate=30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(spec)
    assert all(t.diverged for t in result.traces)


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header[0] == "epoch" and all(len(row) == len(header) for row in body)
    columns = {"epoch": [int(row[0]) for row in body]}
    columns.update({name: [float(row[i]) for row in body] for i, name in enumerate(header[1:], 1)})
    return columns


def assert_same_floats(read, expected):
    # bit for bit, signs of zero included; NaN payloads do not survive text
    read, expected = np.asarray(read, dtype=float), np.asarray(expected, dtype=float)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(read), nan)
    assert np.array_equal(read[~nan].view(np.int64), expected[~nan].view(np.int64))


def test_trace_csvs_read_back_exactly(tmp_path):
    # runs diverge at different epochs (lengths 8, 8 and 2, the last epoch
    # of the short one NaN), so the aggregate's count column changes
    spec = desk_spec(False, tmp_path, dimension=6, num_samples=300, epochs=8, batch_size=10,
                     runs=3, learning_rate=5.0)
    result = run_experiment(spec)
    lengths = [len(t) for t in result.traces]
    assert min(lengths) < max(lengths)
    *run_paths, agg_path = write_experiment(spec, result)
    assert len(run_paths) == spec.runs
    for trace, path in zip(result.traces, run_paths):
        read = read_csv_columns(path)
        assert list(read) == ["epoch", *trace.columns()]
        assert read.pop("epoch") == list(range(1, len(trace) + 1))
        for name, values in trace.columns().items():
            assert_same_floats(read[name], values)
    aggregate = result.aggregate()
    read = read_csv_columns(agg_path)
    assert list(read) == list(aggregate)
    assert read.pop("epoch") == aggregate.pop("epoch").tolist() == list(range(1, max(lengths) + 1))
    assert read.pop("runs") == aggregate.pop("runs").tolist() == [3] + [2] * 7
    for name, values in aggregate.items():
        assert_same_floats(read[name], values)


def test_aggregate_covers_the_finite_runs_of_each_epoch(tmp_path):
    spec = desk_spec(False, tmp_path, dimension=6, num_samples=300, epochs=8, batch_size=10,
                     runs=3, learning_rate=5.0)
    result = run_experiment(spec)
    aggregate = result.aggregate()
    for e in range(8):
        rows = [[t.columns()[name][e] for name in t.columns()] for t in result.traces if len(t) > e]
        finite = np.array([row for row in rows if np.all(np.isfinite(row))])
        assert aggregate["runs"][e] == len(finite)
        for c, name in enumerate(result.traces[0].columns()):
            assert aggregate[f"{name}_mean"][e] == pytest.approx(finite[:, c].mean(), rel=1e-12)
            assert aggregate[f"{name}_std"][e] == pytest.approx(finite[:, c].std(), rel=1e-12, abs=1e-12)


def test_aggregate_of_finite_runs_is_the_plain_mean_and_std(tmp_path):
    result = run_experiment(desk_spec(True, tmp_path, dimension=5, num_samples=200, epochs=3, runs=10))
    aggregate = result.aggregate()
    assert aggregate["runs"].tolist() == [10] * 3
    for name in result.traces[0].columns():
        arr = np.asarray([t.columns()[name] for t in result.traces])
        assert_same_floats(aggregate[f"{name}_mean"], arr.mean(axis=0))
        assert_same_floats(aggregate[f"{name}_std"], arr.std(axis=0))


def test_an_epoch_no_run_counts_at_is_nan_without_warnings():
    nan = float("nan")
    traces = [TrainingTrace([1.0, nan], [2.0, nan], [3.0, nan], [4.0, nan], True),
              TrainingTrace([5.0], [6.0], [7.0], [8.0], False)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        aggregate = ExperimentResult(tuple(traces), (1.0, 1.0), (1.0, 1.0)).aggregate()
    assert aggregate["runs"].tolist() == [2, 0]
    assert aggregate["rel_empirical_mean"][0] == 3.0 and np.isnan(aggregate["rel_empirical_mean"][1])
