import warnings

import pytest

from sparse_closure.experiments import (
    DESK_BATCH,
    DESK_DIMENSION,
    PAPER_SCALE,
    STANDARD_WEIGHT_DECAY,
    desk_spec,
    run_experiment,
)


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


def test_diverging_runs_are_flagged_without_warnings(tmp_path):
    # with warnings as errors, an overflow mid-epoch would raise instead of
    # leaving the runs to the divergence guard
    spec = desk_spec(False, tmp_path, dimension=6, num_samples=300, epochs=8, batch_size=10,
                     runs=3, learning_rate=30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(spec)
    assert all(t.diverged for t in result.traces)
