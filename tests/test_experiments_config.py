"""Unit tests for experiment configuration."""

import pytest

from repro.experiments.config import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_N_VALUES,
    PAPER_N_VALUES,
    StochasticConfig,
    full_scale_requested,
)
from repro.problems import UniformAlpha


class TestGrids:
    def test_paper_grid_is_2_5_to_2_20(self):
        assert PAPER_N_VALUES[0] == 32
        assert PAPER_N_VALUES[-1] == 2**20
        assert len(PAPER_N_VALUES) == 16

    def test_default_grid_is_subset_of_paper(self):
        assert set(DEFAULT_N_VALUES) <= set(PAPER_N_VALUES)


class TestFullScaleRequested(object):
    def test_unset_means_false(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_scale_requested()

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("yes", True), ("0", False), ("", False), ("false", False)
    ])
    def test_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_FULL", value)
        assert full_scale_requested() is expected


class TestStochasticConfig:
    def test_presets_match_paper(self):
        t1 = StochasticConfig.paper_table1()
        assert t1.sampler == UniformAlpha(0.01, 0.5)
        assert t1.n_trials == 1000
        assert t1.lam == 1.0
        assert t1.n_values == PAPER_N_VALUES
        f5 = StochasticConfig.paper_figure5()
        assert f5.sampler == UniformAlpha(0.1, 0.5)

    def test_preset_overrides(self):
        cfg = StochasticConfig.paper_table1(n_trials=10)
        assert cfg.n_trials == 10
        assert cfg.sampler == UniformAlpha(0.01, 0.5)

    def test_scaled_max_n(self):
        cfg = StochasticConfig.paper_table1().scaled(max_n=256)
        assert max(cfg.n_values) == 256

    def test_scaled_trials(self):
        cfg = StochasticConfig.paper_table1().scaled(n_trials=7)
        assert cfg.n_trials == 7

    def test_scaled_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            StochasticConfig.paper_table1().scaled(max_n=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_trials": 0},
            {"lam": 0.0},
            {"n_jobs": 0},
            {"n_values": ()},
            {"n_values": (0,)},
            {"algorithms": ("quicksort",)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StochasticConfig(**kwargs)

    def test_frozen(self):
        cfg = StochasticConfig()
        with pytest.raises(Exception):
            cfg.n_trials = 5


class TestChunkSize:
    def test_default_is_module_constant(self):
        assert StochasticConfig().effective_chunk_size == DEFAULT_CHUNK_SIZE

    def test_explicit_value_wins(self):
        assert StochasticConfig(chunk_size=17).effective_chunk_size == 17

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            StochasticConfig(chunk_size=bad)
