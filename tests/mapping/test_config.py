"""Unit tests for the mapper configuration."""

import pytest

from repro.mapping import MapperConfig


class TestValidation:
    def test_defaults_match_paper_parameters(self):
        config = MapperConfig()
        assert config.decay_rate == 0.0          # lambda_t
        assert config.lookahead_weight == 0.1    # w_l
        assert config.time_weight == 0.1         # w_t
        assert config.history_window == 4        # t
        assert config.mode == "hybrid"

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            MapperConfig(alpha_gate=-1.0)
        with pytest.raises(ValueError):
            MapperConfig(lookahead_weight=-0.1)
        with pytest.raises(ValueError):
            MapperConfig(history_window=-1)
        with pytest.raises(ValueError):
            MapperConfig(lookahead_depth=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("name", ["alpha_gate", "alpha_shuttling",
                                      "lookahead_weight", "decay_rate",
                                      "time_weight"])
    def test_non_finite_weights_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            MapperConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_hybrid_ratio_rejected(self, value):
        with pytest.raises(ValueError):
            MapperConfig.hybrid(value)

    @pytest.mark.parametrize("bounds", [
        {"stall_threshold": -1}, {"stall_threshold": -3},
        {"max_routing_steps": 0}, {"max_routing_steps": -1},
    ])
    def test_out_of_range_routing_bounds_rejected(self, bounds):
        # A negative stall threshold maps like 0 under another fingerprint;
        # a step bound below 1 fails every compile late.
        with pytest.raises(ValueError, match=next(iter(bounds))):
            MapperConfig(**bounds)

    def test_smallest_routing_bounds_accepted(self):
        config = MapperConfig(stall_threshold=0, max_routing_steps=1)
        assert (config.stall_threshold, config.max_routing_steps) == (0, 1)

    def test_both_capabilities_disabled_rejected(self):
        with pytest.raises(ValueError):
            MapperConfig(alpha_gate=0.0, alpha_shuttling=0.0)


class TestModes:
    def test_gate_only(self):
        config = MapperConfig.gate_only()
        assert config.mode == "gate_only"
        assert config.alpha_shuttling == 0.0
        assert config.alpha_ratio == float("inf")

    def test_shuttling_only(self):
        config = MapperConfig.shuttling_only()
        assert config.mode == "shuttling_only"
        assert config.alpha_gate == 0.0
        assert config.alpha_ratio == 0.0

    def test_hybrid_ratio(self):
        config = MapperConfig.hybrid(1.25)
        assert config.mode == "hybrid"
        assert config.alpha_ratio == pytest.approx(1.25)

    def test_hybrid_requires_positive_ratio(self):
        with pytest.raises(ValueError):
            MapperConfig.hybrid(0.0)

    def test_with_overrides_returns_new_instance(self):
        config = MapperConfig()
        changed = config.with_overrides(lookahead_weight=0.5)
        assert changed.lookahead_weight == 0.5
        assert config.lookahead_weight == 0.1
