"""Tests for fleet configuration validation."""

import dataclasses
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig

SRC = Path(__file__).resolve().parent.parent / "src"
FIELD_NAMES = [spec.name for spec in dataclasses.fields(FleetConfig)]


class TestValidation:
    def test_defaults_valid(self):
        config = FleetConfig()
        assert config.total_blocks == 128
        assert config.block_mtbf_seconds == \
            pytest.approx(config.host_mtbf_seconds / 16)

    @pytest.mark.parametrize("overrides", [
        dict(blocks_per_pod=60),           # not a cube
        dict(num_pods=0),
        dict(horizon_seconds=0.0),
        dict(arrival_window_seconds=3 * 86400.0),  # outlives horizon
        dict(mean_interarrival_seconds=0.0),
        dict(serving_fraction=1.5),
        dict(max_job_blocks=0),
        dict(max_job_blocks=129),          # over the machine, not a pod
        dict(host_mtbf_seconds=0.0),
        dict(mean_repair_seconds=-1.0),
        dict(checkpoint_seconds=0.0),
        dict(restore_seconds=-100.0),
        dict(serving_qps=0.0),
        dict(mean_serving_seconds=0.0),
        dict(trunk_ports=-1),
        dict(trunk_bandwidth_tax=-0.1),
        dict(trunk_reconfig_seconds=-1.0),
        dict(spare_ports=-1),
        dict(optical_failure_fraction=1.5),
        dict(port_repair_seconds=-1.0),
        # wrong types: a bool is not an int, a float is not an int
        dict(num_pods=2.0),
        dict(num_pods=True),
        dict(trunk_ports="48"),
        dict(cross_pod="no"),
        dict(cross_pod=1),
        dict(strategy=5),
        dict(serve_scenario=None),
        # non-finite floats, including an int past the float range
        dict(horizon_seconds=float("inf")),
        dict(reconfig_base_seconds=float("nan")),
        dict(ocs_switch_seconds=-float("inf")),
        dict(trunk_bandwidth_tax=10 ** 400),
        # past the float range, and not a cube
        dict(blocks_per_pod=10 ** 400),
        dict(blocks_per_pod=-8),
    ])
    def test_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            FleetConfig(**overrides)

    def test_error_names_the_field(self):
        with pytest.raises(ConfigurationError, match="cross_pod must be"):
            FleetConfig(cross_pod="no")
        with pytest.raises(ConfigurationError,
                           match="reconfig_base_seconds must be finite"):
            FleetConfig(reconfig_base_seconds=float("inf"))

    @pytest.mark.parametrize("overrides", [
        dict(reconfig_base_seconds=10 ** 4000),
        # past the interpreter's 4300-digit int-to-str limit
        dict(reconfig_base_seconds=10 ** 5000),
        dict(reconfig_base_seconds="9" * 5000),
        dict(num_pods=-10 ** 4000),
        dict(strategy="z" * 5000),
    ], ids=["4001_digits", "5001_digits", "long_str", "negative_huge",
            "long_strategy"])
    def test_error_echo_is_bounded(self, overrides):
        data = {**FleetConfig().to_dict(), **overrides}
        with pytest.raises(ConfigurationError) as caught:
            FleetConfig.from_dict(data)
        assert len(str(caught.value)) < 160

    def test_int_accepted_for_float_field_unconverted(self):
        config = FleetConfig(checkpoint_seconds=30)
        assert type(config.checkpoint_seconds) is int

    def test_cube_check_is_integer_exact(self):
        # Float cube roots overflow past 1e308 and round wrongly long
        # before that; the integer root does neither.
        side = 10 ** 134
        config = FleetConfig(blocks_per_pod=side ** 3)
        assert config.pod_grid_side == side
        with pytest.raises(ConfigurationError, match="perfect cube"):
            FleetConfig(blocks_per_pod=side ** 3 + 1)
        assert [FleetConfig(blocks_per_pod=n ** 3,
                            max_job_blocks=1).pod_grid_side
                for n in range(1, 9)] == list(range(1, 9))

    def test_autoscaler_names_have_one_definition(self):
        from repro.fleet import config, serve
        from repro.fleet.serve import autoscaler
        assert serve.AUTOSCALERS is config.AUTOSCALERS
        assert autoscaler.AUTOSCALERS is config.AUTOSCALERS

    def test_zero_serving_fraction_skips_qps_check(self):
        config = FleetConfig(serving_fraction=0.0, serving_qps=0.0)
        assert config.serving_fraction == 0.0

    def test_machine_wide_jobs_allowed_past_one_pod(self):
        # Demand above one pod is legal machine-wide; the flag flips.
        config = FleetConfig(max_job_blocks=96)
        assert config.machine_wide_jobs
        assert not FleetConfig(max_job_blocks=64).machine_wide_jobs
        assert config.trunk_capacity == \
            config.num_pods * config.trunk_ports


class TestDictRoundTrip:
    """to_dict/from_dict: the lossless serialization contract."""

    def test_every_preset_round_trips_byte_identical(self):
        import json

        from repro.fleet.presets import PRESETS
        for name, config in PRESETS.items():
            payload = config.to_dict()
            rebuilt = FleetConfig.from_dict(payload)
            assert rebuilt == config, name
            assert json.dumps(payload, sort_keys=True) == \
                json.dumps(rebuilt.to_dict(), sort_keys=True), name

    def test_to_dict_is_json_safe(self):
        import json
        payload = FleetConfig().to_dict()
        json.dumps(payload)  # no enums, no dataclasses
        assert payload["strategy"] == "first_fit"
        assert all(isinstance(v, (int, float, bool, str))
                   for v in payload.values())

    def test_from_dict_rejects_unknown_keys(self):
        payload = FleetConfig().to_dict()
        payload["flux_capacitor"] = 1.21
        with pytest.raises(ConfigurationError, match="flux_capacitor"):
            FleetConfig.from_dict(payload)

    def test_from_dict_revalidates(self):
        payload = FleetConfig().to_dict()
        payload["num_pods"] = 0
        with pytest.raises(ConfigurationError):
            FleetConfig.from_dict(payload)


def _json_values():
    """Any JSON-able value a hand-edited payload could carry."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.text(max_size=8),
        st.integers(min_value=-2 ** 64, max_value=2 ** 64),
        st.integers(min_value=2 ** 1024, max_value=2 ** 1100),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([float("nan"), float("inf"), -float("inf"),
                         0, 1, 8, 27, 64, 0.5, 1.0, -1.0, "reactive",
                         "best_fit", "", "no"]))
    return st.one_of(scalars, st.lists(scalars, max_size=3))


class TestFromDictFuzz:
    """One field set to an arbitrary JSON value: typed error or valid."""

    @staticmethod
    def _property(name, value):
        payload = FleetConfig().to_dict()
        payload[name] = value
        try:
            config = FleetConfig.from_dict(payload)
        except ConfigurationError:
            return
        text = json.dumps(config.to_dict(), sort_keys=True)
        assert json.dumps(FleetConfig.from_dict(
            json.loads(text)).to_dict(), sort_keys=True) == text
        assert all(math.isfinite(v) for v in config.to_dict().values()
                   if isinstance(v, float))

    @settings(max_examples=600, deadline=None)
    @given(st.sampled_from(FIELD_NAMES), _json_values())
    def test_property(self, name, value):
        self._property(name, value)

    @pytest.mark.parametrize("name", FIELD_NAMES)
    def test_every_field_against_hostile_values(self, name):
        for value in (float("nan"), float("inf"), -float("inf"),
                      2 ** 1024 + 1, True, "x", None, [1]):
            self._property(name, value)

    def test_serving_tier_takes_no_autoscaler(self):
        import inspect

        from repro.fleet.serve.tier import ServingTier
        assert "autoscaler" not in \
            inspect.signature(ServingTier).parameters


class TestWithOverrides:
    """The public spelling of dataclasses.replace for this config."""

    def test_applies_and_revalidates(self):
        config = FleetConfig().with_overrides(num_pods=4,
                                              observability=True)
        assert config.num_pods == 4
        assert config.observability
        # the original is untouched (configs are immutable copies)
        assert FleetConfig().num_pods == 2

    def test_no_overrides_returns_self(self):
        config = FleetConfig()
        assert config.with_overrides() is config

    def test_unknown_field_rejected_with_name(self):
        with pytest.raises(ConfigurationError, match="warp_factor"):
            FleetConfig().with_overrides(warp_factor=9)

    def test_invalid_combination_rejected(self):
        # with_overrides re-runs __post_init__: a field that is valid
        # alone cannot smuggle in an invalid pairing via the copy path.
        no_serving = FleetConfig(serving_fraction=0.0, serving_qps=0.0)
        with pytest.raises(ConfigurationError, match="serving_qps"):
            no_serving.with_overrides(serving_fraction=0.5)


class TestFacade:
    """repro.fleet.__all__ is the curated public API."""

    def test_every_facade_name_resolves(self):
        import repro.fleet as fleet
        for name in fleet.__all__:
            assert getattr(fleet, name, None) is not None, name

    def test_facade_covers_the_public_surface(self):
        import repro.fleet as fleet
        expected = {
            "FleetConfig",
            "FleetSimulator", "FleetReport", "run_fleet",
            "PRESETS", "preset_config", "preset_names",
            "SCHEDULES", "schedule_for", "schedule_names",
            "compare_policies", "compare_strategies",
            "compare_preemption", "compare_cross_pod",
            "compare_deployment", "compare_autoscalers",
            "run_sweep", "sweep_mean", "SweepResult",
            "record_trace", "save_trace", "load_trace", "trace_of",
            "AUTOSCALERS", "SCENARIOS", "SERVE_SCHEMA", "ModelTraffic",
            "ReplicaPool", "ServeReport", "ServeScenario", "ServingTier",
            "SurgeWindow", "reconciliation_residual", "scenario_for",
            "scenario_names",
        }
        assert set(fleet.__all__) == expected

    def test_import_loads_no_scipy_or_networkx(self):
        # The runtime depends on numpy alone; a fresh interpreter shows
        # what importing the fleet package really pulls in.
        import subprocess
        import sys
        probe = ("import sys, repro.fleet; "
                 "print(sorted(m for m in ('scipy', 'networkx') "
                 "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe],
                             capture_output=True, text=True, check=True,
                             env={**os.environ,
                                  "PYTHONPATH": str(SRC)}).stdout
        assert out.strip() == "[]"

    def test_deep_imports_still_work(self):
        # The facade curates; it does not wall off the modules.
        from repro.fleet.machine import plan_price
        from repro.fleet.obs import ObsRecorder
        from repro.fleet.scheduler import FleetScheduler
        from repro.fleet.serve.tier import ServingTier
        from repro.fleet.trace import validate_trace
        for obj in (plan_price, ObsRecorder, FleetScheduler, ServingTier,
                    validate_trace):
            assert callable(obj)
