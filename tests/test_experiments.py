"""Tests for the experiment registry and per-experiment invariants."""

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentResult, list_experiments, run
from repro.experiments.base import ExperimentResult as BaseResult

ALL_EXPERIMENTS = list_experiments()

#: `python -m repro run all` stdout; CI diffs the whole of it.
RUN_ALL_GOLDEN = (pathlib.Path(__file__).parent / "golden"
                  / "run_all_stdout.txt")


class TestRegistry:
    def test_covers_every_table_and_figure(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure1", "figure4", "figure5", "figure6", "figure8",
            "figure9", "figure10", "figure11", "figure12", "figure13",
            "figure14", "figure15", "figure16", "figure17",
            "section29", "section210", "section73", "section76",
            "section79", "section710",
            "fleet", "fleet_strategies", "fleet_crosspod",
            "fleet_contention", "fleet_replay", "fleet_deploy",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            run("figure99")


def _golden_section(experiment_id: str) -> str:
    """One experiment's block of the golden `run all` stdout."""
    text = RUN_ALL_GOLDEN.read_text()
    start = text.index(f"== {experiment_id}: ")
    end = text.find("\n== ", start)
    return text[start:end + 1 if end >= 0 else len(text)]


@pytest.mark.parametrize("experiment_id", ["figure6", "section73"])
def test_ecmp_experiments_match_run_all_golden(experiment_id):
    # Both rest on ECMP edge loads; a moved digit means the routing
    # changed what it computes, not just how fast.
    assert run(experiment_id).render() + "\n\n" == \
        _golden_section(experiment_id)


_CACHE: dict[str, ExperimentResult] = {}


def _cached(experiment_id: str) -> ExperimentResult:
    if experiment_id not in _CACHE:
        _CACHE[experiment_id] = run(experiment_id)
    return _CACHE[experiment_id]


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
class TestEveryExperiment:
    @pytest.fixture
    def result(self, experiment_id):
        return _cached(experiment_id)

    def test_returns_result(self, result, experiment_id):
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id

    def test_has_paper_claims(self, result, experiment_id):
        assert result.paper, f"{experiment_id} publishes no paper claims"
        assert result.measured, f"{experiment_id} measures nothing"

    def test_renders(self, result, experiment_id):
        text = result.render()
        assert experiment_id in text
        assert "paper vs measured" in text

    def test_rows_match_columns(self, result, experiment_id):
        for row in result.rows:
            assert len(row) == len(result.columns), experiment_id


class TestHeadlineClaims:
    """Spot-check the quantitative paper-vs-measured agreements."""

    def test_figure6_ratios(self):
        result = run("figure6")
        measured = result.measured["twisted/regular throughput, 4x4x8"]
        assert 1.3 <= measured <= 1.8
        measured = result.measured["twisted/regular throughput, 4x8x8"]
        assert 1.15 <= measured <= 1.6

    def test_figure4_spares_staircase(self):
        result = run("figure4")
        assert result.measured["goodput @1K chips, 99.0-99.5%"] == \
            pytest.approx(0.75, abs=0.03)
        assert result.measured["goodput @2K chips"] == pytest.approx(
            0.50, abs=0.03)

    def test_figure9_chain(self):
        result = run("figure9")
        assert result.measured["TPU v3 vs CPU"] == pytest.approx(9.8,
                                                                 rel=0.1)
        assert result.measured["TPU v4 vs CPU"] == pytest.approx(30.1,
                                                                 rel=0.1)

    def test_table3_gains(self):
        result = run("table3")
        assert result.measured["LLM gain"] == pytest.approx(2.3, rel=0.15)
        assert 1.1 <= result.measured["GPT-3 pre-training gain"] <= 1.9

    def test_figure13_headline(self):
        result = run("figure13")
        assert result.measured["overall v4/v3 performance"] == \
            pytest.approx(2.1, rel=0.1)
        assert result.measured["overall v4/v3 perf/Watt"] == \
            pytest.approx(2.7, rel=0.1)

    def test_section76_carbon(self):
        result = run("section76")
        assert result.measured["energy ratio"] == pytest.approx(2.85,
                                                                abs=0.01)
        assert result.measured["CO2e ratio"] == pytest.approx(18.3, abs=0.2)

    def test_section210_ceilings(self):
        result = run("section210")
        assert float(result.measured["optics cost fraction"].rstrip("%")) < 5
        assert float(result.measured["optics power fraction"].rstrip("%")) < 3

    def test_fleet_replay_byte_identical(self):
        result = _cached("fleet_replay")
        assert result.measured[
            "replay reproduces recorded telemetry byte-for-byte"] == "yes"

    def test_fleet_deploy_ocs_advantage(self):
        result = _cached("fleet_deploy")
        assert result.measured["OCS goodput"] > \
            result.measured["static goodput"]
        assert result.measured["capacity drained"] > 0


class TestResultContainer:
    def test_comparison_rows_include_measured_only_keys(self):
        result = BaseResult(experiment_id="x", title="t", columns=["a"])
        result.paper["p"] = 1
        result.measured["m"] = 2
        rows = dict((r[0], (r[1], r[2])) for r in result.comparison_rows())
        assert rows["p"] == (1, "-")
        assert rows["m"] == ("-", 2)

    def test_render_includes_notes(self):
        result = BaseResult(experiment_id="x", title="t", columns=["a"])
        result.notes.append("calibrated constant")
        assert "calibrated constant" in result.render()
