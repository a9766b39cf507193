"""Tests of the benchmark itself: metrics, checks, wrappers, exit codes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracing, workloads
from repro.errors import SimulationError

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _originals():
    return [vars(entry.target())[entry.attr] for entry in tracing.ENTRIES]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    before = _originals()
    result = run.run_workload(name, seed=7, seconds=0, trace=trace,
                              setup_runs=1, results_dir=tmp_path)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(next(
        workloads.WORKLOADS[name].prepare(7).rounds))
    record = json.loads(next(tmp_path.iterdir()).read_text())
    assert all(len(op["digest"]) == 64 for op in record["ops"])
    assert len(record["calibrations"]) == len(record["ops"])
    assert {"python", "optimize", "nproc", "git_commit", "source_sha256",
            "seed"} <= set(record["provenance"])
    assert record["provenance"]["seed"] == 7
    if trace:
        assert [op["digest"] for op in record["traced_ops"]] == \
            [op["digest"] for op in record["ops"]]
        assert result["metrics"]["trace.prediction_mismatches"]["value"] == 0
    # The traced run leaves no wrapper installed.
    assert _originals() == before


def test_wrappers_restored_after_error():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert _originals() != before
            raise RuntimeError("op failed")
    assert _originals() == before


def test_planted_wrong_fleet_result_counts_as_failed(monkeypatch, tmp_path):
    from repro.fleet.telemetry import FleetTelemetry
    summary = FleetTelemetry.summary

    def planted(self, **kwargs):
        out = summary(self, **kwargs)
        out["goodput"] += 1e-6
        return out

    monkeypatch.setattr(FleetTelemetry, "summary", planted)
    result = run.run_workload("fleet", seed=7, seconds=0, trace=False,
                              setup_runs=1, results_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 5
    assert result["metrics"]["ok_op_ratio"]["value"] == 0.0


def test_planted_wrong_network_results_fail_their_checks():
    from repro.network.simcollectives import SimulatedCollective
    api = workloads.WORKLOADS["network"].load()
    ring = workloads.Op("ring", shape=(4, 4, 2), dim=1, num_bytes=2.0 ** 20)
    exact = 2 * 3 / 4 * ring.num_bytes / (2 * workloads.LINK_BANDWIDTH)
    good = SimulatedCollective("ring-allreduce", 32, ring.num_bytes,
                               exact, 384)
    assert workloads.check_ring(api, ring, good) == []
    assert workloads.check_ring(
        api, ring, SimulatedCollective("ring-allreduce", 32, ring.num_bytes,
                                       exact * 1.02, 384))
    assert workloads.check_ring(
        api, ring, SimulatedCollective("ring-allreduce", 32, ring.num_bytes,
                                       exact, 383))
    reference = json.loads(workloads.REFERENCE_PATH.read_text())
    alltoall = workloads.Op("alltoall", shape=(4, 3, 1), num_bytes=1e6)
    bound = reference["ecmp_max_edge_load"]["torus 4x3x1"] * 1e6 / \
        workloads.LINK_BANDWIDTH
    assert workloads.check_alltoall(alltoall, SimulatedCollective(
        "alltoall", 12, 11e6, bound, 132), reference) == []
    too_fast = SimulatedCollective("alltoall", 12, 11e6, bound * 0.9, 132)
    assert workloads.check_alltoall(alltoall, too_fast, reference)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "network",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


@pytest.mark.xfail(strict=True, raises=SimulationError,
                   reason="FlowSim finishes a flow only under 1e-9 bytes "
                   "left; large chunks leave a residue it can never drain "
                   "(repeats zero-length events)")
def test_flowsim_stalls_on_large_chunks(monkeypatch):
    from repro.network.flowsim import FlowSim
    from repro.network.simcollectives import simulate_ring_allreduce
    from repro.topology.torus import Torus3D
    budgeted = FlowSim.run
    monkeypatch.setattr(FlowSim, "run",
                        lambda self, max_events=None: budgeted(self, 5000))
    result = simulate_ring_allreduce(Torus3D((4, 1, 1)), 64 * 2.0 ** 20,
                                     workloads.LINK_BANDWIDTH)
    assert result.flows == 48
