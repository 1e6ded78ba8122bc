"""Tiny-size runs of every workload, untraced and traced, with every check on."""
from __future__ import annotations

import json

import pytest

import inputs
import run
import spans
import workloads


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def contract():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_passes_every_check(cli, contract, workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    result = run.measure(cli, workload, 3, 0, False, tmp_path / "work", tmp_path, "tiny")
    assert result["failed"] == 0, result["problems"]
    assert result["attempted"] == 2 * result["reports_per_pass"]
    for metric in contract["end_to_end"]:
        assert result["metrics"][metric["name"]] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_counts_the_work_it_ran(cli, contract, workload, tmp_path):
    result = run.measure(cli, workload, 3, 0, True, tmp_path / "work", tmp_path, "tiny")
    assert result["failed"] == 0, result["problems"]
    metrics = result["metrics"]
    listed = [m for layer in spans.LAYER_METRICS.values() for m in layer["metrics"]]
    assert set(listed) | {m["name"] for m in contract["per_layer"]} <= set(metrics)
    assert (tmp_path / f"spans-{workload}.npz").is_file()

    sizes = workloads.SIZES["tiny"]
    if workload == "mc-sweep":
        # nine sweeps, the threads=2 rerun, and before/after of two mitigations
        assert metrics["attack.run_trials.trials"] == 14 * sizes["mc_trials"]
        assert metrics["device.trial_rng.per_trial"] == 1
    elif workload == "auth-bypass":
        assert metrics["attack.run_auth.calls"] == 3 * sizes["auth_trials"]
        assert metrics["device.trial_rng.per_trial"] == 1
    else:
        expected = inputs.generate(3, sizes["blocks"], 1, tmp_path / "again").expected
        total = sum(side["instruction_count"] for side in expected.values())
        assert metrics["isa.run.instructions"] == 2 * total
        assert metrics["attack.run_trials.calls"] == 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, where):
        gen = inputs.generate(seed, 3, 99, tmp_path / where)
        return [p.read_bytes() for p in (gen.program, gen.init_hex, gen.overlay)]

    assert files(5, "a") == files(5, "b")
    assert files(5, "a")[:2] != files(6, "c")[:2]
