"""spincim benchmark: produce the reports a researcher waits for, and time them.

    python3 bench/run.py --workload mc-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one process, closed loop: each report starts after the previous
one has finished, by calling ``spincim.cli.main(argv)`` in-process. A pass is
one full set of a workload's reports (see workloads.py); after a checked
warm-up pass at tiny size, passes repeat until ``--seconds`` have elapsed and
every timing is the median over passes. Every report of every pass is checked.

``--trace 0`` reports the end-to-end metrics: wall_s and cpu_s of one pass,
setup_s (a fresh interpreter importing ``spincim.cli`` and resolving the
default config, median of several), peak_rss_mb, error_frac and the work
rates mc_trials_per_s, isa_instr_per_s and sca_obs_per_s on the workloads
they apply to. wall_s, cpu_s and setup_s are seconds at a nominal host speed
(see REF_S and REF_IMPORT_S); the measured seconds are printed beside them as
raw_wall_s, raw_cpu_s and raw_setup_s, and the work rates use measured seconds.
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of spans.py, with the tracing overhead.

Human-readable lines come first. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, the metrics being
the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
BENCHMARK.json; with ``--workload all`` the metrics are keyed by workload.
Full results with run metadata go to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` and traced spans to
``.bench_out/spans-<workload>.npz``. Exit code 0 when every report passed its
checks, 1 otherwise or when the tree holds no ``src/spincim``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc-sweep", "auth-bypass", "program-sca")
RATES = ("mc_trials_per_s", "isa_instr_per_s", "sca_obs_per_s")
SETUP_RUNS = 9
# Run in a fresh interpreter: time importing the CLI and resolving the default
# config (interpreter start-up itself is not spincim's and is left out).
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spincim.cli, spincim.config
spincim.config.load_config(None)
print(time.perf_counter() - start)
"""
# Reference for setup_s: a fresh interpreter importing NumPy and the stdlib
# modules the CLI uses, nominally REF_IMPORT_S seconds on a quiet host. Import
# cost drifts with the host differently from compute, so setup_s is rescaled
# by this import reference rather than by the reference chunk.
REF_IMPORT_CODE = """
import time
start = time.perf_counter()
import numpy, argparse, csv, dataclasses, enum, hashlib, json, statistics
print(time.perf_counter() - start)
"""
REF_IMPORT_S = 0.07
# Nominal wall time of one reference chunk on a quiet host. The host is shared
# and its speed drifts by tens of percent over seconds to minutes, so each
# report's time is rescaled by REF_S / (mean of the reference chunks run just
# before and after it): contention common to the report and the chunks cancels.
REF_S = 0.012


def import_cli():
    """spincim.cli from this tree's src/, never from an installed copy."""
    init = SRC / "spincim" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a spincim source tree")
    sys.path.insert(0, str(SRC))
    import spincim.cli

    if Path(spincim.cli.__file__).resolve().parent != init.parent.resolve():
        sys.exit(f"error: imported spincim from {spincim.cli.__file__}, not {SRC}")
    return spincim.cli


def _ref_step(i: int) -> int:
    return (i * i) % 7


def reference_chunk() -> float:
    """Wall time of a fixed mix of interpreter, NumPy-call and Generator work.

    The mix mirrors what spincim spends its time on, so host contention slows
    it about as much as it slows a report run next to it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += _ref_step(i)
    for i in range(300):
        rng = np.random.default_rng((7, i))
        acc += int(rng.normal() > 0) + int(rng.random(64).sum() > 32)
    acc += int(np.sort(np.random.default_rng(acc).random(100000))[0] > 1)
    return time.perf_counter() - start


def rescale(raw: list[float], refs: list[float]) -> list[float]:
    """Each raw time at nominal host speed, using the chunks on either side of it."""
    return [t * 2 * REF_S / (before + after)
            for t, before, after in zip(raw, refs, refs[1:])]


def _child_seconds(code: str, *args: str) -> float:
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                          check=True, capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def setup_seconds(runs: int) -> dict:
    """Import-and-resolve times of fresh interpreters, raw and at nominal speed.

    Each setup child is followed by an import-reference child.
    """
    raw, scaled = [], []
    for _ in range(runs):
        setup = _child_seconds(SETUP_CODE, str(SRC))
        raw.append(setup)
        scaled.append(setup * REF_IMPORT_S / _child_seconds(REF_IMPORT_CODE))
    return {"raw": raw, "scaled": scaled}


def run_pass(cli, plan: workloads.Plan, tracer: spans.Tracer | None = None) -> dict:
    """Produce every report of a plan once, then check them all.

    A reference chunk runs before the first report and after each one, outside
    the report timings, so each report can be rescaled to nominal host speed.
    """
    results = []
    refs = [reference_chunk()]
    for req in plan.requests:
        if tracer is not None:
            tracer.report_id += 1
        out, err = io.StringIO(), io.StringIO()
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(req.argv)
        except Exception:  # a crash is a failed report, not a failed benchmark
            code = None
            err.write(traceback.format_exc())
        results.append({"exit_code": code, "stderr": err.getvalue(),
                        "seconds": time.perf_counter() - start,
                        "cpu_s": time.process_time() - cpu0})
        refs.append(reference_chunk())

    problems = {}
    for req, res in zip(plan.requests, results):
        try:
            found = workloads.check(req, res, results)
        except (KeyError, TypeError, ValueError) as exc:
            found = [f"malformed report: {exc!r}"]
        if found:
            problems[req.label] = found
    wall = [res["seconds"] for res in results]
    cpu = [res["cpu_s"] for res in results]
    return {"raw_wall_s": sum(wall), "raw_cpu_s": sum(cpu),
            "wall_s": sum(rescale(wall, refs)), "cpu_s": sum(rescale(cpu, refs)),
            "host_slowdown": statistics.fmean(refs) / REF_S,
            "results": results, "problems": problems}


def rates(plan: workloads.Plan, rec: dict) -> tuple[dict, dict]:
    """Work per host second inside the reports that do that work."""
    work: dict[str, float] = {}
    secs: dict[str, float] = {}
    for req, res in zip(plan.requests, rec["results"]):
        if req.label in rec["problems"]:
            continue
        for unit, count in workloads.units(req, res).items():
            work[unit] = work.get(unit, 0) + count
            secs[unit] = secs.get(unit, 0.0) + res["seconds"]
    return {f"{unit}_per_s": work[unit] / secs[unit] for unit in work}, work


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def metadata(seed: int, plan: workloads.Plan, rec: dict) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "spincim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "cli_seed": plan.cli_seed,
        "config_hash": {req.label: res.get("config_hash")
                        for req, res in zip(plan.requests, rec["results"])},
    }


def measure(cli, workload: str, seed: int, seconds: float, trace: bool,
            work: Path, out: Path, size: str = "full") -> dict:
    """Warm up, then run passes of one workload for ``seconds``; all checked.

    Reports and inputs go under ``work``; a traced run saves its spans in ``out``.
    """
    plan = workloads.build(workload, seed, size, work / "timed")
    warm = workloads.build(workload, seed, "tiny", work / "warm")
    checked = [run_pass(cli, warm)]
    result: dict = {"workload": workload, "size": size,
                    "reports_per_pass": len(plan.requests)}
    if not trace:
        setup = setup_seconds(SETUP_RUNS)
        deadline = time.perf_counter() + seconds
        timed = []
        while not timed or time.perf_counter() < deadline:
            timed.append(run_pass(cli, plan))
        per_pass = [rates(plan, rec) for rec in timed]
        stats = {name: summary([rec[name] for rec in timed])
                 for name in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "host_slowdown")}
        stats["setup_s"] = summary(setup["scaled"])
        stats["raw_setup_s"] = summary(setup["raw"])
        for name in RATES:
            values = [r[name] for r, _ in per_pass if name in r]
            if values:
                stats[name] = summary(values)
        metrics = {name: s["median"] for name, s in stats.items()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result.update(stats=stats, work_per_pass=per_pass[0][1], passes=len(timed))
        checked += timed
    else:
        tracer = spans.Tracer()
        untraced, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(cli, plan))
            lo = len(tracer)
            tracer.install()
            try:
                traced.append(run_pass(cli, plan, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(lo, len(tracer)))
        out.mkdir(parents=True, exist_ok=True)
        tracer.save(out / f"spans-{workload}.npz")
        # median_low keeps counts as the integers observed
        metrics = {name: statistics.median_low(layer[name] for layer in layers)
                   for name in layers[0]}
        untraced_wall = statistics.median(rec["wall_s"] for rec in untraced)
        traced_wall = statistics.median(rec["wall_s"] for rec in traced)
        result.update(passes=len(traced), spans=len(tracer), untraced_wall_s=untraced_wall,
                      traced_wall_s=traced_wall, overhead_s=traced_wall - untraced_wall)
        checked += untraced + traced

    attempted = sum(len(rec["results"]) for rec in checked)
    failed = sum(len(rec["problems"]) for rec in checked)
    metrics["error_frac"] = failed / attempted
    problems = sorted({f"{label}: {p}" for rec in checked
                       for label, found in rec["problems"].items() for p in found})
    result.update(metrics=metrics, attempted=attempted, failed=failed, problems=problems,
                  metadata=metadata(seed, plan, checked[-1]))
    return result


def print_result(result: dict, trace: bool) -> None:
    meta = result["metadata"]
    print(f"== {result['workload']}  seed={meta['workload_seed']}  cli_seed={meta['cli_seed']}"
          f"  trace={int(trace)}  passes={result['passes']} (+1 warm-up)"
          f"  reports/pass={result['reports_per_pass']}")
    print(f"  host: nproc={meta['nproc']} python={meta['python']} numpy={meta['numpy']}"
          f" scipy={meta['scipy']} git={meta['git_revision']}"
          f" src_sha256={meta['source_sha256'][:16]}")
    metrics = result["metrics"]
    if not trace:
        for name, s in result["stats"].items():
            unit = "1/s" if name in RATES else "x" if name == "host_slowdown" else "s"
            print(f"  {name:<16} {s['median']:<14.6g} {unit:<4}"
                  f"  q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
        print(f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:<14.6g} MB")
        work = ", ".join(f"{v:g} {k}" for k, v in result["work_per_pass"].items())
        print(f"  work per pass: {work or 'none'}")
    else:
        for layer, spec in spans.LAYER_METRICS.items():
            print(f"  [{layer}] moves {', '.join(spec['moves'])}; mainly on "
                  f"{', '.join(spec['mainly_on'])}; ~0 on {', '.join(spec['near_zero_on']) or '-'}")
            for name in spec["metrics"]:
                print(f"    {name:<44} {metrics[name]:.6g}")
        print(f"  tracing overhead: {result['overhead_s']:.6g} s per pass "
              f"(traced {result['traced_wall_s']:.6g} s, untraced {result['untraced_wall_s']:.6g} s,"
              f" {result['spans']} spans)")
    print(f"  error_frac {metrics['error_frac']:g} ({result['failed']} of "
          f"{result['attempted']} reports failed a check)")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")


def run_all(args) -> int:
    """Each workload in a fresh process (so peak_rss_mb is its own), one summary."""
    lines = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        *report, last = done.stdout.splitlines() or [""]
        print("\n".join(report))
        sys.stderr.write(done.stderr)
        try:
            lines[workload] = json.loads(last)
        except ValueError:
            lines[workload] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    failed = sum(line["failed"] for line in lines.values())
    correct = all(line["correct"] for line in lines.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": failed,
        "metrics": {w: line["metrics"] for w, line in lines.items()},
    }, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    if args.workload == "all":
        return run_all(args)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = contract["per_layer" if args.trace else "end_to_end"]

    work = OUT / f"work-{os.getpid()}"
    try:
        result = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace),
                         work, OUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_result(result, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in section},
    }, sort_keys=True))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
