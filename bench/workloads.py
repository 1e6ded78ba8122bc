"""The three benchmark workloads, as lists of CLI invocations, and their checks.

A plan is built from the workload seed alone: it draws the CLI ``--seed`` and
writes any input files, and the simulator sees only those files and flags.
Every report of a pass is checked after the pass; a report that fails any
check counts toward ``failed``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs

# Full size is what the benchmark times; tiny is the warm-up and smoke size.
SIZES = {
    "full": {"mc_trials": 10000, "auth_trials": 500, "blocks": 100, "sca_samples": None},
    "tiny": {"mc_trials": 200, "auth_trials": 20, "blocks": 2, "sca_samples": 200},
}

# z-bound of the score test on each Monte Carlo rate, widened by z^2/(3n)
# (Bernstein) so it stays valid when n*p is small; a correct report fails it
# with probability below 2*exp(-Z^2/2), about 3e-8.
Z_BOUND = 6.0


@dataclass
class Request:
    label: str
    argv: list[str]
    out: Path
    twin: int | None = None          # index of the report this one must equal
    expected: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def report_path(self) -> Path:
        return self.out / f"{self.command}.json"


@dataclass
class Plan:
    cli_seed: int
    requests: list[Request]


def build(workload: str, seed: int, size: str, work: Path) -> Plan:
    """Requests of one pass of a workload; input files go under ``work``."""
    sz = SIZES[size]
    cli_seed = int(np.random.default_rng(seed).integers(1, 2**31))
    reqs: list[Request] = []

    def add(label: str, *argv: str, **kw) -> int:
        out = work / f"r{len(reqs):02d}"
        reqs.append(Request(label, [*argv, "--out", str(out)], out, **kw))
        return len(reqs) - 1

    seed_flag = ("--seed", str(cli_seed))
    if workload == "mc-sweep":
        trials = ("--trials", str(sz["mc_trials"]))
        add("margins", "margins", *seed_flag)
        add("truth-table CimAND", "truth-table", "--op", "CimAND", "--noise", "0", *seed_flag)
        add("calibrate", "calibrate", *seed_flag)
        for pair in ("AP,AP", "AP,P", "P,P"):
            for temp in ("20", "50", "100"):
                twin = add(f"mc-failure {pair} {temp}C", "mc-failure", "--pair", pair,
                           "--temp", temp, *seed_flag, *trials)
        for family in ("collapse", "meanshift"):
            add(f"mitigate {family}", "mitigate", "--family", family, *seed_flag, *trials)
        add("mc-failure P,P 100C threads=2", "mc-failure", "--pair", "P,P", "--temp", "100",
            *seed_flag, *trials, "--threads", "2", twin=twin)
    elif workload == "auth-bypass":
        trials = ("--trials", str(sz["auth_trials"]))
        add("auth-attack XnorLevel 100C", "auth-attack", "--variant", "XnorLevel",
            "--temp", "100", *seed_flag, *trials)
        add("auth-attack GateLevel forced", "auth-attack", "--variant", "GateLevel",
            "--force-flip", *seed_flag, *trials)
        add("auth-attack None", "auth-attack", "--variant", "None", *seed_flag, *trials)
    elif workload == "program-sca":
        gen = inputs.generate(seed, sz["blocks"], cli_seed, work / "inputs")
        isa = ("isa-run", "--program", str(gen.program), "--init-hex", str(gen.init_hex),
               "--config", str(gen.overlay), "--compare-lowered")
        add("isa-run noisy", *isa, expected=gen.expected)
        add("isa-run zero-noise", *isa, "--zero-noise",
            expected={**gen.expected, "final_memory_equal": True})
        sca = ["sca", *seed_flag]
        if sz["sca_samples"] is not None:
            overlay = work / "sca-overlay.json"
            overlay.write_text(json.dumps({"sca": {"samples_per_class": sz["sca_samples"]}}))
            sca += ["--config", str(overlay)]
        add("sca", *sca)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(cli_seed, reqs)


# -- checks ------------------------------------------------------------------

def _z_problems(label: str, mc: dict) -> list[str]:
    from spincim.analytic import binomial_stderr

    n, p, rate = mc["trials"], mc["analytic_rate"], mc["rate"]
    tol = Z_BOUND * binomial_stderr(p, n) + Z_BOUND**2 / (3 * n)
    if abs(rate - p) > tol:
        return [f"{label}: rate {rate} is {abs(rate - p):.3g} from oracle {p} (bound {tol:.3g})"]
    return []


def check(req: Request, result: dict, results: list[dict]) -> list[str]:
    """Problems with one report; empty when it passes every check."""
    if result["exit_code"] != 0:
        return [f"exit code {result['exit_code']}: {result['stderr'].strip()[-300:]}"]
    if "Traceback" in result["stderr"]:
        return ["traceback on stderr"]
    try:
        result["report_bytes"] = req.report_path.read_bytes()
        doc = json.loads(result["report_bytes"])
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"]
    result["config_hash"] = doc.get("config_hash")
    rep = doc.get("report", {})
    cmd = req.command
    problems: list[str] = []
    if cmd == "margins":
        if rep.get("margins_ua") != {"read": 5.5, "pair_lower": 3.2, "pair_upper": 2.5}:
            problems.append(f"margins {rep.get('margins_ua')} differ from 5.5/3.2/2.5 uA")
    elif cmd == "truth-table":
        for row in rep["rows"]:
            if row["output"] != row["logic"][0] & row["logic"][1]:
                problems.append(f"zero-noise AND of {row['logic']} decoded {row['output']}")
    elif cmd == "calibrate":
        worst = max(rep["relative_delta"].values())
        if not worst < 0.01:
            problems.append(f"calibration drifts {worst:.3g} from the shipped parameters")
    elif cmd in ("mc-failure", "auth-attack"):
        problems += _z_problems(cmd, rep)
    elif cmd == "mitigate":
        problems += _z_problems("before", rep["before"])
        problems += _z_problems("after", rep["after"])
    elif cmd == "isa-run":
        for side in ("direct", "lowered"):
            for key, want in req.expected[side].items():
                if rep[side][key] != want:
                    problems.append(f"{side} {key} {rep[side][key]} != {want}")
        delta = (req.expected["lowered"]["memory_access_count"]
                 - req.expected["direct"]["memory_access_count"])
        if rep["memory_access_delta"] != delta:
            problems.append(f"memory_access_delta {rep['memory_access_delta']} != {delta}")
        if req.expected.get("final_memory_equal") and rep["final_memory_equal"] is not True:
            problems.append("zero-noise direct and lowered runs left different memory")
    elif cmd == "sca":
        for row in rep["rows"]:
            if not row["standard_4_class"] >= row["enhanced_11_class"]:
                problems.append(f"4-class accuracy below 11-class at sigma_e={row['sigma_energy']}")
    if req.twin is not None:
        if result["report_bytes"] != results[req.twin].get("report_bytes"):
            problems.append("threads=2 report differs from the threads=1 report")
    return problems


def units(req: Request, result: dict) -> dict[str, int]:
    """Simulated work in one passing report: MC trials, ISA instructions, SCA obs."""
    doc = json.loads(result["report_bytes"])
    rep = doc["report"]
    if req.command in ("mc-failure", "auth-attack"):
        return {"mc_trials": rep["trials"]}
    if req.command == "mitigate":
        return {"mc_trials": rep["before"]["trials"] + rep["after"]["trials"]}
    if req.command == "isa-run":
        lowered = rep.get("lowered", {}).get("instruction_count", 0)
        return {"isa_instr": rep["direct"]["instruction_count"] + lowered}
    if req.command == "sca":
        # train and test sets, 4 + 11 classes, per swept sigma
        per_sigma = 2 * rep["samples_per_class"] * 15
        return {"sca_obs": per_sigma * len(rep["rows"])}
    return {}
