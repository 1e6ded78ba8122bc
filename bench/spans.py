"""Span tracing around the public callables of each spincim layer.

The tracer rebinds a callable wherever the package looks its name up: the
defining module, every ``spincim`` module that imported it by name, or the
class for methods. Each call records one span (name, start, end, parent,
report id, thread) into flat arrays held in memory; ``uninstall`` puts the
original objects back. A span opened on a worker thread with no open span of
its own takes the innermost open span of the installing thread as parent
(the Monte Carlo thread pool runs inside ``attack.run_trials``).

Self time is a span's duration minus the part of it that its children cover.
Children on the parent's own thread run one after another, so their durations
add; children on other threads may overlap and are merged as intervals.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
from array import array
from time import perf_counter

import numpy as np


def _size_units(args, kwargs, _result) -> int:
    size = args[4] if len(args) > 4 else kwargs.get("size")
    return 1 if size is None else int(size)


def _trials_units(args, kwargs, _result) -> int:
    return int(args[0] if args else kwargs["trials"])


# span name -> (defining module, attribute path, (stat, unit counter) or None).
# Names follow <module>.<callable>; the unit counter turns a call into a count
# of work done, reported as <name>.<stat>.
SPANS = {
    "device.trial_rng": ("spincim.device", "trial_rng", None),
    "device.sample_pair_current": ("spincim.device", "sample_pair_current",
                                   ("samples", _size_units)),
    "device.sample_single_current": ("spincim.device", "sample_single_current",
                                     ("samples", _size_units)),
    "device.calibrate": ("spincim.device", "calibrate", None),
    "array.CimArray": ("spincim.array", "CimArray.__init__", None),
    "array.cim_two_row": ("spincim.array", "CimArray.cim_two_row", None),
    "array.cim_xnor": ("spincim.array", "CimArray.cim_xnor", None),
    "array.cim_add": ("spincim.array", "CimArray.cim_add", None),
    "array.cim_not": ("spincim.array", "CimArray.cim_not", None),
    "array.read_word": ("spincim.array", "CimArray.read_word", None),
    "array.write_word": ("spincim.array", "CimArray.write_word", None),
    "cost.ExecutionTrace.record": ("spincim.cost", "ExecutionTrace.record", None),
    "cost.ExecutionTrace.to_csv": ("spincim.cost", "ExecutionTrace.to_csv", None),
    "attack.run_trials": ("spincim.attack", "run_trials", ("trials", _trials_units)),
    "attack.run_auth": ("spincim.attack", "run_auth", None),
    "attack.auth_accept_probability": ("spincim.attack", "auth_accept_probability", None),
    "analytic.pair_exceed": ("spincim.analytic", "pair_exceed", None),
    "mitigation.evaluate_mitigation": ("spincim.mitigation", "evaluate_mitigation", None),
    "isa.assemble": ("spincim.isa", "assemble", None),
    "isa.lower_to_conventional": ("spincim.isa", "lower_to_conventional", None),
    "isa.run": ("spincim.isa", "run",
                ("instructions", lambda a, k, result: result[0].instruction_count)),
    "sca.synthesize_dataset": ("spincim.sca", "synthesize_dataset",
                               ("observations", lambda a, k, result: len(result))),
    "sca.train": ("spincim.sca", "train", None),
    "sca.CentroidClassifier.predict": ("spincim.sca", "CentroidClassifier.predict", None),
    "sca.confusion_matrix": ("spincim.sca", "confusion_matrix", None),
    "config.load_config": ("spincim.config", "load_config", None),
    "config.canonical_json": ("spincim.config", "canonical_json", None),
    "cli.main": ("spincim.cli", "main", None),
}

# Per-layer metrics the traced run reports, with the end-to-end metric each
# should move and where (predictions fixed before any optimisation lands).
LAYER_METRICS = {
    "device": {
        "metrics": ["device.trial_rng.calls", "device.trial_rng.self_s",
                    "device.trial_rng.per_trial",
                    "device.sample_pair_current.calls", "device.sample_pair_current.samples",
                    "device.sample_pair_current.samples_per_call",
                    "device.sample_pair_current.self_s",
                    "device.sample_single_current.calls",
                    "device.sample_single_current.samples",
                    "device.sample_single_current.self_s", "device.calibrate.self_s"],
        "moves": ["wall_s", "mc_trials_per_s"],
        "mainly_on": ["mc-sweep (trial_rng)", "auth-bypass (pair sampling)"],
        "near_zero_on": ["program-sca (trial_rng)"],
    },
    "array": {
        "metrics": [f"array.{c}.{s}" for c in ("CimArray", "cim_two_row", "cim_xnor",
                                               "cim_add", "cim_not", "read_word",
                                               "write_word")
                    for s in ("calls", "self_s")],
        "moves": ["wall_s", "mc_trials_per_s", "isa_instr_per_s"],
        "mainly_on": ["auth-bypass", "program-sca"],
        "near_zero_on": ["mc-sweep"],
    },
    "cost": {
        "metrics": ["cost.ExecutionTrace.record.calls", "cost.ExecutionTrace.record.self_s",
                    "cost.ExecutionTrace.to_csv.self_s"],
        "moves": ["wall_s", "isa_instr_per_s"],
        "mainly_on": ["program-sca"],
        "near_zero_on": ["mc-sweep"],
    },
    "attack": {
        "metrics": ["attack.run_trials.calls", "attack.run_trials.trials",
                    "attack.run_trials.self_s", "attack.run_auth.calls",
                    "attack.run_auth.self_s", "attack.auth_accept_probability.self_s"],
        "moves": ["mc_trials_per_s"],
        "mainly_on": ["mc-sweep (driver)", "auth-bypass (run_auth)"],
        "near_zero_on": ["program-sca"],
    },
    "analytic/mitigation": {
        "metrics": ["analytic.pair_exceed.calls", "analytic.pair_exceed.self_s",
                    "mitigation.evaluate_mitigation.self_s"],
        "moves": ["wall_s"],
        "mainly_on": ["mc-sweep"],
        "near_zero_on": ["every workload (oracle cost is tiny)"],
    },
    "isa": {
        "metrics": ["isa.assemble.self_s", "isa.lower_to_conventional.self_s",
                    "isa.run.calls", "isa.run.instructions", "isa.run.self_s"],
        "moves": ["isa_instr_per_s"],
        "mainly_on": ["program-sca"],
        "near_zero_on": ["mc-sweep", "auth-bypass"],
    },
    "sca": {
        "metrics": ["sca.synthesize_dataset.calls", "sca.synthesize_dataset.observations",
                    "sca.synthesize_dataset.self_s", "sca.train.self_s",
                    "sca.CentroidClassifier.predict.calls",
                    "sca.CentroidClassifier.predict.self_s", "sca.confusion_matrix.self_s"],
        "moves": ["sca_obs_per_s"],
        "mainly_on": ["program-sca"],
        "near_zero_on": ["mc-sweep", "auth-bypass"],
    },
    "config/cli": {
        "metrics": ["config.load_config.self_s", "config.canonical_json.self_s",
                    "cli.main.calls", "cli.main.self_s"],
        "moves": ["setup_s", "wall_s"],
        "mainly_on": ["every workload (small)"],
        "near_zero_on": [],
    },
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names = list(SPANS)
        self.name = array("i")
        self.parent = array("i")
        self.report = array("i")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("q")
        self.report_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._local.stack = []
        self._local.tid = 0
        self._main_stack = self._local.stack
        self._threads = 0
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    # -- recording ------------------------------------------------------------

    def _open(self, nid: int) -> int:
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            with self._lock:
                self._threads += 1
                local.tid = self._threads
            stack = local.stack = []
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        with self._lock:
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(parent)
            self.report.append(self.report_id)
            self.thread.append(local.tid)
            self.end.append(0.0)
            self.units.append(0)
            self.start.append(perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._local.stack.pop()

    def _wrap(self, nid: int, fn, units):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if units is not None:
                tracer.units[idx] = units(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spincim" or n.startswith("spincim."))]
        for nid, (module, path, counted) in enumerate(SPANS.values()):
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, counted and counted[1])
            sites = [owner] + [m for m in modules
                               if m is not owner and getattr(m, attr, None) is original]
            for site in sites:
                self._patched.append((site, attr, original))
                setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            site, attr, original = self._patched.pop()
            setattr(site, attr, original)

    # -- analysis ---------------------------------------------------------------

    def arrays(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        hi = len(self) if hi is None else hi
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[lo:hi].copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32)[lo:hi].copy(),
            "report": np.frombuffer(self.report, dtype=np.int32)[lo:hi].copy(),
            "thread": np.frombuffer(self.thread, dtype=np.int32)[lo:hi].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[lo:hi].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[lo:hi].copy(),
            "units": np.frombuffer(self.units, dtype=np.int64)[lo:hi].copy(),
        }

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Every per-layer metric over the spans recorded in [lo, hi)."""
        s = self.arrays(lo, hi)
        n = hi - lo
        dur = s["end"] - s["start"]
        parent = np.where(s["parent"] >= lo, s["parent"] - lo, -1)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        cross = child & (s["thread"] != s["thread"][np.maximum(parent, 0)])
        for p in np.unique(parent[cross]):
            kids = np.flatnonzero(parent == p)
            covered[p] = _union_length(s["start"][kids], s["end"][kids])
        self_s = dur - covered

        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        self_total = np.bincount(s["name"], weights=self_s, minlength=k)
        units = np.bincount(s["name"], weights=s["units"], minlength=k)
        out: dict[str, float] = {}
        for i, (name, (_, _, counted)) in enumerate(SPANS.items()):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_total[i])
            if counted:
                out[f"{name}.{counted[0]}"] = int(units[i])

        # streams created by the Monte Carlo driver, per trial it ran
        trial_rng = self.names.index("device.trial_rng")
        driver = self.names.index("attack.run_trials")
        in_driver = (s["name"] == trial_rng) & child
        in_driver &= s["name"][np.maximum(parent, 0)] == driver
        trials = out["attack.run_trials.trials"]
        out["device.trial_rng.per_trial"] = int(in_driver.sum()) / trials if trials else 0.0
        pair_calls = out["device.sample_pair_current.calls"]
        out["device.sample_pair_current.samples_per_call"] = (
            out["device.sample_pair_current.samples"] / pair_calls if pair_calls else 0.0
        )
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _union_length(start: np.ndarray, end: np.ndarray) -> float:
    order = np.argsort(start)
    total = 0.0
    reach = -np.inf
    for a, b in zip(start[order], end[order]):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total
