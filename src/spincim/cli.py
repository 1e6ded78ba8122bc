"""Batch command-line front end; every run is reproducible from config+seed.

Each command is declared once in build_parser: its subparser, its flags and
its runner, run_<command>(config, args) -> (payload, files). A process builds
that parser once, on its first report, and parses every report with it, since
parsing leaves a parser as it was. A runner writes nothing; files lists its
companion CSVs as (name, writer) pairs. One emitter writes those first, then
<command>.json, then the same report to stdout. A flag that sets a config
value names its leaf there and, given, writes it before the config is checked
and hashed (--zero-noise is device.sigma = 0), so runners read such values
from the config alone. Reports embed the seed and a hash of the resolved
config as canonical JSON, so identical inputs produce byte identical outputs.
Trials run serially; --threads is accepted and has no effect. Exit codes: 0
success, 1 usage or configuration error, 2 experiment error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import io
import sys
from functools import reduce
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfgmod
from .array import TWO_ROW_OPS, CimArray, CimOp
from .attack import (
    AttackScenario,
    AttackVariant,
    AuthDb,
    CredentialPolicy,
    attack_success_rate,
    mc_failure_rate,
)
from .cost import write_csv
from .device import (
    FailureRateTargets,
    MeanShift,
    MtjState,
    calibrate,
    heated,
    parse_pair,
    sample_columns,
)
from .errors import ConfigError, SpinCimError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise ConfigError(message)


def _finite(text: str) -> float:
    try:
        return cfgmod.finite_number(text)
    except (ConfigError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from exc


def _pair(text: str) -> str:
    try:
        pair = parse_pair(text)
    except ValueError as exc:
        states = ", ".join(state.value for state in MtjState)
        raise argparse.ArgumentTypeError(
            f"must be two states of {states} joined by a comma, got {text!r}"
        ) from exc
    return ",".join(state.value for state in pair)


# argparse dest of a flag that writes the config leaf at the dotted path after it
_LEAF = "config."


def _leaf(parser, flag: str, leaf: str, **kwargs) -> None:
    """Declare ``flag`` as another name for the config leaf at dotted path ``leaf``."""
    if "action" not in kwargs and "choices" not in kwargs:
        kwargs["metavar"] = flag[2:].upper()  # usage names the flag, not the dotted dest
    parser.add_argument(flag, dest=_LEAF + leaf, **kwargs)


def _command(sub, name: str, run_fn, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(run=run_fn)
    parser.add_argument("--config", help="JSON config file overlaying the defaults")
    _leaf(parser, "--seed", "seed", type=int, help="master seed override")
    _leaf(parser, "--trials", "trials", type=int, help="Monte Carlo trials override")
    _leaf(parser, "--threads", "threads", type=int,
          help="accepted for compatibility; trials run serially, so the value has no effect")
    _leaf(parser, "--out", "out_dir", help="output directory override")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spincim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spincim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "margins", run_margins, "report the configured sense margins")

    p = _command(sub, "truth-table", run_truth_table, "decode table of one two-row operation")
    p.add_argument("--op", default="CimAND",
                   choices=[op.value for op in CimOp if op in TWO_ROW_OPS])
    _leaf(p, "--noise", "device.sigma", type=_finite, help="sense noise sigma override (uA)")

    p = _command(sub, "mc-failure", run_mc_failure, "Monte Carlo AND-decode failure rate")
    p.add_argument("--pair", type=_pair, default="AP,P", help='pair state, e.g. "AP,P"')
    _leaf(p, "--temp", "attack.zone_temp", type=_finite, help="zone temperature (C)")

    p = _command(sub, "auth-attack", run_auth_attack, "authentication bypass experiment")
    _leaf(p, "--variant", "attack.variant", choices=[v.value for v in AttackVariant])
    _leaf(p, "--temp", "attack.zone_temp", type=_finite, help="zone temperature (C)")
    _leaf(p, "--force-flip", "attack.force_flip", action="store_true",
          help="flip targeted AND senses with probability one")
    _leaf(p, "--user-policy", "attack.policy.user", choices=cfgmod.POLICY_MODES)
    _leaf(p, "--password-policy", "attack.policy.password", choices=cfgmod.POLICY_MODES)

    p = _command(sub, "isa-run", run_isa_run, "assemble and execute a program")
    p.add_argument("--program", required=True, help="assembly source file")
    p.add_argument("--compare-lowered", action="store_true",
                   help="also run the load/compute/store lowering")
    p.add_argument("--init-hex", help="hex dump preloading the array")
    _leaf(p, "--zero-noise", "device.sigma", action="store_const", const=0.0, default=False,
          help="run with sense noise disabled")

    _command(sub, "sca", run_sca, "operation classification accuracy sweep")

    p = _command(sub, "mitigate", run_mitigate, "reference adaptation before/after rates")
    p.add_argument("--family", choices=["meanshift", "collapse"], default="collapse")
    _leaf(p, "--temp", "mitigation.zone_temp", type=_finite, help="zone temperature (C)")

    _command(sub, "calibrate", run_calibrate, "fit noise and collapse parameters")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every report of this process is parsed with."""
    return build_parser()


def _resolve(args) -> dict:
    """The config file's values, each given flag written over its leaf, checked.
    A flag left at its default (None, or False for a switch) leaves the leaf."""
    config = cfgmod.load_config(args.config)
    for dest, value in vars(args).items():
        if dest.startswith(_LEAF) and value is not None and value is not False:
            *sections, key = dest[len(_LEAF):].split(".")
            reduce(dict.__getitem__, sections, config)[key] = value
    return cfgmod.validate_run(config)


def _emit(config: dict, command: str, payload: dict, files) -> None:
    """Write the companion files, then <command>.json, then stdout, so that a
    failed write leaves no report that looks complete."""
    text = cfgmod.canonical_json({
        "command": command,
        "seed": config["seed"],
        "config_hash": cfgmod.config_hash(config),
        "report": payload,
    })
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write_fn in files:
        write_fn(out_dir / name)
    (out_dir / f"{command}.json").write_text(text)
    sys.stdout.write(text)


def run_margins(config, args):
    return {"margins_ua": cfgmod.build_model(config).margins()}, []


def run_truth_table(config, args):
    model = cfgmod.build_model(config)
    sense = cfgmod.build_sense(config)
    logic = ((0, 0), (0, 1), (1, 0), (1, 1))
    # the four pairs are the columns of one two-row sense
    rng = np.random.default_rng((config["seed"], 0))
    currents = sample_columns(tuple(zip(*logic)), model, None, rng)
    outputs = sense.decode(CimOp(args.op), currents)
    rows = [
        {
            "logic": list(bits),
            "states": ",".join(MtjState.from_bit(b).value for b in bits),
            "nominal_current_ua": model.pair_levels[sum(bits)],
            "sensed_current_ua": current,
            "output": int(output),
        }
        for bits, current, output in zip(logic, currents.tolist(), outputs)
    ]
    return {"op": args.op, "rows": rows}, []


def run_mc_failure(config, args):
    temp = config["attack"]["zone_temp"]
    report = mc_failure_rate(
        args.pair, temp, config["trials"], config["seed"], model=cfgmod.build_model(config),
        sense=cfgmod.build_sense(config), collapse=cfgmod.build_collapse(config),
    )
    return {"pair": args.pair, "zone_temp": temp, **report.as_dict()}, []


def run_auth_attack(config, args):
    atk = config["attack"]
    db = AuthDb(atk["username"], atk["password"], atk["credential_width"])
    scenario = AttackScenario(
        variant=AttackVariant(atk["variant"]),
        zone_temp=atk["zone_temp"],
        force_flip=atk["force_flip"],
        collapse=cfgmod.build_collapse(config),
    )
    report = attack_success_rate(
        db, CredentialPolicy(**atk["policy"]), scenario, config["trials"], config["seed"],
        model=cfgmod.build_model(config), sense=cfgmod.build_sense(config),
    )
    payload = {
        "variant": scenario.variant.value,
        "zone_temp": scenario.zone_temp,
        "force_flip": scenario.force_flip,
        "policy": atk["policy"],
        **report.as_dict(),
    }
    return payload, []


def _build_machine(config, rng, enhanced: bool, dump: str | None):
    """An isa-run machine holding the hex ``dump`` text, or zeros without one."""
    from .isa import Machine
    array = CimArray(
        geometry=cfgmod.build_geometry(config),
        model=cfgmod.build_model(config),
        sense=cfgmod.build_sense(config),
        rng=rng,
        cost_table=cfgmod.build_cost_table(config),
        enhanced=enhanced,
    )
    if dump is not None:
        array.import_hex(io.StringIO(dump, newline=None))
    return Machine(array=array)


def _read_input(path: str) -> tuple[str, str]:
    """The text of the file at ``path`` and the sha256 of its bytes, read once."""
    data = Path(path).read_bytes()
    try:
        return data.decode(), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from exc


def run_isa_run(config, args):
    from .isa import assemble, lower_to_conventional, run, static_fingerprint
    source, program_sha256 = _read_input(args.program)
    program = assemble(source)
    dump = init_hex_sha256 = None
    if args.init_hex:
        dump, init_hex_sha256 = _read_input(args.init_hex)
    machine = _build_machine(config, np.random.default_rng((config["seed"], 0)), True, dump)
    stats, trace = run(program, machine)
    payload = {
        "program_sha256": program_sha256,
        "init_hex_sha256": init_hex_sha256,
        "fingerprint": static_fingerprint(machine),
        "direct": stats.as_dict(),
    }
    files = [("isa-run-trace.csv", trace.to_csv)]
    if args.compare_lowered:
        lowered = lower_to_conventional(program)
        machine2 = _build_machine(config, np.random.default_rng((config["seed"], 1)), False, dump)
        stats2, trace2 = run(lowered, machine2)
        payload["lowered"] = stats2.as_dict()
        payload["memory_access_delta"] = (
            stats2.memory_access_count - stats.memory_access_count
        )
        payload["final_memory_equal"] = (
            machine.array.snapshot() == machine2.array.snapshot()
        )
        files.append(("isa-run-lowered-trace.csv", trace2.to_csv))
    return payload, files


def run_sca(config, args):
    from .sca import ENHANCED_CLASSES, STANDARD_CLASSES, score_attackers
    sca_cfg = config["sca"]
    table = cfgmod.build_cost_table(config)
    n = sca_cfg["samples_per_class"]
    sig_d = sca_cfg["sigma_duration"]
    attackers = {"standard_4_class": (STANDARD_CLASSES, table, False),
                 "enhanced_11_class": (ENHANCED_CLASSES, table, True)}
    # every level and both attackers read one stream, and no attacker holds its sets
    rng, sweep = np.random.default_rng((config["seed"], 1000)), sca_cfg["sweep_sigma_energy"]
    levels = score_attackers(attackers.values(), n, sig_d, sweep, rng)
    rows = [{"sigma_duration": sig_d, "sigma_energy": sig_e,
             **{tag: accuracy for tag, (_, accuracy) in zip(attackers, scores)}}
            for sig_e, scores in zip(sweep, levels)]
    header = ["sigma_duration", "sigma_energy", *attackers]
    cells = [[repr(row[key]) for key in header] for row in rows]
    payload = {"samples_per_class": n, "rows": rows}
    return payload, [("sca.csv", lambda path: write_csv(path, header, cells))]


def run_mitigate(config, args):
    from .mitigation import adapt_references, evaluate_mitigation
    mit = config["mitigation"]
    model = cfgmod.build_model(config)
    base = cfgmod.build_sense(config)
    zone = mit["zone_temp"]
    est = mit["shift_estimate" if args.family == "meanshift" else "collapse_estimate"]
    shift = MeanShift(**est)
    unheated = shift if args.family == "meanshift" else cfgmod.build_collapse(config)
    disturbance = heated(unheated, zone, model)
    adapted = adapt_references(base, shift, model)
    report = evaluate_mitigation(
        disturbance, base, adapted, config["trials"], config["seed"], model=model
    )
    return {"family": args.family, "zone_temp": zone, **report.as_dict()}, []


def run_calibrate(config, args):
    result = calibrate(FailureRateTargets(), model=cfgmod.build_model(config))
    dev = config["device"]
    shipped = {"sigma": dev["sigma"], "a": dev["collapse"]["a"], "b": dev["collapse"]["b"]}
    deltas = {  # null where the shipped value is 0 and has no relative delta
        key: abs(getattr(result, key) - value) / abs(value) if value else None
        for key, value in shipped.items()
    }
    return {**result.as_dict(), "shipped": shipped, "relative_delta": deltas}, []


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        config = _resolve(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(config, args.command, *args.run(config, args))
    except (SpinCimError, OSError, ValueError) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
