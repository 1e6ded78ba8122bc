"""Batch command-line front end; every run is reproducible from config+seed.

Each command is declared once in build_parser: its subparser, its flags and
its runner, run_<command>(config, args) -> (payload, files). A runner writes
nothing; files lists its companion CSVs as (name, writer) pairs. One emitter
writes those first, then <command>.json, then the same report to stdout.
Reports embed the seed and a hash of the fully resolved configuration and are
written as canonical JSON (sorted keys), so identical inputs produce byte
identical outputs. Trials run serially; --threads is accepted and has no
effect. Exit codes: 0 success, 1 usage or configuration error, 2 experiment
error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from . import config as cfgmod
from .array import TWO_ROW_OPS, CimArray, CimOp, RowAddress
from .attack import (
    AttackScenario,
    AttackVariant,
    AuthDb,
    AuthEntry,
    CredentialPolicy,
    attack_success_rate,
    mc_failure_rate,
)
from .cost import write_csv
from .device import (
    FailureRateTargets,
    MtjState,
    calibrate,
    heated,
    parse_pair,
    sample_columns,
    trial_rng,
)
from .errors import ConfigError, SpinCimError
from .isa import Machine, assemble, lower_to_conventional, run, static_fingerprint
from .mitigation import ShiftEstimate, adapt_references, evaluate_mitigation
from .sca import (
    ENHANCED_CLASSES,
    STANDARD_CLASSES,
    streamed_confusion_matrix,
    streamed_train,
)


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
        parse_pair(text)
    except ValueError as exc:
        states = ", ".join(state.value for state in MtjState)
        raise argparse.ArgumentTypeError(
            f"must be two states of {states} joined by a comma, got {text!r}"
        ) from exc
    return text


def _command(sub, name: str, run_fn, help: str) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(run=run_fn)
    parser.add_argument("--config", help="JSON config file overlaying the defaults")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials override")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; trials run serially, "
                             "so the value has no effect")
    parser.add_argument("--out", help="output directory override")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spincim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spincim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "margins", run_margins, "report the configured sense margins")

    p = _command(sub, "truth-table", run_truth_table, "decode table of one two-row operation")
    p.add_argument("--op", default="CimAND",
                   choices=[op.value for op in CimOp if op in TWO_ROW_OPS])
    p.add_argument("--noise", type=_finite, help="sense noise sigma override (uA)")

    p = _command(sub, "mc-failure", run_mc_failure, "Monte Carlo AND-decode failure rate")
    p.add_argument("--pair", type=_pair, default="AP,P", help='pair state, e.g. "AP,P"')
    p.add_argument("--temp", type=_finite, default=None, help="zone temperature (C)")

    p = _command(sub, "auth-attack", run_auth_attack, "authentication bypass experiment")
    p.add_argument("--variant", choices=[v.value for v in AttackVariant])
    p.add_argument("--temp", type=_finite, help="zone temperature (C)")
    p.add_argument("--force-flip", action="store_true",
                   help="flip targeted AND senses with probability one")
    p.add_argument("--user-policy", choices=cfgmod.POLICY_MODES)
    p.add_argument("--password-policy", choices=cfgmod.POLICY_MODES)

    p = _command(sub, "isa-run", run_isa_run, "assemble and execute a program")
    p.add_argument("--program", required=True, help="assembly source file")
    p.add_argument("--compare-lowered", action="store_true",
                   help="also run the load/compute/store lowering")
    p.add_argument("--init-hex", help="hex dump preloading the array")
    p.add_argument("--zero-noise", action="store_true",
                   help="run with sense noise disabled")

    _command(sub, "sca", run_sca, "operation classification accuracy sweep")

    p = _command(sub, "mitigate", run_mitigate, "reference adaptation before/after rates")
    p.add_argument("--family", choices=["meanshift", "collapse"], default="collapse")
    p.add_argument("--temp", type=_finite, help="zone temperature (C)")

    _command(sub, "calibrate", run_calibrate, "fit noise and collapse parameters")
    return parser


def _resolve(args) -> dict:
    config = cfgmod.load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.trials is not None:
        config["trials"] = args.trials
    if args.threads is not None:
        config["threads"] = args.threads
    if args.out is not None:
        config["out_dir"] = args.out
    if getattr(args, "noise", None) is not None:
        config["device"]["sigma"] = args.noise
    return cfgmod.validate_run(config)


def _flag_or(flag, leaf):
    """A flag given on the command line wins over its config leaf."""
    return leaf if flag is None or flag is False else flag


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
    rng = trial_rng(config["seed"], 0)
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
    temp = _flag_or(args.temp, config["attack"]["zone_temp"])
    report = mc_failure_rate(
        args.pair, temp, config["trials"], config["seed"], model=cfgmod.build_model(config),
        sense=cfgmod.build_sense(config), collapse=cfgmod.build_collapse(config),
    )
    return {"pair": args.pair, "zone_temp": temp, **report.as_dict()}, []


def run_auth_attack(config, args):
    atk = config["attack"]
    policy = CredentialPolicy(
        user=_flag_or(args.user_policy, atk["policy"]["user"]),
        password=_flag_or(args.password_policy, atk["policy"]["password"]),
    )
    db = AuthDb(
        entries=(AuthEntry(atk["username"], atk["password"]),),
        width=atk["credential_width"],
    )
    scenario = AttackScenario(
        variant=AttackVariant(_flag_or(args.variant, atk["variant"])),
        zone_temp=_flag_or(args.temp, atk["zone_temp"]),
        force_flip=_flag_or(args.force_flip, atk["force_flip"]),
        collapse=cfgmod.build_collapse(config),
    )
    report = attack_success_rate(
        db, policy, scenario, config["trials"], config["seed"],
        model=cfgmod.build_model(config), sense=cfgmod.build_sense(config),
    )
    payload = {
        "variant": scenario.variant.value,
        "zone_temp": scenario.zone_temp,
        "force_flip": scenario.force_flip,
        "policy": {"user": policy.user, "password": policy.password},
        **report.as_dict(),
    }
    return payload, []


def _build_machine(config, rng, zero_noise: bool, enhanced: bool) -> Machine:
    model = cfgmod.build_model(config)
    array = CimArray(
        geometry=cfgmod.build_geometry(config),
        model=replace(model, sigma=0.0) if zero_noise else model,
        sense=cfgmod.build_sense(config),
        rng=rng,
        cost_table=cfgmod.build_cost_table(config),
        enhanced=enhanced,
    )
    return Machine(array=array)


def run_isa_run(config, args):
    program = assemble(Path(args.program).read_text())
    machine = _build_machine(config, trial_rng(config["seed"], 0), args.zero_noise, True)
    if args.init_hex:
        machine.array.import_hex(args.init_hex)
    initial = machine.array.snapshot()
    stats, trace = run(program, machine)
    payload = {
        "program": args.program,
        "fingerprint": static_fingerprint(machine),
        "direct": stats.as_dict(),
    }
    files = [("isa-run-trace.csv", trace.to_csv)]
    if args.compare_lowered:
        lowered = lower_to_conventional(program)
        machine2 = _build_machine(
            config, trial_rng(config["seed"], 1), args.zero_noise, False
        )
        for bank, words in enumerate(initial):
            for row, word in enumerate(words):
                machine2.array.write_word(RowAddress(bank, row), word, record=False)
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
    sca_cfg = config["sca"]
    table = cfgmod.build_cost_table(config)
    n = sca_cfg["samples_per_class"]
    sig_d = sca_cfg["sigma_duration"]
    rows = []
    for idx, sig_e in enumerate(sca_cfg["sweep_sigma_energy"]):
        accs = {}
        for tag, classes, enhanced in (
            ("standard_4_class", STANDARD_CLASSES, False),
            ("enhanced_11_class", ENHANCED_CLASSES, True),
        ):
            # fit one class at a time, then score block by block: neither set is held
            rng = trial_rng(config["seed"], 1000 + idx)
            draw = (classes, table, enhanced, n, sig_d, sig_e, rng)
            _, accs[tag] = streamed_confusion_matrix(streamed_train(*draw), *draw)
        rows.append({"sigma_duration": sig_d, "sigma_energy": sig_e, **accs})
    header = ["sigma_duration", "sigma_energy", "standard_4_class", "enhanced_11_class"]
    cells = [[repr(row[key]) for key in header] for row in rows]
    payload = {"samples_per_class": n, "rows": rows}
    return payload, [("sca.csv", lambda path: write_csv(path, header, cells))]


def run_mitigate(config, args):
    mit = config["mitigation"]
    model = cfgmod.build_model(config)
    base = cfgmod.build_sense(config)
    zone = _flag_or(args.temp, mit["zone_temp"])
    est = mit["shift_estimate" if args.family == "meanshift" else "collapse_estimate"]
    shift = ShiftEstimate(**est)
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
        args = build_parser().parse_args(argv)
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
