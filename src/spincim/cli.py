"""Batch command-line front end; every run is reproducible from config+seed.

Reports embed the seed and a hash of the fully resolved configuration and are
written as canonical JSON (sorted keys), so identical inputs produce byte
identical outputs regardless of thread count. Exit codes: 0 success, 1 usage
or configuration error, 2 experiment error.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .array import CimArray, CimOp, RowAddress
from .attack import (
    AttackScenario,
    AttackVariant,
    AuthDb,
    AuthEntry,
    CredentialPolicy,
    attack_success_rate,
    mc_failure_rate,
)
from .device import (
    FailureRateTargets,
    MeanShift,
    calibrate,
    parse_pair,
    sample_pair_current,
    trial_rng,
)
from .errors import ConfigError, SpinCimError
from .isa import Machine, assemble, lower_to_conventional, run, static_fingerprint
from .mitigation import ShiftEstimate, adapt_references, evaluate_mitigation
from .sca import (
    ENHANCED_CLASSES,
    STANDARD_CLASSES,
    confusion_matrix,
    synthesize_dataset,
    train,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        raise ConfigError(message)


def _finite(text: str) -> float:
    try:
        return cfgmod.finite_number(text)
    except (ConfigError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from exc


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file overlaying the defaults")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials override")
    parser.add_argument("--threads", type=int, help="worker threads for trials")
    parser.add_argument("--out", help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spincim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("margins", help="report the configured sense margins")
    _common_flags(p)

    p = sub.add_parser("truth-table", help="decode table of one two-row operation")
    _common_flags(p)
    p.add_argument("--op", default="CimAND",
                   choices=["CimAND", "CimOR", "CimNAND", "CimNOR", "CimXOR"])
    p.add_argument("--noise", type=_finite, help="sense noise sigma override (uA)")

    p = sub.add_parser("mc-failure", help="Monte Carlo AND-decode failure rate")
    _common_flags(p)
    p.add_argument("--pair", default="AP,P", help='pair state, e.g. "AP,P"')
    p.add_argument("--temp", type=_finite, default=None, help="zone temperature (C)")

    p = sub.add_parser("auth-attack", help="authentication bypass experiment")
    _common_flags(p)
    p.add_argument("--variant", choices=[v.value for v in AttackVariant])
    p.add_argument("--temp", type=_finite, help="zone temperature (C)")
    p.add_argument("--force-flip", action="store_true",
                   help="flip targeted AND senses with probability one")
    p.add_argument("--user-policy", choices=["correct", "random"])
    p.add_argument("--password-policy", choices=["correct", "random"])

    p = sub.add_parser("isa-run", help="assemble and execute a program")
    _common_flags(p)
    p.add_argument("--program", required=True, help="assembly source file")
    p.add_argument("--compare-lowered", action="store_true",
                   help="also run the load/compute/store lowering")
    p.add_argument("--init-hex", help="hex dump preloading the array")
    p.add_argument("--zero-noise", action="store_true",
                   help="run with sense noise disabled")

    p = sub.add_parser("sca", help="operation classification accuracy sweep")
    _common_flags(p)

    p = sub.add_parser("mitigate", help="reference adaptation before/after rates")
    _common_flags(p)
    p.add_argument("--family", choices=["meanshift", "collapse"], default="collapse")
    p.add_argument("--temp", type=_finite, help="zone temperature (C)")

    p = sub.add_parser("calibrate", help="fit noise and collapse parameters")
    _common_flags(p)

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
    return cfgmod.validate_run(config)


def _emit(config: dict, command: str, payload: dict, extra_files=()) -> dict:
    report = {
        "command": command,
        "seed": config["seed"],
        "config_hash": cfgmod.config_hash(config),
        "report": payload,
    }
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{command}.json").write_text(cfgmod.canonical_json(report))
    for name, write_fn in extra_files:
        with open(out_dir / name, "w", newline="") as handle:
            write_fn(handle)
    sys.stdout.write(cfgmod.canonical_json(report))
    return report


def _cmd_margins(args, config) -> dict:
    model = cfgmod.build_model(config)
    return _emit(config, "margins", {"margins_ua": model.margins()})


def _cmd_truth_table(args, config) -> dict:
    if args.noise is not None:
        config["device"]["sigma"] = args.noise
    model = cfgmod.build_model(config)
    sense = cfgmod.build_sense(config)
    rule = sense.decode_rule(CimOp(args.op))
    rng = trial_rng(config["seed"], 0)
    rows = []
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        pair = parse_pair(",".join("P" if b else "AP" for b in bits))
        current = sample_pair_current(pair, model, None, rng)
        rows.append(
            {
                "logic": list(bits),
                "states": f"{pair[0].value},{pair[1].value}",
                "nominal_current_ua": model.pair_level(pair),
                "sensed_current_ua": current,
                "output": rule.apply(current),
            }
        )
    return _emit(config, "truth-table", {"op": args.op, "rows": rows})


def _cmd_mc_failure(args, config) -> dict:
    model = cfgmod.build_model(config)
    sense = cfgmod.build_sense(config)
    temp = args.temp if args.temp is not None else config["attack"]["zone_temp"]
    report = mc_failure_rate(
        args.pair,
        temp,
        config["trials"],
        config["seed"],
        model=model,
        sense=sense,
        collapse=cfgmod.build_collapse(config),
        threads=config["threads"],
    )
    payload = {"pair": args.pair, "zone_temp": temp, **report.as_dict()}
    return _emit(config, "mc-failure", payload)


def _cmd_auth_attack(args, config) -> dict:
    atk = config["attack"]
    variant = AttackVariant(args.variant or atk["variant"])
    zone = args.temp if args.temp is not None else atk["zone_temp"]
    force = args.force_flip or atk["force_flip"]
    policy = CredentialPolicy(
        user=args.user_policy or atk["policy"]["user"],
        password=args.password_policy or atk["policy"]["password"],
    )
    model = cfgmod.build_model(config)
    sense = cfgmod.build_sense(config)
    db = AuthDb(
        entries=(AuthEntry(atk["username"], atk["password"]),),
        width=atk["credential_width"],
    )
    scenario = AttackScenario(
        variant=variant,
        zone_temp=zone,
        force_flip=force,
        collapse=cfgmod.build_collapse(config),
    )
    report = attack_success_rate(
        db, policy, scenario, config["trials"], config["seed"],
        model=model, sense=sense, threads=config["threads"],
    )
    payload = {
        "variant": variant.value,
        "zone_temp": zone,
        "force_flip": force,
        "policy": {"user": policy.user, "password": policy.password},
        **report.as_dict(),
    }
    return _emit(config, "auth-attack", payload)


def _build_machine(config, rng, zero_noise: bool, enhanced: bool) -> Machine:
    model = cfgmod.build_model(config)
    if zero_noise:
        from dataclasses import replace

        model = replace(model, sigma=0.0)
    array = CimArray(
        geometry=cfgmod.build_geometry(config),
        model=model,
        sense=cfgmod.build_sense(config),
        rng=rng,
        cost_table=cfgmod.build_cost_table(config),
        enhanced=enhanced,
    )
    return Machine(array=array)


def _cmd_isa_run(args, config) -> dict:
    source = Path(args.program).read_text()
    program = assemble(source)
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
    extra = [("isa-run-trace.csv", trace.to_csv)]
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
        extra.append(("isa-run-lowered-trace.csv", trace2.to_csv))
    return _emit(config, "isa-run", payload, extra)


def _cmd_sca(args, config) -> dict:
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
            rng = trial_rng(config["seed"], 1000 + idx)
            train_set = synthesize_dataset(classes, table, enhanced, n, sig_d, sig_e, rng)
            test_set = synthesize_dataset(classes, table, enhanced, n, sig_d, sig_e, rng)
            classifier = train(train_set, classes)
            _, accuracy = confusion_matrix(classifier, test_set)
            accs[tag] = accuracy
        rows.append({"sigma_duration": sig_d, "sigma_energy": sig_e, **accs})

    def write_csv(handle):
        writer = csv.writer(handle)
        writer.writerow(["sigma_duration", "sigma_energy",
                         "standard_4_class", "enhanced_11_class"])
        for row in rows:
            writer.writerow([repr(row["sigma_duration"]), repr(row["sigma_energy"]),
                             repr(row["standard_4_class"]),
                             repr(row["enhanced_11_class"])])

    payload = {"samples_per_class": n, "rows": rows}
    return _emit(config, "sca", payload, [("sca.csv", write_csv)])


def _cmd_mitigate(args, config) -> dict:
    mit = config["mitigation"]
    model = cfgmod.build_model(config)
    base = cfgmod.build_sense(config)
    zone = args.temp if args.temp is not None else mit["zone_temp"]
    if args.family == "meanshift":
        est = mit["shift_estimate"]
        shift = ShiftEstimate(est["alpha"], est["beta"], est["gamma"])
        disturbance = MeanShift(est["alpha"], est["beta"], est["gamma"], zone_temp=zone)
    else:
        est = mit["collapse_estimate"]
        shift = ShiftEstimate(est["alpha"], est["beta"], est["gamma"])
        disturbance = cfgmod.build_collapse(config, zone_temp=zone)
    adapted = adapt_references(base, shift, model)
    report = evaluate_mitigation(
        disturbance, base, adapted, config["trials"], config["seed"],
        model=model, threads=config["threads"],
    )
    payload = {"family": args.family, "zone_temp": zone, **report.as_dict()}
    return _emit(config, "mitigate", payload)


def _cmd_calibrate(args, config) -> dict:
    model = cfgmod.build_model(config)
    result = calibrate(FailureRateTargets(), model=model)
    dev = config["device"]
    shipped = {"sigma": dev["sigma"], "a": dev["collapse"]["a"], "b": dev["collapse"]["b"]}
    deltas = {
        key: abs(getattr(result, key) - shipped[key]) / abs(shipped[key])
        for key in ("sigma", "a", "b")
    }
    payload = {**result.as_dict(), "shipped": shipped, "relative_delta": deltas}
    return _emit(config, "calibrate", payload)


_HANDLERS = {
    "margins": _cmd_margins,
    "truth-table": _cmd_truth_table,
    "mc-failure": _cmd_mc_failure,
    "auth-attack": _cmd_auth_attack,
    "isa-run": _cmd_isa_run,
    "sca": _cmd_sca,
    "mitigate": _cmd_mitigate,
    "calibrate": _cmd_calibrate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _resolve(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _HANDLERS[args.command](args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SpinCimError, OSError, ValueError) as exc:
        print(f"experiment error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
