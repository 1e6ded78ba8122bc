"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Every tolerance is pinned here; the master seed is fixed so each criterion is
a deterministic check.
"""
import json
import sys
import time

import numpy as np

from spincim.array import ArrayGeometry, CimArray, CimOp, RowAddress, SenseConfig
from spincim.attack import (
    AttackScenario,
    AttackVariant,
    AuthDb,
    CredentialPolicy,
    attack_success_rate,
    exceedance_mc,
    mc_failure_rate,
    run_auth,
)
from spincim.cli import main as cli_main
from spincim.cost import (
    Channel,
    CostMode,
    CostTable,
    ExecutionTrace,
    count_bus_transfers,
    word_write_cost,
)
from spincim.device import Collapse, CurrentLevelModel, MeanShift, parse_pair, trial_rng
from spincim.isa import assemble, lower_to_conventional, run
from spincim.mitigation import adapt_references, evaluate_mitigation
from spincim.sca import (
    ENHANCED_CLASSES,
    STANDARD_CLASSES,
    hamming_weight_attack,
    score_attackers,
)

from _oracles import binomial_3sigma, collapse_pair_exceed, int_add_oracle
from _progs import machine_with_memory, random_cim_program
from conftest import MASTER_SEED, auth_array

SEED = MASTER_SEED
TRIALS = 10_000


class Criterion:
    """Collects sub-checks and prints exactly one PASS/FAIL line."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description
        self.failures: list[str] = []
        self.t0 = time.monotonic()

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def done(self, budget_s: float | None = None) -> None:
        elapsed = time.monotonic() - self.t0
        if budget_s is not None:
            self.check(elapsed < budget_s, f"runtime {elapsed:.1f}s >= {budget_s}s")
        verdict = "FAIL" if self.failures else "PASS"
        # bypass capsys so the line survives tests that capture stdout
        print(
            f"[criterion {self.number:02d}] {verdict} ({elapsed:.1f}s) "
            f"{self.description}",
            file=sys.__stdout__,
        )
        assert not self.failures, "; ".join(self.failures)


def test_criterion_01_failure_rate_table():
    crit = Criterion(1, "heated AND failure rates reproduce the reference table")
    windows = {
        ("AP,P", 20.0): (0.005, 0.002),
        ("AP,P", 50.0): (0.006, 0.003),
        ("AP,P", 100.0): (0.044, 0.006),
        ("AP,AP", 100.0): (0.003, 0.002),  # model residual ~0.19% documented
    }
    for (pair, temp), (target, tol) in windows.items():
        report = mc_failure_rate(pair, temp, TRIALS, SEED)
        crit.check(
            abs(report.rate - target) <= tol,
            f"{pair}@{temp:g}C rate {report.rate:.4f} outside {target}+-{tol}",
        )
    for temp in (20.0, 50.0):
        report = mc_failure_rate("AP,AP", temp, TRIALS, SEED)
        crit.check(
            report.failures == 0,
            f"AP,AP@{temp:g}C expected 0 failures, got {report.failures}",
        )
    crit.done(budget_s=10.0)


def test_criterion_02_oracle_equivalence_matrix():
    crit = Criterion(2, "Monte Carlo within 3 sigma of closed form on an 18-cell matrix")
    model = CurrentLevelModel()
    sense = SenseConfig()
    n = 4000
    cells = 0
    for pair_name in ("AP,AP", "AP,P", "P,P"):
        for temp in (20.0, 50.0, 100.0):
            for ref in (sense.i_ref_or, sense.i_ref_and):
                disturbance = Collapse(zone_temp=temp)
                report = exceedance_mc(
                    parse_pair(pair_name), disturbance, ref, n, SEED, model
                )
                base = parse_pair(pair_name)[0].bit + parse_pair(pair_name)[1].bit
                oracle = collapse_pair_exceed(
                    model.pair_levels, base, model.sigma, ref,
                    disturbance.rho(model.ambient_temp),
                )
                crit.check(
                    abs(report.analytic_rate - oracle) < 1e-12,
                    f"package oracle drifted from test oracle at {pair_name}/{temp}/{ref}",
                )
                crit.check(
                    abs(report.rate - oracle) <= binomial_3sigma(oracle, n) + 1e-12,
                    f"{pair_name}@{temp:g}C ref={ref}: rate {report.rate:.5f} "
                    f"vs oracle {oracle:.5f}",
                )
                cells += 1
    crit.check(cells >= 12, f"only {cells} matrix cells")
    crit.done()


def test_criterion_03_margins_report(capsys, tmp_path):
    crit = Criterion(3, "margins report emits 5.5 / 3.2 / 2.5 uA exactly")
    code = cli_main(["margins", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    crit.check(code == 0, f"margins exited {code}")
    report = json.loads(out)
    margins = report["report"]["margins_ua"]
    crit.check(margins["read"] == 5.5, f"read margin {margins['read']}")
    crit.check(margins["pair_lower"] == 3.2, f"lower pair margin {margins['pair_lower']}")
    crit.check(margins["pair_upper"] == 2.5, f"upper pair margin {margins['pair_upper']}")
    crit.done()


def test_criterion_04_zero_noise_functional_suite(zero_noise_model):
    crit = Criterion(4, "zero-noise truth tables, De Morgan, exhaustive add, XNOR")
    arr = CimArray(model=zero_noise_model)
    a_addr, b_addr = RowAddress(0, 0), RowAddress(0, 1)
    scratch = (RowAddress(0, 8), RowAddress(0, 9))

    # decode truth table per input combination, all five two-row ops
    truth = {
        "CimAND": lambda a, b: a & b,
        "CimOR": lambda a, b: a | b,
        "CimNAND": lambda a, b: 1 - (a & b),
        "CimNOR": lambda a, b: 1 - (a | b),
        "CimXOR": lambda a, b: a ^ b,
    }
    for name, fn in truth.items():
        for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):
            arr.write_word(a_addr, bits[0])
            arr.write_word(b_addr, bits[1])
            got = arr.cim_two_row(CimOp(name), a_addr, b_addr) & 1
            crit.check(got == fn(*bits), f"{name}{bits} -> {got}")

    # De Morgan identities on random words
    rng = np.random.default_rng(41)
    mask = arr.geometry.word_mask
    for _ in range(200):
        a, b = int(rng.integers(0, 1 << 16)), int(rng.integers(0, 1 << 16))
        arr.write_word(a_addr, a)
        arr.write_word(b_addr, b)
        ok_nand = (arr.cim_two_row(CimOp.CIM_NAND, a_addr, b_addr)
                   == (~arr.cim_two_row(CimOp.CIM_AND, a_addr, b_addr)) & mask)
        ok_nor = (arr.cim_two_row(CimOp.CIM_NOR, a_addr, b_addr)
                  == (~arr.cim_two_row(CimOp.CIM_OR, a_addr, b_addr)) & mask)
        crit.check(ok_nand and ok_nor, f"De Morgan failed on {a:#x},{b:#x}")
        if not (ok_nand and ok_nor):
            break

    # exhaustive 8-bit addition against the integer oracle
    narrow = CimArray(geometry=ArrayGeometry(cols_per_row=8), model=zero_noise_model)
    na, nb, nd = RowAddress(0, 0), RowAddress(0, 1), RowAddress(0, 2)
    bad = 0
    for a in range(256):
        for b in range(256):
            narrow.write_word(na, a)
            narrow.write_word(nb, b)
            carry = narrow.cim_add(na, nb, nd)
            want_sum, want_carry = int_add_oracle(a, b, 8)
            if narrow.snapshot()[nd.bank][nd.row] != want_sum or carry != want_carry:
                bad += 1
    crit.check(bad == 0, f"{bad}/65536 adder mismatches")

    # XNOR reflexivity on 1000 random words
    for _ in range(1000):
        word = int(rng.integers(0, 1 << 16))
        arr.write_word(a_addr, word)
        arr.write_word(b_addr, word)
        if arr.cim_xnor(a_addr, b_addr, scratch) != mask:
            crit.check(False, f"XNOR({word:#x}, same) not all-ones")
            break
    crit.done(budget_s=30.0)


def test_criterion_05_instruction_reduction(zero_noise_model):
    crit = Criterion(5, "conventional 4/3 vs in-memory 1/1, lowering equivalence x100")
    conventional = "LOAD R1, @0\nLOAD R2, @1\nADD R3, R1, R2\nSTORE R3, @2\nHALT\n"
    m1 = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
    stats1, trace1 = run(assemble(conventional), m1)
    crit.check(stats1.instruction_count == 4, f"conv instr {stats1.instruction_count}")
    crit.check(stats1.memory_access_count == 3, f"conv accesses {stats1.memory_access_count}")
    crit.check(count_bus_transfers(trace1) == 3, "conv bus transfers")

    m2 = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
    stats2, trace2 = run(assemble("CimADD @0, @1, @2\n"), m2)
    crit.check(stats2.instruction_count == 1, f"cim instr {stats2.instruction_count}")
    crit.check(stats2.memory_access_count == 1, f"cim accesses {stats2.memory_access_count}")
    crit.check(
        m1.array.snapshot()[0][2] == m2.array.snapshot()[0][2] == 16,
        "both routes compute 7+9",
    )

    rng = np.random.default_rng(43)
    mismatches = 0
    for _ in range(100):
        program = random_cim_program(rng, rows=8, max_instructions=50)
        init = [int(w) for w in rng.integers(0, 256, size=16)]
        direct = machine_with_memory(zero_noise_model, words=init)
        run(program, direct)
        lowered = machine_with_memory(zero_noise_model, words=init)
        run(lower_to_conventional(program), lowered)
        if direct.array.snapshot() != lowered.array.snapshot():
            mismatches += 1
    crit.check(mismatches == 0, f"{mismatches}/100 lowering mismatches")
    crit.done()


def test_criterion_06_forced_flip_algebra(zero_noise_model):
    crit = Criterion(6, "forced flips: XNOR-level accepts all, gate-level is OR")
    db = AuthDb(0xA5A5, 0x5AC3, width=16)
    xnor_forced = AttackScenario(
        variant=AttackVariant.XNOR_LEVEL, zone_temp=100.0, force_flip=True
    )
    rng = np.random.default_rng(47)
    rejected = 0
    for _ in range(1000):
        u = int(rng.integers(0, 1 << 16))
        p = int(rng.integers(0, 1 << 16))
        accept = run_auth(db, u, p, xnor_forced, auth_array(zero_noise_model))
        rejected += not accept
    crit.check(rejected == 0, f"{rejected}/1000 random credentials rejected")

    report = attack_success_rate(
        db, CredentialPolicy("random", "random"), xnor_forced, 2000, SEED,
        model=zero_noise_model,
    )
    crit.check(report.rate == 1.0, f"forced success rate {report.rate}")
    crit.check(report.analytic_rate == 1.0, "forced analytic rate")

    gate_forced = AttackScenario(
        variant=AttackVariant.GATE_LEVEL, zone_temp=100.0, force_flip=True
    )
    for u_ok in (True, False):
        for p_ok in (True, False):
            u = 0xA5A5 if u_ok else 0x1111
            p = 0x5AC3 if p_ok else 0x2222
            accept = run_auth(db, u, p, gate_forced, auth_array(zero_noise_model))
            crit.check(
                accept == (u_ok or p_ok),
                f"gate-level forced ({u_ok},{p_ok}) -> {accept}",
            )
    crit.done()


def test_criterion_07_probabilistic_attack():
    crit = Criterion(7, "heated bypass rate within 3 sigma of the composition oracle")
    db = AuthDb(0xA5A5, 0x5AC3, width=16)
    scenario = AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=100.0)
    report = attack_success_rate(
        db, CredentialPolicy("correct", "random"), scenario, TRIALS, SEED
    )
    band = binomial_3sigma(report.analytic_rate, TRIALS)
    crit.check(
        abs(report.rate - report.analytic_rate) <= band,
        f"rate {report.rate:.5f} vs oracle {report.analytic_rate:.5f} (band {band:.5f})",
    )
    crit.done()


def test_criterion_08_classification_and_hamming():
    crit = Criterion(8, "11-class accuracy <= 4-class at each noise level; HW exact")
    table = CostTable()
    sig_d = 0.05
    n = TRIALS
    for idx, sig_e in enumerate((0.5, 1.0, 2.0, 5.0)):
        accs = {}
        for tag, classes, enhanced in (
            ("std", STANDARD_CLASSES, False),
            ("enh", ENHANCED_CLASSES, True),
        ):
            # paired streams across class sets, scored as the sca report scores them
            [[(_, accs[tag])]] = score_attackers([(classes, table, enhanced)], n, sig_d, [sig_e],
                                                 trial_rng(SEED, 2000 + idx))
        crit.check(
            accs["enh"] <= accs["std"],
            f"sigma_E={sig_e}: 11-class {accs['enh']:.4f} > 4-class {accs['std']:.4f}",
        )

    for classes, enhanced in ((STANDARD_CLASSES, False), (ENHANCED_CLASSES, True)):
        [[(_, accuracy)]] = score_attackers([(classes, table, enhanced)], 3, 0.0, [0.0],
                                            trial_rng(SEED, 2100))
        crit.check(accuracy == 1.0, f"zero-noise accuracy {accuracy} for {len(classes)} classes")

    per_bit = CostTable(mode=CostMode.PER_BIT_WRITES)
    wrong = 0
    for word in range(1 << 12):
        trace = ExecutionTrace()
        kind, cost = word_write_cost(word, 12, per_bit, enhanced=False)
        trace.record(kind, cost, Channel.BUS)
        if hamming_weight_attack(trace, 12) != bin(word).count("1"):
            wrong += 1
    crit.check(wrong == 0, f"{wrong}/4096 Hamming-weight recoveries wrong")
    crit.done()


def test_criterion_09_mitigation():
    crit = Criterion(9, "adapted references restore natural rates / strictly improve")
    model = CurrentLevelModel()
    base = SenseConfig()

    shift = MeanShift(0.15, 0.2, 0.25)
    adapted = adapt_references(base, shift, model)
    matched = MeanShift(shift.alpha, shift.beta, shift.gamma, zone_temp=100.0)
    report = evaluate_mitigation(matched, base, adapted, TRIALS, SEED, model=model)
    band = binomial_3sigma(report.natural_rate, TRIALS)
    crit.check(
        abs(report.after.rate - report.natural_rate) <= band,
        f"mean-shift after {report.after.rate:.4f} vs natural "
        f"{report.natural_rate:.4f} (band {band:.4f})",
    )

    collapse_adapted = adapt_references(base, MeanShift(0.2, 0.4, 0.6), model)
    report2 = evaluate_mitigation(
        Collapse(zone_temp=100.0), base, collapse_adapted, TRIALS, SEED, model=model
    )
    crit.check(
        report2.after.rate < report2.before.rate,
        f"collapse after {report2.after.rate:.4f} !< before {report2.before.rate:.4f}",
    )
    crit.check(
        report2.after.rate > report2.natural_rate,
        "collapse mitigation cannot reach the natural rate",
    )
    crit.done()


def test_criterion_10_determinism(tmp_path, capsys):
    crit = Criterion(10, "byte-identical reports across reruns and thread counts")
    runs = {
        "mc-failure": ["mc-failure", "--pair", "AP,P", "--temp", "100",
                       "--trials", "10000"],
        "mitigate": ["mitigate", "--family", "collapse", "--trials", "4000"],
    }
    for name, args in runs.items():
        out = tmp_path / name
        first = None
        for threads in ("1", "1", "4"):
            code = cli_main(args + ["--out", str(out), "--threads", threads])
            capsys.readouterr()
            crit.check(code == 0, f"{name} exited {code}")
            blob = (out / f"{name}.json").read_bytes()
            if first is None:
                first = blob
            crit.check(blob == first, f"{name} bytes differ (threads={threads})")
    crit.done()
