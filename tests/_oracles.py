"""Independent oracles for test expectations.

These deliberately re-derive expected values from first principles (erfc
arithmetic, exhaustive enumeration, numeric integration) instead of calling
the package's analytic module, so each Monte Carlo or closed-form result in
the package is checked against a second, independent route.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

from spincim.device import Collapse, MeanShift, MtjState, heated


def q(z: float) -> float:
    """Standard normal upper tail."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def gaussian_exceed(mean: float, sigma: float, ref: float) -> float:
    if sigma == 0:
        return 1.0 if mean > ref else 0.0
    return q((ref - mean) / sigma)


def collapse_pair_exceed(
    ladder: tuple[float, float, float],
    base: int,
    sigma: float,
    ref: float,
    rho: float,
) -> float:
    """Binomial mixture over 0..(2-base) collapses of heated AP cells."""
    n = 2 - base
    total = 0.0
    for k in range(n + 1):
        w = math.comb(n, k) * rho**k * (1 - rho) ** (n - k)
        total += w * gaussian_exceed(ladder[base + k], sigma, ref)
    return total


def binomial_3sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)


def wilson(successes: int, n: int, z: float = 1.959963984540054):
    phat = successes / n
    denom = 1 + z * z / n
    centre = phat + z * z / (2 * n)
    spread = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return ((centre - spread) / denom, (centre + spread) / denom)


def nearest_centroid_accuracy_by_integration(
    centroids: np.ndarray,
    sigma_d: float,
    sigma_e: float,
    grid: int = 801,
    span_sigmas: float = 8.0,
) -> float:
    """Expected accuracy of nearest-centroid classification by 2D quadrature.

    Observations are Gaussian around each (known) centroid with a diagonal
    covariance; decision regions use the same diagonal metric. Integrates the
    class-conditional density over each class's decision region on a grid in
    whitened offset coordinates.
    """
    sig = np.array([sigma_d, sigma_e])
    white = centroids / sig
    axis = np.linspace(-span_sigmas, span_sigmas, grid)
    step = axis[1] - axis[0]
    dx, dy = np.meshgrid(axis, axis, indexing="ij")
    density = (
        np.exp(-0.5 * (dx**2 + dy**2)) / (2.0 * math.pi) * step * step
    )
    total = 0.0
    for c in range(len(centroids)):
        px = white[c, 0] + dx
        py = white[c, 1] + dy
        d2 = (px[..., None] - white[None, None, :, 0]) ** 2 + (
            py[..., None] - white[None, None, :, 1]
        ) ** 2
        correct = d2.argmin(axis=2) == c
        total += float((density * correct).sum())
    return total / len(centroids)


def int_add_oracle(a: int, b: int, width: int) -> tuple[int, int]:
    """Reference unsigned adder: (sum mod 2^width, carry out)."""
    total = a + b
    return total & ((1 << width) - 1), total >> width


def ripple_add_oracle(and_word: int, or_word: int, width: int) -> tuple[int, int]:
    """The bit-serial adder over one sense's AND and OR decodes, column by
    column as the array controller ripples it: the XOR window (above the OR
    reference, at or below the AND one) is the half-sum, and the carry is
    the majority AND | (carry & OR). Returns (sum word, carry out)."""
    total, carry = 0, 0
    for col in range(width):
        and_bit, or_bit = and_word >> col & 1, or_word >> col & 1
        xor_bit = or_bit & (1 - and_bit)
        total |= (xor_bit ^ carry) << col
        carry = and_bit | (carry & or_bit)
    return total, carry


def scalar_pair_current(states, model, disturbance, rng):
    """The one-call scalar pair sampler as it stood before per-report setup.

    Kept verbatim (every step redone on each call) as the reference that
    ``device.pair_sampler`` must match draw for draw and bit for bit. The
    level index and the per-row split are derived here, not imported, so the
    reference shares no code with the sampler it checks.
    """
    idx = sum(1 for s in states if s is MtjState.P)
    per_row = disturbance if isinstance(disturbance, tuple) else (disturbance, disturbance)
    collapsible = [
        d for s, d in zip(states, per_row)
        if s is MtjState.AP and isinstance(d, Collapse)
    ]
    if rng is None and (bool(collapsible) or model.sigma > 0):
        raise ValueError("a random generator is required for stochastic sampling")
    for d in collapsible:
        idx += rng.random() < d.rho(model.ambient_temp)
    value = model.pair_levels[idx]
    if isinstance(disturbance, MeanShift):
        value += disturbance.shifts[idx]
    if model.sigma > 0:
        return value + rng.normal(0.0, model.sigma)
    return value


def composed_auth(db, u_typed, p_typed, scenario, model, array) -> bool:
    """``attack.run_auth`` on ``array`` as it stood before the one-pass
    trial: the five public senses, one after another.

    Four ``write_word``, the two ``cim_xnor`` (each through the scratch
    rows), the two match writes and the outer ``cim_two_row(CIM_AND)``, with
    the scenario's attack set on the array while they sense. The attack is
    built here from the variant's zone, not taken from ``attack``'s own
    resolver. The reference that ``run_auth`` must match in decision, stored
    words, recorded events and draws.
    """
    from spincim.array import CimOp, SenseDisturbance
    from spincim.attack import _ROWS, _ZONES, AttackVariant

    for key, word in zip(("u_db", "p_db", "u_typed", "p_typed"),
                         (db.username, db.password, u_typed, p_typed)):
        array.write_word(_ROWS[key], word)
    mask = array.geometry.word_mask
    heat = heated(scenario.collapse or Collapse(), scenario.zone_temp, model)
    if scenario.variant is not AttackVariant.NONE:
        array.attack = SenseDisturbance(
            disturbance=None if scenario.force_flip else heat,
            rows=_ZONES[scenario.variant],
            ops=frozenset({CimOp.CIM_AND}),
            force_flip=scenario.force_flip,
        )
    try:
        xnor_u = array.cim_xnor(_ROWS["u_typed"], _ROWS["u_db"], _ROWS["scratch"])
        xnor_p = array.cim_xnor(_ROWS["p_typed"], _ROWS["p_db"], _ROWS["scratch"])
        array.write_word(_ROWS["match_u"], 1 if xnor_u == mask else 0)
        array.write_word(_ROWS["match_p"], 1 if xnor_p == mask else 0)
        decision = array.cim_two_row(CimOp.CIM_AND, _ROWS["match_u"], _ROWS["match_p"])
    finally:
        array.attack = None
    return bool(decision & 1)


# -- side-channel classifier and assembler as they stood before the row-block
# kernels and the operand memo: the rewritten versions must match them bit
# for bit (features, centroids, sigma, predictions, programs, parse errors)

def synthesize_dataset(classes, table, enhanced, samples_per_class, sigma_d, sigma_e, rng):
    """Features and codes of ``sca.synthesize_dataset``, one full-size copy."""
    from spincim.sca import class_centroid

    centres = np.array([class_centroid(name, table, enhanced) for name in classes])
    codes = np.repeat(np.arange(len(classes)), samples_per_class)
    noise = rng.normal(0.0, [sigma_d, sigma_e], (len(codes), 2))
    return np.repeat(centres, samples_per_class, axis=0) + noise, codes


def train(features, codes, dataset_classes, classes=None):
    """(classes, centroids, sigma) of ``sca.train``: one mask per class."""
    from spincim.errors import MissingClass

    expected = sorted(set(dataset_classes if classes is None else classes))
    index = {c: k for k, c in enumerate(expected)}
    remap = np.array([index.get(c, -1) for c in dataset_classes], dtype=np.intp)
    target = remap[codes]
    if (target < 0).any():
        raise ValueError("label is not one of the classes")
    subsets = [features[target == k] for k in range(len(expected))]
    missing = [c for c, sub in zip(expected, subsets) if not len(sub)]
    if missing or not expected:
        raise MissingClass(f"no observations for classes: {missing or expected}")
    centroids = np.array(
        [np.where((sub == sub[0]).all(0), sub[0], sub.mean(0)) for sub in subsets]
    )
    resid = features - centroids.take(target, axis=0)
    var = (resid**2).sum(axis=0) / max(len(features) - len(expected), 1)
    cols = np.asfortranarray(features)
    spread = cols.max(axis=0) - cols.min(axis=0)
    floor = 1e-9 * np.where(spread > 0, spread, np.maximum(np.abs(cols).max(axis=0), 1.0))
    return tuple(expected), centroids, np.maximum(np.sqrt(var), floor)


def predict(centroids, sigma, features):
    """Nearest centroid of ``CentroidClassifier.predict`` over all rows at once."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    (c_d, c_e), (s_d, s_e) = centroids.T, sigma
    dist = ((features[:, :1] - c_d) / s_d) ** 2 + ((features[:, 1:] - c_e) / s_e) ** 2
    return np.argmin(dist, axis=1)


def assemble(text):
    """``isa.assemble`` with a regex split per line and a parse per operand."""
    import re

    from spincim.array import RowAddress
    from spincim.errors import ParseError
    from spincim.isa import _MNEMONICS, _SHAPES, NUM_REGISTERS, Instruction

    def parse_reg(token, line, col):
        m = re.match(r"^R([0-9]+)$", token, re.IGNORECASE)
        if not m or not 0 <= int(m.group(1)) < NUM_REGISTERS:
            raise ParseError(
                f"expected register R0..R{NUM_REGISTERS - 1}, got {token!r}", line, col
            )
        return int(m.group(1))

    def parse_addr(token, line, col):
        m = re.match(r"^@(?:([0-9]+):)?([0-9]+)$", token)
        if not m:
            raise ParseError(
                f"expected row address @row or @bank:row, got {token!r}", line, col
            )
        bank = int(m.group(1)) if m.group(1) is not None else 0
        return RowAddress(bank=bank, row=int(m.group(2)))

    instructions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"[;#]", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        opcode = _MNEMONICS.get(mnemonic.upper())
        if opcode is None:
            raise ParseError(f"unknown mnemonic {mnemonic!r}", lineno, raw.find(mnemonic) + 1)
        operand_text = parts[1] if len(parts) > 1 else ""
        tokens = [t.strip() for t in operand_text.split(",")] if operand_text.strip() else []
        shape = _SHAPES[opcode]
        if len(tokens) != len(shape):
            raise ParseError(
                f"{opcode.value} takes {len(shape)} operand(s), got {len(tokens)}",
                lineno,
                raw.find(mnemonic) + 1,
            )
        regs, addrs = [], []
        end = raw.find(mnemonic) + len(mnemonic)
        for kind, token in zip(shape, tokens):
            col = raw.find(token, end) + 1  # the operand after the one before it
            end = col - 1 + len(token)
            if kind == "r":
                regs.append(parse_reg(token, lineno, col))
            else:
                addrs.append(parse_addr(token, lineno, col))
        instructions.append(Instruction(opcode, tuple(regs), tuple(addrs)))
    return tuple(instructions)


def lower_to_conventional(program):
    """``isa.lower_to_conventional`` as it stood before it shared its steps:
    one new ``Instruction`` per step, the scratch-register check left out."""
    from spincim.array import CimOp
    from spincim.isa import CIM_OPS, Instruction, Opcode

    alu = {CimOp.CIM_ADD: Opcode.ADD, CimOp.CIM_AND: Opcode.AND, CimOp.CIM_OR: Opcode.OR,
           CimOp.CIM_XOR: Opcode.XOR, CimOp.CIM_NAND: Opcode.AND, CimOp.CIM_NOR: Opcode.OR}
    out = []
    for instr in program:
        op = instr.opcode
        if op not in CIM_OPS:
            out.append(instr)
            continue
        if op is CimOp.CIM_NOT:
            a, dest = instr.addrs
            out.append(Instruction(Opcode.LOAD, (6,), (a,)))
            out.append(Instruction(Opcode.NOT, (6, 6)))
            out.append(Instruction(Opcode.STORE, (6,), (dest,)))
            continue
        a, b, dest = instr.addrs
        out.append(Instruction(Opcode.LOAD, (6,), (a,)))
        out.append(Instruction(Opcode.LOAD, (7,), (b,)))
        out.append(Instruction(alu[op], (6, 6, 7)))
        if op in (CimOp.CIM_NAND, CimOp.CIM_NOR):
            out.append(Instruction(Opcode.NOT, (6, 6)))
        out.append(Instruction(Opcode.STORE, (6,), (dest,)))
    return tuple(out)


# -- the execution trace as it stood before its columns: one csv.writer row
# per event, each float through repr, each event starting where the last ended

def reference_trace_csv(events) -> str:
    """The trace CSV of ``(kind, cost, channel)`` events, written row by row."""
    out, start = io.StringIO(), 0.0
    writer = csv.writer(out)
    writer.writerow(["kind", "start_ns", "duration_ns", "energy_fJ", "channel"])
    for kind, cost, channel in events:
        writer.writerow([kind.value, repr(start), repr(cost.delay_ns), repr(cost.energy_fj),
                         channel.value])
        start += cost.delay_ns
    return out.getvalue()


def trace_events(trace) -> list[tuple]:
    """``(kind, cost, channel)`` of each event of an ``ExecutionTrace``, in order."""
    return [trace.rows[row] for row in trace.event_rows]
