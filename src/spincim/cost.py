"""Per-operation delay/energy accounting, execution tracing, power synthesis.

Delays are in nanoseconds, energies in femtojoules. The standard table covers
the four read/write classes of a plain array; the enhanced table covers the
eleven observable operation classes of the compute-capable array. Default
values are the shipped reference numbers and round-trip bit-exactly through
JSON configuration.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple

import numpy as np

from .errors import MalformedTrace, UnknownOp


class OpClass(Enum):
    """Externally observable operation classes (cost-table row keys)."""

    READ1 = "Read1"
    READ0 = "Read0"
    WRITE1 = "Write1"
    WRITE0 = "Write0"
    CIM_NOT = "CimNOT"
    CIM_AND = "CimAND"
    CIM_OR = "CimOR"
    CIM_NAND = "CimNAND"
    CIM_NOR = "CimNOR"
    CIM_XOR = "CimXOR"
    CIM_ADD = "CimADD"

    __hash__ = object.__hash__  # by identity, as members compare: no Python frame


class Channel(Enum):
    BUS = "Bus"
    IN_MEMORY = "InMemory"


class CostMode(Enum):
    PER_WORD = "PerWord"
    PER_BIT_WRITES = "PerBitWrites"


@dataclass(frozen=True)
class OpCost:
    delay_ns: float
    energy_fj: float

    def __post_init__(self):
        if self.delay_ns < 0 or self.energy_fj < 0:
            raise ValueError("delay and energy must be non-negative")


STANDARD_COSTS: Mapping[OpClass, OpCost] = {
    OpClass.READ1: OpCost(0.6, 8.611),
    OpClass.READ0: OpCost(0.6, 7.669),
    OpClass.WRITE1: OpCost(4.4, 233.3),
    OpClass.WRITE0: OpCost(3.3, 191.4),
}

ENHANCED_COSTS: Mapping[OpClass, OpCost] = {
    OpClass.READ1: OpCost(0.63, 22.69),
    OpClass.READ0: OpCost(0.67, 23.85),
    OpClass.WRITE1: OpCost(4.40, 244.64),
    OpClass.WRITE0: OpCost(3.30, 202.70),
    OpClass.CIM_NOT: OpCost(0.60, 22.20),
    OpClass.CIM_AND: OpCost(0.55, 22.30),
    OpClass.CIM_OR: OpCost(0.53, 22.90),
    OpClass.CIM_NAND: OpCost(0.45, 18.89),
    OpClass.CIM_NOR: OpCost(0.45, 21.00),
    OpClass.CIM_XOR: OpCost(0.53, 26.34),
    OpClass.CIM_ADD: OpCost(0.53, 26.32),
}


_SIDES = ("standard", "enhanced")


@dataclass(frozen=True)
class CostTable:
    standard: Mapping[OpClass, OpCost] = field(default_factory=lambda: dict(STANDARD_COSTS))
    enhanced: Mapping[OpClass, OpCost] = field(default_factory=lambda: dict(ENHANCED_COSTS))
    mode: CostMode = CostMode.PER_WORD

    def side(self, enhanced: bool) -> Mapping[OpClass, OpCost]:
        return self.enhanced if enhanced else self.standard

    def as_dict(self) -> dict:
        """JSON form: the mode's name and each side's rows as [delay_ns, energy_fj]."""
        return {
            "mode": self.mode.value,
            **{
                side: {
                    kind.value: [c.delay_ns, c.energy_fj]
                    for kind, c in getattr(self, side).items()
                }
                for side in _SIDES
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "CostTable":
        """Inverse of :meth:`as_dict`; the defaults round-trip bit-exactly.

        An unknown mode or operation name raises ValueError; the shape of
        each row is checked by ``config.validate_run``, not here.
        """
        return cls(
            mode=CostMode(data["mode"]),
            **{
                side: {
                    OpClass(name): OpCost(float(delay), float(energy))
                    for name, (delay, energy) in data[side].items()
                }
                for side in _SIDES
            },
        )


def cost_of(kind: OpClass, table: CostTable, enhanced: bool = True) -> OpCost:
    """Table row for one operation class; raises UnknownOp if absent."""
    row = table.side(enhanced).get(kind)
    if row is None:
        which = "enhanced" if enhanced else "standard"
        raise UnknownOp(f"{kind.value} has no row in the {which} cost table")
    return row


def open_target(target, mode: str = "r", **kwargs):
    """``target`` as a context manager: a path is opened, and closed on exit.

    A str, bytes or os.PathLike target is a path; anything else is taken as
    an open handle and left open.
    """
    if isinstance(target, (str, bytes, os.PathLike)):
        return open(target, mode, **kwargs)
    return contextlib.nullcontext(target)


def popcount(word: int, width: int) -> int:
    return (word & ((1 << width) - 1)).bit_count()


def word_write_cost(
    word: int, width: int, table: CostTable, enhanced: bool = True
) -> tuple[OpClass, int, int, OpCost]:
    """Cost of writing one word, honouring the table's accounting mode.

    PerWord charges the majority-bit table row once (a tie charges the `1`
    row); PerBitWrites sums the per-bit rows with duration equal to the
    slowest bit (parallel bit-lines).
    """
    ones = popcount(word, width)
    zeros = width - ones
    kind = OpClass.WRITE1 if ones >= zeros else OpClass.WRITE0
    if table.mode is CostMode.PER_WORD:
        return kind, ones, zeros, cost_of(kind, table, enhanced)
    c1 = cost_of(OpClass.WRITE1, table, enhanced)
    c0 = cost_of(OpClass.WRITE0, table, enhanced)
    delay = max(c1.delay_ns if ones else 0.0, c0.delay_ns if zeros else 0.0)
    energy = ones * c1.energy_fj + zeros * c0.energy_fj
    return kind, ones, zeros, OpCost(delay, energy)


def word_read_cost(
    word: int, width: int, table: CostTable, enhanced: bool = True
) -> tuple[OpClass, int, int, OpCost]:
    """Cost of reading one word: the majority-bit row, in either mode."""
    ones = popcount(word, width)
    zeros = width - ones
    kind = OpClass.READ1 if ones >= zeros else OpClass.READ0
    return kind, ones, zeros, cost_of(kind, table, enhanced)


class TraceEvent(NamedTuple):
    kind: OpClass
    ones: int
    zeros: int
    start_ns: float
    duration_ns: float
    energy_fj: float
    channel: Channel


class ExecutionTrace:
    """Append-only, non-overlapping sequence of timed operation events."""

    def __init__(self):
        self.events: list[TraceEvent] = []
        self._cursor = 0.0

    def record(
        self,
        kind: OpClass,
        cost: OpCost,
        channel: Channel,
        ones: int = 0,
        zeros: int = 0,
    ) -> TraceEvent:
        event = TraceEvent(
            kind, ones, zeros, self._cursor, cost.delay_ns, cost.energy_fj, channel
        )
        self.events.append(event)
        self._cursor += cost.delay_ns
        return event

    @property
    def end_ns(self) -> float:
        return self._cursor

    def total_energy(self) -> float:
        return sum(e.energy_fj for e in self.events)

    def to_csv(self, target) -> None:
        """Write event rows as kind,start_ns,duration_ns,energy_fJ,channel."""
        with open_target(target, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["kind", "start_ns", "duration_ns", "energy_fJ", "channel"])
            for e in self.events:
                writer.writerow(
                    [e.kind.value, repr(e.start_ns), repr(e.duration_ns),
                     repr(e.energy_fj), e.channel.value]
                )

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def count_bus_transfers(trace: ExecutionTrace) -> int:
    """Number of events that crossed the processor-memory bus."""
    return sum(1 for e in trace.events if e.channel is Channel.BUS)


@dataclass
class PowerTrace:
    sample_rate: float  # samples per ns
    power: np.ndarray   # fJ/ns per sample

    @property
    def times_ns(self) -> np.ndarray:
        return np.arange(len(self.power)) / self.sample_rate

    def integrate(self, t0_ns: float = 0.0, t1_ns: float | None = None) -> float:
        """Rectangular integral of power over [t0, t1], in fJ."""
        dt = 1.0 / self.sample_rate
        t = self.times_ns
        if t1_ns is None:
            t1_ns = float(len(self.power)) * dt
        mask = (t >= t0_ns) & (t < t1_ns)
        return float(self.power[mask].sum() * dt)

    def to_csv(self, target) -> None:
        with open_target(target, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["t_ns", "power"])
            for t, p in zip(self.times_ns, self.power):
                writer.writerow([repr(float(t)), repr(float(p))])


def synthesize_power_trace(
    trace: ExecutionTrace,
    sample_rate: float,
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
    duration_ns: float | None = None,
) -> PowerTrace:
    """Rectangular power samples (energy/duration per event) plus i.i.d. noise.

    Integrating a zero-noise trace across an event recovers its energy to
    within one sample's quantization.
    """
    if sample_rate <= 0:
        raise ValueError("sample_rate must be positive")
    if noise_sigma > 0 and rng is None:
        raise ValueError("a random generator is required for noisy synthesis")
    end = trace.end_ns if duration_ns is None else duration_ns
    n = int(math.ceil(end * sample_rate))
    power = np.zeros(n, dtype=float)
    dt = 1.0 / sample_rate
    for e in trace.events:
        if e.duration_ns <= 0:
            continue
        level = e.energy_fj / e.duration_ns
        k0 = int(math.ceil(e.start_ns * sample_rate - 1e-12))
        k1 = int(math.ceil((e.start_ns + e.duration_ns) * sample_rate - 1e-12))
        power[k0:min(k1, n)] += level
    if noise_sigma > 0:
        power = power + rng.normal(0.0, noise_sigma, n)
    return PowerTrace(sample_rate=sample_rate, power=power)


def single_word_write_event(trace: ExecutionTrace) -> TraceEvent:
    """The unique word-write event of a trace; raises MalformedTrace otherwise."""
    writes = [
        e for e in trace.events if e.kind in (OpClass.WRITE1, OpClass.WRITE0)
    ]
    if len(writes) != 1:
        raise MalformedTrace(
            f"expected exactly one word-write event, found {len(writes)}"
        )
    return writes[0]
