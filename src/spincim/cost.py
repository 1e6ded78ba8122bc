"""Per-operation delay/energy accounting and execution tracing.

Delays are in nanoseconds, energies in femtojoules. The standard table covers
the four read/write classes of a plain array; the enhanced table covers the
eleven observable operation classes of the compute-capable array. Default
values are the shipped reference numbers and round-trip bit-exactly through
JSON configuration.
"""
from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from operator import add
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

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

    __hash__ = object.__hash__  # by identity, as members compare: no Python frame


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
    """The standard and enhanced cost rows and the write-cost mode.

    Both sides are stored as read-only copies, so neither an edit in place
    nor a later edit of the caller's dict can change a row that an array
    has already memoised (:meth:`~spincim.array.CimArray.record_cim`).
    """

    standard: Mapping[OpClass, OpCost] = field(default_factory=lambda: STANDARD_COSTS)
    enhanced: Mapping[OpClass, OpCost] = field(default_factory=lambda: ENHANCED_COSTS)
    mode: CostMode = CostMode.PER_WORD

    def __post_init__(self):
        for side in _SIDES:
            object.__setattr__(self, side, MappingProxyType(dict(getattr(self, side))))

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


def write_csv(target, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and then ``rows`` as CSV to a path or an open handle.

    Cells are written as given, so callers format floats themselves
    (``repr`` round-trips them).
    """
    with open_target(target, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def popcount(word: int, width: int) -> int:
    return (word & ((1 << width) - 1)).bit_count()


def word_write_cost(
    word: int, width: int, table: CostTable, enhanced: bool = True
) -> tuple[OpClass, OpCost]:
    """Cost of writing one word, honouring the table's accounting mode.

    PerWord charges the majority-bit table row once (a tie charges the `1`
    row); PerBitWrites sums the per-bit rows with duration equal to the
    slowest bit (parallel bit-lines).
    """
    ones = popcount(word, width)
    zeros = width - ones
    kind = OpClass.WRITE1 if ones >= zeros else OpClass.WRITE0
    if table.mode is CostMode.PER_WORD:
        return kind, cost_of(kind, table, enhanced)
    c1 = cost_of(OpClass.WRITE1, table, enhanced)
    c0 = cost_of(OpClass.WRITE0, table, enhanced)
    delay = max(c1.delay_ns if ones else 0.0, c0.delay_ns if zeros else 0.0)
    energy = ones * c1.energy_fj + zeros * c0.energy_fj
    return kind, OpCost(delay, energy)


def word_read_cost(
    word: int, width: int, table: CostTable, enhanced: bool = True
) -> tuple[OpClass, OpCost]:
    """Cost of reading one word: the majority-bit row, in either mode."""
    ones = popcount(word, width)
    kind = OpClass.READ1 if ones >= width - ones else OpClass.READ0
    return kind, cost_of(kind, table, enhanced)


class ExecutionTrace:
    """Append-only, non-overlapping sequence of timed operation events, in
    columns: event ``i`` is row ``rows[event_rows[i]]``, one ``(kind, cost,
    channel)`` per cost object recorded (``0.0`` and ``-0.0`` stay apart),
    starting at ``start_ns[i]``, the running sum of the durations before it."""

    def __init__(self):
        self.rows: list[tuple[OpClass, OpCost, Channel]] = []
        self.event_rows: list[int] = []
        self.start_ns: list[float] = []
        self._cursor, self._row_of = 0.0, {}

    def __len__(self) -> int:
        return len(self.event_rows)

    def record(self, kind: OpClass, cost: OpCost, channel: Channel) -> None:
        """Append one event of ``kind`` at ``cost`` over ``channel``."""
        key = (kind, id(cost), channel)
        row = self._row_of.get(key)
        if row is None:
            row = self._row_of[key] = len(self.rows)
            self.rows.append((kind, cost, channel))  # holds cost: its id is not reused
        self.event_rows.append(row)
        self.start_ns.append(self._cursor)
        self._cursor += cost.delay_ns

    @property
    def end_ns(self) -> float:
        return self._cursor

    def total_energy(self) -> float:
        """Event energies added one by one from 0.0 in event order, as ``end_ns``
        adds delays: no compensated sum, so every Python gives the same total."""
        energies = [cost.energy_fj for _, cost, _ in self.rows]
        return reduce(add, map(energies.__getitem__, self.event_rows), 0.0)

    def to_csv(self, target) -> None:
        """Write event rows as kind,start_ns,duration_ns,energy_fJ,channel: the bytes of
        ``csv.writer`` with floats through ``repr``, which quotes no cell here, so each
        row's cells around ``start_ns`` are formatted once; rows stream, none is held."""
        cells = [(f"{kind.value},", f",{cost.delay_ns!r},{cost.energy_fj!r},{channel.value}\r\n")
                 for kind, cost, channel in self.rows]
        with open_target(target, "w", newline="") as handle:
            handle.write("kind,start_ns,duration_ns,energy_fJ,channel\r\n")
            handle.writelines(before + repr(start) + after for (before, after), start
                              in zip(map(cells.__getitem__, self.event_rows), self.start_ns))


def count_bus_transfers(trace: ExecutionTrace) -> int:
    """Number of events that crossed the processor-memory bus."""
    bus = [channel is Channel.BUS for _, _, channel in trace.rows]
    return sum([bus[i] for i in trace.event_rows])


def single_word_write_event(trace: ExecutionTrace) -> OpCost:
    """The cost of the unique word-write event of a trace; raises MalformedTrace otherwise."""
    writes = [trace.rows[i][1] for i in trace.event_rows
              if trace.rows[i][0] in (OpClass.WRITE1, OpClass.WRITE0)]
    if len(writes) != 1:
        raise MalformedTrace(f"expected exactly one word-write event, found {len(writes)}")
    return writes[0]
