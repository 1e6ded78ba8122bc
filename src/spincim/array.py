"""Word-addressed MTJ array with sense-amplifier logic operations.

Words are unsigned integers with bit k stored in column k (bit 0 is the
least significant column). A single-cell sense compares the cell current to
the read reference; a two-row sense compares the summed pair current to the
AND or OR reference, or to the window between them for XOR. All decodes of
one operation derive from a single current sample per column, so decision
failures are correlated across the decodes of a shared sense and are never
resampled.

Each sense samples all columns of its row (or row pair) in one vectorised
draw from the array's generator, in a fixed order: for each activated row
whose disturbance is Collapse (first operand first), one uniform per column;
then one normal per column when the noise sigma is positive. The number of
draws depends on the operation and the disturbance, never on the stored
words.

An attack heats a sense it matches with its disturbance bare when every
activated row is in its zone (a MeanShift shifts the pair levels and leaves
single cells alone), else per row, which a MeanShift cannot be: a pair sense
with one of its rows heated by a MeanShift raises ValueError. Row bits come
from a bounded cache of read-only vectors, so a word is unpacked once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

from .cost import (
    Channel,
    CostTable,
    ExecutionTrace,
    OpClass,
    cost_of,
    open_target,
    word_read_cost,
    word_write_cost,
)
from .device import (
    CurrentLevelModel,
    Disturbance,
    MeanShift,
    sample_columns,
)
from .errors import MappingViolation, OutOfBounds


class CimOp(Enum):
    READ = "Read"
    WRITE = "Write"
    CIM_NOT = "CimNOT"
    CIM_AND = "CimAND"
    CIM_OR = "CimOR"
    CIM_NAND = "CimNAND"
    CIM_NOR = "CimNOR"
    CIM_XOR = "CimXOR"
    CIM_ADD = "CimADD"

    __hash__ = object.__hash__  # by identity, as members compare: no Python frame


TWO_ROW_OPS = frozenset(
    {CimOp.CIM_AND, CimOp.CIM_OR, CimOp.CIM_NAND, CimOp.CIM_NOR, CimOp.CIM_XOR}
)

# every in-memory operation names its cost row
_COST_CLASS = {op: OpClass(op.value) for op in CimOp if op not in (CimOp.READ, CimOp.WRITE)}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


@dataclass(frozen=True)
class ArrayGeometry:
    banks: int = 1
    rows_per_bank: int = 64
    cols_per_row: int = 16

    def __post_init__(self):
        if min(self.banks, self.rows_per_bank, self.cols_per_row) < 1:
            raise ValueError("all geometry counts must be at least 1")

    @property
    def word_mask(self) -> int:
        return (1 << self.cols_per_row) - 1


@dataclass(frozen=True, order=True)
class RowAddress:
    bank: int
    row: int


def _decoded(bits):
    """An int for a scalar current, a bool ndarray for an array of currents."""
    return bits if isinstance(bits, np.ndarray) else int(bits)


@dataclass(frozen=True)
class Threshold:
    ref: float

    def apply(self, current):
        return _decoded(current > self.ref)


@dataclass(frozen=True)
class InvertedThreshold:
    ref: float

    def apply(self, current):
        return _decoded(current <= self.ref)


@dataclass(frozen=True)
class Window:
    low: float
    high: float

    def apply(self, current):
        return _decoded((self.low < current) & (current <= self.high))


DecodeRule = Union[Threshold, InvertedThreshold, Window]


@dataclass(frozen=True)
class SenseConfig:
    """Reference currents and the per-operation decode rules they induce."""

    i_ref_read: float = 12.75
    i_ref_or: float = 18.6
    i_ref_and: float = 21.45

    def __post_init__(self):
        if not self.i_ref_read < self.i_ref_or < self.i_ref_and:
            raise ValueError("references must satisfy read < or < and")
        # built once: every sense looks its rule up here
        object.__setattr__(self, "_rules", {
            CimOp.READ: Threshold(self.i_ref_read),
            CimOp.CIM_NOT: InvertedThreshold(self.i_ref_read),
            CimOp.CIM_AND: Threshold(self.i_ref_and),
            CimOp.CIM_NAND: InvertedThreshold(self.i_ref_and),
            CimOp.CIM_OR: Threshold(self.i_ref_or),
            CimOp.CIM_NOR: InvertedThreshold(self.i_ref_or),
            CimOp.CIM_XOR: Window(self.i_ref_or, self.i_ref_and),
        })

    def validate_against(self, model: CurrentLevelModel) -> None:
        """Check each reference sits strictly inside its decision gap."""
        if not model.mu_ap < self.i_ref_read < model.mu_p:
            raise ValueError("read reference must lie between the single levels")
        if not model.mu_ap_ap < self.i_ref_or < model.mu_ap_p:
            raise ValueError("OR reference must lie in the lower pair gap")
        if not model.mu_ap_p < self.i_ref_and < model.mu_p_p:
            raise ValueError("AND reference must lie in the upper pair gap")

    def decode_rule(self, op: CimOp) -> DecodeRule:
        rule = self._rules.get(op)
        if rule is None:
            raise ValueError(f"{op.value} has no single decode rule")
        return rule

    def decode_rules(self) -> dict[CimOp, DecodeRule]:
        return dict(self._rules)


@dataclass(frozen=True)
class SenseDisturbance:
    """Fault-injection environment applied to matching senses.

    The disturbance acts on cells whose row is in ``rows`` (None means every
    row) during operations whose kind is in ``ops`` (None means every kind).
    With ``force_flip`` set, a matching AND sense decodes against the OR
    reference instead, turning the AND into an OR with probability one.
    """

    disturbance: Disturbance = None
    rows: frozenset[RowAddress] | None = None
    ops: frozenset[CimOp] | None = None
    force_flip: bool = False

    def matches_op(self, op: CimOp) -> bool:
        return self.ops is None or op in self.ops

    def row_targeted(self, addr: RowAddress) -> bool:
        return self.rows is None or addr in self.rows


def validate_mapping(a: RowAddress, b: RowAddress) -> None:
    """Two-row operands must share a bank and occupy different rows."""
    if a.bank != b.bank:
        raise MappingViolation(
            f"operands must be in the same bank (got banks {a.bank} and {b.bank})"
        )
    if a.row == b.row:
        raise MappingViolation(
            f"operands must be mapped to different rows (both in row {a.row})"
        )


@functools.lru_cache(maxsize=1024)
def _unpack(word: int, width: int) -> np.ndarray:
    """Bits of a word as a read-only 0/1 vector, column 0 first; any width."""
    raw = np.frombuffer(word.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=width, bitorder="little")
    bits.flags.writeable = False
    return bits


def _pack(bits) -> int:
    """Word whose column k is set where ``bits[k]`` is nonzero; any width."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


class CimArray:
    """Single-owner mutable array; operations are serialized by the caller.

    Read-only snapshots may be shared across threads for analysis.
    """

    def __init__(
        self,
        geometry: ArrayGeometry | None = None,
        model: CurrentLevelModel | None = None,
        sense: SenseConfig | None = None,
        rng: np.random.Generator | None = None,
        cost_table: CostTable | None = None,
        recorder: ExecutionTrace | None = None,
        enhanced: bool = True,
    ):
        self.geometry = geometry or ArrayGeometry()
        self.model = model or CurrentLevelModel()
        self.sense = sense or SenseConfig()
        self.sense.validate_against(self.model)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.cost_table = cost_table or CostTable()
        self.recorder = recorder
        self.enhanced = enhanced
        self.attack: SenseDisturbance | None = None
        g = self.geometry
        self._words = [[0] * g.rows_per_bank for _ in range(g.banks)]

    # -- storage ----------------------------------------------------------

    def _check_addr(self, addr: RowAddress) -> None:
        g = self.geometry
        if not (0 <= addr.bank < g.banks and 0 <= addr.row < g.rows_per_bank):
            raise OutOfBounds(
                f"address bank={addr.bank} row={addr.row} outside "
                f"{g.banks}x{g.rows_per_bank} array"
            )

    def _coerce_word(self, data) -> int:
        g = self.geometry
        if isinstance(data, int):
            if not 0 <= data <= g.word_mask:
                raise OutOfBounds(
                    f"word 0x{data:X} does not fit in {g.cols_per_row} columns"
                )
            return data
        bits = list(data)
        if len(bits) != g.cols_per_row:
            raise OutOfBounds(
                f"bit vector of width {len(bits)} != word width {g.cols_per_row}"
            )
        return _pack(np.asarray(bits, dtype=bool))

    def word(self, addr: RowAddress) -> int:
        """Stored word, bypassing the sense path (exact, noiseless)."""
        self._check_addr(addr)
        return self._words[addr.bank][addr.row]

    def snapshot(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bank) for bank in self._words)

    # -- sensing -------------------------------------------------------------

    def _forced(self, op: CimOp, *addrs: RowAddress) -> bool:
        atk = self.attack
        return (
            atk is not None
            and atk.force_flip
            and op is CimOp.CIM_AND
            and atk.matches_op(op)
            and any(atk.row_targeted(a) for a in addrs)
        )

    def _currents(self, op: CimOp, *addrs: RowAddress) -> np.ndarray:
        """One current per column for a one-row or two-row activation."""
        width = self.geometry.cols_per_row
        bits = [_unpack(self._words[a.bank][a.row], width) for a in addrs]
        dist = None
        atk = self.attack
        if atk is not None and atk.disturbance is not None and atk.matches_op(op):
            heated = [atk.row_targeted(a) for a in addrs]
            if all(heated):
                dist = atk.disturbance
            elif any(heated):
                if isinstance(atk.disturbance, MeanShift):
                    raise ValueError("a mean shift heats a pair sense only "
                                     "with both operand rows in the heated zone")
                dist = tuple(atk.disturbance if h else None for h in heated)
        return sample_columns(bits, self.model, dist, self.rng)

    # -- host access --------------------------------------------------------

    def write_word(self, addr: RowAddress, data, record: bool = True) -> None:
        """Store a word; writes are fault-free. Records one bus event."""
        self._check_addr(addr)
        word = self._coerce_word(data)
        self._words[addr.bank][addr.row] = word
        if record and self.recorder is not None:
            kind, ones, zeros, cost = word_write_cost(
                word, self.geometry.cols_per_row, self.cost_table, self.enhanced
            )
            self.recorder.record(kind, cost, Channel.BUS, ones, zeros)

    def read_word(self, addr: RowAddress) -> int:
        """Sense every column against the read reference; may misread."""
        self._check_addr(addr)
        rule = self.sense.decode_rule(CimOp.READ)
        word = _pack(rule.apply(self._currents(CimOp.READ, addr)))
        if self.recorder is not None:
            kind, ones, zeros, cost = word_read_cost(
                word, self.geometry.cols_per_row, self.cost_table, self.enhanced
            )
            self.recorder.record(kind, cost, Channel.BUS, ones, zeros)
        return word

    # -- in-memory operations ------------------------------------------------

    def _record_cim(self, op: CimOp, word: int) -> None:
        if self.recorder is None:
            return
        kind = _COST_CLASS[op]
        ones = word.bit_count()
        cost = cost_of(kind, self.cost_table, self.enhanced)
        self.recorder.record(
            kind, cost, Channel.IN_MEMORY, ones, self.geometry.cols_per_row - ones
        )

    def cim_not(self, a: RowAddress) -> int:
        """Inverted read decode of one row."""
        self._check_addr(a)
        rule = self.sense.decode_rule(CimOp.CIM_NOT)
        word = _pack(rule.apply(self._currents(CimOp.CIM_NOT, a)))
        self._record_cim(CimOp.CIM_NOT, word)
        return word

    def cim_two_row(self, op: CimOp, a: RowAddress, b: RowAddress) -> int:
        """Two-row logic sense: AND, OR, NAND, NOR or XOR over all columns."""
        if op not in TWO_ROW_OPS:
            raise ValueError(f"{op.value} is not a two-row sense operation")
        self._check_addr(a)
        self._check_addr(b)
        validate_mapping(a, b)
        rule = self.sense.decode_rule(CimOp.CIM_OR if self._forced(op, a, b) else op)
        word = _pack(rule.apply(self._currents(op, a, b)))
        self._record_cim(op, word)
        return word

    def cim_and(self, a: RowAddress, b: RowAddress) -> int:
        return self.cim_two_row(CimOp.CIM_AND, a, b)

    def cim_or(self, a: RowAddress, b: RowAddress) -> int:
        return self.cim_two_row(CimOp.CIM_OR, a, b)

    def cim_nand(self, a: RowAddress, b: RowAddress) -> int:
        return self.cim_two_row(CimOp.CIM_NAND, a, b)

    def cim_nor(self, a: RowAddress, b: RowAddress) -> int:
        return self.cim_two_row(CimOp.CIM_NOR, a, b)

    def cim_xor(self, a: RowAddress, b: RowAddress) -> int:
        return self.cim_two_row(CimOp.CIM_XOR, a, b)

    def cim_xnor(
        self, a: RowAddress, b: RowAddress, scratch: tuple[RowAddress, RowAddress]
    ) -> int:
        """Equality check: (a AND b) OR (a NOR b).

        The AND and NOR partial words run as in-array senses and land in the
        two scratch rows; the final OR of the partials executes in the array
        controller and is fault-free.
        """
        s1, s2 = scratch
        for s in (s1, s2):
            self._check_addr(s)
            if s in (a, b):
                raise MappingViolation("scratch rows must be distinct from operands")
        if s1 == s2:
            raise MappingViolation("scratch rows must be distinct from each other")
        and_word = self.cim_two_row(CimOp.CIM_AND, a, b)
        nor_word = self.cim_two_row(CimOp.CIM_NOR, a, b)
        self.write_word(s1, and_word, record=False)
        self.write_word(s2, nor_word, record=False)
        return and_word | nor_word

    def cim_add(self, a: RowAddress, b: RowAddress, dest: RowAddress) -> int:
        """Bit-serial ripple add of two rows into dest; returns carry-out.

        Per column one pair sample feeds all three decodes: the XOR window
        gives the half-sum, AND and OR feed the majority carry. The carry is
        held in the controller; the result write-back is fault-free and is
        covered by the single add cost row.
        """
        for addr in (a, b, dest):
            self._check_addr(addr)
        validate_mapping(a, b)
        currents = self._currents(CimOp.CIM_ADD, a, b)
        xor_bits, and_bits, or_bits = (
            self.sense.decode_rule(op).apply(currents).tolist()
            for op in (CimOp.CIM_XOR, CimOp.CIM_AND, CimOp.CIM_OR)
        )
        carry = 0
        sums = []
        for xor_bit, and_bit, or_bit in zip(xor_bits, and_bits, or_bits):
            sums.append(xor_bit ^ carry)
            carry = int(and_bit | (carry & or_bit))
        total = _pack(sums)
        self._record_cim(CimOp.CIM_ADD, total)
        self.write_word(dest, total, record=False)
        return carry

    # -- hex dump ------------------------------------------------------------

    def export_hex(self, target) -> None:
        """Dump contents, one hex word per line, bank-major row order."""
        g = self.geometry
        nibbles = (g.cols_per_row + 3) // 4
        with open_target(target, "w") as handle:
            handle.write(
                f"# banks={g.banks} rows_per_bank={g.rows_per_bank} "
                f"cols_per_row={g.cols_per_row}\n"
            )
            for bank in self._words:
                for word in bank:
                    handle.write(f"{word:0{nibbles}X}\n")

    def import_hex(self, source) -> None:
        """Load contents from a hex dump; geometry must match.

        Word lines hold plain hex digits only, as ``export_hex`` writes them; a
        bad or too-wide word raises OutOfBounds naming its line.
        """
        g = self.geometry
        words = []
        with open_target(source) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if not _HEX_DIGITS.issuperset(line):
                    raise OutOfBounds(f"hex dump line {lineno}: {line!r} is not a hex word")
                word = int(line, 16)
                if word > g.word_mask:
                    raise OutOfBounds(f"hex dump line {lineno}: word 0x{word:X} "
                                      f"wider than {g.cols_per_row} bits")
                words.append(word)
        expected = g.banks * g.rows_per_bank
        if len(words) != expected:
            raise OutOfBounds(
                f"hex dump has {len(words)} rows, geometry needs {expected}"
            )
        for bank in range(g.banks):
            for row in range(g.rows_per_bank):
                self._words[bank][row] = words[bank * g.rows_per_bank + row]
