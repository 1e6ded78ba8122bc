"""Word-addressed MTJ array with sense-amplifier logic operations.

Words are unsigned integers (a Python int or anything with ``__index__``,
such as a numpy integer) with bit k stored in column k (bit 0 is the least
significant column). An operation reads 1 where its sensed current lies in
its decision window ``(low, high]`` (:meth:`SenseConfig.window`): a
single-cell sense against the read reference, a two-row sense of the summed
pair current against the AND or OR reference, or between them for XOR. A
sense is one op: all its decodes derive from a single current sample per
column, so decision failures are correlated across the decodes of a shared
sense and are never resampled: an ADD reads the AND and OR windows of one
sense. An XNOR is two senses, the ``cim_two_row`` AND and then the NOR.

Each sense samples all columns of its row (or row pair) in one vectorised
draw from the array's generator, in a fixed order: for each activated row
whose disturbance is Collapse (first operand first), one uniform per column;
then one normal per column when the noise sigma is positive. The number of
draws depends on the operation and the disturbance, never on the stored
words, so a sense decodes from integer masks: its draws are mapped
(:func:`~spincim.device.apply_laws`) at every operand-bit pattern, each
pattern's decode is packed into an int, and the word read takes column k
from the mask of column k's pattern in the stored words. :meth:`CimArray.plan`
names the senses to come as ``(op, addrs)`` pairs, which are then drawn
:data:`SENSE_BLOCK` at a time in one :func:`~spincim.device.column_draws`
call, with the draws they would make one after another; with nothing
planned a sense is a block of one. There is no default generator: a sense
that needs draws raises ValueError on an array built without one.

:func:`attacked_law` resolves a sense's law under an attack, and
:meth:`CimArray.law` memoises it per attack, op and heated-row pattern.
The attack heats a sense it matches with its disturbance bare when every
activated row is in its zone (a MeanShift shifts the pair levels and leaves
single cells alone), else per row, which a MeanShift cannot be: a pair
sense with one of its rows heated by a MeanShift raises ValueError. A force
flip decodes a targeted AND in the OR window. For
:func:`~spincim.attack.run_auth`, row bits come from a bounded cache of
read-only vectors (:func:`unpack`), so a word is unpacked once.
"""
from __future__ import annotations

import functools
import math
import operator
import re
from collections import deque
from dataclasses import dataclass
from enum import Enum

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
    apply_laws,
    column_draws,
    column_law,
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

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
# the geometry line that export_hex writes first, and its pattern
_HEX_HEADER = "# banks={} rows_per_bank={} cols_per_row={}"
_HEX_HEADER_RE = re.compile(_HEX_HEADER.replace("{}", "([0-9]+)"))


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


@dataclass(frozen=True)
class RowAddress:
    bank: int
    row: int


@dataclass(frozen=True)
class SenseConfig:
    """Reference currents and the decision window each operation reads.

    An operation reads 1 where its sensed current lies in its window
    ``(low, high]``; a threshold op has one infinite bound. READ, AND and OR
    read 1 above their reference, NOT, NAND and NOR at or below it, and XOR
    between the OR and AND references. WRITE and ADD have no window: the add
    decodes the AND and OR windows of one sense.
    """

    i_ref_read: float = 12.75
    i_ref_or: float = 18.6
    i_ref_and: float = 21.45

    def __post_init__(self):
        if not self.i_ref_read < self.i_ref_or < self.i_ref_and:
            raise ValueError("references must satisfy read < or < and")
        # built once: every sense looks its window up here
        inf = math.inf
        object.__setattr__(self, "_windows", {
            CimOp.READ: (self.i_ref_read, inf),
            CimOp.CIM_NOT: (-inf, self.i_ref_read),
            CimOp.CIM_AND: (self.i_ref_and, inf),
            CimOp.CIM_NAND: (-inf, self.i_ref_and),
            CimOp.CIM_OR: (self.i_ref_or, inf),
            CimOp.CIM_NOR: (-inf, self.i_ref_or),
            CimOp.CIM_XOR: (self.i_ref_or, self.i_ref_and),
        })

    def validate_against(self, model: CurrentLevelModel) -> None:
        """Check each reference sits strictly inside its decision gap."""
        (ap, p), (ap_ap, ap_p, p_p) = model.single_levels, model.pair_levels
        if not ap < self.i_ref_read < p:
            raise ValueError("read reference must lie between the single levels")
        if not ap_ap < self.i_ref_or < ap_p:
            raise ValueError("OR reference must lie in the lower pair gap")
        if not ap_p < self.i_ref_and < p_p:
            raise ValueError("AND reference must lie in the upper pair gap")

    def window(self, op: CimOp) -> tuple[float, float]:
        """The ``(low, high]`` current window in which ``op`` reads 1."""
        window = self._windows.get(op)
        if window is None:
            raise ValueError(f"{op.value} has no single decision window")
        return window

    def decode(self, op: CimOp, currents):
        """``low < current <= high`` per current; one comparison per finite bound."""
        low, high = self.window(op)
        if high == math.inf:
            return currents > low
        if low == -math.inf:
            return currents <= high
        return (low < currents) & (currents <= high)


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


def attacked_law(attack: SenseDisturbance | None, model: CurrentLevelModel, op: CimOp,
                 targeted: tuple[bool, ...]) -> tuple[tuple, CimOp]:
    """The law of a sense of ``op`` over rows that ``attack``'s zone holds
    as in ``targeted``, and the op it decodes as: OR for an AND that the
    attack force-flips."""
    dist = None
    if attack is not None and attack.matches_op(op) and any(targeted):
        if attack.force_flip and op is CimOp.CIM_AND:
            op = CimOp.CIM_OR
        d = attack.disturbance
        if all(targeted):
            dist = d
        elif d is not None:
            if isinstance(d, MeanShift):
                raise ValueError("a mean shift heats a pair sense only "
                                 "with both operand rows in the heated zone")
            dist = tuple(d if h else None for h in targeted)
    levels, collapses = column_law(len(targeted), model, dist)
    return (np.array(levels, float), collapses), op


@functools.lru_cache(maxsize=1024)
def unpack(word: int, width: int) -> np.ndarray:
    """Bits of a word as a read-only 0/1 index vector, column 0 first; any width."""
    raw = np.frombuffer(word.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    bits = np.unpackbits(raw, count=width, bitorder="little").astype(np.intp)
    bits.flags.writeable = False
    return bits


def pack(bits) -> int:
    """Word whose column k is set where ``bits[k]`` is nonzero; any width."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


# senses drawn ahead in one pass: at 64 columns a block peaks near 0.25 MB
SENSE_BLOCK = 128
# each row's bit at every operand-bit pattern of one row and of a pair (row 0
# the high bit of the pattern index), shaped to broadcast over (senses, columns)
_PATTERNS = {len(rows): tuple(np.reshape(bits, (-1, 1, 1)) for bits in rows)
             for rows in (([0, 1],), ([0, 0, 1, 1], [0, 1, 0, 1]))}
# the windows a sense of an op reads: an add reads its AND and OR windows
_WINDOWS = {CimOp.CIM_ADD: (CimOp.CIM_AND, CimOp.CIM_OR)}


def _pack_rows(bits: np.ndarray) -> list:
    """Each row of ``bits`` along its last axis as a word: nested lists of ints."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    chunks = np.zeros((*packed.shape[:-1], -(-packed.shape[-1] // 8) * 8), np.uint8)
    chunks[..., :packed.shape[-1]] = packed
    chunks = chunks.view("<u8").astype(object)  # 64 columns each, low columns first
    words = chunks[..., -1]
    for k in range(chunks.shape[-1] - 2, -1, -1):
        words = words << 64 | chunks[..., k]
    return words.tolist()


class CimArray:
    """Single-owner mutable array; operations are serialized by the caller."""

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
        self.rng = rng
        self.cost_table = cost_table or CostTable()
        self.recorder = recorder
        self.enhanced = enhanced
        self.attack: SenseDisturbance | None = None
        self._laws, self._laws_attack, self._laws_model = {}, None, self.model
        self._plan, self._ahead = [], deque()
        self._events, self._events_table = {}, self.cost_table
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

    def snapshot(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(bank) for bank in self._words)

    # -- sensing -------------------------------------------------------------

    def law(self, op: CimOp, addrs) -> tuple[tuple, CimOp]:
        """``(law, decode_op)``: the law of one sense of ``op`` over the
        activation ``addrs`` under the current attack, and the op it decodes
        as. A new attack or model empties the memo of laws."""
        atk = self.attack
        if atk is not self._laws_attack or self.model is not self._laws_model:
            self._laws, self._laws_attack, self._laws_model = {}, atk, self.model
        targeted = tuple([atk is not None and atk.row_targeted(a) for a in addrs])
        key = (op, targeted)
        if key not in self._laws:
            self._laws[key] = attacked_law(atk, self.model, op, targeted)
        return self._laws[key]

    def plan(self, senses) -> None:
        """Expect ``senses``, ``(op, addrs)`` pairs in the order the public
        operations will sense them, and draw them :data:`SENSE_BLOCK` at a
        time, as they are reached. Each public op takes the next planned sense,
        which must be its own, else RuntimeError; with none left, a sense is a
        block of one. ``plan(())`` drops what is left; an op not a CimOp, ValueError."""
        if bad := next(filter(lambda e: not isinstance(e[0], CimOp), senses := list(senses)), None):
            raise ValueError(f"plan entry {bad!r} does not name a CimOp as its op")
        self._plan = senses
        self._ahead.clear()

    def _read(self, op: CimOp, addrs) -> list[int]:
        """The words one sense of ``op`` over ``addrs`` reads from the stored
        words, one per decode window, drawing the next block when none is ahead."""
        if not self._ahead:
            self._ahead.extend(self._decode_block(self._plan[:SENSE_BLOCK] or [(op, addrs)]))
            del self._plan[:len(self._ahead)]
        key, masks = self._ahead.popleft()
        if key != (op, addrs):
            self.plan(())
            raise RuntimeError(f"{op.value} sense taken where a planned "
                               f"{key[0].value} sense was drawn")
        # column k of a word read is column k of the mask of its operand-bit
        # pattern in the stored words, chosen by one multiplexer per row
        if len(addrs) == 1:
            word = self._words[addrs[0].bank][addrs[0].row]
            return [m0 ^ ((m0 ^ m1) & word) for m0, m1 in masks]
        a, b = (self._words[addr.bank][addr.row] for addr in addrs)
        words = []
        for m00, m01, m10, m11 in masks:
            low, high = m00 ^ ((m00 ^ m01) & b), m10 ^ ((m10 ^ m11) & b)
            words.append(low ^ ((low ^ high) & a))
        return words

    def _decode_block(self, senses) -> list:
        """``(sense, masks)`` of each sense in order, drawn in one pass: per
        word the sense reads, the word it decodes at each operand-bit pattern.
        A sense after the first whose law raises ends the block, so that it
        raises when it is taken."""
        laws, groups = [], {}
        for n, (op, addrs) in enumerate(senses):
            try:
                resolved = self.law(op, addrs)
            except ValueError:
                if not n:
                    raise
                break
            # the senses of one memoised law map and decode together
            groups.setdefault(id(resolved), (resolved, len(addrs), []))[2].append(n)
            laws.append(resolved[0])
        width = self.geometry.cols_per_row
        uniforms, normals = column_draws(laws, width, self.model.sigma, self.rng)
        if normals is None:
            normals = np.zeros((len(laws), width))  # adding 0.0 moves no level
        masks = [[] for _ in laws]
        for (law, op), rows, members in groups.values():
            u = [np.stack(draws) for draws in zip(*[uniforms[n] for n in members])]
            currents = apply_laws(_PATTERNS[rows], law, u, normals[members])
            for window in _WINDOWS.get(op, (op,)):
                decoded = _pack_rows(self.sense.decode(window, currents))
                for n, word_masks in zip(members, zip(*decoded)):
                    masks[n].append(word_masks)
        return list(zip(senses, masks))

    # -- host access --------------------------------------------------------

    def write_word(self, addr: RowAddress, data, record: bool = True) -> None:
        """Store a word; writes are fault-free. Records one bus event."""
        self._check_addr(addr)
        word = operator.index(data)
        if not 0 <= word <= self.geometry.word_mask:
            raise OutOfBounds(
                f"word 0x{word:X} does not fit in {self.geometry.cols_per_row} columns"
            )
        self._words[addr.bank][addr.row] = word
        if record and self.recorder is not None:
            self.record_cim(CimOp.WRITE, word.bit_count())

    def read_word(self, addr: RowAddress) -> int:
        """Sense every column against the read reference; may misread."""
        self._check_addr(addr)
        (word,) = self._read(CimOp.READ, (addr,))
        self.record_cim(CimOp.READ, word.bit_count())
        return word

    # -- in-memory operations ------------------------------------------------

    def record_cim(self, op: CimOp, ones: int = 0) -> None:
        """Record one event of ``op``, if the array has a recorder: an in-memory op, or a host
        READ or WRITE of a word with ``ones`` set bits, costed as the word of ``ones`` low
        bits. Costs are memoised per ``enhanced`` flag; a new cost table empties the memo, and
        a table's rows are read-only, so no memoised row goes stale."""
        if self.recorder is None:
            return
        table, key = self.cost_table, (op, ones, self.enhanced)
        if table is not self._events_table:
            self._events, self._events_table = {}, table
        event = self._events.get(key)
        if event is None:
            if op is CimOp.READ or op is CimOp.WRITE:
                word_cost = word_read_cost if op is CimOp.READ else word_write_cost
                event = (*word_cost((1 << ones) - 1, self.geometry.cols_per_row, table,
                                    self.enhanced), Channel.BUS)
            else:
                kind = OpClass(op.value)  # every in-memory op names its cost row
                event = kind, cost_of(kind, table, self.enhanced), Channel.IN_MEMORY
            self._events[key] = event
        self.recorder.record(*event)

    def cim_not(self, a: RowAddress) -> int:
        """Inverted read decode of one row."""
        self._check_addr(a)
        (word,) = self._read(CimOp.CIM_NOT, (a,))
        self.record_cim(CimOp.CIM_NOT)
        return word

    def cim_two_row(self, op: CimOp, a: RowAddress, b: RowAddress) -> int:
        """Two-row logic sense: AND, OR, NAND, NOR or XOR over all columns."""
        if op not in TWO_ROW_OPS:
            raise ValueError(f"{op.value} is not a two-row sense operation")
        self._check_addr(a)
        self._check_addr(b)
        validate_mapping(a, b)
        (word,) = self._read(op, (a, b))
        self.record_cim(op)
        return word

    def cim_xnor(
        self, a: RowAddress, b: RowAddress, scratch: tuple[RowAddress, RowAddress]
    ) -> int:
        """Equality check: (a AND b) OR (a NOR b), from two in-array senses,
        ``cim_two_row`` AND then NOR, whose partial words land in the two
        scratch rows; the final OR executes in the array controller and is
        fault-free. Both laws resolve first: a refused sense raises before
        either draws or records."""
        s1, s2 = scratch
        for addr in (s1, s2, a, b):
            self._check_addr(addr)
        if s1 in (a, b) or s2 in (a, b):
            raise MappingViolation("scratch rows must be distinct from operands")
        if s1 == s2:
            raise MappingViolation("scratch rows must be distinct from each other")
        validate_mapping(a, b)
        laws = [self.law(op, (a, b))[0] for op in (CimOp.CIM_AND, CimOp.CIM_NOR)]
        if self.rng is None:
            column_draws(laws, 0, self.model.sigma, None)  # raises if either sense draws
        and_word = self.cim_two_row(CimOp.CIM_AND, a, b)
        nor_word = self.cim_two_row(CimOp.CIM_NOR, a, b)
        self.write_word(s1, and_word, record=False)
        self.write_word(s2, nor_word, record=False)
        return and_word | nor_word

    def cim_add(self, a: RowAddress, b: RowAddress, dest: RowAddress) -> int:
        """Ripple add of two rows into dest; returns carry-out.

        Per column one pair sample feeds the AND and OR decodes. The AND
        window lies inside the OR window, so the XOR window reads OR ^ AND
        and the ripple carry, majority(AND, OR, carry) = AND | (carry & OR),
        is the carry of the integer sum OR + AND: its low ``width`` bits are
        the sum word and bit ``width`` the carry-out. The carry is held in the
        controller; the result write-back is fault-free and is covered by the
        single add cost row.
        """
        for addr in (a, b, dest):
            self._check_addr(addr)
        validate_mapping(a, b)
        and_word, or_word = self._read(CimOp.CIM_ADD, (a, b))
        total = or_word + and_word
        self.record_cim(CimOp.CIM_ADD)
        self.write_word(dest, total & self.geometry.word_mask, record=False)
        return total >> self.geometry.cols_per_row

    # -- hex dump ------------------------------------------------------------

    def export_hex(self, target) -> None:
        """Dump contents, one hex word per line, bank-major row order."""
        g = self.geometry
        nibbles = (g.cols_per_row + 3) // 4
        with open_target(target, "w") as handle:
            handle.write(_HEX_HEADER.format(g.banks, g.rows_per_bank, g.cols_per_row) + "\n")
            for bank in self._words:
                for word in bank:
                    handle.write(f"{word:0{nibbles}X}\n")

    def import_hex(self, source) -> None:
        """Load contents from a hex dump; geometry must match.

        Word lines hold plain hex digits only, as ``export_hex`` writes them; a
        bad or too-wide word raises OutOfBounds naming its line. A comment
        line is skipped, unless it is ``export_hex``'s geometry header and
        names another geometry: that raises OutOfBounds naming both.
        """
        g = self.geometry
        shape = [g.banks, g.rows_per_bank, g.cols_per_row]
        words = []
        with open_target(source) as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                header = _HEX_HEADER_RE.fullmatch(line)
                if header and [int(n) for n in header.groups()] != shape:
                    raise OutOfBounds(
                        f"hex dump line {lineno}: dump geometry {line[2:]} does not "
                        f"match the array's {_HEX_HEADER.format(*shape)[2:]}")
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
