"""Minimal load/store machine with in-memory compute instructions.

The machine has eight general registers (R0..R7), each one array word wide.
CPU opcodes (:class:`Opcode`) operate on registers and mask each result to
the word width. In-memory instructions take the array's own
:class:`~spincim.array.CimOp` as opcode, carry only row addresses (operands
first, destination last) and execute inside the memory array. Assembly
grammar, one instruction per line, ';' or '#' comments:

    LOAD   Rd, @row          load word at row into register
    STORE  Rs, @row          store register to row
    ADD    Rd, Ra, Rb        also AND, OR, XOR
    NOT    Rd, Ra
    CimADD @a, @b, @dest     also CimAND, CimOR, CimXOR, CimNAND, CimNOR
    CimNOT @a, @dest
    HALT

Row operands may name a bank explicitly as @bank:row (bank 0 otherwise).
A program is a tuple of instructions. Execution ends at HALT or at its end;
HALT counts toward neither the instruction count nor the step budget. A program is
straight-line, so :func:`run` plans its senses before it starts and the
array draws them a block ahead.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, astuple, dataclass, field
from enum import Enum
from operator import add, and_, or_, xor

from .array import TWO_ROW_OPS, CimArray, CimOp, RowAddress
from .cost import ExecutionTrace
from .errors import ParseError, StepBudgetExceeded

NUM_REGISTERS = 8


class Opcode(Enum):
    LOAD = "LOAD"
    STORE = "STORE"
    ADD = "ADD"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    NOT = "NOT"
    HALT = "HALT"

    __hash__ = object.__hash__  # by identity, as members compare: no Python frame


# the two-register CPU operations; run masks each result to the word width
_ALU = {Opcode.ADD: add, Opcode.AND: and_, Opcode.OR: or_, Opcode.XOR: xor}
# the in-memory instructions: every array operation but the host read and write
CIM_OPS = TWO_ROW_OPS | {CimOp.CIM_ADD, CimOp.CIM_NOT}

_MNEMONICS = {op.value.upper(): op for op in (*Opcode, *CIM_OPS)}


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode | CimOp
    regs: tuple[int, ...] = ()
    addrs: tuple[RowAddress, ...] = ()


Program = tuple[Instruction, ...]  # run in order


@dataclass
class ExecStats:
    instruction_count: int
    memory_access_count: int
    total_delay_ns: float
    total_energy_fj: float

    as_dict = asdict


_COMMENT_RE = re.compile(r"[;#]")
_REG_RE = re.compile(r"^R([0-9]+)$", re.IGNORECASE)
_ADDR_RE = re.compile(r"^@(?:([0-9]+):)?([0-9]+)$")


def _parse_reg(token: str) -> int | None:
    m = _REG_RE.match(token)
    return int(m.group(1)) if m and int(m.group(1)) < NUM_REGISTERS else None


def _parse_addr(token: str) -> RowAddress | None:
    m = _ADDR_RE.match(token)
    return m and RowAddress(bank=int(m.group(1) or 0), row=int(m.group(2)))


# per operand kind: its parser and what a token that fails it should have been
_OPERANDS = {"r": (_parse_reg, f"register R0..R{NUM_REGISTERS - 1}"),
             "a": (_parse_addr, "row address @row or @bank:row")}


def _column(raw: str, mnemonic: str, tokens: list[str], index: int) -> int:
    """1-based column of operand ``index`` in ``raw``: past the operands before it."""
    end = raw.find(mnemonic) + len(mnemonic)
    for token in tokens[:index + 1]:
        col = raw.find(token, end) + 1
        end = col - 1 + len(token)
    return col


_SHAPES: dict[Opcode | CimOp, str] = {
    Opcode.LOAD: "ra",
    Opcode.STORE: "ra",
    **dict.fromkeys(_ALU, "rrr"),
    Opcode.NOT: "rr",
    **dict.fromkeys(CIM_OPS - {CimOp.CIM_NOT}, "aaa"),
    CimOp.CIM_NOT: "aa",
    Opcode.HALT: "",
}


def assemble(text: str) -> Program:
    """Assemble source text; raises ParseError with line and column.

    Operands are memoised per call, one memo per operand kind, and parsed at
    first use only; an operand's column is found only for its ParseError.
    """
    instructions = []
    memos: dict[str, dict] = {kind: {} for kind in _OPERANDS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, maxsplit=1)[0] if ";" in raw or "#" in raw else raw
        parts = line.split(None, 1)
        if not parts:
            continue
        mnemonic = parts[0]
        opcode = _MNEMONICS.get(mnemonic.upper())
        if opcode is None:
            raise ParseError(f"unknown mnemonic {mnemonic!r}", lineno, raw.find(mnemonic) + 1)
        tokens = [t.strip() for t in parts[1].split(",")] if len(parts) > 1 else []
        shape = _SHAPES[opcode]
        if len(tokens) != len(shape):
            raise ParseError(
                f"{opcode.value} takes {len(shape)} operand(s), got {len(tokens)}",
                lineno,
                raw.find(mnemonic) + 1,
            )
        regs, addrs = [], []
        for index, (kind, token) in enumerate(zip(shape, tokens)):
            memo = memos[kind]
            value = memo.get(token)
            if value is None:
                parse, expected = _OPERANDS[kind]
                if (value := parse(token)) is None:
                    raise ParseError(f"expected {expected}, got {token!r}", lineno,
                                     _column(raw, mnemonic, tokens, index))
                memo[token] = value
            (regs if kind == "r" else addrs).append(value)
        instructions.append(Instruction(opcode, tuple(regs), tuple(addrs)))
    return tuple(instructions)


def _addr_text(addr: RowAddress) -> str:
    return f"@{addr.row}" if addr.bank == 0 else f"@{addr.bank}:{addr.row}"


def disassemble(program: Program) -> str:
    """Canonical source form; assembling it reproduces the program."""
    lines = []
    for instr in program:
        operands = [f"R{r}" for r in instr.regs] + [_addr_text(a) for a in instr.addrs]
        # LOAD/STORE interleave register then address, matching the grammar
        lines.append(
            instr.opcode.value + (" " + ", ".join(operands) if operands else "")
        )
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class Machine:
    """Single-threaded stepper over a word array; not shared during a run."""

    array: CimArray
    step_budget: int = 100_000
    registers: list[int] = field(default_factory=lambda: [0] * NUM_REGISTERS)


def _senses(program: Program, step_budget: int) -> list:
    """``(op, addrs)`` of each sense a run of ``program`` makes, in order: a
    READ per LOAD and one per in-memory instruction before its first HALT, within
    the step budget. An in-memory instruction senses all its rows but the last."""
    senses = []
    for instr in program[:step_budget]:
        op = instr.opcode
        if op is Opcode.HALT:
            break
        if op is Opcode.LOAD:
            senses.append((CimOp.READ, instr.addrs))
        elif op in CIM_OPS:
            senses.append((op, instr.addrs[:-1]))
    return senses


def run(program: Program, machine: Machine) -> tuple[ExecStats, ExecutionTrace]:
    """Execute a program, tracing memory events and aggregating costs.

    Its senses are planned up front (:meth:`CimArray.plan`) and drawn a
    block ahead, with the draws of one instruction at a time. An instruction
    that raises leaves memory and trace as the instructions before it left
    them and no plan; only the generator may have advanced past its draws.
    """
    trace = ExecutionTrace()
    array, regs, budget = machine.array, machine.registers, machine.step_budget
    previous, array.recorder = array.recorder, trace
    mask = array.geometry.word_mask
    read_word, write_word = array.read_word, array.write_word
    cim_not, cim_add, cim_two_row = array.cim_not, array.cim_add, array.cim_two_row
    LOAD, STORE, NOT, HALT = Opcode.LOAD, Opcode.STORE, Opcode.NOT, Opcode.HALT
    CIM_NOT, CIM_ADD, alu = CimOp.CIM_NOT, CimOp.CIM_ADD, _ALU.get
    executed = 0
    try:
        array.plan(_senses(program, budget))
        for instr in program:
            op = instr.opcode
            if op is HALT:
                break
            if executed >= budget:
                raise StepBudgetExceeded(f"program exceeded {budget} steps")
            executed += 1
            if op is LOAD:
                regs[instr.regs[0]] = read_word(instr.addrs[0])
            elif op is STORE:
                write_word(instr.addrs[0], regs[instr.regs[0]] & mask)
            elif (compute := alu(op)) is not None:
                rd, ra, rb = instr.regs
                regs[rd] = compute(regs[ra], regs[rb]) & mask
            elif op is NOT:
                rd, ra = instr.regs
                regs[rd] = ~regs[ra] & mask
            elif op is CIM_NOT:
                a, dest = instr.addrs
                write_word(dest, cim_not(a), record=False)
            elif op is CIM_ADD:
                cim_add(*instr.addrs)
            else:
                a, b, dest = instr.addrs
                write_word(dest, cim_two_row(op, a, b), record=False)
    finally:
        array.recorder = previous
        array.plan(())
    stats = ExecStats(
        instruction_count=executed,
        memory_access_count=len(trace),
        total_delay_ns=trace.end_ns,
        total_energy_fj=trace.total_energy(),
    )
    return stats, trace


# the lowered Cim instructions compute in the two highest registers
_SCRATCH_A = NUM_REGISTERS - 2
_SCRATCH_B = NUM_REGISTERS - 1

_CIM_TO_ALU = {CimOp.CIM_ADD: Opcode.ADD, CimOp.CIM_AND: Opcode.AND, CimOp.CIM_OR: Opcode.OR,
               CimOp.CIM_XOR: Opcode.XOR, CimOp.CIM_NAND: Opcode.AND, CimOp.CIM_NOR: Opcode.OR}
_NOT_STEP = Instruction(Opcode.NOT, (_SCRATCH_A, _SCRATCH_A))
# the steps between the loads and the store of each lowered Cim op, shared by every lowering
_COMPUTE = {
    CimOp.CIM_NOT: (_NOT_STEP,),
    **{op: (Instruction(alu, (_SCRATCH_A, _SCRATCH_A, _SCRATCH_B)),)
       + (_NOT_STEP,) * (op in (CimOp.CIM_NAND, CimOp.CIM_NOR)) for op, alu in _CIM_TO_ALU.items()},
}


def lower_to_conventional(program: Program) -> Program:
    """Replace each Cim instruction with an equivalent load/compute/store run.

    The runs compute in R6 and R7, so a program with a Cim instruction may not
    name either register: ``ValueError`` names the first instruction that does.
    The compute steps are shared, and one call builds one LOAD or STORE per
    distinct register and row.
    """
    if any(instr.opcode in CIM_OPS for instr in program):
        for index, instr in enumerate(program):
            for reg in instr.regs:
                if reg in (_SCRATCH_A, _SCRATCH_B):
                    raise ValueError(
                        f"cannot lower instruction {index} ({instr.opcode.value}): R{reg} "
                        "is a scratch register of the lowered Cim instructions"
                    )
    moves: dict[tuple, Instruction] = {}  # keyed by the row's fields: a RowAddress hashes in Python

    def move(opcode: Opcode, reg: int, addr: RowAddress) -> Instruction:
        step = moves.get(key := (opcode, reg, addr.bank, addr.row))
        if step is None:
            step = moves[key] = Instruction(opcode, (reg,), (addr,))
        return step

    out: list[Instruction] = []
    for instr in program:
        compute = _COMPUTE.get(instr.opcode)
        if compute is None:
            out.append(instr)
            continue
        *sources, dest = instr.addrs
        for reg, addr in zip((_SCRATCH_A, _SCRATCH_B), sources):
            out.append(move(Opcode.LOAD, reg, addr))
        out += compute
        out.append(move(Opcode.STORE, _SCRATCH_A, dest))
    return tuple(out)


def static_fingerprint(machine: Machine) -> str:
    """Digest of everything statically visible to a netlist-level observer.

    Covers geometry, word width, register count, the sense capability set,
    reference currents and cost-table values. Deliberately excludes array
    contents, register state and any program: machines that differ only in
    what they run hash identically.
    """
    array = machine.array
    capabilities = sorted(
        op.value for op in (CimOp if array.enhanced else (CimOp.READ, CimOp.WRITE))
    )
    description = {
        "geometry": asdict(array.geometry),
        "registers": NUM_REGISTERS,
        "capabilities": capabilities,
        "sense_refs": list(astuple(array.sense)),
        # the accounting mode is how the simulator charges a write, not hardware
        "costs": {
            side: rows for side, rows in array.cost_table.as_dict().items() if side != "mode"
        },
    }
    blob = json.dumps(description, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
