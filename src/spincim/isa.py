"""Minimal load/store machine with in-memory compute instructions.

The machine has eight general registers (R0..R7) whose width equals the
array word width. CPU opcodes (:class:`Opcode`) operate on registers.
In-memory instructions take the array's own :class:`~spincim.array.CimOp` as
opcode, carry only row addresses (operands first, destination last) and
execute inside the memory array. Assembly grammar, one instruction per line,
';' or '#' comments:

    LOAD   Rd, @row          load word at row into register
    STORE  Rs, @row          store register to row
    ADD    Rd, Ra, Rb        also AND, OR, XOR
    NOT    Rd, Ra
    CimADD @a, @b, @dest     also CimAND, CimOR, CimXOR, CimNAND, CimNOR
    CimNOT @a, @dest
    HALT

Row operands may name a bank explicitly as @bank:row (bank 0 otherwise).
Execution ends at HALT or at the end of the program; HALT does not count
toward the instruction count.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum

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


CPU_ALU_OPS = frozenset({Opcode.ADD, Opcode.AND, Opcode.OR, Opcode.XOR})
# the in-memory instructions: every array operation but the host read and write
CIM_OPS = TWO_ROW_OPS | {CimOp.CIM_ADD, CimOp.CIM_NOT}

_MNEMONICS = {op.value.upper(): op for op in (*Opcode, *CIM_OPS)}


@dataclass(frozen=True)
class Instruction:
    opcode: Opcode | CimOp
    regs: tuple[int, ...] = ()
    addrs: tuple[RowAddress, ...] = ()


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...] = ()

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class ExecStats:
    instruction_count: int
    memory_access_count: int
    total_delay_ns: float
    total_energy_fj: float

    def as_dict(self) -> dict:
        return {
            "instruction_count": self.instruction_count,
            "memory_access_count": self.memory_access_count,
            "total_delay_ns": self.total_delay_ns,
            "total_energy_fj": self.total_energy_fj,
        }


_COMMENT_RE = re.compile(r"[;#]")
_REG_RE = re.compile(r"^R([0-9]+)$", re.IGNORECASE)
_ADDR_RE = re.compile(r"^@(?:([0-9]+):)?([0-9]+)$")


def _parse_reg(token: str, line: int, col: int) -> int:
    m = _REG_RE.match(token)
    if not m or not 0 <= int(m.group(1)) < NUM_REGISTERS:
        raise ParseError(f"expected register R0..R{NUM_REGISTERS - 1}, got {token!r}", line, col)
    return int(m.group(1))


def _parse_addr(token: str, line: int, col: int) -> RowAddress:
    m = _ADDR_RE.match(token)
    if not m:
        raise ParseError(f"expected row address @row or @bank:row, got {token!r}", line, col)
    bank = int(m.group(1)) if m.group(1) is not None else 0
    return RowAddress(bank=bank, row=int(m.group(2)))


_SHAPES: dict[Opcode | CimOp, str] = {
    Opcode.LOAD: "ra",
    Opcode.STORE: "ra",
    **dict.fromkeys(CPU_ALU_OPS, "rrr"),
    Opcode.NOT: "rr",
    **dict.fromkeys(CIM_OPS - {CimOp.CIM_NOT}, "aaa"),
    CimOp.CIM_NOT: "aa",
    Opcode.HALT: "",
}


def assemble(text: str) -> Program:
    """Assemble source text; raises ParseError with line and column.

    Operands are memoised per call by (kind, token), parsed at first use only.
    """
    instructions = []
    operands: dict[tuple[str, str], int | RowAddress] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT_RE.split(raw, maxsplit=1)[0].strip()
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
        for kind, token in zip(shape, tokens):
            value = operands.get((kind, token))
            if value is None:
                parse = _parse_reg if kind == "r" else _parse_addr
                value = operands[kind, token] = parse(token, lineno, raw.find(token) + 1)
            (regs if kind == "r" else addrs).append(value)
        instructions.append(Instruction(opcode, tuple(regs), tuple(addrs)))
    return Program(tuple(instructions))


def _addr_text(addr: RowAddress) -> str:
    return f"@{addr.row}" if addr.bank == 0 else f"@{addr.bank}:{addr.row}"


def disassemble(program: Program) -> str:
    """Canonical source form; assembling it reproduces the program."""
    lines = []
    for instr in program.instructions:
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

    @property
    def word_mask(self) -> int:
        return self.array.geometry.word_mask


def run(program: Program, machine: Machine) -> tuple[ExecStats, ExecutionTrace]:
    """Execute a program, tracing memory events and aggregating costs."""
    trace = ExecutionTrace()
    previous = machine.array.recorder
    machine.array.recorder = trace
    mask = machine.word_mask
    regs = machine.registers
    executed = 0
    try:
        for steps, instr in enumerate(program.instructions):
            if steps >= machine.step_budget:
                raise StepBudgetExceeded(
                    f"program exceeded {machine.step_budget} steps"
                )
            op = instr.opcode
            if op is Opcode.HALT:
                break
            executed += 1
            if op is Opcode.LOAD:
                regs[instr.regs[0]] = machine.array.read_word(instr.addrs[0])
            elif op is Opcode.STORE:
                machine.array.write_word(instr.addrs[0], regs[instr.regs[0]] & mask)
            elif op in CPU_ALU_OPS:
                rd, ra, rb = instr.regs
                a, b = regs[ra], regs[rb]
                if op is Opcode.ADD:
                    regs[rd] = (a + b) & mask
                elif op is Opcode.AND:
                    regs[rd] = a & b
                elif op is Opcode.OR:
                    regs[rd] = a | b
                else:
                    regs[rd] = a ^ b
            elif op is Opcode.NOT:
                rd, ra = instr.regs
                regs[rd] = ~regs[ra] & mask
            elif op is CimOp.CIM_NOT:
                a, dest = instr.addrs
                machine.array.write_word(dest, machine.array.cim_not(a), record=False)
            elif op is CimOp.CIM_ADD:
                a, b, dest = instr.addrs
                machine.array.cim_add(a, b, dest)
            else:
                a, b, dest = instr.addrs
                word = machine.array.cim_two_row(op, a, b)
                machine.array.write_word(dest, word, record=False)
    finally:
        machine.array.recorder = previous
    stats = ExecStats(
        instruction_count=executed,
        memory_access_count=len(trace.events),
        total_delay_ns=trace.end_ns,
        total_energy_fj=trace.total_energy(),
    )
    return stats, trace


# Lowering clobbers the two highest registers.
_SCRATCH_A = NUM_REGISTERS - 2
_SCRATCH_B = NUM_REGISTERS - 1

_CIM_TO_ALU = {
    CimOp.CIM_ADD: Opcode.ADD,
    CimOp.CIM_AND: Opcode.AND,
    CimOp.CIM_OR: Opcode.OR,
    CimOp.CIM_XOR: Opcode.XOR,
    CimOp.CIM_NAND: Opcode.AND,
    CimOp.CIM_NOR: Opcode.OR,
}


def lower_to_conventional(program: Program) -> Program:
    """Replace each Cim instruction with an equivalent load/compute/store run."""
    out: list[Instruction] = []
    for instr in program.instructions:
        op = instr.opcode
        if op not in CIM_OPS:
            out.append(instr)
            continue
        if op is CimOp.CIM_NOT:
            a, dest = instr.addrs
            out.append(Instruction(Opcode.LOAD, (_SCRATCH_A,), (a,)))
            out.append(Instruction(Opcode.NOT, (_SCRATCH_A, _SCRATCH_A)))
            out.append(Instruction(Opcode.STORE, (_SCRATCH_A,), (dest,)))
            continue
        a, b, dest = instr.addrs
        out.append(Instruction(Opcode.LOAD, (_SCRATCH_A,), (a,)))
        out.append(Instruction(Opcode.LOAD, (_SCRATCH_B,), (b,)))
        out.append(
            Instruction(_CIM_TO_ALU[op], (_SCRATCH_A, _SCRATCH_A, _SCRATCH_B))
        )
        if op in (CimOp.CIM_NAND, CimOp.CIM_NOR):
            out.append(Instruction(Opcode.NOT, (_SCRATCH_A, _SCRATCH_A)))
        out.append(Instruction(Opcode.STORE, (_SCRATCH_A,), (dest,)))
    return Program(tuple(out))


def static_fingerprint(machine: Machine) -> str:
    """Digest of everything statically visible to a netlist-level observer.

    Covers geometry, word width, register count, the sense capability set,
    reference currents and cost-table values. Deliberately excludes array
    contents, register state and any program: machines that differ only in
    what they run hash identically.
    """
    array = machine.array
    g = array.geometry
    capabilities = sorted(
        op.value for op in (CimOp if array.enhanced else (CimOp.READ, CimOp.WRITE))
    )
    description = {
        "geometry": {
            "banks": g.banks,
            "rows_per_bank": g.rows_per_bank,
            "cols_per_row": g.cols_per_row,
        },
        "registers": NUM_REGISTERS,
        "capabilities": capabilities,
        "sense_refs": [
            array.sense.i_ref_read,
            array.sense.i_ref_or,
            array.sense.i_ref_and,
        ],
        # the accounting mode is how the simulator charges a write, not hardware
        "costs": {
            side: rows for side, rows in array.cost_table.as_dict().items() if side != "mode"
        },
    }
    blob = json.dumps(description, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
