"""Random program generation and machine setup shared by ISA tests."""
from __future__ import annotations

import numpy as np

from spincim.array import ArrayGeometry, CimArray, CimOp, RowAddress
from spincim.isa import CIM_OPS, Instruction, Machine, Opcode, Program

CIM_THREE = (
    CimOp.CIM_ADD,
    CimOp.CIM_AND,
    CimOp.CIM_OR,
    CimOp.CIM_XOR,
    CimOp.CIM_NAND,
    CimOp.CIM_NOR,
)


HOST_OPS = (Opcode.LOAD, Opcode.STORE, Opcode.ADD, Opcode.AND, Opcode.OR, Opcode.XOR,
            Opcode.NOT)


def _host_instruction(rng: np.random.Generator, rows: int) -> Instruction:
    """A LOAD, STORE or register ALU instruction over R0..R5 and ``rows``."""
    opcode = HOST_OPS[int(rng.integers(0, len(HOST_OPS)))]
    if opcode in (Opcode.LOAD, Opcode.STORE):
        return Instruction(opcode, (int(rng.integers(0, 6)),),
                           (RowAddress(0, int(rng.integers(0, rows))),))
    regs = rng.integers(0, 6, size=2 if opcode is Opcode.NOT else 3)
    return Instruction(opcode, tuple(int(r) for r in regs))


def random_cim_program(
    rng: np.random.Generator, rows: int = 8, max_instructions: int = 50,
    min_instructions: int = 1, host: float = 0.0,
) -> Program:
    """Program whose operands satisfy the mapping constraint: in-memory
    instructions only, or with probability ``host`` each a LOAD, STORE or
    register ALU instruction."""
    n = int(rng.integers(min_instructions, max_instructions + 1))
    instructions = []
    for _ in range(n):
        if host and rng.random() < host:
            instructions.append(_host_instruction(rng, rows))
            continue
        if rng.random() < 0.15:
            a = int(rng.integers(0, rows))
            dest = int(rng.integers(0, rows))
            instructions.append(
                Instruction(CimOp.CIM_NOT, (), (RowAddress(0, a), RowAddress(0, dest)))
            )
            continue
        opcode = CIM_THREE[int(rng.integers(0, len(CIM_THREE)))]
        a, b = rng.choice(rows, size=2, replace=False)
        dest = int(rng.integers(0, rows))
        instructions.append(
            Instruction(
                opcode,
                (),
                (RowAddress(0, int(a)), RowAddress(0, int(b)), RowAddress(0, dest)),
            )
        )
    return tuple(instructions)


def sense_count(program: Program) -> int:
    """Senses a run of a program without HALT makes: one per LOAD and in-memory op."""
    return sum(i.opcode is Opcode.LOAD or i.opcode in CIM_OPS for i in program)


def machine_with_memory(model, width: int = 8, rows: int = 16, words=None) -> Machine:
    geometry = ArrayGeometry(banks=1, rows_per_bank=rows, cols_per_row=width)
    array = CimArray(geometry=geometry, model=model)
    if words is not None:
        for row, word in enumerate(words):
            array.write_word(RowAddress(0, row), int(word), record=False)
    return Machine(array=array)
