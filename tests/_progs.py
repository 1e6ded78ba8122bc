"""Random program generation and machine setup shared by ISA tests."""
from __future__ import annotations

import numpy as np

from spincim.array import ArrayGeometry, CimArray, CimOp, RowAddress
from spincim.isa import Instruction, Machine, Program

CIM_THREE = (
    CimOp.CIM_ADD,
    CimOp.CIM_AND,
    CimOp.CIM_OR,
    CimOp.CIM_XOR,
    CimOp.CIM_NAND,
    CimOp.CIM_NOR,
)


def random_cim_program(
    rng: np.random.Generator, rows: int = 8, max_instructions: int = 50
) -> Program:
    """Compute-only program whose operands satisfy the mapping constraint."""
    n = int(rng.integers(1, max_instructions + 1))
    instructions = []
    for _ in range(n):
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
    return Program(tuple(instructions))


def machine_with_memory(model, width: int = 8, rows: int = 16, words=None) -> Machine:
    geometry = ArrayGeometry(banks=1, rows_per_bank=rows, cols_per_row=width)
    array = CimArray(geometry=geometry, model=model)
    if words is not None:
        for row, word in enumerate(words):
            array.write_word(RowAddress(0, row), int(word), record=False)
    return Machine(array=array)
