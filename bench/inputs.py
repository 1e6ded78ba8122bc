"""Seeded inputs for the program-sca workload.

One workload seed fixes three files byte for byte: an assembly program, an
``--init-hex`` dump and a JSON config overlay selecting a 64-column geometry.
The program has a fixed instruction mix per block (every Cim two-row op,
CimADD, CimNOT, LOAD/STORE and the CPU ALU ops), so the work per run does not
depend on the seed; the seed only orders the block and picks its operands.
Alongside the files the generator returns the instruction and memory-access
counts the simulator must report, derived from the mix alone.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLS = 64
BANKS = 2
ROWS = 32
# lower_to_conventional clobbers R6/R7, so the program keeps its data in R0..R5
DATA_REGS = 6

TWO_ROW = ("CimAND", "CimOR", "CimXOR", "CimNAND", "CimNOR")
BLOCK = TWO_ROW + ("CimADD", "CimNOT", "LOAD", "LOAD", "STORE", "STORE",
                   "ADD", "AND", "OR", "XOR", "NOT")

# (instructions, memory accesses) of one source instruction after lowering:
# Cim ops become LOAD/LOAD/op[/NOT]/STORE (CimNOT: LOAD/NOT/STORE).
_LOWERED = {
    "CimAND": (4, 3), "CimOR": (4, 3), "CimXOR": (4, 3), "CimADD": (4, 3),
    "CimNAND": (5, 3), "CimNOR": (5, 3), "CimNOT": (3, 2),
    "LOAD": (1, 1), "STORE": (1, 1),
    "ADD": (1, 0), "AND": (1, 0), "OR": (1, 0), "XOR": (1, 0), "NOT": (1, 0),
}


@dataclass(frozen=True)
class ProgramInputs:
    program: Path
    init_hex: Path
    overlay: Path
    expected: dict  # {"direct"|"lowered": {"instruction_count", "memory_access_count"}}


def _addr(bank: int, row: int) -> str:
    return f"@{bank}:{row}"


def _line(op: str, rng: np.random.Generator) -> str:
    def reg() -> str:
        return f"R{int(rng.integers(DATA_REGS))}"

    def anywhere() -> str:
        return _addr(int(rng.integers(BANKS)), int(rng.integers(ROWS)))

    if op in TWO_ROW or op == "CimADD":
        bank = int(rng.integers(BANKS))
        a, b = rng.choice(ROWS, size=2, replace=False)
        return f"{op} {_addr(bank, int(a))}, {_addr(bank, int(b))}, {anywhere()}"
    if op == "CimNOT":
        return f"{op} {anywhere()}, {anywhere()}"
    if op in ("LOAD", "STORE"):
        return f"{op} {reg()}, {anywhere()}"
    if op == "NOT":
        return f"{op} {reg()}, {reg()}"
    return f"{op} {reg()}, {reg()}, {reg()}"


def expected_counts(ops) -> dict:
    """Counts the simulator must report for a program with this opcode list."""
    cim = sum(1 for op in ops if op.startswith("Cim"))
    bus = sum(1 for op in ops if op in ("LOAD", "STORE"))
    return {
        "direct": {"instruction_count": len(ops), "memory_access_count": cim + bus},
        "lowered": {
            "instruction_count": sum(_LOWERED[op][0] for op in ops),
            "memory_access_count": sum(_LOWERED[op][1] for op in ops),
        },
    }


def generate(seed: int, blocks: int, cli_seed: int, out_dir: Path) -> ProgramInputs:
    """Write program.cim, init.hex and overlay.json for one workload seed."""
    rng = np.random.default_rng(seed)
    ops = [op for _ in range(blocks) for op in BLOCK]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    source = [f"; seeded program: seed={seed} blocks={blocks}"]
    source += [_line(op, rng) for op in ops]
    source.append("HALT")
    words = rng.integers(0, 1 << COLS, size=BANKS * ROWS, dtype=np.uint64)
    dump = [f"# banks={BANKS} rows_per_bank={ROWS} cols_per_row={COLS}"]
    dump += [f"{int(w):016X}" for w in words]
    overlay = {
        "seed": cli_seed,
        "array": {"banks": BANKS, "rows_per_bank": ROWS, "cols_per_row": COLS},
    }

    out_dir.mkdir(parents=True, exist_ok=True)
    paths = ProgramInputs(
        program=out_dir / "program.cim",
        init_hex=out_dir / "init.hex",
        overlay=out_dir / "overlay.json",
        expected=expected_counts(ops),
    )
    paths.program.write_text("\n".join(source) + "\n")
    paths.init_hex.write_text("\n".join(dump) + "\n")
    paths.overlay.write_text(json.dumps(overlay, sort_keys=True, indent=2) + "\n")
    return paths
