import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincim import (
    Channel,
    CimArray,
    CimOp,
    CostMode,
    CostTable,
    Instruction,
    Machine,
    OpClass,
    Opcode,
    ParseError,
    Program,
    RowAddress,
    StepBudgetExceeded,
    assemble,
    count_bus_transfers,
    disassemble,
    lower_to_conventional,
    run,
    static_fingerprint,
)

import _oracles
from _progs import machine_with_memory, random_cim_program

ADD_CONVENTIONAL = """
; conventional add: fetch both operands, compute, store back
LOAD  R1, @0
LOAD  R2, @1
ADD   R3, R1, R2
STORE R3, @2
HALT
"""

ADD_CIM = "CimADD @0, @1, @2\n"


def _test_programs():
    """Every random program the ISA tests draw, in their draw order."""
    programs = []
    for seed, count, size in ((43, 100, 50), (23, 20, 30)):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            programs.append(random_cim_program(rng, rows=8, max_instructions=size))
            rng.integers(0, 256, size=16)  # each test's initial words
    programs.append(random_cim_program(np.random.default_rng(31), rows=8, max_instructions=50))
    return programs


class TestAssembleAgainstOracle:
    """The memoising assembler against a parse of every operand."""

    def test_every_test_program_and_its_lowering(self):
        for program in _test_programs():
            for prog in (program, lower_to_conventional(program)):
                text = disassemble(prog)
                assert assemble(text) == _oracles.assemble(text) == prog

    def test_comments_case_banks_and_spacing(self):
        text = (
            "; header\n  load r1 , @1:3  # trailing\nLOAD R1, @1:3\n"
            "cimxor @0,@1,  @0:2\nCimNOT @7, @7 ; same row twice\n\nstore R1,@0\nHALT\n"
        )
        assert assemble(text) == _oracles.assemble(text)

    @pytest.mark.parametrize("source", [
        "LOAD R1, @0\nLOAD R9, @0\n",            # bad register after good uses
        "LOAD R1, @0\nADD @0, R1, R2\n",         # a good address token used as a register
        "CimNOT @1, @2\nLOAD R1, R1\n",          # column of the first 'R1' on the line
        "LOAD R1, @0\nLOAD R2, @0\nSTORE R2, 0\n",
        "NOT R1, R2\nNOT R2, R1\nNOT R3, r8\n",
    ])
    def test_parse_error_names_the_same_line_and_column(self, source):
        with pytest.raises(ParseError) as new:
            assemble(source)
        with pytest.raises(ParseError) as old:
            _oracles.assemble(source)
        assert (new.value.line, new.value.column, str(new.value)) == (
            old.value.line, old.value.column, str(old.value)
        )


@pytest.mark.parametrize("enum", [CimOp, OpClass, Opcode])
def test_hot_enums_hash_by_identity(enum):
    assert enum.__hash__ is object.__hash__
    assert all(hash(member) == object.__hash__(member) for member in enum)


class TestAssembler:
    def test_single_cim_add_instruction(self):
        program = assemble("CimADD @1, @2, @3")
        assert len(program) == 1
        instr = program.instructions[0]
        assert instr.opcode is CimOp.CIM_ADD
        assert instr.addrs == (RowAddress(0, 1), RowAddress(0, 2), RowAddress(0, 3))

    def test_empty_source(self):
        assert len(assemble("")) == 0
        assert len(assemble("\n ; only a comment\n")) == 0

    def test_unknown_mnemonic(self):
        with pytest.raises(ParseError) as err:
            assemble("LOAD R1, @0\nFROB R1, @0\n")
        assert err.value.line == 2
        assert err.value.column >= 1

    @pytest.mark.parametrize("source", ["Read @0, @1", "WRITE @0, @1"])
    def test_array_host_ops_are_not_mnemonics(self, source):
        with pytest.raises(ParseError, match="unknown mnemonic"):
            assemble(source)

    def test_operand_count_checked(self):
        with pytest.raises(ParseError):
            assemble("CimADD @1, @2")
        with pytest.raises(ParseError):
            assemble("HALT R1")

    def test_bad_register_and_address(self):
        with pytest.raises(ParseError):
            assemble("LOAD R9, @0")
        with pytest.raises(ParseError):
            assemble("LOAD R1, 5")

    def test_explicit_bank_syntax(self):
        program = assemble("CimAND @1:3, @1:4, @1:5")
        assert program.instructions[0].addrs[0] == RowAddress(1, 3)

    def test_case_insensitive_mnemonics(self):
        assert assemble("cimadd @0, @1, @2").instructions[0].opcode is CimOp.CIM_ADD


_reg = st.integers(min_value=0, max_value=7)
_addr = st.builds(RowAddress, bank=st.integers(0, 2), row=st.integers(0, 15))


def _instruction_strategy():
    return st.one_of(
        st.builds(lambda r, a: Instruction(Opcode.LOAD, (r,), (a,)), _reg, _addr),
        st.builds(lambda r, a: Instruction(Opcode.STORE, (r,), (a,)), _reg, _addr),
        st.builds(
            lambda op, r: Instruction(op, tuple(r)),
            st.sampled_from([Opcode.ADD, Opcode.AND, Opcode.OR, Opcode.XOR]),
            st.tuples(_reg, _reg, _reg),
        ),
        st.builds(lambda r: Instruction(Opcode.NOT, tuple(r)), st.tuples(_reg, _reg)),
        st.builds(
            lambda op, a: Instruction(op, (), tuple(a)),
            st.sampled_from(
                [CimOp.CIM_ADD, CimOp.CIM_AND, CimOp.CIM_OR,
                 CimOp.CIM_XOR, CimOp.CIM_NAND, CimOp.CIM_NOR]
            ),
            st.tuples(_addr, _addr, _addr),
        ),
        st.builds(lambda a: Instruction(CimOp.CIM_NOT, (), tuple(a)), st.tuples(_addr, _addr)),
        st.just(Instruction(Opcode.HALT)),
    )


@settings(max_examples=100)
@given(st.lists(_instruction_strategy(), max_size=30))
def test_disassembly_round_trips(instructions):
    program = Program(tuple(instructions))
    assert assemble(disassemble(program)) == program


class TestRun:
    def test_conventional_add_counts(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        stats, trace = run(assemble(ADD_CONVENTIONAL), machine)
        assert stats.instruction_count == 4
        assert stats.memory_access_count == 3
        assert count_bus_transfers(trace) == 3
        assert machine.array.word(RowAddress(0, 2)) == 16

    def test_cim_add_counts(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        stats, trace = run(assemble(ADD_CIM), machine)
        assert stats.instruction_count == 1
        assert stats.memory_access_count == 1
        assert count_bus_transfers(trace) == 0
        assert machine.array.word(RowAddress(0, 2)) == 16

    def test_access_reduction_identity(self, zero_noise_model):
        m1 = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        m2 = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        conventional, _ = run(assemble(ADD_CONVENTIONAL), m1)
        cim, _ = run(assemble(ADD_CIM), m2)
        assert conventional.memory_access_count - cim.memory_access_count == 2

    def test_halt_only(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model)
        stats, trace = run(assemble("HALT\n"), machine)
        assert stats.instruction_count == 0
        assert stats.memory_access_count == 0
        assert trace.events == []

    def test_stats_identity(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model, width=16, words=[1, 2, 3])
        program = assemble("LOAD R0, @0\nCimAND @0, @1, @3\nSTORE R0, @4\n")
        stats, trace = run(program, machine)
        bus = count_bus_transfers(trace)
        in_memory = sum(1 for e in trace.events if e.channel is Channel.IN_MEMORY)
        assert stats.memory_access_count == bus + in_memory == 3

    def test_enhanced_add_cheaper_than_conventional(self, zero_noise_model):
        enhanced = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        stats_cim, _ = run(assemble(ADD_CIM), enhanced)
        conventional = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        conventional.array.enhanced = False
        stats_conv, _ = run(assemble(ADD_CONVENTIONAL), conventional)
        assert stats_cim.total_energy_fj <= stats_conv.total_energy_fj
        assert stats_cim.total_delay_ns <= stats_conv.total_delay_ns

    def test_step_budget(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model)
        machine.step_budget = 2
        with pytest.raises(StepBudgetExceeded):
            run(assemble("CimNOT @0, @1\n" * 5), machine)

    def test_out_of_bounds_row_propagates(self, zero_noise_model):
        from spincim import OutOfBounds

        machine = machine_with_memory(zero_noise_model, rows=16)
        with pytest.raises(OutOfBounds):
            run(assemble("LOAD R0, @200\n"), machine)


class TestLowering:
    def test_plain_program_unchanged(self):
        program = assemble(ADD_CONVENTIONAL)
        assert lower_to_conventional(program) == program

    def test_cim_add_becomes_four_instructions(self):
        lowered = lower_to_conventional(assemble(ADD_CIM))
        opcodes = [i.opcode for i in lowered.instructions]
        assert opcodes == [Opcode.LOAD, Opcode.LOAD, Opcode.ADD, Opcode.STORE]

    def test_cim_xor_differential(self, zero_noise_model):
        program = assemble("CimXOR @0, @1, @2\n")
        direct = machine_with_memory(zero_noise_model, words=[0b1100, 0b1010])
        run(program, direct)
        lowered = machine_with_memory(zero_noise_model, words=[0b1100, 0b1010])
        run(lower_to_conventional(program), lowered)
        assert direct.array.snapshot() == lowered.array.snapshot()
        assert direct.array.word(RowAddress(0, 2)) == 0b0110

    def test_random_program_differential(self, zero_noise_model):
        rng = np.random.default_rng(23)
        for _ in range(20):
            program = random_cim_program(rng, rows=8, max_instructions=30)
            init = [int(w) for w in rng.integers(0, 256, size=16)]
            direct = machine_with_memory(zero_noise_model, words=init)
            run(program, direct)
            lowered = machine_with_memory(zero_noise_model, words=init)
            run(lower_to_conventional(program), lowered)
            assert direct.array.snapshot() == lowered.array.snapshot()


class TestFingerprint:
    def test_program_invisible(self, zero_noise_model):
        m1 = machine_with_memory(zero_noise_model, words=[1, 2])
        m2 = machine_with_memory(zero_noise_model, words=[250, 99])
        run(assemble("CimAND @0, @1, @2\n"), m1)
        run(assemble("CimOR @0, @1, @3\n"), m2)
        assert static_fingerprint(m1) == static_fingerprint(m2)

    def test_geometry_visible(self, zero_noise_model):
        m1 = machine_with_memory(zero_noise_model, width=8)
        m2 = machine_with_memory(zero_noise_model, width=16)
        assert static_fingerprint(m1) != static_fingerprint(m2)

    def test_stable_across_runs_and_seeds(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model)
        before = static_fingerprint(machine)
        machine.array.rng = np.random.default_rng(999)
        run(assemble("CimNOT @0, @1\n"), machine)
        assert static_fingerprint(machine) == before

    def test_capability_set_visible(self, zero_noise_model):
        m1 = machine_with_memory(zero_noise_model)
        m2 = machine_with_memory(zero_noise_model)
        m2.array.enhanced = False
        assert static_fingerprint(m1) != static_fingerprint(m2)

    @pytest.mark.parametrize("mode", list(CostMode))
    @pytest.mark.parametrize("enhanced,digest", [
        (True, "3d7fc3d9250bafb89006d40de4eaa5921f935437ee75edb3cf7f90bc48150092"),
        (False, "2daebb1d52ab9f98ee3346d60d4b925f74721e91eaa7343c708199649d1ffbc7"),
    ])
    def test_default_digests_pinned(self, enhanced, digest, mode):
        # captured before the cost rows were dumped by CostTable.as_dict; the
        # accounting mode is left out of the digest
        array = CimArray(enhanced=enhanced, cost_table=CostTable(mode=mode))
        assert static_fingerprint(Machine(array)) == digest
