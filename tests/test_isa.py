import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincim import isa
from spincim.array import (
    SENSE_BLOCK,
    ArrayGeometry,
    CimArray,
    CimOp,
    RowAddress,
    SenseDisturbance,
)
from spincim.cost import (
    Channel,
    CostMode,
    CostTable,
    ExecutionTrace,
    OpClass,
    OpCost,
    count_bus_transfers,
)
from spincim.device import Collapse, CurrentLevelModel, MeanShift, trial_rng
from spincim.errors import MappingViolation, OutOfBounds, ParseError, StepBudgetExceeded
from spincim.isa import (
    ExecStats,
    Instruction,
    Machine,
    Opcode,
    Program,
    assemble,
    disassemble,
    lower_to_conventional,
    run,
    static_fingerprint,
)

import _oracles
from _progs import machine_with_memory, random_cim_program, sense_count
from conftest import MASTER_SEED
from test_draw_order import LoggedRng

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
        "CimNOT @1, @2\nLOAD R1, R1\n",          # a bad token that also opens its line
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


class TestLazyOperandColumns:
    """A column is found only for a ParseError, and it is the oracle's column."""

    @pytest.mark.parametrize("source", [
        "CimAND @1, @1, @x\n",                  # bad third operand after a repeated token
        "CimAND @1, @1, R1\n",
        "ADD R1, R1, @1\n",
        "STORE R1, R1\n",                        # bad second operand, the first's text
        "CimOR @1, @11, 1\n",                    # bad text that lies inside earlier tokens
        "ADD R1, R2, ADD\n",                     # bad text that is the mnemonic
        "LOAD LO, @0\n",                         # bad text inside the mnemonic
        "LOAD R1, @0\nCimNOT @0, @0:x ; @0:x\n",  # memo hit, then a bad token and a comment
    ])
    def test_parse_error_names_the_same_line_and_column(self, source):
        with pytest.raises(ParseError) as new:
            assemble(source)
        with pytest.raises(ParseError) as old:
            _oracles.assemble(source)
        assert (new.value.line, new.value.column, str(new.value)) == (
            old.value.line, old.value.column, str(old.value)
        )


@pytest.mark.parametrize("enum", [CimOp, OpClass, Opcode, Channel])
def test_hot_enums_hash_by_identity(enum):
    assert enum.__hash__ is object.__hash__
    assert all(hash(member) == object.__hash__(member) for member in enum)


class TestAssembler:
    def test_single_cim_add_instruction(self):
        program = assemble("CimADD @1, @2, @3")
        assert len(program) == 1
        instr = program[0]
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

    @pytest.mark.parametrize("source,column", [
        ("STORE R1, 1", 11),                # not 8, the '1' of 'R1'
        ("CimAND @1, @2, 2", 16),           # not 13, the '2' of '@2'
        ("CimNOT @1, @2\nLOAD R1, R1", 10),  # not 6, the first 'R1'
        ("LOAD R1, @1\nCimAND @1, @1, 1", 16),  # past two memoised '@1'; not 9
    ])
    def test_parse_error_column_is_the_bad_operand(self, source, column):
        for assembler in (assemble, _oracles.assemble):
            with pytest.raises(ParseError) as err:
                assembler(source)
            assert err.value.column == column

    def test_explicit_bank_syntax(self):
        program = assemble("CimAND @1:3, @1:4, @1:5")
        assert program[0].addrs[0] == RowAddress(1, 3)

    def test_case_insensitive_mnemonics(self):
        assert assemble("cimadd @0, @1, @2")[0].opcode is CimOp.CIM_ADD


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
    program = tuple(instructions)
    assert assemble(disassemble(program)) == program


class TestRun:
    def test_conventional_add_counts(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        stats, trace = run(assemble(ADD_CONVENTIONAL), machine)
        assert stats.instruction_count == 4
        assert stats.memory_access_count == 3
        assert count_bus_transfers(trace) == 3
        assert machine.array.snapshot()[0][2] == 16

    def test_cim_add_counts(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        stats, trace = run(assemble(ADD_CIM), machine)
        assert stats.instruction_count == 1
        assert stats.memory_access_count == 1
        assert count_bus_transfers(trace) == 0
        assert machine.array.snapshot()[0][2] == 16

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
        assert len(trace) == 0 and trace.rows == []

    def test_stats_identity(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model, width=16, words=[1, 2, 3])
        program = assemble("LOAD R0, @0\nCimAND @0, @1, @3\nSTORE R0, @4\n")
        stats, trace = run(program, machine)
        bus = count_bus_transfers(trace)
        in_memory = sum(channel is Channel.IN_MEMORY
                        for *_, channel in _oracles.trace_events(trace))
        assert stats.memory_access_count == bus + in_memory == 3

    def test_enhanced_add_cheaper_than_conventional(self, zero_noise_model):
        enhanced = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        stats_cim, _ = run(assemble(ADD_CIM), enhanced)
        conventional = machine_with_memory(zero_noise_model, width=16, words=[7, 9])
        conventional.array.enhanced = False
        stats_conv, _ = run(assemble(ADD_CONVENTIONAL), conventional)
        assert stats_cim.total_energy_fj <= stats_conv.total_energy_fj
        assert stats_cim.total_delay_ns <= stats_conv.total_delay_ns

    def test_a_new_flag_or_table_records_as_a_fresh_machine(self, zero_noise_model):
        """The cost rows an array memoises follow its ``enhanced`` flag and
        its cost table: after each change a run traces as on a fresh array."""
        machine = machine_with_memory(zero_noise_model, width=16, words=[7, 9, 0xFFFE])
        source = "LOAD R1, @0\nLOAD R2, @2\nSTORE R2, @3\nSTORE R1, @4\n"
        program = assemble(source)
        run(assemble(ADD_CIM + source), machine)  # memoises rows of the default costs
        per_bit = CostTable(mode=CostMode.PER_BIT_WRITES)
        for name, value in (("enhanced", False), ("cost_table", per_bit), ("enhanced", True),
                            ("cost_table", CostTable())):
            setattr(machine.array, name, value)
            old = machine.array
            fresh = Machine(CimArray(old.geometry, old.model, cost_table=old.cost_table,
                                     enhanced=old.enhanced))
            for row, word in enumerate(old.snapshot()[0]):
                fresh.array.write_word(RowAddress(0, row), word, record=False)
            got, want = run(program, machine), run(program, fresh)
            assert got[0] == want[0]
            assert _csv(got[1]) == _csv(want[1])

    @pytest.mark.parametrize("mode", list(CostMode))
    def test_a_bench_sized_trace_holds_few_rows(self, mode):
        """A 64-column, 1600-instruction program and its lowering: one event
        per memory access, and a row table that stays small, so that each
        event is an index and a start time."""
        width, rows = 64, 32
        program = random_cim_program(np.random.default_rng(64), rows=rows, host=0.5,
                                     min_instructions=1600, max_instructions=1600)
        for prog, enhanced in ((program, True), (lower_to_conventional(program), False)):
            array = CimArray(ArrayGeometry(rows_per_bank=rows, cols_per_row=width),
                             rng=trial_rng(MASTER_SEED, 64), enhanced=enhanced,
                             cost_table=CostTable(mode=mode))
            for row in range(rows):
                array.write_word(RowAddress(0, row), (0x9E3779B97F4A7C15 * row) % (1 << width))
            stats, trace = run(prog, Machine(array))
            assert len(trace) == stats.memory_access_count > 1000
            assert len(trace.rows) < 11 * (width + 1)
            if mode is CostMode.PER_WORD:
                assert len(trace.rows) <= 11

    def test_step_budget(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model)
        machine.step_budget = 2
        with pytest.raises(StepBudgetExceeded):
            run(assemble("CimNOT @0, @1\n" * 5), machine)

    @pytest.mark.parametrize("text,budget,count", [
        ("STORE R0, @0\nSTORE R1, @1\nHALT\n", 2, 2),
        ("STORE R0, @0\nSTORE R1, @1\n", 2, 2),
        ("HALT\n", 0, 0),
        ("HALT\nSTORE R0, @0\n", 0, 0),
    ])
    def test_halt_does_not_count_toward_the_step_budget(self, zero_noise_model, text, budget,
                                                        count):
        machine = machine_with_memory(zero_noise_model)
        machine.step_budget = budget
        stats, trace = run(assemble(text), machine)
        assert stats.instruction_count == count == len(trace)

    def test_one_instruction_past_the_budget_raises_before_a_halt(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model)
        machine.step_budget = 2
        with pytest.raises(StepBudgetExceeded, match="exceeded 2 steps"):
            run(assemble("STORE R0, @0\nSTORE R1, @1\nSTORE R2, @2\nHALT\n"), machine)

    def test_out_of_bounds_row_propagates(self, zero_noise_model):
        machine = machine_with_memory(zero_noise_model, rows=16)
        with pytest.raises(OutOfBounds):
            run(assemble("LOAD R0, @200\n"), machine)


_ZONE = frozenset(RowAddress(0, r) for r in (0, 2, 5))
_BLOCK_ATTACKS = {
    "none": None,
    # rho = 1/2 on rows 0, 2 and 5: a pair sense has none, one or both rows heated
    "collapse on some rows": SenseDisturbance(
        disturbance=Collapse(a=math.log(0.5), b=0.0, zone_temp=100.0), rows=_ZONE),
    "forced flip": SenseDisturbance(rows=_ZONE, force_flip=True),
}


def _long_program(seed: int) -> Program:
    """Over two blocks of senses: LOADs, STOREs, ALU ops and every in-memory op."""
    program = random_cim_program(np.random.default_rng(seed), rows=8, min_instructions=450,
                                 max_instructions=600, host=0.3)
    assert sense_count(program) > 2 * SENSE_BLOCK
    return program


def _machine(sigma: float, attack, width: int) -> Machine:
    words = np.random.default_rng(width)
    init = [int.from_bytes(words.bytes(16), "little") % (1 << width) for _ in range(16)]
    machine = machine_with_memory(CurrentLevelModel(sigma=sigma), width=width, words=init)
    machine.array.rng = trial_rng(MASTER_SEED, width)
    machine.array.attack = attack
    return machine


def _run_stepwise(program: Program, machine: Machine) -> tuple[ExecStats, ExecutionTrace]:
    """``run`` one instruction at a time, its traces joined into one."""
    joined, executed = ExecutionTrace(), 0
    for instr in program:
        stats, trace = run((instr,), machine)
        executed += stats.instruction_count
        for kind, cost, channel in _oracles.trace_events(trace):
            joined.record(kind, OpCost(cost.delay_ns, cost.energy_fj), channel)
    return ExecStats(executed, len(joined), joined.end_ns, joined.total_energy()), joined


def _csv(trace: ExecutionTrace) -> str:
    out = io.StringIO()
    trace.to_csv(out)
    return out.getvalue()


class TestBlockDraws:
    """A run draws its senses a block ahead; they read as drawn one at a time."""

    @pytest.mark.parametrize("width", [8, 70])
    @pytest.mark.parametrize("sigma", [0.0, 0.485281])
    @pytest.mark.parametrize("name", list(_BLOCK_ATTACKS))
    def test_a_run_is_its_instructions_run_one_at_a_time(self, name, sigma, width):
        program = _long_program(width)
        whole, stepped = (_machine(sigma, _BLOCK_ATTACKS[name], width) for _ in range(2))
        stats, trace = run(program, whole)
        want_stats, want_trace = _run_stepwise(program, stepped)
        assert stats == want_stats
        assert _csv(trace) == _csv(want_trace)
        assert whole.array.snapshot() == stepped.array.snapshot()
        assert whole.registers == stepped.registers
        assert whole.array.rng.bit_generator.state == stepped.array.rng.bit_generator.state

    @pytest.mark.parametrize("attack", [None, _BLOCK_ATTACKS["forced flip"]])
    def test_a_run_draws_its_noise_one_block_at_a_time(self, attack):
        """With no collapse, a run of N senses makes ceil(N / SENSE_BLOCK)
        normal calls, each as long as the back-to-back calls of its block."""
        program, width = _long_program(7), 16
        n = sense_count(program)
        machine = _machine(0.485281, attack, width)
        machine.array.rng = logged = LoggedRng(machine.array.rng)
        run(program, machine)
        blocks = [min(SENSE_BLOCK, n - start) for start in range(0, n, SENSE_BLOCK)]
        assert 2 < len(blocks) == math.ceil(n / SENSE_BLOCK) < n // 2
        assert logged.calls == [("normal", block * width) for block in blocks]

    _FAULTS = {
        "out-of-bounds pair": (Instruction(CimOp.CIM_AND, (), (
            RowAddress(0, 0), RowAddress(0, 40), RowAddress(0, 1))), OutOfBounds),
        "out-of-bounds load": (Instruction(Opcode.LOAD, (0,), (RowAddress(0, 40),)), OutOfBounds),
        "same-row pair": (Instruction(CimOp.CIM_OR, (), (
            RowAddress(0, 3), RowAddress(0, 3), RowAddress(0, 1))), MappingViolation),
        "mean shift on one operand row": (Instruction(CimOp.CIM_XOR, (), (
            RowAddress(0, 12), RowAddress(0, 13), RowAddress(0, 1))), ValueError),
        "step budget": (None, StepBudgetExceeded),
    }

    @pytest.mark.parametrize("fault", list(_FAULTS))
    def test_a_failed_instruction_leaves_the_run_before_it(self, fault, monkeypatch):
        traces = []

        class KeptTrace(ExecutionTrace):
            def __init__(self):
                super().__init__()
                traces.append(self)

        monkeypatch.setattr(isa, "ExecutionTrace", KeptTrace)
        # the programs sense rows 0-7 only, so the fault is the first sense
        # with one operand row under the mean shift
        attack = SenseDisturbance(disturbance=MeanShift(0.5, 1.0, 1.5),
                                  rows=frozenset({RowAddress(0, 12)}))
        failing, twin = (_machine(0.485281, attack, 8) for _ in range(2))
        program, k = _long_program(3), 200
        bad, error = self._FAULTS[fault]
        if bad is None:
            failing.step_budget = k
        else:
            program = program[:k] + (bad,) + program[k:]
        with pytest.raises(error):
            run(program, failing)
        _, want = run(program[:k], twin)
        assert _csv(traces[0]) == _csv(want)
        assert failing.array.snapshot() == twin.array.snapshot()
        assert failing.registers == twin.registers
        # no plan is left: a direct sense draws fresh, as on the twin
        a, b = RowAddress(0, 0), RowAddress(0, 1)
        for machine in (failing, twin):
            machine.array.rng = trial_rng(MASTER_SEED, 99)
        assert (failing.array.cim_two_row(CimOp.CIM_AND, a, b)
                == twin.array.cim_two_row(CimOp.CIM_AND, a, b))
        assert failing.array.rng.bit_generator.state == twin.array.rng.bit_generator.state


class TestLowering:
    def test_plain_program_unchanged(self):
        program = assemble(ADD_CONVENTIONAL)
        assert lower_to_conventional(program) == program
        # with no Cim instruction, R6 and R7 are the program's own
        program = assemble("LOAD R6, @0\nADD R7, R6, R6\nSTORE R7, @1\n")
        assert lower_to_conventional(program) == program

    def test_matches_one_new_step_per_instruction(self):
        every_op = []
        for bank in (0, 1):
            a, b, dest = (RowAddress(bank, row) for row in (3, 5, 0))
            every_op += [Instruction(op, (), (a, dest) if op is CimOp.CIM_NOT else (a, b, dest))
                         for op in sorted(isa.CIM_OPS, key=lambda op: op.value)]
        assert len(every_op) == 2 * len(isa.CIM_OPS) == 14
        every_op += assemble("LOAD R1, @1:5\nNOT R2, R1\nSTORE R2, @0:3\nHALT\n")
        for program in (*_test_programs(), tuple(every_op)):
            assert lower_to_conventional(program) == _oracles.lower_to_conventional(program)

    def test_steps_are_shared_within_one_lowering(self):
        program = assemble("CimNOT @0, @1\nCimNOT @1, @0\nCimNAND @0, @2, @3\n"
                           "CimAND @0:0, @4, @1:1\nCimAND @4, @0, @1:1\n")
        lowered = lower_to_conventional(program)
        assert lowered[1] is lowered[4] is lowered[9]  # every NOT step
        assert lowered[0] is lowered[6] is lowered[11]  # LOAD R6, @0, however it is written
        assert lowered[13] is lowered[17]  # CimAND's AND R6, R6, R7
        assert lowered[12] is not lowered[15]  # LOAD R7, @4 and LOAD R6, @4
        assert lowered[12] == Instruction(Opcode.LOAD, (7,), (RowAddress(0, 4),))
        assert lowered[14] is lowered[18]  # STORE R6, @1:1
        # the compute steps are module constants; each call builds its own moves
        again = lower_to_conventional(program)
        assert again[1] is lowered[1] and again[13] is lowered[13]
        assert again[0] == lowered[0] and again[0] is not lowered[0]

    def test_cim_add_becomes_four_instructions(self):
        lowered = lower_to_conventional(assemble(ADD_CIM))
        opcodes = [i.opcode for i in lowered]
        assert opcodes == [Opcode.LOAD, Opcode.LOAD, Opcode.ADD, Opcode.STORE]

    @pytest.mark.parametrize("text,index,reg", [
        ("LOAD R6, @0\nCimAND @1, @2, @3\nSTORE R6, @4\n", 0, 6),
        ("CimNOT @0, @1\nADD R1, R2, R7\n", 1, 7),
    ])
    def test_scratch_register_beside_a_cim_op_is_refused(self, text, index, reg):
        message = rf"instruction {index} \(\w+\): R{reg} is a scratch register"
        with pytest.raises(ValueError, match=message):
            lower_to_conventional(assemble(text))

    def test_cim_xor_differential(self, zero_noise_model):
        program = assemble("CimXOR @0, @1, @2\n")
        direct = machine_with_memory(zero_noise_model, words=[0b1100, 0b1010])
        run(program, direct)
        lowered = machine_with_memory(zero_noise_model, words=[0b1100, 0b1010])
        run(lower_to_conventional(program), lowered)
        assert direct.array.snapshot() == lowered.array.snapshot()
        assert direct.array.snapshot()[0][2] == 0b0110

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
