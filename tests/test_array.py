import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincim import analytic
from spincim.array import (
    ArrayGeometry,
    CimArray,
    CimOp,
    RowAddress,
    SenseConfig,
    SenseDisturbance,
    validate_mapping,
)
from spincim.cost import ExecutionTrace
from spincim.device import (
    Collapse,
    CurrentLevelModel,
    MeanShift,
    MtjState,
    sample_pair_current,
    trial_rng,
)
from spincim.errors import MappingViolation, OutOfBounds

from _oracles import ripple_add_oracle
from conftest import MASTER_SEED

A, B, C, D = (RowAddress(0, r) for r in range(4))
SCRATCH = (RowAddress(0, 8), RowAddress(0, 9))
_NO_WINDOW = frozenset({CimOp.WRITE, CimOp.CIM_ADD})


def make_array(zero_noise_model, **kwargs):
    return CimArray(model=zero_noise_model, **kwargs)


class TestReadWrite:
    def test_an_address_is_not_a_tuple_and_has_no_order(self):
        assert RowAddress(0, 1) == RowAddress(0, 1) != (0, 1)
        assert len({RowAddress(0, 1), RowAddress(0, 1), RowAddress(1, 0)}) == 2
        with pytest.raises(TypeError):
            RowAddress(0, 1) < RowAddress(0, 2)

    def test_round_trip(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0xA5A5)
        assert arr.read_word(A) == 0xA5A5

    def test_write_all_ones_sets_parallel_states(self, zero_noise_model):
        # a read reference a hair under the P level reads 1 only at that level
        p_level = zero_noise_model.single_levels[1]
        arr = make_array(zero_noise_model, sense=SenseConfig(i_ref_read=p_level - 1e-9))
        arr.write_word(A, 0xFFFF)
        # every column senses at the parallel (P) single-cell level
        assert arr.read_word(A) == 0xFFFF
        assert arr.cim_not(A) == 0

    def test_word_width_contract(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        with pytest.raises(OutOfBounds):
            arr.write_word(A, 1 << 16)
        with pytest.raises(TypeError):
            arr.write_word(A, [0, 1, 0])  # a word is an integer, not a bit vector

    def test_numpy_integer_words_are_stored_as_python_ints(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        for word in (np.uint16(5), np.int64(0xBEEF), np.uint64(0xFFFF)):
            arr.write_word(A, word)
            stored = arr.snapshot()[A.bank][A.row]
            assert type(stored) is int and stored == int(word)
            assert arr.read_word(A) == int(word)
        for word in (np.int64(-1), np.uint32(1 << 16)):
            with pytest.raises(OutOfBounds):
                arr.write_word(A, word)

    def test_noisy_sense_without_a_generator_is_refused(self, model):
        arr = CimArray(model=model)
        arr.write_word(A, 0xA5A5)
        arr.write_word(B, 0x0FF0)
        for sense in (lambda: arr.read_word(A), lambda: arr.cim_two_row(CimOp.CIM_AND, A, B)):
            with pytest.raises(ValueError, match="random generator is required"):
                sense()

    def test_out_of_bounds_address(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        with pytest.raises(OutOfBounds):
            arr.read_word(RowAddress(0, 64))
        with pytest.raises(OutOfBounds):
            arr.write_word(RowAddress(1, 0), 0)

    def test_read_decode_single_cells(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b10)
        assert arr.read_word(A) == 0b10


class TestPlan:
    def test_a_sense_off_the_plan_is_refused_and_drops_it(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b1100)
        arr.plan([(CimOp.READ, (A,)), (CimOp.CIM_NOT, (B,))])
        assert arr.read_word(A) == 0b1100
        with pytest.raises(RuntimeError, match="CimAND sense taken where a planned "
                                               "CimNOT sense was drawn"):
            arr.cim_two_row(CimOp.CIM_AND, A, B)
        # with the plan dropped, each sense is a block of one
        assert arr.cim_two_row(CimOp.CIM_AND, A, B) == 0
        assert arr.cim_not(B) == arr.geometry.word_mask

    def test_an_entry_without_a_cimop_is_refused_before_any_change(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b1100)
        arr.plan([(CimOp.READ, (A,)), (CimOp.CIM_NOT, (B,))])
        old_style = ((CimOp.READ,), (A,))
        with pytest.raises(ValueError, match=r"^plan entry \(\(<CimOp\.READ"):
            arr.plan(iter([(CimOp.READ, (A,)), old_style]))
        # the plan before the refused one still holds
        assert arr.read_word(A) == 0b1100
        with pytest.raises(RuntimeError, match="Read sense taken where a planned CimNOT"):
            arr.read_word(A)


class TestTwoRowLogic:
    @pytest.fixture
    def loaded(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b1100)
        arr.write_word(B, 0b1010)
        return arr

    def test_truth_tables(self, loaded):
        assert loaded.cim_two_row(CimOp.CIM_AND, A, B) == 0b1000
        assert loaded.cim_two_row(CimOp.CIM_OR, A, B) == 0b1110
        assert loaded.cim_two_row(CimOp.CIM_XOR, A, B) == 0b0110

    def test_negated_ops(self, loaded):
        mask = loaded.geometry.word_mask
        assert loaded.cim_two_row(CimOp.CIM_NAND, A, B) == (~0b1000) & mask
        assert loaded.cim_two_row(CimOp.CIM_NOR, A, B) == (~0b1110) & mask

    def test_de_morgan_at_zero_noise(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = int(rng.integers(0, 1 << 16)), int(rng.integers(0, 1 << 16))
            arr.write_word(A, a)
            arr.write_word(B, b)
            mask = arr.geometry.word_mask
            assert (arr.cim_two_row(CimOp.CIM_NAND, A, B)
                    == (~arr.cim_two_row(CimOp.CIM_AND, A, B)) & mask)
            assert (arr.cim_two_row(CimOp.CIM_NOR, A, B)
                    == (~arr.cim_two_row(CimOp.CIM_OR, A, B)) & mask)

    def test_mapping_violations(self, loaded):
        with pytest.raises(MappingViolation):
            loaded.cim_two_row(CimOp.CIM_XOR, A, A)
        validate_mapping(RowAddress(0, 3), RowAddress(0, 7))
        with pytest.raises(MappingViolation, match="different rows"):
            validate_mapping(RowAddress(0, 3), RowAddress(0, 3))
        with pytest.raises(MappingViolation, match="same bank"):
            validate_mapping(RowAddress(0, 3), RowAddress(1, 3))

    def test_unknown_two_row_op_rejected(self, loaded):
        with pytest.raises(ValueError):
            loaded.cim_two_row(CimOp.CIM_ADD, A, B)

    @pytest.mark.parametrize("op", [CimOp.READ, CimOp.WRITE, CimOp.CIM_NOT],
                             ids=lambda op: op.value)
    def test_single_row_ops_rejected_before_any_sense(self, zero_noise_model, op):
        # the op is the only selector of a two-row sense: nothing is sensed or recorded
        trace = ExecutionTrace()
        arr = make_array(zero_noise_model, recorder=trace)
        arr.write_word(A, 0b1100)
        arr.write_word(B, 0b1010)
        events = len(trace)
        with pytest.raises(ValueError, match=f"^{op.value} is not a two-row sense operation$"):
            arr.cim_two_row(op, A, B)
        assert len(trace) == events
        words = arr.snapshot()[0]
        assert (words[A.row], words[B.row]) == (0b1100, 0b1010)


class TestNot:
    def test_not_and_involution(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b1010)
        mask = arr.geometry.word_mask
        inverted = arr.cim_not(A)
        assert inverted == (~0b1010) & mask
        arr.write_word(B, inverted)
        assert arr.cim_not(B) == 0b1010

    def test_not_of_all_antiparallel_row(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0)
        assert arr.cim_not(A) == arr.geometry.word_mask


class TestXnor:
    def test_reflexive_all_ones(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        rng = np.random.default_rng(5)
        for _ in range(25):
            word = int(rng.integers(0, 1 << 16))
            arr.write_word(A, word)
            arr.write_word(B, word)
            assert arr.cim_xnor(A, B, SCRATCH) == arr.geometry.word_mask

    def test_example(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b1100)
        arr.write_word(B, 0b1010)
        assert arr.cim_xnor(A, B, SCRATCH) & 0b1111 == 0b1001
        # partial results land in the scratch rows
        and_row, nor_row = SCRATCH
        assert arr.snapshot()[and_row.bank][and_row.row] == 0b1000
        assert arr.snapshot()[nor_row.bank][nor_row.row] == (~0b1110) & arr.geometry.word_mask

    def test_scratch_must_be_distinct(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 1)
        arr.write_word(B, 2)
        with pytest.raises(MappingViolation):
            arr.cim_xnor(A, B, (A, SCRATCH[1]))
        with pytest.raises(MappingViolation):
            arr.cim_xnor(A, B, (SCRATCH[0], SCRATCH[0]))


class TestAdd:
    def test_identity_and_overflow(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = int(rng.integers(0, 1 << 16))
            arr.write_word(A, 0)
            arr.write_word(B, x)
            assert arr.cim_add(A, B, C) == 0
            assert arr.snapshot()[C.bank][C.row] == x
        arr.write_word(A, 0xFFFF)
        arr.write_word(B, 1)
        assert arr.cim_add(A, B, C) == 1
        assert arr.snapshot()[C.bank][C.row] == 0

    def test_sampled_pairs_match_integer_addition(self, zero_noise_model):
        geometry = ArrayGeometry(cols_per_row=8)
        arr = CimArray(geometry=geometry, model=zero_noise_model)
        a_addr, b_addr, d_addr = RowAddress(0, 0), RowAddress(0, 1), RowAddress(0, 2)
        rng = np.random.default_rng(13)
        for _ in range(300):
            a, b = int(rng.integers(0, 256)), int(rng.integers(0, 256))
            arr.write_word(a_addr, a)
            arr.write_word(b_addr, b)
            carry = arr.cim_add(a_addr, b_addr, d_addr)
            assert arr.snapshot()[d_addr.bank][d_addr.row] == (a + b) & 0xFF
            assert carry == (a + b) >> 8

    @pytest.mark.parametrize("width", [1, 8, 63, 64, 65, 128])
    def test_noisy_add_is_the_ripple_carry_of_its_and_and_or_decodes(self, width):
        """The add's one sense decodes AND and OR as twin arrays on twin
        streams read them, and its sum word and carry-out are the ripple
        carry of those decodes, misread columns included."""
        model = CurrentLevelModel(sigma=1.0)  # a column misreads about one time in ten
        geometry = ArrayGeometry(cols_per_row=width, rows_per_bank=4)
        words = np.random.default_rng(width)
        misread = 0
        for trial in range(40):
            a, b = (int.from_bytes(words.bytes(16), "little") & geometry.word_mask
                    for _ in range(2))
            adder, and_twin, or_twin = (
                CimArray(geometry, model, rng=trial_rng(MASTER_SEED, trial)) for _ in range(3))
            for arr in (adder, and_twin, or_twin):
                arr.write_word(A, a)
                arr.write_word(B, b)
            carry = adder.cim_add(A, B, C)
            and_word = and_twin.cim_two_row(CimOp.CIM_AND, A, B)
            or_word = or_twin.cim_two_row(CimOp.CIM_OR, A, B)
            assert and_word & ~or_word == 0
            assert (adder.snapshot()[0][C.row], carry) == ripple_add_oracle(
                and_word, or_word, width)
            assert adder.rng.bit_generator.state == and_twin.rng.bit_generator.state
            misread += (and_word, or_word) != (a & b, a | b)
        assert misread > 0


class TestExhaustiveEquivalence:
    """Column independence makes width-4 exhaustive coverage complete for
    the bitwise ops; the adder is covered exhaustively at width 8 in the
    acceptance suite."""

    def test_all_two_row_ops_over_all_width4_words(self, zero_noise_model):
        geometry = ArrayGeometry(cols_per_row=4)
        arr = CimArray(geometry=geometry, model=zero_noise_model)
        a_addr, b_addr = RowAddress(0, 0), RowAddress(0, 1)
        mask = 0xF
        specs = {
            CimOp.CIM_AND: lambda a, b: a & b,
            CimOp.CIM_OR: lambda a, b: a | b,
            CimOp.CIM_XOR: lambda a, b: a ^ b,
            CimOp.CIM_NAND: lambda a, b: ~(a & b) & mask,
            CimOp.CIM_NOR: lambda a, b: ~(a | b) & mask,
        }
        for a in range(16):
            for b in range(16):
                arr.write_word(a_addr, a)
                arr.write_word(b_addr, b)
                for op, fn in specs.items():
                    assert arr.cim_two_row(op, a_addr, b_addr) == fn(a, b)

    def test_not_over_all_width4_words(self, zero_noise_model):
        geometry = ArrayGeometry(cols_per_row=4)
        arr = CimArray(geometry=geometry, model=zero_noise_model)
        for word in range(16):
            arr.write_word(RowAddress(0, 0), word)
            assert arr.cim_not(RowAddress(0, 0)) == ~word & 0xF


class TestHeatedFailureRates:
    def test_and_on_mixed_column_fails_at_reference_rate(self, model):
        # heated single-column AND over the mixed pair reads 1 at the
        # calibrated hot rate (reference value 4.4% +- 0.6 pp)
        geometry = ArrayGeometry(cols_per_row=1)
        arr = CimArray(geometry=geometry, model=model, rng=trial_rng(MASTER_SEED, 70))
        a, b = RowAddress(0, 0), RowAddress(0, 1)
        arr.write_word(a, 0)
        arr.write_word(b, 1)
        arr.attack = SenseDisturbance(
            disturbance=Collapse(zone_temp=100.0),
            ops=frozenset({CimOp.CIM_AND}),
        )
        failures = sum(arr.cim_two_row(CimOp.CIM_AND, a, b) for _ in range(10_000))
        assert abs(failures / 10_000 - 0.044) <= 0.006

    def test_xnor_flip_rate_composes_two_row_failures(self, model):
        # heated AND step inside the equality check: a mismatched column
        # reads 1 with probability 1 - (1 - p_and_flip) * p_or, where the
        # NOR sense stays natural
        from _oracles import binomial_3sigma, collapse_pair_exceed, gaussian_exceed

        geometry = ArrayGeometry(cols_per_row=1, rows_per_bank=8)
        arr = CimArray(geometry=geometry, model=model, rng=trial_rng(MASTER_SEED, 72))
        a, b = RowAddress(0, 0), RowAddress(0, 1)
        scratch = (RowAddress(0, 2), RowAddress(0, 3))
        arr.write_word(a, 0)
        arr.write_word(b, 1)
        arr.attack = SenseDisturbance(
            disturbance=Collapse(zone_temp=100.0),
            ops=frozenset({CimOp.CIM_AND}),
        )
        trials = 10_000
        flips = sum(arr.cim_xnor(a, b, scratch) for _ in range(trials))
        rho = Collapse(zone_temp=100.0).rho(model.ambient_temp)
        p_and = collapse_pair_exceed(model.pair_levels, 1, model.sigma, 21.45, rho)
        p_or = gaussian_exceed(model.pair_levels[1], model.sigma, 18.6)
        oracle = 1.0 - (1.0 - p_and) * p_or
        assert abs(flips / trials - oracle) <= binomial_3sigma(oracle, trials)

    def test_untargeted_rows_keep_natural_rate(self, model):
        geometry = ArrayGeometry(cols_per_row=1, rows_per_bank=8)
        arr = CimArray(geometry=geometry, model=model, rng=trial_rng(MASTER_SEED, 71))
        hot_a, hot_b = RowAddress(0, 0), RowAddress(0, 1)
        cold_a, cold_b = RowAddress(0, 2), RowAddress(0, 3)
        for addr in (hot_a, cold_a):
            arr.write_word(addr, 0)
        for addr in (hot_b, cold_b):
            arr.write_word(addr, 1)
        arr.attack = SenseDisturbance(
            disturbance=Collapse(zone_temp=100.0),
            rows=frozenset({hot_a, hot_b}),
            ops=frozenset({CimOp.CIM_AND}),
        )
        cold_failures = sum(arr.cim_two_row(CimOp.CIM_AND, cold_a, cold_b) for _ in range(10_000))
        # natural rate 0.5%: 3 binomial sigma at 1e4 trials is ~0.21 pp
        assert abs(cold_failures / 10_000 - 0.005) <= 0.0022


    def test_sixteen_columns_with_one_heated_row_follow_per_column_oracle(self, model):
        # columns cycle through (a, b) = (1,1), (0,1), (1,0), (0,0); only row
        # a is heated, so a column collapses only where a holds an AP cell
        from _oracles import binomial_3sigma

        arr = CimArray(model=model, rng=trial_rng(MASTER_SEED, 73))
        a_word, b_word = 0x5555, 0x3333
        arr.write_word(A, a_word)
        arr.write_word(B, b_word)
        hot = Collapse(zone_temp=100.0)
        arr.attack = SenseDisturbance(
            disturbance=hot, rows=frozenset({A}), ops=frozenset({CimOp.CIM_AND})
        )
        trials = 10_000
        ones = np.zeros(16)
        for _ in range(trials):
            word = arr.cim_two_row(CimOp.CIM_AND, A, B)
            ones += [(word >> k) & 1 for k in range(16)]
        for k in range(16):
            states = (MtjState.from_bit(a_word >> k & 1), MtjState.from_bit(b_word >> k & 1))
            p = analytic.pair_exceed(model, states, arr.sense.i_ref_and, (hot, None))
            assert abs(ones[k] / trials - p) <= binomial_3sigma(p, trials), k


class TestWideWords:
    @pytest.mark.parametrize("width", [65, 100])
    def test_zero_noise_ops_exact_beyond_64_columns(self, zero_noise_model, width):
        geometry = ArrayGeometry(cols_per_row=width)
        arr = CimArray(geometry=geometry, model=zero_noise_model)
        mask = geometry.word_mask
        rng = np.random.default_rng(width)
        pairs = [(mask, 1), (1 << (width - 1), 1 << (width - 1)), (0, mask)]
        pairs += [
            tuple(int.from_bytes(rng.bytes(16), "little") & mask for _ in range(2))
            for _ in range(20)
        ]
        for a, b in pairs:
            arr.write_word(A, a)
            arr.write_word(B, b)
            assert arr.read_word(A) == a
            assert arr.cim_not(A) == ~a & mask
            assert arr.cim_two_row(CimOp.CIM_AND, A, B) == a & b
            assert arr.cim_two_row(CimOp.CIM_OR, A, B) == a | b
            assert arr.cim_two_row(CimOp.CIM_XOR, A, B) == a ^ b
            assert arr.cim_add(A, B, C) == (a + b) >> width
            assert arr.snapshot()[C.bank][C.row] == (a + b) & mask

    def test_wide_word_write_and_read_at_100_columns(self, zero_noise_model):
        arr = CimArray(geometry=ArrayGeometry(cols_per_row=100), model=zero_noise_model)
        word = sum(1 << k for k in range(0, 100, 3))
        arr.write_word(A, word)
        assert arr.snapshot()[A.bank][A.row] == word
        assert arr.read_word(A) == word


class TestSenseSharing:
    def test_ops_consume_one_sample_per_column(self, model):
        # the add decodes AND/OR/XOR from the same sample: its stream
        # consumption equals a plain two-row sense over the same rows
        def consume(op_name):
            arr = CimArray(model=model, rng=trial_rng(77, 0))
            arr.write_word(A, 0x0F0F, record=False)
            arr.write_word(B, 0x00FF, record=False)
            if op_name == "add":
                arr.cim_add(A, B, C)
            else:
                arr.cim_two_row(CimOp.CIM_AND, A, B)
            return arr.rng.normal()

        assert consume("add") == consume("and")


class TestDecodeRules:
    def test_reference_interval_validation(self, model):
        with pytest.raises(ValueError):
            SenseConfig(i_ref_read=9.0).validate_against(model)
        with pytest.raises(ValueError):
            SenseConfig(i_ref_or=20.3).validate_against(model)
        with pytest.raises(ValueError):
            SenseConfig(i_ref_and=22.8).validate_against(model)
        with pytest.raises(ValueError):
            SenseConfig(i_ref_or=21.5, i_ref_and=21.4)

    @settings(max_examples=200)
    @given(
        current=st.floats(min_value=0.0, max_value=40.0),
        or_ref=st.floats(min_value=17.01, max_value=20.19),
        and_ref=st.floats(min_value=20.21, max_value=22.69),
    )
    def test_and_decode_implies_or_decode(self, current, or_ref, and_ref):
        sense = SenseConfig(i_ref_or=or_ref, i_ref_and=and_ref)
        and_bit = sense.decode(CimOp.CIM_AND, current)
        or_bit = sense.decode(CimOp.CIM_OR, current)
        assert not and_bit or or_bit

    @settings(max_examples=200)
    @given(current=st.floats(min_value=0.0, max_value=40.0))
    def test_xor_window_equivalence(self, current):
        sense = SenseConfig()
        xor_bit = sense.decode(CimOp.CIM_XOR, current)
        or_bit = sense.decode(CimOp.CIM_OR, current)
        and_bit = sense.decode(CimOp.CIM_AND, current)
        assert xor_bit == (or_bit and not and_bit)

    def test_rule_table_shapes(self, sense):
        inf = math.inf
        read, or_, and_ = sense.i_ref_read, sense.i_ref_or, sense.i_ref_and
        assert {op: sense.window(op) for op in CimOp if op not in _NO_WINDOW} == {
            CimOp.READ: (read, inf), CimOp.CIM_NOT: (-inf, read),
            CimOp.CIM_AND: (and_, inf), CimOp.CIM_NAND: (-inf, and_),
            CimOp.CIM_OR: (or_, inf), CimOp.CIM_NOR: (-inf, or_),
            CimOp.CIM_XOR: (or_, and_),
        }

    @pytest.mark.parametrize("op,ref,bit", [
        (CimOp.READ, "i_ref_read", 0), (CimOp.CIM_AND, "i_ref_and", 0),
        (CimOp.CIM_OR, "i_ref_or", 0), (CimOp.CIM_NOT, "i_ref_read", 1),
        (CimOp.CIM_NAND, "i_ref_and", 1), (CimOp.CIM_NOR, "i_ref_or", 1),
        (CimOp.CIM_XOR, "i_ref_or", 0), (CimOp.CIM_XOR, "i_ref_and", 1),
    ])
    def test_current_at_a_reference_decodes_on_the_closed_side(self, sense, op, ref, bit):
        # windows are (low, high]: a current exactly at a reference is above
        # no window's low bound and within every window's high bound
        current = getattr(sense, ref)
        assert sense.decode(op, current) == bit
        assert sense.decode(op, np.array([current, current])).tolist() == [bit, bit]

    @pytest.mark.parametrize("op", sorted(_NO_WINDOW, key=lambda op: op.value))
    def test_ops_without_a_window_raise(self, sense, op):
        with pytest.raises(ValueError, match="no single decision window"):
            sense.window(op)
        with pytest.raises(ValueError, match="no single decision window"):
            sense.decode(op, np.array([20.0]))


class TestAttackHook:
    def test_forced_flip_turns_and_into_or(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b01)
        arr.write_word(B, 0b10)
        arr.attack = SenseDisturbance(
            rows=frozenset({A, B}), ops=frozenset({CimOp.CIM_AND}), force_flip=True
        )
        assert arr.cim_two_row(CimOp.CIM_AND, A, B) == 0b11  # OR semantics
        assert arr.cim_two_row(CimOp.CIM_OR, A, B) == 0b11   # untargeted op unchanged

    def test_rows_outside_zone_unaffected(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.write_word(A, 0b01)
        arr.write_word(B, 0b10)
        arr.write_word(C, 0b01)
        arr.write_word(D, 0b10)
        arr.attack = SenseDisturbance(
            rows=frozenset({A, B}), ops=frozenset({CimOp.CIM_AND}), force_flip=True
        )
        assert arr.cim_two_row(CimOp.CIM_AND, C, D) == 0  # outside the heated zone

    def test_collapse_hook_heats_only_targeted_rows(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        arr.rng = trial_rng(MASTER_SEED, 6)
        arr.write_word(A, 0b0)
        arr.write_word(B, 0b1)
        arr.attack = SenseDisturbance(
            disturbance=Collapse(a=0.0, b=0.0, zone_temp=100.0),  # rho = 1
            rows=frozenset({A}),
            ops=frozenset({CimOp.CIM_AND}),
        )
        # the AP cell in row A collapses; pair reads at the top level
        assert arr.cim_two_row(CimOp.CIM_AND, A, B) & 1 == 1

    @pytest.mark.parametrize("words", [(0x0000, 0x0000), (0xFFFF, 0x0000), (0xFFFF, 0xFFFF)])
    def test_fully_heated_mean_shift_senses_as_the_pair_sampler(self, model, words):
        shift = MeanShift(0.5, 1.0, 1.5)
        arr = CimArray(model=model, rng=trial_rng(MASTER_SEED, 12))
        arr.write_word(A, words[0])
        arr.write_word(B, words[1])
        arr.attack = SenseDisturbance(disturbance=shift)
        got = arr.cim_two_row(CimOp.CIM_AND, A, B)

        ref = trial_rng(MASTER_SEED, 12)
        pair = tuple(MtjState.from_bit(w & 1) for w in words)
        currents = sample_pair_current(pair, model, shift, ref, size=16)
        want = sum(1 << k for k, bit in enumerate(currents > arr.sense.i_ref_and) if bit)
        assert got == want
        assert arr.rng.bit_generator.state == ref.bit_generator.state

    def test_mean_shift_on_one_operand_row_is_rejected(self, model):
        arr = CimArray(model=model, rng=trial_rng(MASTER_SEED, 13))
        arr.write_word(A, 0x00FF)
        arr.write_word(B, 0x0F0F)
        arr.attack = SenseDisturbance(
            disturbance=MeanShift(0.5, 1.0, 1.5),
            rows=frozenset({A}),
            ops=frozenset({CimOp.CIM_AND}),
        )
        with pytest.raises(ValueError, match="both operand rows"):
            arr.cim_two_row(CimOp.CIM_AND, A, B)
        arr.cim_two_row(CimOp.CIM_OR, A, B)  # the attack does not match OR senses
        arr.cim_not(A)    # a lone heated row is fully heated: single cells unchanged


class TestHexDump:
    def test_round_trip(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        rng = np.random.default_rng(17)
        for row in range(arr.geometry.rows_per_bank):
            arr.write_word(RowAddress(0, row), int(rng.integers(0, 1 << 16)))
        dump = io.StringIO()
        arr.export_hex(dump)
        other = make_array(zero_noise_model)
        other.import_hex(io.StringIO(dump.getvalue()))
        assert other.snapshot() == arr.snapshot()

    def test_row_count_mismatch_rejected(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        with pytest.raises(OutOfBounds):
            arr.import_hex(io.StringIO("0000\nFFFF\n"))

    def test_wide_word_rejected(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        lines = "\n".join(["0000"] * 63 + ["10000"])
        with pytest.raises(OutOfBounds):
            arr.import_hex(io.StringIO(lines + "\n"))

    def test_wide_word_names_its_line_before_the_row_count(self, zero_noise_model):
        arr = make_array(zero_noise_model)
        with pytest.raises(OutOfBounds, match=r"^hex dump line 3: word 0x1FFFF wider than 16 bits$"):
            arr.import_hex(io.StringIO("# header\n0000\n1ffff\n"))

    @pytest.mark.parametrize("source,target", [
        (ArrayGeometry(banks=2, rows_per_bank=32), ArrayGeometry(banks=1, rows_per_bank=64)),
        (ArrayGeometry(cols_per_row=16), ArrayGeometry(cols_per_row=8)),
    ], ids=["2x32 into 1x64", "16 columns into 8"])
    def test_header_of_another_geometry_rejected(self, zero_noise_model, source, target):
        # every word is zero, so it fits both geometries: only the header differs
        dump = io.StringIO()
        make_array(zero_noise_model, geometry=source).export_hex(dump)
        header = dump.getvalue().splitlines()[0][2:]
        with pytest.raises(OutOfBounds, match=(
            rf"^hex dump line 1: dump geometry {header} does not match the array's "
            rf"banks={target.banks} rows_per_bank={target.rows_per_bank} "
            rf"cols_per_row={target.cols_per_row}$"
        )):
            make_array(zero_noise_model, geometry=target).import_hex(io.StringIO(dump.getvalue()))

    def test_matching_header_and_other_comments_load(self, zero_noise_model):
        arr = make_array(zero_noise_model, geometry=ArrayGeometry(rows_per_bank=2))
        arr.import_hex(io.StringIO(
            "# banks=1 rows_per_bank=2 cols_per_row=16\n# banks=9\n00FF\nABCD\n"
        ))
        assert arr.snapshot() == ((0x00FF, 0xABCD),)
