import io
import math

import numpy as np
import pytest

from spincim.array import TWO_ROW_OPS, ArrayGeometry, CimArray, CimOp, RowAddress
from spincim.config import build_cost_table, load_config
from spincim.cost import (
    Channel,
    CostMode,
    CostTable,
    ExecutionTrace,
    OpClass,
    OpCost,
    STANDARD_COSTS,
    cost_of,
    count_bus_transfers,
    word_read_cost,
    word_write_cost,
)
from spincim.errors import UnknownOp

from _oracles import reference_trace_csv

PER_BIT = CostTable(mode=CostMode.PER_BIT_WRITES)
# floats that print unlike their neighbours: signed zero, the least subnormal,
# a float whose sums lose the small part, and a sum that repr writes in full
ODD = (-0.0, 5e-324, 1e16, 0.30000000000000004, 0.0)


def _odd_table(mode: CostMode) -> CostTable:
    """Every row of both sides from ODD, the delay and energy of each row apart."""
    def side(kinds):
        return {kind: OpCost(ODD[k % 5], ODD[(k + 2) % 5]) for k, kind in enumerate(kinds)}
    return CostTable(standard=side(list(OpClass)[:4]), enhanced=side(OpClass), mode=mode)


def _csv(trace: ExecutionTrace) -> str:
    out = io.StringIO()
    trace.to_csv(out)
    return out.getvalue()


class TestCostLookups:
    def test_standard_write_one(self):
        cost = cost_of(OpClass.WRITE1, CostTable(), enhanced=False)
        assert (cost.delay_ns, cost.energy_fj) == (4.4, 233.3)

    def test_enhanced_add(self):
        cost = cost_of(OpClass.CIM_ADD, CostTable(), enhanced=True)
        assert (cost.delay_ns, cost.energy_fj) == (0.53, 26.32)

    def test_standard_table_lacks_compute_rows(self):
        with pytest.raises(UnknownOp):
            cost_of(OpClass.CIM_ADD, CostTable(), enhanced=False)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            OpCost(-1.0, 0.0)

    def test_bit_resolved_write_energy(self):
        # 0xFF00: eight ones and eight zeros through the standard rows
        kind, cost = word_write_cost(0xFF00, 16, PER_BIT, enhanced=False)
        assert cost.energy_fj == pytest.approx(8 * 233.3 + 8 * 191.4)
        assert cost.energy_fj == pytest.approx(3397.6)
        assert cost.delay_ns == 4.4  # slowest bit, parallel bit-lines

    def test_bit_resolved_write_all_zeros_duration(self):
        _, cost = word_write_cost(0x0000, 16, PER_BIT, enhanced=False)
        assert cost.delay_ns == 3.3
        assert cost.energy_fj == pytest.approx(16 * 191.4)

    def test_per_word_write_majority_rule(self):
        table = CostTable()
        kind, cost = word_write_cost(0xFFFE, 16, table, enhanced=False)
        assert kind is OpClass.WRITE1 and cost.energy_fj == 233.3
        kind, cost = word_write_cost(0x0001, 16, table, enhanced=False)
        assert kind is OpClass.WRITE0
        # ties resolve to the `1` row
        kind, _ = word_write_cost(0x00FF, 16, table, enhanced=False)
        assert kind is OpClass.WRITE1

    def test_word_read_majority_rule(self):
        kind, cost = word_read_cost(0x0003, 16, CostTable(), enhanced=False)
        assert kind is OpClass.READ0
        assert cost.energy_fj == 7.669


class TestTrace:
    def test_events_non_overlapping_and_energy_identity(self):
        trace = ExecutionTrace()
        trace.record(OpClass.READ1, OpCost(0.6, 8.611), Channel.BUS)
        trace.record(OpClass.WRITE0, OpCost(3.3, 191.4), Channel.BUS)
        trace.record(OpClass.CIM_ADD, OpCost(0.53, 26.32), Channel.IN_MEMORY)
        starts = trace.start_ns
        ends = [start + trace.rows[row][1].delay_ns
                for start, row in zip(trace.start_ns, trace.event_rows)]
        assert all(s2 >= e1 for e1, s2 in zip(ends, starts[1:]))
        assert trace.total_energy() == pytest.approx(8.611 + 191.4 + 26.32)
        assert trace.end_ns == pytest.approx(0.6 + 3.3 + 0.53)

    def test_total_energy_is_a_plain_running_sum(self):
        """1.0 + 1e16 rounds to 1e16, and so does adding the last 1.0: added
        left to right the total is exactly 1e16 on every Python, where a
        compensated sum (``sum`` of floats from Python 3.12) gives 1e16 + 2.
        With no event it is the float 0.0, as ``end_ns`` is."""
        trace = ExecutionTrace()
        assert repr(trace.total_energy()) == repr(trace.end_ns) == "0.0"
        for energy in (1.0, 1e16, 1.0):
            trace.record(OpClass.READ1, OpCost(0.6, energy), Channel.BUS)
        assert trace.total_energy() == 1e16
        assert math.fsum([1.0, 1e16, 1.0]) == 1.0000000000000002e16

    def test_bus_transfer_counting(self):
        trace = ExecutionTrace()
        assert count_bus_transfers(trace) == 0
        trace.record(OpClass.READ1, OpCost(0.6, 8.611), Channel.BUS)
        trace.record(OpClass.CIM_AND, OpCost(0.55, 22.3), Channel.IN_MEMORY)
        trace.record(OpClass.WRITE1, OpCost(4.4, 233.3), Channel.BUS)
        assert count_bus_transfers(trace) == 2

    def test_csv_columns(self):
        trace = ExecutionTrace()
        trace.record(OpClass.READ1, OpCost(0.6, 8.611), Channel.BUS)
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "kind,start_ns,duration_ns,energy_fJ,channel"
        assert lines[1].startswith("Read1,0.0,0.6,8.611,Bus")


class TestTraceCsv:
    """``to_csv`` writes the bytes of one ``csv.writer`` row per event."""

    @pytest.mark.parametrize("mode", list(CostMode))
    def test_every_op_on_odd_floats(self, zero_noise_model, mode):
        table, width = _odd_table(mode), 16
        trace, want = ExecutionTrace(), []
        array = CimArray(ArrayGeometry(rows_per_bank=5, cols_per_row=width), zero_noise_model,
                         cost_table=table, recorder=trace)
        a, b, s1, s2, dest = (RowAddress(0, row) for row in range(5))
        two_row = sorted(TWO_ROW_OPS, key=lambda op: op.value)
        for word in (0xFFFF, 0x0000, 0x00FF, 0x0F0F, 0x0001):
            for addr, data in ((a, word), (b, word ^ 0x3C3C)):
                array.write_word(addr, data)
                want.append((*word_write_cost(data, width, table), Channel.BUS))
            array.cim_xnor(a, b, (s1, s2))
            for op in two_row:
                array.cim_two_row(op, a, b)
            array.cim_not(a)
            array.cim_add(a, b, dest)
            ops = [CimOp.CIM_AND, CimOp.CIM_NOR, *two_row, CimOp.CIM_NOT, CimOp.CIM_ADD]
            want += [(OpClass(op.value), cost_of(OpClass(op.value), table), Channel.IN_MEMORY)
                     for op in ops]
            read = array.read_word(dest)
            want.append((*word_read_cost(read, width, table), Channel.BUS))
        assert _csv(trace) == reference_trace_csv(want)
        assert len(trace.rows) <= 11 + (width + 1 if mode is CostMode.PER_BIT_WRITES else 0)

    def test_rows_that_print_apart_stay_apart(self):
        events = [(OpClass.WRITE0, OpCost(delay, energy), Channel.BUS)
                  for delay, energy in ((0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0))]
        trace = ExecutionTrace()
        for event in events * 2:
            trace.record(*event)
        assert _csv(trace) == reference_trace_csv(events * 2)
        assert len(trace.rows) == 4  # one per cost recorded, each recorded twice

    @pytest.mark.parametrize("width", [1, 16, 64, 70])
    @pytest.mark.parametrize("odd", [False, True], ids=["shipped", "odd"])
    def test_per_bit_words_of_every_popcount(self, zero_noise_model, width, odd):
        table = _odd_table(CostMode.PER_BIT_WRITES) if odd else PER_BIT
        trace, want = ExecutionTrace(), []
        array = CimArray(ArrayGeometry(rows_per_bank=1, cols_per_row=width), zero_noise_model,
                         cost_table=table, enhanced=False, recorder=trace)
        rng, addr = np.random.default_rng(width), RowAddress(0, 0)
        for ones in range(width + 1):
            spread = sum(1 << int(k) for k in rng.permutation(width)[:ones])
            for word in ((1 << ones) - 1, spread):
                array.write_word(addr, word)
                assert array.read_word(addr) == word
                want += [(*word_write_cost(word, width, table, False), Channel.BUS),
                         (*word_read_cost(word, width, table, False), Channel.BUS)]
        assert _csv(trace) == reference_trace_csv(want)
        assert len(trace.rows) <= width + 3


def test_writers_accept_path_objects(tmp_path):
    trace = ExecutionTrace()
    trace.record(OpClass.READ1, OpCost(0.6, 8.611), Channel.BUS)
    trace.to_csv(tmp_path / "trace.csv")
    buf = io.StringIO()
    trace.to_csv(buf)
    assert (tmp_path / "trace.csv").read_bytes() == buf.getvalue().encode()
    array = CimArray(geometry=ArrayGeometry(rows_per_bank=4))
    array.write_word(RowAddress(0, 2), 0xBEEF)
    array.export_hex(tmp_path / "words.hex")
    copy = CimArray(geometry=ArrayGeometry(rows_per_bank=4))
    copy.import_hex(tmp_path / "words.hex")
    assert copy.snapshot() == array.snapshot()


class TestDefaultsRoundTrip:
    def test_tables_round_trip_bit_exactly(self):
        table = CostTable()
        rebuilt = build_cost_table({"cost": table.as_dict()})
        for enhanced in (False, True):
            side, rebuilt_side = table.side(enhanced), rebuilt.side(enhanced)
            assert set(side) == set(rebuilt_side)
            for kind in side:
                assert side[kind].delay_ns == rebuilt_side[kind].delay_ns
                assert side[kind].energy_fj == rebuilt_side[kind].energy_fj

    def test_config_defaults_equal_shipped_tables(self):
        table = build_cost_table(load_config())
        shipped = CostTable()
        assert table.as_dict() == shipped.as_dict()


class TestCostTableReadOnly:
    def test_edit_in_place_raises(self):
        array = CimArray(cost_table=CostTable(), recorder=ExecutionTrace())
        array.write_word(RowAddress(0, 0), 0xFFFF)  # memoises the Write1 row
        for side in (array.cost_table.standard, array.cost_table.enhanced):
            with pytest.raises(TypeError):
                side[OpClass.WRITE1] = OpCost(1.0, 1.0)
            with pytest.raises(TypeError):
                del side[OpClass.WRITE1]
        array.write_word(RowAddress(0, 1), 0xFFFF)
        assert [row[1] for row in array.recorder.rows] == [OpCost(4.40, 244.64)]

    def test_callers_dict_edited_later_does_not_leak_in(self):
        rows = dict(STANDARD_COSTS)
        table = CostTable(standard=rows, enhanced=rows)
        array = CimArray(cost_table=table, recorder=ExecutionTrace(), enhanced=False)
        array.write_word(RowAddress(0, 0), 0xFFFF)
        rows[OpClass.WRITE1] = OpCost(1.0, 1.0)
        array.write_word(RowAddress(0, 1), 0xFFFF)
        for enhanced in (False, True):
            assert cost_of(OpClass.WRITE1, table, enhanced) == OpCost(4.4, 233.3)
        assert [array.recorder.rows[i][1] for i in array.recorder.event_rows] == [
            OpCost(4.4, 233.3)] * 2
        assert table == CostTable(standard=STANDARD_COSTS, enhanced=STANDARD_COSTS)
