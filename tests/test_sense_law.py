"""``device.column_law`` and the rules that every reader of the law shares.

Per-row disturbance tuples must have one entry per sensed row wherever a
sense is described (samplers and oracles alike), a one-cell per-row tuple
heats the cell in the oracle as in the sampler, and every law parameter must
be finite.
"""
import math

import numpy as np
import pytest

from spincim.analytic import law_exceed, pair_exceed
from spincim.array import SenseConfig
from spincim.device import (
    Collapse,
    CurrentLevelModel,
    MeanShift,
    MtjState,
    column_law,
    heated,
    pair_sampler,
    sample_columns,
    sample_pair_current,
    sample_single_current,
    trial_rng,
)

from _oracles import binomial_3sigma, gaussian_exceed
from conftest import MASTER_SEED

AP, P = MtjState.AP, MtjState.P
HOT = Collapse(zone_temp=100.0)
MODEL = CurrentLevelModel()


def _rng():
    return trial_rng(MASTER_SEED, 0)


# every public reader of a pair sense, called with a per-row tuple
PAIR_READERS = {
    "column_law": lambda t: column_law(2, MODEL, t),
    "pair_exceed": lambda t: pair_exceed(MODEL, (AP, AP), 21.45, t),
    "pair_sampler": lambda t: pair_sampler((AP, AP), MODEL, t)(_rng()),
    "sample_pair_current": lambda t: sample_pair_current((AP, AP), MODEL, t, _rng()),
    "sample_pair_current size": lambda t: sample_pair_current((AP, AP), MODEL, t, _rng(), 4),
    "sample_columns": lambda t: sample_columns((np.zeros(4),) * 2, MODEL, t, _rng()),
}
SINGLE_READERS = {
    "column_law": lambda t: column_law(1, MODEL, t),
    "pair_exceed one cell": lambda t: pair_exceed(MODEL, (AP,), 12.75, t),
    "sample_single_current": lambda t: sample_single_current(AP, MODEL, t, _rng()),
    "sample_single_current size": lambda t: sample_single_current(AP, MODEL, t, _rng(), 4),
    "sample_columns": lambda t: sample_columns((np.zeros(4),), MODEL, t, _rng()),
}


@pytest.mark.parametrize("length", [1, 3])
@pytest.mark.parametrize("reader", PAIR_READERS.values(), ids=PAIR_READERS)
def test_pair_readers_refuse_a_tuple_of_the_wrong_length(reader, length):
    with pytest.raises(ValueError, match=f"{length} per-row disturbances for 2 rows"):
        reader((HOT,) * length)


@pytest.mark.parametrize("length", [2, 3])
@pytest.mark.parametrize("reader", SINGLE_READERS.values(), ids=SINGLE_READERS)
def test_single_readers_refuse_a_tuple_of_the_wrong_length(reader, length):
    with pytest.raises(ValueError, match=f"{length} per-row disturbances for 1 rows"):
        reader((HOT,) * length)


@pytest.mark.parametrize("readers", [PAIR_READERS, SINGLE_READERS], ids=["pair", "single"])
def test_readers_accept_a_tuple_of_the_right_length(readers):
    rows = 2 if readers is PAIR_READERS else 1
    for reader in readers.values():
        reader((HOT,) + (None,) * (rows - 1))


def test_one_cell_tuple_heats_the_oracle_as_it_heats_the_sampler():
    ref, n = SenseConfig().i_ref_read, 200_000
    per_row = pair_exceed(MODEL, (AP,), ref, (HOT,))
    assert per_row == pair_exceed(MODEL, (AP,), ref, HOT)
    rho = HOT.rho(MODEL.ambient_temp)
    cold, warm = (gaussian_exceed(mean, MODEL.sigma, ref) for mean in MODEL.single_levels)
    assert per_row == pytest.approx((1 - rho) * cold + rho * warm, rel=1e-12)
    samples = sample_single_current(AP, MODEL, (HOT,), trial_rng(MASTER_SEED, 1), size=n)
    assert abs(float(np.mean(samples > ref)) - per_row) < binomial_3sigma(per_row, n)


class TestLaw:
    """What a sense reads: the level table and collapse rates of its law, and
    through :func:`law_exceed` at zero noise the level a column reads."""

    def test_single_cell_reads_the_single_levels(self):
        levels, collapses = column_law(1, MODEL, HOT)
        assert (levels, collapses) == (MODEL.single_levels, ((0, HOT.rho(20.0)),))
        # a cold AP cell reads level 0, one level up when it collapses
        assert law_exceed((levels, collapses), (0,), 12.75, 0.0) == HOT.rho(20.0)
        # a mean shift moves pair levels only; P cells never collapse
        shifted = column_law(1, MODEL, MeanShift(0.1, 0.2, 0.3))
        assert shifted == (MODEL.single_levels, ())
        assert law_exceed(shifted, (1,), 12.75, 0.0) == 1.0
        assert law_exceed((levels, collapses), (1,), 12.75, MODEL.sigma) == law_exceed(
            column_law(1, MODEL), (1,), 12.75, MODEL.sigma)

    def test_pair_reads_the_ladder_shifted_by_a_bare_mean_shift(self):
        shift = MeanShift(0.1, 0.2, 0.3)
        levels, collapses = column_law(2, MODEL, shift)
        assert levels == tuple(m + s for m, s in zip(MODEL.pair_levels, shift.shifts))
        assert collapses == ()
        # one P cell reads level 1 of either ladder, whichever row holds it
        assert [law_exceed((levels, ()), (0, 1), ref, 0.0) for ref in levels[:2]] == [1.0, 0.0]
        assert column_law(2, MODEL, None) == (MODEL.pair_levels, ())
        cold = column_law(2, MODEL)
        assert [law_exceed(cold, (1, 0), ref, 0.0) for ref in MODEL.pair_levels[:2]] == [1.0, 0.0]

    def test_rates_follow_row_order_of_the_ap_cells(self):
        half = Collapse(a=math.log(0.5), b=0.0)
        assert column_law(2, MODEL, (HOT, half))[1] == ((0, HOT.rho(20.0)), (1, 0.5))
        assert column_law(2, MODEL, (None, half))[1] == ((1, 0.5),)
        # the P cell of row 0 reads level 1 and only row 1's AP cell collapses
        law = column_law(2, MODEL, (HOT, half))
        assert law[0] == MODEL.pair_levels
        assert law_exceed(law, (1, 0), MODEL.pair_levels[1], 0.0) == 0.5

    @pytest.mark.parametrize("rows", [0, 3], ids=["none", "three"])
    def test_a_sense_reads_one_cell_or_two(self, rows):
        with pytest.raises(ValueError, match="one cell or two"):
            column_law(rows, MODEL)


@pytest.mark.parametrize("make", [
    lambda: Collapse(a=math.nan),
    lambda: Collapse(b=math.nan, zone_temp=50.0),
    lambda: Collapse(zone_temp=math.inf),
    lambda: CurrentLevelModel(sigma=math.nan),
    lambda: CurrentLevelModel(sigma=math.inf),
    lambda: CurrentLevelModel(ambient_temp=math.nan),
    lambda: CurrentLevelModel(ambient_temp=-math.inf),
    lambda: CurrentLevelModel(single_levels=(10.0, math.inf)),
    lambda: CurrentLevelModel(single_levels=(math.nan, 15.5)),
    lambda: CurrentLevelModel(pair_levels=(17.0, 20.2, math.inf)),
    lambda: CurrentLevelModel(pair_levels=(17.0, math.nan, 22.7)),
    lambda: MeanShift(0.1, 0.2, math.inf),
    lambda: MeanShift(math.nan, 0.2, 0.3),
    lambda: MeanShift(0.1, 0.2, 0.3, zone_temp=math.inf),
    lambda: heated(MeanShift(0.1, 0.2, 0.3), math.nan, MODEL),
    lambda: heated(Collapse(), math.nan, MODEL),
], ids=["a nan", "b nan", "zone inf", "sigma nan", "sigma inf", "ambient nan",
        "ambient -inf", "single level inf", "single level nan", "pair level inf",
        "pair level nan", "shift inf", "shift nan", "shift zone inf",
        "heated shift nan", "heated collapse nan"])
def test_non_finite_law_parameter_raises(make):
    with pytest.raises(ValueError, match="finite"):
        make()


@pytest.mark.parametrize("sigma", [MODEL.sigma, 1.7, 0.0])
@pytest.mark.parametrize("seed", range(5))
def test_four_pair_columns_draw_as_four_scalar_pair_senses(seed, sigma):
    # truth-table senses its four logic pairs as the columns of one two-row sense
    model = CurrentLevelModel(sigma=sigma)
    logic = ((0, 0), (0, 1), (1, 0), (1, 1))
    ours, ref = trial_rng(seed, 0), trial_rng(seed, 0)
    got = sample_columns(tuple(zip(*logic)), model, None, ours).tolist()
    want = [
        pair_sampler(tuple(map(MtjState.from_bit, bits)), model)(ref) for bits in logic
    ]
    assert [v.hex() for v in got] == [float(v).hex() for v in want]
    assert ours.bit_generator.state == ref.bit_generator.state
