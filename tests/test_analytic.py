import math

import pytest

from spincim.analytic import normal_tail, pair_exceed, wilson_interval
from spincim.device import (
    Collapse,
    MeanShift,
    MtjState,
    parse_pair,
    sample_single_current,
    trial_rng,
)

from _oracles import binomial_3sigma, q
from conftest import MASTER_SEED


class TestNormalTail:
    def test_matches_erfc_identity(self):
        for z in (-3.0, -1.0, 0.0, 0.5, 2.5758293035489004):
            assert normal_tail(z) == pytest.approx(q(z), rel=1e-14)
        assert normal_tail(0.0) == 0.5

    def test_symmetry(self):
        assert normal_tail(-1.7) + normal_tail(1.7) == pytest.approx(1.0)


class TestOneCellExceed:
    def test_read_misread_probability(self, model):
        # stored 0 sensed above the read reference
        p = pair_exceed(model, (MtjState.AP,), 12.75)
        assert p == pytest.approx(q(2.75 / model.sigma), rel=1e-12)
        # stored 1 sensed below: complement over the same margin
        p1 = pair_exceed(model, (MtjState.P,), 12.75)
        assert 1.0 - p1 == pytest.approx(q(2.75 / model.sigma), rel=1e-9)

    def test_collapse_mixes_the_two_levels(self, model):
        dist = Collapse(zone_temp=100.0)
        rho = dist.rho(model.ambient_temp)
        expected = (1 - rho) * q((12.75 - 10.0) / model.sigma) + rho * (
            1 - q((15.5 - 12.75) / model.sigma)
        )
        assert pair_exceed(model, (MtjState.AP,), 12.75, dist) == pytest.approx(expected)
        # parallel cells ignore the disturbance entirely
        assert pair_exceed(model, (MtjState.P,), 12.75, dist) == pair_exceed(
            model, (MtjState.P,), 12.75
        )

    def test_monte_carlo_agreement(self, model):
        dist = Collapse(zone_temp=100.0)
        n = 50_000
        samples = sample_single_current(
            MtjState.AP, model, dist, trial_rng(MASTER_SEED, 80), size=n
        )
        emp = float((samples > 12.75).mean())
        oracle = pair_exceed(model, (MtjState.AP,), 12.75, dist)
        assert abs(emp - oracle) <= binomial_3sigma(oracle, n)

    def test_zero_sigma_step(self, zero_noise_model):
        assert pair_exceed(zero_noise_model, (MtjState.P,), 12.75) == 1.0
        assert pair_exceed(zero_noise_model, (MtjState.AP,), 12.75) == 0.0


class TestPairExceedPerCell:
    def test_distinct_rates_per_cell(self, model):
        # two heated AP cells with different collapse rates: the closed form
        # enumerates the four collapse combinations
        hot = Collapse(a=math.log(0.3), b=0.0, zone_temp=20.0)
        warm = Collapse(a=math.log(0.1), b=0.0, zone_temp=20.0)
        got = pair_exceed(model, parse_pair("AP,AP"), 21.45, (hot, warm))
        lad, s = model.pair_levels, model.sigma
        expected = (
            0.7 * 0.9 * q((21.45 - lad[0]) / s)
            + (0.3 * 0.9 + 0.7 * 0.1) * q((21.45 - lad[1]) / s)
            + 0.3 * 0.1 * q((21.45 - lad[2]) / s)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mean_shift_branch(self, model):
        shift = MeanShift(0.2, 0.4, 0.6)
        got = pair_exceed(model, parse_pair("P,P"), 21.45, shift)
        assert got == pytest.approx(q((21.45 - 23.3) / model.sigma))


class TestWilson:
    def test_interval_contains_rate(self):
        lo, hi = wilson_interval(44, 1000)
        assert lo < 0.044 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(100, 100)
        assert hi == pytest.approx(1.0) and lo < 1.0

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


def test_predict_labels_names_classes(zero_noise_model):
    from spincim.sca import STANDARD_CLASSES, synthesize_dataset, train
    from spincim.cost import CostTable

    data = synthesize_dataset(
        STANDARD_CLASSES, CostTable(), False, 2, 0.0, 0.0, trial_rng(MASTER_SEED, 81)
    )
    classifier = train(data, STANDARD_CLASSES)

    def labels(features):
        return [classifier.classes[i] for i in classifier.predict(features)]

    assert labels([[4.4, 233.3]]) == ["Write1"]
    assert labels([[0.6, 8.0]]) == ["Read0"]
