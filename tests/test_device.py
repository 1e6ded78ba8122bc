import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincim import (
    CurrentLevelModel,
    Collapse,
    FailureRateTargets,
    MeanShift,
    MtjState,
    NonConvergence,
    calibrate,
    parse_pair,
    sample_columns,
    sample_pair_current,
    sample_single_current,
    trial_rng,
)
from spincim import attack
from spincim.attack import run_trials

from _oracles import binomial_3sigma, collapse_pair_exceed, gaussian_exceed, q
from conftest import MASTER_SEED

FORCED_COLLAPSE = Collapse(a=0.0, b=0.0, zone_temp=100.0)  # rho clamps to 1


class TestSingleCurrent:
    def test_zero_noise_identity(self, zero_noise_model):
        assert sample_single_current(MtjState.P, zero_noise_model) == 15.5
        assert sample_single_current(MtjState.AP, zero_noise_model) == 10.0

    def test_forced_collapse_reads_parallel_level(self, zero_noise_model):
        rng = trial_rng(MASTER_SEED, 0)
        got = sample_single_current(MtjState.AP, zero_noise_model, FORCED_COLLAPSE, rng)
        assert got == zero_noise_model.mu_p

    def test_parallel_cells_never_collapse(self, zero_noise_model):
        rng = trial_rng(MASTER_SEED, 0)
        got = sample_single_current(MtjState.P, zero_noise_model, FORCED_COLLAPSE, rng)
        assert got == zero_noise_model.mu_p

    def test_sample_mean_matches_level(self, model):
        # law of large numbers: the mean of 1e6 draws sits within
        # 3*sigma/sqrt(1e6) of the AP level
        rng = trial_rng(MASTER_SEED, 1)
        samples = sample_single_current(MtjState.AP, model, None, rng, size=1_000_000)
        assert abs(float(samples.mean()) - model.mu_ap) < 3 * model.sigma / 1000.0

    def test_read_misreads_are_vanishing_at_defaults(self, model):
        # AP against the read reference: Q(2.75/sigma) ~ 7e-9, so 1e6 draws
        # should contain no misread at all
        assert q(2.75 / model.sigma) == pytest.approx(7.3e-9, rel=0.1)
        rng = trial_rng(MASTER_SEED, 2)
        samples = sample_single_current(MtjState.AP, model, None, rng, size=1_000_000)
        assert int((samples > 12.75).sum()) == 0


class TestPairCurrent:
    def test_zero_noise_levels(self, zero_noise_model):
        assert sample_pair_current(parse_pair("AP,P"), zero_noise_model) == 20.2
        assert sample_pair_current(parse_pair("P,AP"), zero_noise_model) == 20.2
        assert sample_pair_current(parse_pair("AP,AP"), zero_noise_model) == 17.0
        assert sample_pair_current(parse_pair("P,P"), zero_noise_model) == 22.7

    def test_monotone_in_parallel_count(self, zero_noise_model):
        levels = [
            sample_pair_current(parse_pair(name), zero_noise_model)
            for name in ("AP,AP", "AP,P", "P,P")
        ]
        assert levels == sorted(levels) and len(set(levels)) == 3

    def test_collapse_never_lowers_level(self, zero_noise_model):
        rng = trial_rng(MASTER_SEED, 3)
        dist = Collapse(zone_temp=100.0)
        for name, base in (("AP,AP", 17.0), ("AP,P", 20.2), ("P,P", 22.7)):
            samples = sample_pair_current(
                parse_pair(name), zero_noise_model, dist, rng, size=5000
            )
            assert float(samples.min()) >= base

    def test_collapse_exceedance_matches_oracle(self, model):
        # analytic oracle: rho^2 + 2 rho (1-rho) Q(1.25/sigma) for the
        # double/single collapse paths of an all-antiparallel pair
        dist = Collapse(zone_temp=100.0)
        rho = dist.rho(model.ambient_temp)
        oracle = rho**2 + 2 * rho * (1 - rho) * q(1.25 / model.sigma)
        assert oracle == pytest.approx(0.001939, abs=2e-5)
        rng = trial_rng(MASTER_SEED, 4)
        samples = sample_pair_current(
            parse_pair("AP,AP"), model, dist, rng, size=100_000
        )
        emp = float((samples > 21.45).mean())
        assert abs(emp - oracle) < binomial_3sigma(oracle, 100_000)

    def test_per_cell_disturbance_heats_only_targeted_cell(self, zero_noise_model):
        rng = trial_rng(MASTER_SEED, 5)
        # heated P cell plus unheated AP cell: nothing can collapse
        got = sample_pair_current(
            (MtjState.P, MtjState.AP),
            zero_noise_model,
            (FORCED_COLLAPSE, None),
            rng,
        )
        assert got == 20.2
        # heated AP cell collapses, unheated P cell is stable
        got = sample_pair_current(
            (MtjState.AP, MtjState.P),
            zero_noise_model,
            (FORCED_COLLAPSE, None),
            rng,
        )
        assert got == 22.7

    def test_mean_shift_adds_ladder_shift(self, zero_noise_model):
        shift = MeanShift(0.2, 0.4, 0.6)
        got = [
            sample_pair_current(parse_pair(name), zero_noise_model, shift)
            for name in ("AP,AP", "AP,P", "P,P")
        ]
        assert got == pytest.approx([17.2, 20.6, 23.3])

    def test_column_draw_count_ignores_stored_bits(self, model):
        hot = Collapse(zone_temp=100.0)

        def next_draw(bits_a, bits_b):
            rng = trial_rng(MASTER_SEED, 8)
            sample_columns((bits_a, bits_b), model, (hot, hot), rng)
            return rng.random()

        zeros, ones = np.zeros(16, np.uint8), np.ones(16, np.uint8)
        assert next_draw(zeros, zeros) == next_draw(ones, ones) == next_draw(zeros, ones)

    def test_integer_levels_sample_as_float(self):
        # JSON configs may give levels as integers; noise still adds in float
        model = CurrentLevelModel(mu_ap=10, mu_p=15, mu_ap_ap=17, mu_ap_p=20, mu_p_p=23)
        bits = np.array([0, 1, 0, 1], np.uint8)
        for rows, dist in [
            ((bits,), Collapse(zone_temp=100.0)),
            ((bits, bits[::-1]), Collapse(zone_temp=100.0)),
            ((bits, bits[::-1]), MeanShift(1, 2, 3)),
        ]:
            got = sample_columns(rows, model, dist, trial_rng(MASTER_SEED, 9))
            assert got.dtype == np.float64 and np.isfinite(got).all()

    def test_mean_shift_not_valid_per_cell(self, zero_noise_model):
        with pytest.raises(ValueError):
            sample_pair_current(
                parse_pair("AP,P"),
                zero_noise_model,
                (MeanShift(0.2, 0.4, 0.6), None),
                trial_rng(MASTER_SEED, 0),
            )


class TestDeterminism:
    def test_identical_seeds_identical_sequences(self, model):
        a = sample_pair_current(
            parse_pair("AP,P"), model, Collapse(zone_temp=80.0),
            trial_rng(7, 7), size=1000,
        )
        b = sample_pair_current(
            parse_pair("AP,P"), model, Collapse(zone_temp=80.0),
            trial_rng(7, 7), size=1000,
        )
        assert np.array_equal(a, b)

    def test_trial_streams_independent_of_thread_count(self, model):
        dist = Collapse(zone_temp=100.0)

        def one(_i, rng):
            return sample_pair_current(parse_pair("AP,P"), model, dist, rng) > 21.45

        counts = {
            threads: run_trials(4000, MASTER_SEED, one, threads=threads)
            for threads in (1, 2, 5)
        }
        assert len(set(counts.values())) == 1

    @pytest.mark.parametrize("threads,trials", [(8, 3), (2, 5), (5, 5), (4, 1)])
    def test_pool_capped_at_trial_count(self, monkeypatch, threads, trials):
        pools = []

        class RecordingPool:  # runs the chunks in this thread, starts none
            def __init__(self, max_workers):
                self.workers, self.spans = max_workers, []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, spans):
                self.spans = list(spans)
                return [fn(span) for span in self.spans]

        monkeypatch.setattr(attack, "ThreadPoolExecutor", RecordingPool)
        count = run_trials(trials, MASTER_SEED, lambda i, _rng: i % 2 == 0, threads)
        assert count == (trials + 1) // 2
        workers = min(threads, trials)
        if workers == 1:
            assert not pools
            return
        (pool,) = pools
        assert pool.workers == workers and len(pool.spans) <= workers
        assert [i for lo, hi in pool.spans for i in range(lo, hi)] == list(range(trials))

    def test_failures_monotone_in_zone_temperature(self, model):
        # common random numbers per trial: a trial that fails cold also
        # fails at any hotter zone temperature
        for i in range(500):
            rng20 = trial_rng(MASTER_SEED, i)
            rng50 = trial_rng(MASTER_SEED, i)
            rng100 = trial_rng(MASTER_SEED, i)
            pair = parse_pair("AP,P")
            f = [
                sample_pair_current(pair, model, Collapse(zone_temp=t), r) > 21.45
                for t, r in ((20.0, rng20), (50.0, rng50), (100.0, rng100))
            ]
            assert f[0] <= f[1] <= f[2]


class TestValidation:
    def test_level_ordering_enforced(self):
        with pytest.raises(ValueError):
            CurrentLevelModel(mu_ap=16.0)
        with pytest.raises(ValueError):
            CurrentLevelModel(mu_ap_p=16.9)
        with pytest.raises(ValueError):
            CurrentLevelModel(sigma=-0.1)

    def test_mean_shift_ordering_enforced(self):
        with pytest.raises(ValueError):
            MeanShift(0.4, 0.2, 0.6)
        with pytest.raises(ValueError):
            MeanShift(0.0, 0.2, 0.4)

    def test_collapse_probability_clamped_and_floored(self):
        assert Collapse(a=5.0, b=0.0, zone_temp=100.0).rho(20.0) == 1.0
        # zone below ambient floors dT at zero
        cold = Collapse(a=-2.0, b=0.1, zone_temp=0.0)
        assert cold.rho(20.0) == pytest.approx(math.exp(-2.0))

    def test_collapse_probability_saturates_without_overflow(self):
        # a + b*dT far beyond the float exponent range still gives rho = 1
        assert Collapse(zone_temp=20000.0).rho(20.0) == 1.0
        assert Collapse(a=0.0, b=1e6, zone_temp=1e6).rho(20.0) == 1.0

    def test_stochastic_sampling_requires_generator(self, model):
        with pytest.raises(ValueError):
            sample_single_current(MtjState.AP, model)
        with pytest.raises(ValueError):
            sample_pair_current(parse_pair("AP,P"), model)


class TestCalibrate:
    def test_sigma_inverts_natural_rate(self):
        # Q(1.25/sigma) = 0.005  =>  sigma = 1.25 / 2.5758...
        result = calibrate()
        assert result.sigma == pytest.approx(0.485281, abs=5e-6)
        assert q(1.25 / result.sigma) == pytest.approx(0.005, rel=1e-9)

    def test_fit_matches_per_point_log_linear_oracle(self):
        # oracle: solve rho + (1-rho) Q(1.25/sigma) = target at 50 and 100 C,
        # then fit log rho = a + b dT through the two points
        sigma = 1.25 / 2.5758293035489004
        qn = q(1.25 / sigma)
        rho30 = (0.006 - qn) / (1 - qn)
        rho80 = (0.044 - qn) / (1 - qn)
        b = (math.log(rho80) - math.log(rho30)) / 50.0
        a = math.log(rho30) - 30.0 * b
        assert (a, b) == (pytest.approx(-9.1009, abs=1e-3), pytest.approx(0.073271, abs=1e-5))
        result = calibrate()
        assert result.a == pytest.approx(a, rel=0.01)
        assert result.b == pytest.approx(b, rel=0.01)

    def test_result_matches_shipped_defaults_within_one_percent(self, model):
        result = calibrate()
        assert result.sigma == pytest.approx(model.sigma, rel=0.01)
        assert result.a == pytest.approx(Collapse().a, rel=0.01)
        assert result.b == pytest.approx(Collapse().b, rel=0.01)

    def test_fitted_rates_reproduce_targets(self):
        result = calibrate()
        assert result.fitted_rates["AP,P@50C"] == pytest.approx(0.006, abs=5e-4)
        assert result.fitted_rates["AP,P@100C"] == pytest.approx(0.044, abs=1e-3)
        # documented model residual: the hot all-antiparallel cell fits ~0.19%
        assert result.fitted_rates["AP,AP@100C"] == pytest.approx(0.0019, abs=2e-4)

    def test_all_zero_targets_degenerate(self):
        with pytest.raises(NonConvergence):
            calibrate(FailureRateTargets(natural=0.0, heated_ap_p={50.0: 0.0, 100.0: 0.0},
                                         heated_ap_ap={50.0: 0.0, 100.0: 0.0}))

    def test_heated_rate_below_natural_rejected(self):
        with pytest.raises(NonConvergence):
            calibrate(FailureRateTargets(heated_ap_p={50.0: 0.001, 100.0: 0.044}))


# statistical properties run derandomized: the 3 sigma band is honest only
# when the sampled streams are fixed from run to run
@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    base=st.integers(min_value=0, max_value=2),
    rho=st.floats(min_value=0.0, max_value=0.5),
    ref_frac=st.floats(min_value=0.05, max_value=0.95),
    stream=st.integers(min_value=0, max_value=10_000),
)
def test_mc_exceedance_tracks_closed_form(base, rho, ref_frac, stream):
    """Empirical exceedance lies within 3 binomial sigma of the closed form."""
    model = CurrentLevelModel()
    ref = 17.0 + ref_frac * (22.7 - 17.0)
    # invert rho = exp(a) at dT = 0 deterministically
    dist = Collapse(a=math.log(rho) if rho > 0 else -745.0, b=0.0, zone_temp=20.0)
    pair = [("AP,AP"), ("AP,P"), ("P,P")][base]
    n = 4000
    samples = sample_pair_current(
        parse_pair(pair), model, dist, trial_rng(99, stream), size=n
    )
    emp = float((samples > ref).mean())
    oracle = collapse_pair_exceed(model.pair_ladder, base, model.sigma, ref, rho)
    assert abs(emp - oracle) <= binomial_3sigma(oracle, n) + 1e-9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    base=st.integers(min_value=0, max_value=2),
    alpha=st.floats(min_value=0.01, max_value=0.5),
    step=st.floats(min_value=0.01, max_value=0.5),
    ref_frac=st.floats(min_value=0.05, max_value=0.95),
    stream=st.integers(min_value=0, max_value=10_000),
)
def test_mean_shift_exceedance_tracks_closed_form(base, alpha, step, ref_frac, stream):
    model = CurrentLevelModel()
    ref = 17.0 + ref_frac * (22.7 - 17.0)
    shift = MeanShift(alpha, alpha + step, alpha + 2 * step, zone_temp=60.0)
    pair = ["AP,AP", "AP,P", "P,P"][base]
    n = 4000
    samples = sample_pair_current(
        parse_pair(pair), model, shift, trial_rng(98, stream), size=n
    )
    emp = float((samples > ref).mean())
    oracle = gaussian_exceed(
        model.pair_ladder[base] + shift.shifts[base], model.sigma, ref
    )
    assert abs(emp - oracle) <= binomial_3sigma(oracle, n) + 1e-9
