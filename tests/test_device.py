import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincim import attack, device
from spincim.attack import AttackScenario, AttackVariant
from spincim.device import (
    Collapse,
    CurrentLevelModel,
    FailureRateTargets,
    MeanShift,
    MtjState,
    calibrate,
    pair_sampler,
    parse_pair,
    sample_columns,
    sample_pair_current,
    sample_single_current,
    trial_rng,
)
from spincim.errors import NonConvergence

from _oracles import (
    binomial_3sigma,
    collapse_pair_exceed,
    gaussian_exceed,
    q,
    scalar_pair_current,
)
from conftest import MASTER_SEED

FORCED_COLLAPSE = Collapse(a=0.0, b=0.0, zone_temp=100.0)  # rho clamps to 1


class TestSingleCurrent:
    def test_zero_noise_identity(self, zero_noise_model):
        assert sample_single_current(MtjState.P, zero_noise_model) == 15.5
        assert sample_single_current(MtjState.AP, zero_noise_model) == 10.0

    def test_forced_collapse_reads_parallel_level(self, zero_noise_model):
        rng = trial_rng(MASTER_SEED, 0)
        got = sample_single_current(MtjState.AP, zero_noise_model, FORCED_COLLAPSE, rng)
        assert got == zero_noise_model.single_levels[1]

    def test_parallel_cells_never_collapse(self, zero_noise_model):
        rng = trial_rng(MASTER_SEED, 0)
        got = sample_single_current(MtjState.P, zero_noise_model, FORCED_COLLAPSE, rng)
        assert got == zero_noise_model.single_levels[1]

    def test_sample_mean_matches_level(self, model):
        # law of large numbers: the mean of 1e6 draws sits within
        # 3*sigma/sqrt(1e6) of the AP level
        rng = trial_rng(MASTER_SEED, 1)
        samples = sample_single_current(MtjState.AP, model, None, rng, size=1_000_000)
        assert abs(float(samples.mean()) - model.single_levels[0]) < 3 * model.sigma / 1000.0

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
        model = CurrentLevelModel(single_levels=(10, 15), pair_levels=(17, 20, 23))
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


_SAMPLER_DISTURBANCES = [
    None,
    Collapse(zone_temp=20.0),
    Collapse(zone_temp=50.0),
    Collapse(zone_temp=100.0),
    Collapse(zone_temp=20000.0),
    (Collapse(zone_temp=100.0), None),
    (None, Collapse(zone_temp=100.0)),
    MeanShift(0.15, 0.2, 0.25),
]


# the sampler scales a standard normal, the reference calls rng.normal(0, sigma):
# the same product at the extremes of the float range too
@pytest.mark.parametrize("sigma", [device.DEFAULT_SIGMA, 0.0, 1e-300, 1.0, 1e300])
@pytest.mark.parametrize("disturbance", _SAMPLER_DISTURBANCES, ids=repr)
@pytest.mark.parametrize("pair", ["AP,AP", "AP,P", "P,AP", "P,P"])
def test_pair_sampler_draws_as_the_scalar_reference(pair, disturbance, sigma):
    model = CurrentLevelModel(sigma=sigma)
    states = parse_pair(pair)
    draw = pair_sampler(states, model, disturbance)
    for index in range(3):
        ours, ref = trial_rng(MASTER_SEED, index), trial_rng(MASTER_SEED, index)
        got = [draw(ours) for _ in range(50)]
        want = [scalar_pair_current(states, model, disturbance, ref) for _ in range(50)]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("sigma", [device.DEFAULT_SIGMA, 0.0])
@pytest.mark.parametrize("disturbance", _SAMPLER_DISTURBANCES, ids=repr)
@pytest.mark.parametrize("pair", ["AP,AP", "AP,P", "P,P"])
def test_pair_sampler_with_a_reference_compares_its_draw(pair, disturbance, sigma):
    model = CurrentLevelModel(sigma=sigma)
    states = parse_pair(pair)
    draw = pair_sampler(states, model, disturbance)
    for ref in (*model.pair_levels, 21.45):  # at a level, the sigma = 0 draw is not above
        above = pair_sampler(states, model, disturbance, ref)
        ours, twin = trial_rng(MASTER_SEED, 5), trial_rng(MASTER_SEED, 5)
        assert [above(ours) for _ in range(50)] == [draw(twin) > ref for _ in range(50)]
        assert ours.bit_generator.state == twin.bit_generator.state


# rates at and next to the ends of [0, 1], and the middle
_EDGE_RHOS = (0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53, 1.0)


def test_raw_word_uniform_is_generator_random():
    # the pair sampler's collapse uniform: a raw stream word's top 53 bits
    for index in range(5):
        ours, ref = trial_rng(MASTER_SEED, index), trial_rng(MASTER_SEED, index)
        got = [(ours.bit_generator.random_raw() >> 11) * 2.0 ** -53 for _ in range(2000)]
        want = [ref.random() for _ in range(2000)]
        assert [u.hex() for u in got] == [u.hex() for u in want]
        assert ours.bit_generator.state == ref.bit_generator.state
        for rho in _EDGE_RHOS:
            assert [u < rho for u in got] == [u < rho for u in want]


class _RawWords:
    """A stand-in stream whose raw 64-bit words are chosen, one per call."""

    def __init__(self, words):
        self.bit_generator, self._words = self, iter(words)

    def random_raw(self):
        return next(self._words)


@dataclass(frozen=True)
class _FixedRate(Collapse):
    rate: float = 0.0

    def rho(self, ambient_temp: float) -> float:
        return self.rate


@pytest.mark.parametrize("rho", _EDGE_RHOS)
def test_collapse_decision_is_exact_at_the_edges(rho, zero_noise_model):
    # u < rho for u = (w >> 11) / 2**53, decided in exact rationals
    words = [0, 2**11 - 1, 2**11, 2**12, 2**63 - 1, 2**63, 2**64 - 2**12,
             2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1]
    levels = zero_noise_model.pair_levels
    one = pair_sampler(parse_pair("AP,P"), zero_noise_model, _FixedRate(rate=rho))
    two = pair_sampler(parse_pair("AP,AP"), zero_noise_model, _FixedRate(rate=rho))
    for w in words:
        collapses = Fraction(w >> 11, 2**53) < Fraction(rho)
        assert one(_RawWords([w])) == levels[1 + collapses]
        assert two(_RawWords([w, w])) == levels[2 * collapses]
        assert two(_RawWords([w, 0])) == levels[collapses + (rho > 0)]


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


def _reference_state(seed, index):
    return np.random.default_rng((seed, index)).bit_generator.state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**130), index=st.integers(0, 2**40))
@example(seed=0, index=0)
@example(seed=0, index=1023)
@example(seed=0, index=1024)
@example(seed=2**32 - 1, index=2**32 - 1)
@example(seed=2**32, index=2**32)
@example(seed=2**130, index=2**40)
def test_trial_stream_is_default_rng_stream(seed, index):
    assert trial_rng(seed, index).bit_generator.state == _reference_state(seed, index)


class TestTrialStreams:
    def test_draws_match_reference_across_block_edges(self):
        for index in (1022, 1023, 1024, 1025, 2047, 2048):
            want = np.random.default_rng((MASTER_SEED, index)).normal(size=5)
            assert np.array_equal(trial_rng(MASTER_SEED, index).normal(size=5), want)

    def test_negative_seed_or_index_rejected_like_default_rng(self):
        for seed, index in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError):
                np.random.default_rng((seed, index))
            with pytest.raises(ValueError):
                trial_rng(seed, index)

    def test_cached_block_is_read_only(self):
        seeds = device._stream_seeds(MASTER_SEED, 0)
        assert len(seeds) == device.STREAM_BLOCK
        assert device._stream_seeds(MASTER_SEED, 0) is seeds
        for seed in (seeds[0], seeds[-1]):
            assert seed.words.shape == (4,) and not seed.words.flags.writeable

    @pytest.mark.parametrize("index", [1023, 1024, 2047])
    @pytest.mark.parametrize("cache", ["cold", "warm"])
    def test_streams_sharing_a_seed_object_are_independent(self, index, cache):
        if cache == "cold":
            device._stream_seeds.cache_clear()
        else:
            trial_rng(MASTER_SEED, index)
        first, second = trial_rng(MASTER_SEED, index), trial_rng(MASTER_SEED, index)
        assert first.bit_generator.seed_seq is second.bit_generator.seed_seq
        first.normal(size=7)
        first.random(3)
        assert second.bit_generator.state == _reference_state(MASTER_SEED, index)
        want = np.random.default_rng((MASTER_SEED, index)).normal(size=5)
        assert np.array_equal(second.normal(size=5), want)

    def test_two_threads_derive_interleaved_blocks(self):
        # each thread derives every other block, cold, at the same time
        device._stream_seeds.cache_clear()
        seed, blocks = 2**33 + 7, 24
        start = threading.Barrier(2)
        got = {}

        def derive(parity):
            start.wait()
            for block in range(parity, blocks, 2):
                for row in (0, 511, 1023):
                    index = block * device.STREAM_BLOCK + row
                    got[index] = trial_rng(seed, index).bit_generator.state

        workers = [threading.Thread(target=derive, args=(p,)) for p in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(got) == 3 * blocks
        for index, state in got.items():
            assert state == _reference_state(seed, index)


class TestValidation:
    def test_level_ordering_enforced(self):
        with pytest.raises(ValueError):
            CurrentLevelModel(single_levels=(16.0, 15.5))
        with pytest.raises(ValueError):
            CurrentLevelModel(pair_levels=(17.0, 16.9, 22.7))
        with pytest.raises(ValueError):
            CurrentLevelModel(sigma=-0.1)

    @pytest.mark.parametrize("levels", [
        {"single_levels": (10.0,)},
        {"single_levels": (10.0, 15.5, 17.0)},
        {"pair_levels": (17.0, 20.2)},
        {"pair_levels": (17.0, 20.2, 22.7, 25.0)},
        {"single_levels": (10.0, 10.0)},
        {"pair_levels": (17.0, 17.0, 22.7)},
    ], ids=["one single", "three singles", "two pairs", "four pairs", "singles tied",
            "pairs tied"])
    def test_ladder_needs_its_length_and_strict_order(self, levels):
        (name,) = levels
        with pytest.raises(ValueError, match=f"{name} must be .* strictly increasing"):
            CurrentLevelModel(**levels)

    def test_list_ladders_build_a_hashable_model(self):
        model = CurrentLevelModel(single_levels=[10.0, 15.5], pair_levels=[17.0, 20.2, 22.7])
        assert (model.single_levels, model.pair_levels) == ((10.0, 15.5), (17.0, 20.2, 22.7))
        assert model == CurrentLevelModel() and hash(model) == hash(CurrentLevelModel())
        # the attack caches its resolved sense laws per (scenario, model)
        scenario = AttackScenario(AttackVariant.XNOR_LEVEL, zone_temp=100.0)
        assert attack._auth_laws(scenario, model) is attack._auth_laws(
            scenario, CurrentLevelModel())

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

    def test_collapse_probability_needs_the_ambient(self):
        with pytest.raises(TypeError):
            Collapse(zone_temp=100.0).rho()

    def test_collapse_probability_saturates_without_overflow(self):
        # a + b*dT far beyond the float exponent range still gives rho = 1
        assert Collapse(zone_temp=20000.0).rho(20.0) == 1.0
        assert Collapse(a=0.0, b=1e6, zone_temp=1e6).rho(20.0) == 1.0

    def test_stochastic_sampling_requires_generator(self, model, zero_noise_model):
        with pytest.raises(ValueError):
            sample_single_current(MtjState.AP, model)
        with pytest.raises(ValueError):
            sample_pair_current(parse_pair("AP,P"), model)
        heated = Collapse(zone_temp=100.0)
        with pytest.raises(ValueError):
            pair_sampler(parse_pair("AP,P"), zero_noise_model, heated)(None)
        # nothing to draw: no AP cell can collapse and sigma is zero
        assert pair_sampler(parse_pair("P,P"), zero_noise_model, heated)() == 22.7
        assert pair_sampler(parse_pair("AP,P"), zero_noise_model, None)(None) == 20.2

    @pytest.mark.parametrize("bits,disturbance", [
        ((), None),
        ((np.zeros(4),) * 3, None),
        ((np.zeros(4), np.zeros(3)), None),
        ((np.zeros(4), np.zeros(4)), (Collapse(),)),
        ((np.zeros(4),), (Collapse(),) * 3),
        ((np.zeros(4),), (Collapse(), Collapse())),
    ], ids=["no rows", "three rows", "unequal widths", "short tuple", "long tuple",
            "pair tuple for one row"])
    def test_sample_columns_rejects_bad_shapes(self, model, bits, disturbance):
        with pytest.raises(ValueError):
            sample_columns(bits, model, disturbance, trial_rng(MASTER_SEED, 0))

    def test_sample_columns_accepts_matching_shapes(self, model):
        rng = trial_rng(MASTER_SEED, 0)
        hot = Collapse(zone_temp=100.0)
        assert sample_columns((np.zeros(4),), model, (hot,), rng).shape == (4,)
        assert sample_columns((np.zeros(4), np.ones(4)), model, (hot, None), rng).shape == (4,)

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

    @pytest.mark.parametrize("targets,model", [
        (FailureRateTargets(), CurrentLevelModel()),
        (FailureRateTargets(), CurrentLevelModel(ambient_temp=60.0)),
        (FailureRateTargets(natural=0.01,
                            heated_ap_p={40.0: 0.02, 80.0: 0.06, 120.0: 0.25},
                            heated_ap_ap={80.0: 0.004, 120.0: 0.05}), CurrentLevelModel()),
        (FailureRateTargets(heated_ap_p={30.0: 0.0051, 200.0: 0.9}), CurrentLevelModel()),
    ], ids=["default", "ambient-60", "three-temps", "wide-span"])
    def test_fit_matches_scipy_least_squares(self, monkeypatch, targets, model):
        # scipy is a test-only reference: run it on the very residual closure
        # and initial guess that calibrate hands its own solver
        from scipy.optimize import least_squares

        seen = {}
        solver = device._levenberg_marquardt

        def spy(residuals, x0):
            seen.update(residuals=residuals, x0=x0)
            return solver(residuals, x0)

        monkeypatch.setattr(device, "_levenberg_marquardt", spy)
        result = calibrate(targets, model, max_residual=math.inf)
        reference = least_squares(seen["residuals"], x0=seen["x0"])
        ssr = sum(r * r for r in result.residuals.values())
        assert ssr <= 2.0 * reference.cost * (1.0 + 1e-9)
        assert result.a == pytest.approx(reference.x[0], rel=1e-4)
        assert result.b == pytest.approx(reference.x[1], rel=1e-4)

    @pytest.mark.parametrize("targets,ambient", [
        (FailureRateTargets(heated_ap_p={100.0: 0.044}), 20.0),
        (FailureRateTargets(), 100.0),
        (FailureRateTargets(), 120.0),
        (FailureRateTargets(heated_ap_p={10.0: 0.006, 20.0: 0.044}), 20.0),
    ], ids=["one-target", "ambient-100", "ambient-120", "all-at-or-below-ambient"])
    def test_unidentifiable_b_names_ambient(self, targets, ambient):
        with pytest.raises(NonConvergence, match="cannot fit b: .* ambient_temp"):
            calibrate(targets, CurrentLevelModel(ambient_temp=ambient))

    def test_initial_guess_floors_dt_at_zero(self, monkeypatch):
        # at ambient 60 the 50 C target reads as dT = 0, as Collapse.rho has it
        seen = []
        monkeypatch.setattr(device, "_levenberg_marquardt", lambda r, x0: seen.append(x0) or x0)
        calibrate(model=CurrentLevelModel(ambient_temp=60.0), max_residual=math.inf)
        qn = q(2.5758293035489004)
        rho50, rho100 = ((rate - qn) / (1 - qn) for rate in (0.006, 0.044))
        b0 = (math.log(rho100) - math.log(rho50)) / 40.0
        assert seen[0] == [pytest.approx(math.log(rho50), rel=1e-9), pytest.approx(b0, rel=1e-9)]

    def test_non_finite_target_raises_not_nan(self):
        with pytest.raises(NonConvergence, match="non-finite"):
            calibrate(FailureRateTargets(heated_ap_p={50.0: math.nan, 100.0: 0.044}))

    def test_residual_turning_non_finite_mid_fit_raises(self):
        def residuals(x):
            return [x[0] - 3.0, math.nan if x[0] > 1.0 else x[1]]

        with pytest.raises(NonConvergence, match="non-finite"):
            device._levenberg_marquardt(residuals, [0.0, 0.0])

    def test_unread_parameter_is_held_still(self):
        # the second parameter's Jacobian column is zero: an undamped normal
        # matrix would be singular
        x = device._levenberg_marquardt(lambda x: [x[0] - 1.0, x[0] + 1.0], [0.5, 7.0])
        assert x.tolist() == [pytest.approx(0.0, abs=1e-9), 7.0]

    def test_fit_that_stalls_raises(self):
        # exp(-x) has no minimiser: each step moves x by about 1 and cuts the
        # cost by about 86 %, so the fit neither converges nor turns non-finite
        with pytest.raises(NonConvergence, match="did not converge in 100 steps"):
            device._levenberg_marquardt(lambda x: [math.exp(-x[0])], [0.0])

    def test_rosenbrock_converges(self):
        def rosenbrock(x):
            return [10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]

        x = device._levenberg_marquardt(rosenbrock, [-1.2, 1.0])
        assert x.tolist() == [pytest.approx(1.0, abs=1e-6), pytest.approx(1.0, abs=1e-6)]


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
    oracle = collapse_pair_exceed(model.pair_levels, base, model.sigma, ref, rho)
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
        model.pair_levels[base] + shift.shifts[base], model.sigma, ref
    )
    assert abs(emp - oracle) <= binomial_3sigma(oracle, n) + 1e-9
