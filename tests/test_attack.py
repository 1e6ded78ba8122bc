import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from spincim import attack
from spincim.array import ArrayGeometry, CimArray, CimOp, SenseDisturbance
from spincim.attack import (
    AttackScenario,
    AttackVariant,
    AuthDb,
    CredentialPolicy,
    attack_success_rate,
    auth_accept_probability,
    exceedance_mc,
    mc_failure_rate,
    run_auth,
    run_trials,
)
from spincim.cost import ExecutionTrace
from spincim.device import Collapse, CurrentLevelModel, parse_pair, trial_rng
from spincim.errors import MappingViolation, OutOfBounds

from _oracles import binomial_3sigma, composed_auth, trace_events
from conftest import MASTER_SEED, auth_array

DB16 = AuthDb(0xA5A5, 0x5AC3, width=16)
NO_ATTACK = AttackScenario()


def forced(variant, temp=100.0):
    return AttackScenario(variant=variant, zone_temp=temp, force_flip=True)


class TestAuthProtocol:
    def test_correct_credentials_accepted(self, zero_noise_model):
        array = auth_array(zero_noise_model)
        assert run_auth(DB16, 0xA5A5, 0x5AC3, NO_ATTACK, array) is True
        kinds = [kind.value for kind, *_ in trace_events(array.recorder)]
        assert kinds.count("CimAND") == 3  # two inside the XNORs, one outer
        assert kinds.count("CimNOR") == 2

    def test_wrong_password_rejected(self, zero_noise_model):
        accept = run_auth(DB16, 0xA5A5, 0x1111, NO_ATTACK, auth_array(zero_noise_model))
        assert not accept

    def test_wrong_user_rejected(self, zero_noise_model):
        accept = run_auth(DB16, 0x1234, 0x5AC3, NO_ATTACK, auth_array(zero_noise_model))
        assert not accept

    def test_forced_xnor_level_accepts_anything(self, zero_noise_model):
        rng = np.random.default_rng(29)
        scenario = forced(AttackVariant.XNOR_LEVEL)
        for _ in range(50):
            u = int(rng.integers(0, 1 << 16))
            p = int(rng.integers(0, 1 << 16))
            accept = run_auth(DB16, u, p, scenario, auth_array(zero_noise_model))
            assert accept

    @pytest.mark.parametrize("u_ok", [True, False])
    @pytest.mark.parametrize("p_ok", [True, False])
    def test_forced_gate_level_is_or_semantics(self, zero_noise_model, u_ok, p_ok):
        u = 0xA5A5 if u_ok else 0x0F0F
        p = 0x5AC3 if p_ok else 0x0F0F
        accept = run_auth(
            DB16, u, p, forced(AttackVariant.GATE_LEVEL), auth_array(zero_noise_model)
        )
        assert accept == (u_ok or p_ok)

    def test_zone_below_ambient_rejected(self, model):
        scenario = AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=10.0)
        with pytest.raises(ValueError):
            run_auth(DB16, 0, 0, scenario, auth_array(model, trial_rng(1, 1)))

    def test_zone_below_ambient_rejected_before_any_write(self, model):
        scenario = AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=10.0)
        array, rng = auth_array(model, trial_rng(1, 1)), trial_rng(1, 1)
        with pytest.raises(ValueError):
            run_auth(DB16, 0x1234, 0x1111, scenario, array)
        assert array.snapshot() == auth_array().snapshot()
        assert len(array.recorder) == 0
        assert array.rng.bit_generator.state == rng.bit_generator.state

    def test_width_checked_against_array(self, zero_noise_model):
        wide = CimArray(geometry=ArrayGeometry(cols_per_row=8), model=zero_noise_model)
        with pytest.raises(MappingViolation):
            run_auth(DB16, 0, 0, NO_ATTACK, wide)

    def test_array_without_the_protocol_rows_rejected(self, zero_noise_model):
        short = CimArray(geometry=ArrayGeometry(rows_per_bank=4), model=zero_noise_model)
        with pytest.raises(OutOfBounds, match="outside 1x4 array"):
            run_auth(DB16, 0xA5A5, 0x5AC3, NO_ATTACK, short)

    def test_array_with_an_attack_of_its_own_rejected(self, zero_noise_model):
        # the scenario picks the attacked senses, so the array's attack was ignored
        array = auth_array(zero_noise_model)
        array.attack = SenseDisturbance(force_flip=True, ops=frozenset({CimOp.CIM_AND}))
        with pytest.raises(ValueError, match="^run_auth takes its attack from the scenario, "
                                             "not the array$"):
            run_auth(DB16, 0xA5A5, 0x1111, NO_ATTACK, array)
        assert array.snapshot() == auth_array().snapshot()
        assert len(array.recorder) == 0

    @pytest.mark.parametrize("db", [DB16, AuthDb(0xDEAD_BEEF_0123_4567, 1 << 63, width=64)],
                             ids=lambda db: f"width{db.width}")
    def test_numpy_integer_words_accepted(self, zero_noise_model, db):
        u, p = np.uint64(db.username), np.uint64(db.password)
        array = auth_array(zero_noise_model, width=db.width)
        assert run_auth(db, u, p, NO_ATTACK, array)
        assert not run_auth(db, u, p ^ np.uint64(1), NO_ATTACK, array)

    @pytest.mark.parametrize("u,p", [(1 << 16, 0x5AC3), (0xA5A5, 1 << 16)])
    def test_typed_word_wider_than_the_credential_rejected(self, zero_noise_model, u, p):
        with pytest.raises(OutOfBounds, match=r"^word 0x10000 does not fit in 16 columns$"):
            run_auth(DB16, u, p, NO_ATTACK, auth_array(zero_noise_model))


class TestMcFailureRate:
    def test_report_fields_consistent(self, model, sense):
        report = mc_failure_rate("AP,P", 100.0, 2000, MASTER_SEED, model=model, sense=sense)
        assert report.rate == report.failures / report.trials
        lo, hi = report.wilson_95_ci
        assert lo <= report.rate <= hi
        assert report.seed == MASTER_SEED
        assert set(report.as_dict()) == {
            "trials", "failures", "rate", "wilson_95_ci", "analytic_rate", "seed",
        }

    def test_rate_tracks_oracle(self, model):
        report = mc_failure_rate("AP,P", 100.0, 5000, MASTER_SEED)
        assert abs(report.rate - report.analytic_rate) <= binomial_3sigma(
            report.analytic_rate, 5000
        )

    def test_monotone_in_temperature(self, model):
        rates = [
            mc_failure_rate("AP,P", t, 5000, MASTER_SEED).failures
            for t in (20.0, 50.0, 100.0)
        ]
        assert rates[0] <= rates[1] <= rates[2]

    def test_temperature_below_ambient_rejected(self):
        with pytest.raises(ValueError):
            mc_failure_rate("AP,P", 10.0, 10, MASTER_SEED)

    def test_thread_count_invariant(self, model):
        single = mc_failure_rate("AP,P", 100.0, 3000, MASTER_SEED)
        pooled = mc_failure_rate("AP,P", 100.0, 3000, MASTER_SEED)
        assert single.failures == pooled.failures

    @pytest.mark.parametrize("trials", [1, 7, 1030])  # the last crosses a stream block
    def test_driver_hands_each_trial_its_own_stream_in_order(self, trials):
        states = []

        def trial(rng) -> bool:
            states.append(rng.bit_generator.state)
            return rng.random() < 0.5

        wins = sum(np.random.default_rng((9, i)).random() < 0.5 for i in range(trials))
        assert run_trials(trials, 9, trial) == wins
        assert states == [np.random.default_rng((9, i)).bit_generator.state
                          for i in range(trials)]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_driver_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError):
            run_trials(trials, 9, lambda rng: pytest.fail("no trial may run"))

    def test_sense_set_up_once_per_report(self, model, monkeypatch):
        streams, rates = [], []
        make_rng, rho = attack.trial_rng, Collapse.rho
        monkeypatch.setattr(
            attack, "trial_rng", lambda seed, i: streams.append(i) or make_rng(seed, i)
        )
        monkeypatch.setattr(
            Collapse, "rho", lambda self, *args: rates.append(self) or rho(self, *args)
        )
        # both AP cells can collapse; their rates are computed once for the
        # sampler and once for the oracle, however many trials run
        for trials in (1, 300):
            streams.clear()
            rates.clear()
            exceedance_mc(
                parse_pair("AP,AP"), Collapse(zone_temp=100.0), 21.45, trials,
                MASTER_SEED, model,
            )
            assert streams == list(range(trials))
            assert len(rates) == 2 * 2


class TestSuccessRate:
    def test_random_credentials_combinatorial_oracle(self, zero_noise_model):
        # exhaustive: exactly one typed combination in 2^(2w) is accepted
        db = AuthDb(0b1010, 0b0110, width=4)
        policy = CredentialPolicy(user="random", password="random")
        oracle = auth_accept_probability(db, policy, NO_ATTACK, model=zero_noise_model)
        assert oracle == pytest.approx(2.0 ** -8, abs=1e-15)
        accepted = 0
        for u in range(16):
            for p in range(16):
                got = run_auth(db, u, p, NO_ATTACK, auth_array(zero_noise_model, width=4))
                accepted += got
        assert accepted == 1

    def test_correct_user_random_password_oracle(self, zero_noise_model):
        db = AuthDb(0b1010, 0b0110, width=4)
        policy = CredentialPolicy(user="correct", password="random")
        oracle = auth_accept_probability(db, policy, NO_ATTACK, model=zero_noise_model)
        assert oracle == pytest.approx(2.0 ** -4, abs=1e-15)

    def test_fixed_policy_draw(self):
        policy = CredentialPolicy(user="fixed", password="fixed",
                                  fixed_user=7, fixed_password=9)
        u, p = policy.draw(AuthDb(1, 2), trial_rng(0, 0))
        assert (u, p) == (7, 9)
        with pytest.raises(ValueError):
            CredentialPolicy(user="fixed").draw(AuthDb(1, 2), trial_rng(0, 0))

    @pytest.mark.parametrize("width", [1, 8, 16, 31, 32, 33, 48, 63])
    def test_random_draw_keeps_its_stream_below_64_bits(self, width):
        policy = CredentialPolicy(user="random", password="random")
        for i in range(25):
            drawn = policy.draw(AuthDb(0, 0, width=width), trial_rng(3, i))
            rng = trial_rng(3, i)
            assert drawn == tuple(int(rng.integers(0, 1 << width)) for _ in range(2))

    def test_random_draw_spans_64_bits(self):
        policy = CredentialPolicy(user="random", password="random")
        words = [w for i in range(40) for w in policy.draw(AuthDb(0, 0, 64), trial_rng(5, i))]
        assert all(0 <= w < 1 << 64 for w in words)
        assert any(w >= 1 << 63 for w in words)

    def test_report_matches_composition_under_heat(self, model):
        scenario = AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=100.0)
        report = attack_success_rate(
            DB16, CredentialPolicy("correct", "random"), scenario, 4000, MASTER_SEED,
            model=model,
        )
        band = binomial_3sigma(report.analytic_rate, 4000)
        assert abs(report.rate - report.analytic_rate) <= band

    def test_gate_level_composition_under_heat(self, model):
        # heated outer sense: the analytic path that disturbs the match-bit AND
        scenario = AttackScenario(variant=AttackVariant.GATE_LEVEL, zone_temp=100.0)
        policy = CredentialPolicy(user="correct", password="fixed", fixed_password=0x0)
        report = attack_success_rate(
            DB16, policy, scenario, 4000, MASTER_SEED, model=model
        )
        band = binomial_3sigma(report.analytic_rate, 4000)
        assert abs(report.rate - report.analytic_rate) <= band
        # with a correct user and wrong password the bypass is carried by the
        # heated outer AND reading the (match, no-match) pair as 1
        assert report.analytic_rate > 0.02

    @pytest.mark.parametrize("variant", list(AttackVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("force", [False, True], ids=["heated", "forced"])
    @pytest.mark.parametrize("policy", [
        CredentialPolicy("correct", "random"),
        CredentialPolicy("correct", "fixed", fixed_password=0),
    ], ids=["correct-random", "correct-fixed0"])
    def test_noisy_rate_tracks_oracle(self, model, variant, force, policy):
        scenario = AttackScenario(variant=variant, zone_temp=100.0, force_flip=force)
        report = attack_success_rate(DB16, policy, scenario, 1500, MASTER_SEED, model=model)
        p = report.analytic_rate
        assert abs(report.rate - p) <= 4.0 * math.sqrt(p * (1.0 - p) / report.trials)

    @pytest.mark.parametrize("kwargs,error", [
        ({"user": "bogus"}, ValueError),
        ({"user": "bogus", "fixed_user": 0xA5A5}, ValueError),
        ({"password": "fixed"}, ValueError),
        ({"user": "fixed", "fixed_user": 1 << 16}, OutOfBounds),
        ({"password": "fixed", "fixed_password": -1}, OutOfBounds),
    ], ids=["unknown", "unknown-with-word", "fixed-without-word", "too-wide", "negative"])
    def test_bad_policy_refused_alike(self, model, kwargs, error):
        scenario = AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=100.0)
        with pytest.raises(Exception) as oracle:
            auth_accept_probability(DB16, CredentialPolicy(**kwargs), scenario, model=model)
        with pytest.raises(Exception) as monte_carlo:
            attack_success_rate(
                DB16, CredentialPolicy(**kwargs), scenario, 5, MASTER_SEED, model=model
            )
        assert oracle.type is monte_carlo.type is error

    def test_gate_level_heat_beats_natural(self, model):
        # heating the outer AND raises acceptance of a wrong password
        policy = CredentialPolicy(user="correct", password="fixed", fixed_password=0x0)
        natural = auth_accept_probability(DB16, policy, NO_ATTACK, model=model)
        heated = auth_accept_probability(
            DB16, policy,
            AttackScenario(variant=AttackVariant.GATE_LEVEL, zone_temp=100.0),
            model=model,
        )
        assert heated > natural

    def test_thread_count_invariant(self, model):
        scenario = AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=100.0)
        policy = CredentialPolicy("correct", "random")
        a = attack_success_rate(DB16, policy, scenario, 600, MASTER_SEED)
        b = attack_success_rate(DB16, policy, scenario, 600, MASTER_SEED)
        assert a.failures == b.failures

    def test_success_rate_records_nothing(self, monkeypatch):
        records = []
        monkeypatch.setattr(ExecutionTrace, "record", lambda *args: records.append(args))
        scenario = AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=100.0)
        attack_success_rate(DB16, CredentialPolicy(), scenario, 50, MASTER_SEED)
        assert records == []
        # a run on a recorded array records
        run_auth(DB16, 0xA5A5, 0x5AC3, scenario, auth_array(rng=trial_rng(0, 0)))
        assert len(records) == 11

    @pytest.mark.parametrize("scenario", [
        AttackScenario(variant=AttackVariant.XNOR_LEVEL, zone_temp=100.0),
        forced(AttackVariant.GATE_LEVEL), NO_ATTACK,
    ], ids=lambda s: s.variant.value)
    def test_standalone_run_records_as_the_public_senses(self, model, scenario):
        array = auth_array(rng=trial_rng(0, 0))
        run_auth(DB16, 0xA5A5, 0x5AC3, scenario, array)
        trace = array.recorder
        twin = CimArray(ArrayGeometry(cols_per_row=16), model, rng=trial_rng(0, 0),
                        recorder=ExecutionTrace())
        composed_auth(DB16, 0xA5A5, 0x5AC3, scenario, model, twin)
        assert len(trace) == 11
        assert trace_events(trace) == trace_events(twin.recorder)  # kinds, costs and channels
        assert trace.start_ns == twin.recorder.start_ns


class TestAuthDbValidation:
    def test_credential_width_enforced(self):
        with pytest.raises(ValueError):
            AuthDb(1 << 16, 0, width=16)


class TestOracleDigest:
    MODELS = (
        (CurrentLevelModel(), None),
        (replace(CurrentLevelModel(), sigma=0.0), None),
        (replace(CurrentLevelModel(), sigma=0.9, ambient_temp=25.0), Collapse(a=-4.0, b=0.05)),
        (
            CurrentLevelModel(pair_levels=(16.0, 19.0, 23.5), sigma=0.7),
            Collapse(a=-6.0, b=0.09),
        ),
    )
    DBS = tuple(
        AuthDb(u, p, width=w)
        for w, u, p in (
            (1, 1, 0),
            (7, 0x5A, 0x03),
            (16, 0xA5A5, 0x5AC3),
            (33, 0x1_2345_6789, 0x0_F0F0_F0F1),
            (64, 0xDEAD_BEEF_0123_4567, 0x8000_0000_0000_0001),
        )
    )
    POLICIES = (
        CredentialPolicy("correct", "random"),
        CredentialPolicy("random", "random"),
        CredentialPolicy("correct", "fixed", fixed_password=0),
        CredentialPolicy("fixed", "correct", fixed_user=1),
        CredentialPolicy("fixed", "fixed", fixed_user=0, fixed_password=1),
    )

    def test_oracle_bits_pinned(self):
        # 1800 oracles: 4 models x 5 databases (widths 1-64) x 3 variants x
        # force on/off x 3 zones x 5 policies; any reordering of the float
        # arithmetic moves the digest
        digest = hashlib.sha256()
        for (model, collapse), db, variant, force, temp, policy in itertools.product(
            self.MODELS, self.DBS, AttackVariant, (False, True), (30.0, 85.0, 150.0),
            self.POLICIES,
        ):
            scenario = AttackScenario(
                variant=variant, zone_temp=temp, force_flip=force, collapse=collapse
            )
            value = auth_accept_probability(db, policy, scenario, model=model)
            digest.update(f"{value!r}\n".encode())
        assert digest.hexdigest() == (
            "902c793aa93257a3c1cdd858218ce68311a8672872714c53a0969391f3c4b01d"
        )
