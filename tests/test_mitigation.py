import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincim.analytic import pair_exceed
from spincim.array import SenseConfig
from spincim.device import Collapse, CurrentLevelModel, MeanShift, parse_pair
from spincim.errors import InvalidShift
from spincim.mitigation import adapt_references, evaluate_mitigation

from _oracles import binomial_3sigma, gaussian_exceed
from conftest import MASTER_SEED


class TestAdaptReferences:
    def test_formula_on_defaults(self, model, sense):
        adapted = adapt_references(sense, MeanShift(0.2, 0.4, 0.6), model)
        assert adapted.i_ref_and == pytest.approx((20.2 + 22.7 + 0.4 + 0.6) / 2)
        assert adapted.i_ref_and == pytest.approx(21.95)
        assert adapted.i_ref_or == pytest.approx((17.0 + 20.2 + 0.2 + 0.4) / 2)
        assert adapted.i_ref_read == sense.i_ref_read

    def test_zero_shift_limit_recovers_midpoints(self, model, sense):
        eps = 1e-9
        adapted = adapt_references(sense, MeanShift(eps, 2 * eps, 3 * eps), model)
        assert adapted.i_ref_or == pytest.approx(18.6, abs=1e-8)
        assert adapted.i_ref_and == pytest.approx(21.45, abs=1e-8)

    def test_ordering_contract(self):
        with pytest.raises(InvalidShift):
            MeanShift(0.4, 0.4, 0.6)
        with pytest.raises(InvalidShift):
            MeanShift(0.5, 0.4, 0.6)
        with pytest.raises(InvalidShift):
            MeanShift(0.0, 0.1, 0.2)

    @settings(max_examples=100)
    @given(
        alpha=st.floats(min_value=1e-3, max_value=1.0),
        d1=st.floats(min_value=1e-3, max_value=1.0),
        d2=st.floats(min_value=1e-3, max_value=1.0),
    )
    def test_adapted_refs_are_midpoints_of_shifted_levels(self, alpha, d1, d2):
        model = CurrentLevelModel()
        shift = MeanShift(alpha, alpha + d1, alpha + d1 + d2)
        adapted = adapt_references(SenseConfig(), shift, model)
        ap_ap, ap_p, p_p = model.pair_levels
        lo_or = ap_ap + shift.alpha
        hi_or = ap_p + shift.beta
        lo_and = ap_p + shift.beta
        hi_and = p_p + shift.gamma
        assert adapted.i_ref_or == pytest.approx((lo_or + hi_or) / 2)
        assert adapted.i_ref_and == pytest.approx((lo_and + hi_and) / 2)
        assert lo_or < adapted.i_ref_or < hi_or
        assert lo_and < adapted.i_ref_and < hi_and

    def test_exact_inverse_in_equal_shift_limit(self, model, sense):
        # as the adjacent shift gaps vanish, every decode-error probability
        # returns to its natural value
        eps = 1e-7
        shift = MeanShift(0.3, 0.3 + eps, 0.3 + 2 * eps)
        adapted = adapt_references(sense, shift, model)
        disturbance = MeanShift(shift.alpha, shift.beta, shift.gamma, zone_temp=100.0)
        natural = pair_exceed(model, parse_pair("AP,P"), sense.i_ref_and, None)
        after = pair_exceed(model, parse_pair("AP,P"), adapted.i_ref_and, disturbance)
        assert after == pytest.approx(natural, rel=1e-4)


class TestEvaluate:
    def test_matched_mean_shift_restores_natural_rate(self, model, sense):
        shift = MeanShift(0.15, 0.2, 0.25)
        adapted = adapt_references(sense, shift, model)
        disturbance = MeanShift(0.15, 0.2, 0.25, zone_temp=100.0)
        report = evaluate_mitigation(
            disturbance, sense, adapted, 10_000, MASTER_SEED, model=model
        )
        band = binomial_3sigma(report.natural_rate, 10_000)
        assert abs(report.after.rate - report.natural_rate) <= band
        # unadapted references fail far above natural under the same shift
        assert report.before.rate > report.natural_rate + band

    def test_collapse_mitigation_is_partial(self, model, sense):
        adapted = adapt_references(sense, MeanShift(0.2, 0.4, 0.6), model)
        report = evaluate_mitigation(
            Collapse(zone_temp=100.0), sense, adapted, 10_000, MASTER_SEED, model=model
        )
        assert report.after.rate < report.before.rate
        assert report.after.rate > report.natural_rate
        # paired streams make the improvement pathwise, never a noise artifact
        assert report.after.failures <= report.before.failures

    def test_miscalibrated_adaptation_hurts_the_high_level(self, model, sense):
        # no disturbance, but references moved anyway: the all-parallel level
        # now falls below the AND reference far more often
        adapted = adapt_references(sense, MeanShift(0.2, 0.4, 0.6), model)
        report = evaluate_mitigation(
            None, sense, adapted, 10_000, MASTER_SEED,
            pair="P,P", model=model, below=True,
        )
        oracle_after = 1.0 - gaussian_exceed(22.7, model.sigma, 21.95)
        assert report.after.analytic_rate == pytest.approx(oracle_after, abs=1e-12)
        assert report.after.rate > report.before.rate
        assert abs(report.after.rate - oracle_after) <= binomial_3sigma(
            oracle_after, 10_000
        )

    @pytest.mark.parametrize(
        "disturbance", [Collapse(zone_temp=100.0), MeanShift(0.15, 0.2, 0.25)]
    )
    def test_below_counts_complement_above_counts(self, model, sense, disturbance):
        # the same streams feed both runs and the comparisons are complementary
        adapted = adapt_references(sense, MeanShift(0.2, 0.4, 0.6), model)
        above, below = (
            evaluate_mitigation(
                disturbance, sense, adapted, 2000, MASTER_SEED, model=model, below=flag
            )
            for flag in (False, True)
        )
        for hi, lo in ((above.before, below.before), (above.after, below.after)):
            assert lo.failures == 2000 - hi.failures
            assert lo.analytic_rate == pytest.approx(1.0 - hi.analytic_rate, abs=1e-15)

    def test_analytic_rates_attached(self, model, sense):
        adapted = adapt_references(sense, MeanShift(0.2, 0.4, 0.6), model)
        report = evaluate_mitigation(
            Collapse(zone_temp=100.0), sense, adapted, 2000, MASTER_SEED, model=model
        )
        for mc in (report.before, report.after):
            assert abs(mc.rate - mc.analytic_rate) <= binomial_3sigma(
                mc.analytic_rate, 2000
            ) + 1e-9
        payload = report.as_dict()
        assert set(payload) == {
            "pair", "ref_before", "ref_after", "natural_rate", "before", "after",
        }
