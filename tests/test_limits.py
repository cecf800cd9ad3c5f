"""Thresholds, bias limits, and second-order approximations per noise model.

Bisection on the exact update maps is the reference for every limit; the
closed forms must agree with it, and the asymmetric formulas must reduce
to the symmetric ones on the d = 0 slice.
"""

import math
import warnings

import pytest

from hbcool import limits, noise
from hbcool.bias import ErrorRates, three_bc_bias
from hbcool.circuits import majority_circuit_toffoli
from hbcool.cooling import run_with_noise
from hbcool.limits import (
    ASYM_AFTER,
    ASYM_DURING,
    MODEL_LABELS,
    SYM_AFTER,
    SYM_DURING,
    attracting_limit,
    bisect_root,
    blim_asym_after,
    blim_asym_after_second_order,
    blim_asym_during,
    blim_asym_during_second_order,
    blim_sym_after,
    blim_sym_after_second_order,
    blim_sym_during,
    blim_sym_during_second_order,
    limit_report,
    make_model,
    newbias_asym_after,
    newbias_asym_during,
    newbias_sym_after,
    newbias_sym_during,
    summary_table,
    threshold_sym_after,
    threshold_sym_during,
)

BIAS_GRID = [0.1 * k for k in range(1, 10)]


class TestBisectRoot:
    def test_simple_root(self):
        root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_bracket_verified(self):
        with pytest.raises(ValueError):
            bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


class TestSymmetricAfter:
    def test_noiseless_reduction(self):
        assert newbias_sym_after(0.5, 0.0) == pytest.approx(0.6875, abs=1e-12)

    def test_weighted_sum_oracle(self):
        # flip happens with probability eps and negates the compressed bias
        for b, eps in [(0.5, 1 / 6), (0.5, 0.25), (0.3, 0.02)]:
            clean = three_bc_bias(b)
            expected = (1 - eps) * clean + eps * (-clean)
            assert newbias_sym_after(b, eps) == pytest.approx(expected, abs=1e-12)
        assert newbias_sym_after(0.5, 1 / 6) == pytest.approx(0.6875 * (2 / 3), abs=1e-12)
        assert newbias_sym_after(0.5, 0.25) == pytest.approx(0.34375, abs=1e-12)

    def test_threshold_value(self):
        assert threshold_sym_after() == 1 / 6

    def test_no_gain_at_threshold(self):
        for b in (0.1, 0.5, 0.9):
            assert newbias_sym_after(b, 1 / 6) - b < 0

    def test_gain_just_below_threshold(self):
        assert newbias_sym_after(0.01, 0.16) - 0.01 > 0

    def test_blim_against_bisection(self):
        assert blim_sym_after(0.0) == 1.0
        for eps in (0.001, 0.01, 0.1):
            root = bisect_root(lambda b, e=eps: newbias_sym_after(b, e) - b, 1e-9, 1.0)
            assert blim_sym_after(eps) == pytest.approx(root, abs=1e-9)
        assert blim_sym_after(0.01) == pytest.approx(0.9793792286287205, abs=1e-9)

    def test_blim_above_threshold_is_zero(self):
        assert blim_sym_after(0.2) == 0.0

    def test_second_order_quality(self):
        for eps in (0.001, 0.005, 0.01):
            exact = blim_sym_after(eps)
            approx = blim_sym_after_second_order(eps)
            assert abs(exact - approx) / exact <= 1e-4  # within 0.01 percent


class TestSymmetricDuring:
    def test_noiseless_reduction(self):
        assert newbias_sym_during(0.5, 0.0) == pytest.approx(0.6875, abs=1e-12)

    def test_zero_bias_fixed(self):
        for eps in (0.0, 0.01, 0.3):
            assert newbias_sym_during(0.0, eps) == 0.0

    def test_frozen_value(self):
        assert newbias_sym_during(0.5, 0.01) == pytest.approx(
            0.6365050903959999, abs=1e-12)

    def test_threshold_bracketed_value(self):
        th = threshold_sym_during()
        assert th == pytest.approx(0.048592, abs=1e-6)

    def test_gain_sign_flips_across_threshold(self):
        th = threshold_sym_during()
        b = 1e-3
        assert newbias_sym_during(b, th - 1e-4) - b > 0
        assert newbias_sym_during(b, th + 1e-4) - b < 0

    def test_zero_rate_limit_expression(self):
        # at eps = 0 the zero-bias gain factor is 3/2, i.e. strictly improving
        assert newbias_sym_during(1e-9, 0.0) / 1e-9 == pytest.approx(1.5, abs=1e-6)

    def test_blim_against_bisection(self):
        assert blim_sym_during(0.0) == 1.0
        for eps in (0.001, 0.01, 0.04):
            root = bisect_root(lambda b, e=eps: newbias_sym_during(b, e) - b, 1e-9, 1.0)
            assert blim_sym_during(eps) == pytest.approx(root, abs=1e-9)
        assert blim_sym_during(0.01) == pytest.approx(0.9307982906793045, abs=1e-9)

    def test_blim_above_threshold_is_zero(self):
        assert blim_sym_during(0.05) == 0.0

    def test_second_order_quality(self):
        # holds for rates below one percent; at exactly 0.01 the gap is
        # marginally above 0.1 percent, so the grid stays strictly below
        for eps in (0.001, 0.005, 0.009):
            exact = blim_sym_during(eps)
            approx = blim_sym_during_second_order(eps)
            assert abs(exact - approx) / exact <= 1e-3


class TestAsymmetricAfter:
    def test_noiseless_reduction(self):
        assert newbias_asym_after(0.5, ErrorRates.symmetric(0.0)) == pytest.approx(
            0.6875, abs=1e-12)

    def test_compose_oracle(self):
        rates = ErrorRates.from_sd(0.2, 0.1)
        assert newbias_asym_after(0.5, rates) == pytest.approx(
            0.6875 * 0.8 + 0.1, abs=1e-12)
        assert newbias_asym_after(0.5, rates) == pytest.approx(0.65, abs=1e-12)

    def test_symmetric_slice_identity(self):
        for eps in (0.005, 0.02):
            rates = ErrorRates.symmetric(eps)
            for b in BIAS_GRID:
                assert newbias_asym_after(b, rates) == pytest.approx(
                    newbias_sym_after(b, eps), abs=1e-12)

    def test_blim_frozen_value(self):
        rates = ErrorRates.from_sd(0.02, 0.01)
        got = blim_asym_after(rates)
        assert got == pytest.approx(0.98985, abs=2e-4)  # close to second order
        assert got == pytest.approx(0.9898490408286942, abs=1e-9)

    def test_blim_is_update_fixed_point(self):
        rates = ErrorRates.from_sd(0.02, 0.01)
        lim = blim_asym_after(rates)
        assert newbias_asym_after(lim, rates) == pytest.approx(lim, abs=1e-9)

    def test_symmetric_slice_matches_sym_blim(self):
        got = blim_asym_after(ErrorRates.symmetric(0.01))
        assert got == pytest.approx(blim_sym_after(0.01), abs=1e-9)

    def test_noiseless_limit_is_one(self):
        assert blim_asym_after(ErrorRates.symmetric(0.0)) == 1.0

    def test_second_order_quality_on_halved_drift_family(self):
        for s in (0.002, 0.008, 0.0132):  # both underlying rates below 1 percent
            rates = ErrorRates.from_sd(s, s / 2)
            gap = abs(blim_asym_after(rates) - blim_asym_after_second_order(rates))
            assert gap <= 1e-5

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            blim_asym_after(ErrorRates.from_sd(0.7, 0.1))  # s >= 1/3
        with pytest.raises(ValueError):
            blim_asym_after(ErrorRates(0.2, 0.1))  # d < 0


class TestAsymmetricDuring:
    def test_noiseless_second_order_reduction(self):
        rates = ErrorRates.symmetric(0.0)
        got = newbias_asym_during(0.5, rates, mode="second_order")
        assert got == pytest.approx(three_bc_bias(0.5), abs=1e-12)

    def test_exact_mode_is_enumeration(self):
        rates = ErrorRates.from_sd(0.02, 0.01)
        exact = newbias_asym_during(0.5, rates, mode="exact")
        second = newbias_asym_during(0.5, rates, mode="second_order")
        assert abs(exact - second) <= 1e-4

    def test_exact_symmetric_slice_matches_closed_form(self):
        for eps in (0.001, 0.01, 0.04):
            rates = ErrorRates.symmetric(eps)
            for b in (0.1, 0.5, 0.9):
                exact = newbias_asym_during(b, rates, mode="exact")
                assert exact == pytest.approx(newbias_sym_during(b, eps), abs=1e-12)

    def test_second_order_slice_matches_taylor_of_closed_form(self):
        # residual is cubic in the rate: ~1.6e-8 at eps = 1e-3, ~8x at 2e-3
        b = 0.3
        r1 = abs(newbias_asym_during(b, ErrorRates.symmetric(1e-3), "second_order")
                 - newbias_sym_during(b, 1e-3))
        r2 = abs(newbias_asym_during(b, ErrorRates.symmetric(2e-3), "second_order")
                 - newbias_sym_during(b, 2e-3))
        assert r1 <= 2e-8
        assert r2 / r1 == pytest.approx(8.0, rel=0.05)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            newbias_asym_during(0.5, ErrorRates.symmetric(0.0), mode="fast")

    def test_bias_range_enforced(self):
        with pytest.raises(ValueError):
            newbias_sym_during(1.5, 0.01)
        with pytest.raises(ValueError):
            newbias_asym_during(-1.5, ErrorRates.symmetric(0.01), mode="second_order")

    @pytest.mark.parametrize("rates", [ErrorRates.from_sd(0.02, 0.01), ErrorRates(0.0, 0.3)],
                             ids=["small", "one-sided"])
    @pytest.mark.parametrize("b", [-1.0, -0.5, 0.0, 0.3, 1.0])
    def test_exact_mode_matches_tuple_enumeration(self, b, rates):
        want = noise.enumerate_noisy_output_bias(majority_circuit_toffoli(), b, rates)
        assert newbias_asym_during(b, rates, mode="exact") == pytest.approx(want, abs=1e-14)

    def test_model_weights_give_the_same_update(self):
        rates = ErrorRates(0.005, 0.015)
        update = make_model(ASYM_DURING, rates).update
        for b in (-1.0, -0.5, 0.0, 0.3, 1.0):
            assert update(b) == newbias_asym_during(b, rates, mode="exact")
        with pytest.raises(ValueError, match="exact mode only"):
            newbias_asym_during(0.5, rates, mode="second_order", weights=(1.0, 1.0, 0.0, 0.0))

    def test_exact_mode_bias_range_enforced(self):
        with pytest.raises(ValueError):
            newbias_asym_during(1.5, ErrorRates.symmetric(0.01), mode="exact")

    def test_production_paths_never_enumerate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the tuple enumerator is a test oracle only")

        monkeypatch.setattr(noise, "enumerate_noisy_output_bias", refuse)
        monkeypatch.setattr(limits, "enumerate_noisy_output_bias", refuse)
        rates = ErrorRates.from_sd(0.02, 0.01)
        report = limit_report(ASYM_DURING, rates)
        run = run_with_noise("simple-recursive", 1e-3, 1.0, rates, model=ASYM_DURING)
        assert 0.0 < report.b_lim < 1.0
        assert abs(run.final_bias - report.b_lim) <= 1e-6

    def test_blim_frozen_value(self):
        rates = ErrorRates.from_sd(0.02, 0.01)
        got = blim_asym_during(rates)
        assert got == pytest.approx(0.9673, abs=1e-3)  # near the second-order form
        assert got == pytest.approx(0.9672050624725428, abs=1e-9)

    def test_second_order_quality_on_halved_drift_family(self):
        for s in (0.002, 0.008, 0.0132):
            rates = ErrorRates.from_sd(s, s / 2)
            gap = abs(blim_asym_during(rates) - blim_asym_during_second_order(rates))
            assert gap <= 1e-4

    def test_symmetric_slice_second_order_identity(self):
        eps = 0.005
        got = blim_asym_during_second_order(ErrorRates.symmetric(eps))
        assert got == pytest.approx(1 - 6 * eps - 82 * eps**2, abs=1e-15)

    def test_noiseless_limit_is_one(self):
        assert blim_asym_during(ErrorRates.symmetric(0.0)) == 1.0

    def test_validity_region_enforced(self):
        with pytest.warns(UserWarning):
            blim_asym_during(ErrorRates.from_sd(0.05, 0.01))
        with pytest.raises(ValueError):
            blim_asym_during(ErrorRates.from_sd(0.09, 0.01))


class TestGenericLayer:
    def test_attracting_limit_matches_closed_forms(self):
        model = make_model(SYM_AFTER, ErrorRates.symmetric(0.01))
        assert attracting_limit(model.update) == pytest.approx(
            blim_sym_after(0.01), abs=1e-9)
        model = make_model(SYM_DURING, ErrorRates.symmetric(0.01))
        assert attracting_limit(model.update) == pytest.approx(
            blim_sym_during(0.01), abs=1e-9)
        model = make_model(ASYM_AFTER, ErrorRates.from_sd(0.02, 0.01))
        assert attracting_limit(model.update) == pytest.approx(
            blim_asym_after(ErrorRates.from_sd(0.02, 0.01)), abs=1e-9)

    def test_attracting_limit_zero_above_threshold(self):
        model = make_model(SYM_AFTER, ErrorRates.symmetric(0.2))
        assert attracting_limit(model.update) == 0.0

    def test_update_maps_positive_at_zero_when_drift_positive(self):
        for label in (ASYM_AFTER, ASYM_DURING):
            model = make_model(label, ErrorRates.from_sd(0.02, 0.01))
            assert model.update(0.0) >= 0.0

    def test_limit_is_attracting_boundary(self):
        # improvement is positive below the limit, negative above it
        for label, rates in [(SYM_AFTER, ErrorRates.symmetric(0.01)),
                             (SYM_DURING, ErrorRates.symmetric(0.01)),
                             (ASYM_AFTER, ErrorRates.from_sd(0.02, 0.01)),
                             (ASYM_DURING, ErrorRates.from_sd(0.02, 0.01))]:
            model = make_model(label, rates)
            lim = attracting_limit(model.update)
            lo = rates.d / rates.s * (1 + 1e-9) if rates.d > 0 else 1e-6
            for t in (0.25, 0.5, 0.75):
                b = lo + (lim * (1 - 1e-9) - lo) * t
                assert model.update(b) > b, (label, b)
            for b in (lim * (1 + 1e-9) + 1e-12, lim + 0.5 * (1 - lim), 0.999999):
                if b <= 1.0:
                    assert model.update(b) < b, (label, b)

    def test_sym_labels_require_symmetric_rates(self):
        with pytest.raises(ValueError):
            make_model(SYM_AFTER, ErrorRates.from_sd(0.02, 0.01))
        with pytest.raises(ValueError):
            make_model("bogus", ErrorRates.symmetric(0.0))

    def test_limit_report_fields(self):
        report = limit_report(SYM_DURING, ErrorRates.symmetric(0.01))
        assert report.model == SYM_DURING
        assert report.threshold == pytest.approx(0.048592, abs=1e-6)
        assert report.b_lim == pytest.approx(0.9307982906793045, abs=1e-9)
        assert report.b_lim_second_order == pytest.approx(0.9318, abs=1e-12)
        assert report.gap == pytest.approx(abs(report.b_lim - 0.9318), abs=1e-12)
        assert not report.above_threshold
        d = report.as_dict()
        assert d["model"] == SYM_DURING and d["b_lim"] == report.b_lim

    def test_limit_report_above_threshold(self):
        report = limit_report(SYM_AFTER, ErrorRates.symmetric(0.3))
        assert report.above_threshold and report.b_lim == 0.0

    def test_asym_reports_have_no_threshold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for label in (ASYM_AFTER, ASYM_DURING):
                report = limit_report(label, ErrorRates.from_sd(0.02, 0.01))
                assert report.threshold is None


class TestSummaryTable:
    def test_rows(self):
        rows = summary_table(eps=0.01, s=0.02, b_i=0.5)
        assert [r["model"] for r in rows] == list(MODEL_LABELS)
        by_model = {r["model"]: r for r in rows}
        assert by_model[SYM_AFTER]["threshold_text"] == "1/6"
        assert by_model[SYM_AFTER]["threshold"] == pytest.approx(1 / 6)
        assert by_model[SYM_AFTER]["b_lim_second_order"] == pytest.approx(
            1 - 0.02 - 0.0006, abs=1e-15)
        assert by_model[SYM_DURING]["threshold_text"] == "0.048592"
        assert by_model[SYM_DURING]["b_lim_second_order"] == pytest.approx(
            0.9318, abs=1e-15)
        assert by_model[ASYM_AFTER]["threshold"] is None
        assert by_model[ASYM_AFTER]["threshold_text"] == "N/A"
        assert by_model[ASYM_DURING]["threshold_text"] == "N/A"

    def test_initial_bias_form_equals_rate_form(self):
        # with d = s * b_i the (s, b_i) polynomials equal the (s, d) ones
        s, b_i = 0.02, 0.5
        rows = summary_table(eps=0.01, s=s, b_i=b_i)
        by_model = {r["model"]: r for r in rows}
        rates = ErrorRates.from_sd(s, s * b_i)
        assert by_model[ASYM_AFTER]["b_lim_second_order"] == pytest.approx(
            blim_asym_after_second_order(rates), abs=1e-15)
        assert by_model[ASYM_DURING]["b_lim_second_order"] == pytest.approx(
            blim_asym_during_second_order(rates), abs=1e-15)
