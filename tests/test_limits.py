"""Thresholds, bias limits, and second-order approximations per noise model.

Bisection on the exact update maps is the reference for every limit; the
closed forms must agree with it, and the asymmetric formulas must reduce
to the symmetric ones on the d = 0 slice.
"""

import math
from fractions import Fraction
from itertools import product

import pytest

from hbcool import limits, noise
from hbcool.bias import ErrorRates, debias_step, prob_from_bias, three_bc_bias
from hbcool.circuits import Circuit, majority_circuit_toffoli
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
    blim_sym_after,
    blim_sym_during,
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


HALVED_DRIFT_FAMILY = [ErrorRates.from_sd(0.02 / 2**k, 0.01 / 2**k) for k in range(5)]
HALVED_SYMMETRIC_FAMILY = [ErrorRates.symmetric(0.01 / 2**k) for k in range(5)]


def second_order_residuals(label, family):
    """|second-order limit - exact limit| along a family of rates."""
    return [abs(report.b_lim_second_order - report.b_lim)
            for report in (limit_report(label, rates) for rates in family)]


def derived_update(during):
    """The derived second-order update as {(m, i, j): coefficient of b^m s^i d^j}."""
    terms = limits._second_order_forms(during)[0]
    return {(m, i, j): Fraction(c) for m, poly in enumerate(terms) for c, i, j in poly}


def interpolated_coefficients(f, grids):
    """Exact monomial coefficients of the polynomial that interpolates f on the
    tensor grid of dyadic nodes `grids`, one node list per argument.

    f is called with floats and must return floats that are exact there, as
    the closed forms are at few-bit dyadic points."""
    bases = []
    for nodes in grids:
        basis = []
        for k, xk in enumerate(nodes):
            poly = [Fraction(1)]  # the Lagrange polynomial of node k, low degree first
            for xm in nodes[:k] + nodes[k + 1:]:
                shifted = [0] + poly
                poly = [(shifted[e] - xm * (poly[e] if e < len(poly) else 0)) / (xk - xm)
                        for e in range(len(shifted))]
            basis.append(poly)
        bases.append(basis)
    out: dict = {}
    indices = [range(len(nodes)) for nodes in grids]
    for point in product(*indices):
        value = Fraction(f(*(float(grids[v][k]) for v, k in enumerate(point))))
        for exponents in product(*indices):
            c = value
            for basis, k, e in zip(bases, point, exponents):
                c *= basis[k][e]
            out[exponents] = out.get(exponents, 0) + c
    return {key: c for key, c in out.items() if c}


B_NODES = [Fraction(k, 2) for k in range(-2, 3)]


def poly_mul(p, q):
    """Product of two polynomials held as {exponent tuple: exact coefficient}."""
    out: dict = {}
    for ep, cp in p.items():
        for eq, cq in q.items():
            key = tuple(a + b for a, b in zip(ep, eq))
            out[key] = out.get(key, 0) + Fraction(cp) * cq
    return out


def poly_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return out


def poly_power(p, n):
    out = {tuple(0 for _ in next(iter(p))): Fraction(1)}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def exact_asym_during_update(max_order=2):
    """The exact update 2 sum_k c_k p^(3-k) q^k - 1 as {(m, i, j): coefficient of
    b^m s^i d^j}, to total order `max_order` in (s, d), with eps0 = (s - d)/2 and
    eps1 = (s + d)/2 substituted into the transfer table's polynomials."""
    table = noise.transfer_table(majority_circuit_toffoli())
    half = Fraction(1, 2)
    eps0, eps1 = {(1, 0): half, (0, 1): -half}, {(1, 0): half, (0, 1): half}
    p, q = {(0,): half, (1,): half}, {(0,): half, (1,): -half}
    update: dict = {(0, 0, 0): Fraction(-1)}
    for x, row in enumerate(table):
        k = x.bit_count()
        in_b = poly_mul(poly_power(p, 3 - k), poly_power(q, k))
        for c, i, j in row.terms:
            if i + j > max_order:
                continue
            in_sd = poly_mul(poly_power(eps0, i), poly_power(eps1, j))
            for (m,), cb in in_b.items():
                for (a, e), cs in in_sd.items():
                    update[m, a, e] = update.get((m, a, e), 0) + 2 * c * cb * cs
    return update


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
            approx = limit_report(SYM_AFTER, ErrorRates.symmetric(eps)).b_lim_second_order
            assert abs(exact - approx) / exact <= 1e-4  # within 0.01 percent

    def test_second_order_limit_is_third_order_accurate(self):
        residuals = second_order_residuals(SYM_AFTER, HALVED_SYMMETRIC_FAMILY)
        assert all(r1 / r2 >= 7.0 for r1, r2 in zip(residuals, residuals[1:]))

    def test_closed_form_is_the_after_circuit_update(self):
        # on d = 0, s = 2e: the term b^m s^i carries 2^i e^i
        want = {(m, i): c * 2**i for (m, i, j), c in derived_update(during=False).items()
                if j == 0}
        eps_nodes = [Fraction(k, 16) for k in range(3)]
        assert interpolated_coefficients(newbias_sym_after, [B_NODES, eps_nodes]) == want


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
            approx = limit_report(SYM_DURING, ErrorRates.symmetric(eps)).b_lim_second_order
            assert abs(exact - approx) / exact <= 1e-3

    def test_second_order_limit_is_third_order_accurate(self):
        residuals = second_order_residuals(SYM_DURING, HALVED_SYMMETRIC_FAMILY)
        assert all(r1 / r2 >= 7.0 for r1, r2 in zip(residuals, residuals[1:]))


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
            gap = abs(blim_asym_after(rates)
                      - limit_report(ASYM_AFTER, rates).b_lim_second_order)
            assert gap <= 1e-5

    def test_second_order_limit_is_third_order_accurate(self):
        residuals = second_order_residuals(ASYM_AFTER, HALVED_DRIFT_FAMILY)
        assert all(r1 / r2 >= 7.0 for r1, r2 in zip(residuals, residuals[1:]))

    def test_closed_form_is_the_after_circuit_update(self):
        s_nodes = [Fraction(k, 8) for k in range(1, 4)]
        d_nodes = [Fraction(k, 32) for k in range(3)]
        closed = interpolated_coefficients(
            lambda b, s, d: newbias_asym_after(b, ErrorRates.from_sd(s, d)),
            [B_NODES, s_nodes, d_nodes])
        assert closed == derived_update(during=False)

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

    def test_exact_mode_bias_range_enforced(self):
        with pytest.raises(ValueError):
            newbias_asym_during(1.5, ErrorRates.symmetric(0.01), mode="exact")

    def test_production_paths_never_enumerate(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the tuple enumerator is a test oracle only")

        monkeypatch.setattr(noise, "enumerate_noisy_output_bias", refuse)
        monkeypatch.setattr(limits, "enumerate_noisy_output_bias", refuse)
        monkeypatch.setattr(Circuit, "run_with_channels", refuse)
        rates = ErrorRates.from_sd(0.02, 0.01)
        report = limit_report(ASYM_DURING, rates)
        run = run_with_noise("simple-recursive", 1e-3, 1.0, rates, model=ASYM_DURING)
        assert 0.0 < report.b_lim < 1.0
        assert abs(run.final_bias - report.b_lim) <= 1e-6

    def test_second_order_quality_on_halved_drift_family(self):
        for s in (0.002, 0.008, 0.0132):
            report = limit_report(ASYM_DURING, ErrorRates.from_sd(s, s / 2))
            assert abs(report.b_lim - report.b_lim_second_order) <= 1e-4

    def test_second_order_limit_is_third_order_accurate(self):
        residuals = second_order_residuals(ASYM_DURING, HALVED_DRIFT_FAMILY)
        assert all(r1 / r2 >= 7.0 for r1, r2 in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("b", [-0.7, 0.3, 0.9])
    def test_second_order_update_is_third_order_accurate(self, b):
        # d = s/2, s halved from 0.02: an O(s^3) residual shrinks about 8x per halving
        residuals = [abs(newbias_asym_during(b, rates, "second_order")
                         - newbias_asym_during(b, rates, "exact"))
                     for rates in HALVED_DRIFT_FAMILY]
        assert all(r1 / r2 >= 7.0 for r1, r2 in zip(residuals, residuals[1:]))

    def test_second_order_coefficients_are_the_exact_taylor_coefficients(self):
        # expand the exact update, from the circuit's polynomials, in b, s and d
        exact = exact_asym_during_update()
        derived = derived_update(during=True)
        for m in range(4):
            for i in range(3):
                for j in range(3 - i):
                    assert derived.get((m, i, j), 0) == exact.get((m, i, j), 0), (m, i, j)

    def test_exact_update_is_the_symmetric_closed_form_at_zero_drift(self):
        # (b/2)(1-2e)^3 (3 - 6e + 4e^2 - b^2 (1-2e)^3), coefficient by coefficient in (b, e)
        cube = poly_power({(0, 0): 1, (0, 1): -2}, 3)
        closed = poly_mul(poly_mul({(1, 0): Fraction(1, 2)}, cube),
                          poly_add({(0, 0): 3, (0, 1): -6, (0, 2): 4},
                                   poly_mul({(2, 0): -1}, cube)))
        # on d = 0, s = 2e: the term b^m s^i carries 2^i e^i
        zero_drift = {(m, i): c * 2**i
                      for (m, i, j), c in exact_asym_during_update(max_order=7).items()
                      if j == 0 and c}
        assert zero_drift == {k: c for k, c in closed.items() if c}

    def test_symmetric_slice_second_order_identity(self):
        eps = 0.005
        got = limit_report(ASYM_DURING, ErrorRates.symmetric(eps)).b_lim_second_order
        assert got == pytest.approx(1 - 6 * eps - 82 * eps**2, abs=1e-15)

    def test_noiseless_limit_is_one(self):
        report = limit_report(ASYM_DURING, ErrorRates.symmetric(0.0))
        assert report.b_lim == 1.0 and report.b_lim_second_order == 1.0


class TestDerivedSecondOrderForms:
    @pytest.mark.parametrize("during, want", [
        (True, (-3, 3, Fraction(-41, 2), 32, Fraction(-23, 2))),
        (False, (-1, 1, Fraction(-3, 2), 3, Fraction(-3, 2))),
    ], ids=["during", "after"])
    def test_limit_coefficients(self, during, want):
        # coefficients of s, d, s^2, sd, d^2
        assert tuple(Fraction(c) for c in limits._second_order_forms(during)[1]) == want

    @pytest.mark.parametrize("label, want", [(SYM_AFTER, (-2, -6)), (SYM_DURING, (-6, -82))],
                             ids=[SYM_AFTER, SYM_DURING])
    def test_symmetric_slices(self, label, want):
        a_s, _, a_ss, _, _ = limits._second_order_forms(label == SYM_DURING)[1]
        assert (Fraction(2 * a_s), Fraction(4 * a_ss)) == want
        # the slice evaluates bit for bit like 1 + a eps + c eps^2
        for eps in (0.001, 0.0123, 0.03, 0.04):
            got = limit_report(label, ErrorRates.symmetric(eps)).b_lim_second_order
            assert got == 1.0 + want[0] * eps + want[1] * eps * eps


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

    def test_warning_only_outside_the_unit_interval(self):
        inside = limit_report(SYM_DURING, ErrorRates.symmetric(0.01))
        assert inside.warnings == () and "warnings" not in inside.as_dict()
        outside = limit_report(SYM_DURING, ErrorRates.symmetric(0.1))
        assert outside.b_lim_second_order == pytest.approx(-0.42, abs=1e-12)
        (warning,) = outside.warnings
        assert "outside [0, 1]" in warning and "small-rate expansion" in warning
        assert outside.as_dict()["warnings"] == [warning]

    def test_asym_reports_have_no_threshold(self):
        for label in (ASYM_AFTER, ASYM_DURING):
            report = limit_report(label, ErrorRates.from_sd(0.02, 0.01))
            assert report.threshold is None


# Rates on which every pre-bound map is checked bit for bit, as (s, d) pairs;
# the symmetric models use eps = s / 2 and ignore d.
MAP_RATES = [(0.0, 0.0), (2e-4, 1e-4), (0.02, 0.01), (0.02, 0.0), (0.1, 0.09),
             (0.3, 0.25), (0.6, 0.3)]
MAP_BIASES = [0.0, 1e-9, 1e-3, 0.1, 0.3, 0.5, 0.9, 0.999, 1.0, -0.4, -1.0,
              *(k / 97 - 0.5 for k in range(0, 97, 7))]


def _composed_update(label: str, rates: ErrorRates, b: float) -> float:
    """The update as its formula's parts composed, each call checking its inputs."""
    eps = rates.eps0
    if label == SYM_AFTER:
        return three_bc_bias(b) * (1.0 - 2.0 * eps)
    if label == SYM_DURING:
        c = (1.0 - 2.0 * eps) ** 3
        return 0.5 * b * c * (3.0 - 6.0 * eps + 4.0 * eps * eps - b * b * c)
    if label == ASYM_AFTER:
        return debias_step(three_bc_bias(b), rates)
    p = prob_from_bias(b)
    q = 1.0 - p
    c = [w(rates) for w in limits._weight_polynomials(True)]
    return 2.0 * (c[0] * p**3 + c[1] * p * p * q + c[2] * p * q * q + c[3] * q**3) - 1.0


def _public_update(label: str, rates: ErrorRates, b: float) -> float:
    if label == SYM_AFTER:
        return newbias_sym_after(b, rates.eps0)
    if label == SYM_DURING:
        return newbias_sym_during(b, rates.eps0)
    if label == ASYM_AFTER:
        return newbias_asym_after(b, rates)
    return newbias_asym_during(b, rates)


def _model_rates(label: str, s: float, d: float) -> ErrorRates:
    if label in (SYM_AFTER, SYM_DURING):
        return ErrorRates.symmetric(s / 2)
    return ErrorRates.from_sd(s, d)


class TestPreBoundMaps:
    @pytest.mark.parametrize("label", MODEL_LABELS)
    @pytest.mark.parametrize("s, d", MAP_RATES)
    def test_model_map_equals_public_update_and_composition(self, label, s, d):
        rates = _model_rates(label, s, d)
        update = make_model(label, rates).update
        for b in MAP_BIASES:
            got = update(b)
            assert got == _public_update(label, rates, b), (label, b)  # bit for bit
            assert got == _composed_update(label, rates, b), (label, b)

    @pytest.mark.parametrize("label", MODEL_LABELS)
    @pytest.mark.parametrize("b", [1.5, -1.0000000000000002, float("nan")])
    def test_out_of_range_bias_keeps_its_message(self, label, b):
        bounds = "-1.0, 1.0" if label in (SYM_AFTER, ASYM_AFTER) else "-1, 1"
        message = f"bias must be in [{bounds}], got {b!r}"
        rates = _model_rates(label, 0.02, 0.01)
        for call in (make_model(label, rates).update, lambda b: _public_update(label, rates, b)):
            with pytest.raises(ValueError) as info:
                call(b)
            assert str(info.value) == message

    def test_sym_public_updates_check_the_rate_first(self):
        for newbias in (newbias_sym_after, newbias_sym_during):
            with pytest.raises(ValueError, match=r"error rate must be in \[0, 0.5\), got 0.6"):
                newbias(1.5, 0.6)


class TestSummaryTable:
    def test_rows_need_a_channel(self):
        # s = 0.9 with b_i = 0.5 asks for eps1 = 0.675, which no channel has
        with pytest.raises(ValueError, match=r"eps1 must be in \[0, 1/2\), got 0.675"):
            summary_table(eps=0.01, s=0.9, b_i=0.5)
        with pytest.raises(ValueError, match="eps0 must be in"):
            summary_table(eps=0.01, s=1.0, b_i=0.0)

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
        for label in (ASYM_AFTER, ASYM_DURING):
            assert by_model[label]["b_lim_second_order"] == pytest.approx(
                limit_report(label, rates).b_lim_second_order, abs=1e-15)
