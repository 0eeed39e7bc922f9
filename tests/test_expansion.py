"""Expansion assembly: worked coefficients, flattening, ratios, evaluation."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpc, mpf

from smoothasym import (
    Direction,
    SparsePoly,
    build_frame,
    combine_expansions,
    expand_degenerate,
    expand_smooth,
    expand_univariate,
    ratio_asymptotics,
    solve_critical,
)
from smoothasym.cli import ProblemSpec, run_expand
from smoothasym.expansion import (
    DegenerateHessianError,
    ExpansionError,
    FlatSeries,
    rising_factorial_poly,
)
from smoothasym.localframe import frame_order, vanishing_order
from smoothasym.stationary import OrderBudgetError

from conftest import poly, smirnov_family
from oracles import evaluate_structured, stirling_multinomial_expansion

ROOT = Path(__file__).resolve().parents[1]


def close(a, b, tol="1e-40"):
    return abs(mpc(a) - mpc(b)) <= mpf(tol) * max(abs(mpc(b)), mpf(1))


class TestRisingFactorial:
    def test_empty_product(self):
        assert rising_factorial_poly(Fraction(1), 0) == [Fraction(1)]

    def test_two_factors(self):
        # (y+1)(y+2) = 2 + 3y + y^2
        assert rising_factorial_poly(Fraction(1), 2) == [
            Fraction(2),
            Fraction(3),
            Fraction(1),
        ]


class TestExpandSmooth:
    def test_central_binomial_leading(self, central_binomial):
        G, H, alpha = central_binomial
        e = _expand(G, H, 1, alpha, N=1)
        exps = [t[0] for t in e.flattened.terms]
        assert exps == [Fraction(-1, 2)]
        assert close(e.flattened.terms[0][1], 1 / mp.sqrt(mp.pi), "1e-12")
        assert close(e.base_magnitude(), 4, "1e-30")
        assert e.error_exponent == Fraction(-3, 2)

    def test_delannoy_two_terms(self, delannoy):
        G, H, alpha = delannoy
        e = _expand(G, H, 1, alpha, N=2)
        assert [t[0] for t in e.flattened.terms] == [Fraction(-1, 2), Fraction(-3, 2)]
        b0, b1 = (t[1] for t in e.flattened.terms)
        assert abs(b0 - mpf("0.3690602772")) < mpf("1e-9")
        assert abs(b1 - mpf("-0.01853610557")) < mpf("1e-9")

    def test_smirnov_denominator(self):
        H, fams = smirnov_family()
        G, G_den, p = fams[0]
        e = _expand(G, H, p, Direction((1, 1, 1)), N=2)
        assert close(e.flattened.coefficient(-1), mp.sqrt(3) / (2 * mp.pi), "1e-12")
        assert close(e.flattened.coefficient(-2), -mp.sqrt(3) / (9 * mp.pi), "1e-12")
        assert close(e.base_magnitude(), 27, "1e-30")

    def test_top_exponent_invariant(self):
        H, fams = smirnov_family()
        for G, G_den, p in fams:
            e = _expand(G, H, p, Direction((1, 1, 1)), N=2, G_den=G_den)
            assert e.flattened.terms[0][0] == Fraction(p - 1) - 1
            exps = [t[0] for t in e.flattened.terms]
            assert all(a > b for a, b in zip(exps, exps[1:]))
            assert e.error_exponent < exps[-1]

    def test_degenerate_hessian_routed_away(self, quantum_walk):
        G, H, alpha = quantum_walk
        frame = build_frame(G, H, 1, alpha, (mpc(1), mpc(1)), 12, 1)
        with pytest.raises(DegenerateHessianError):
            expand_smooth(frame, 1)


class TestExpandDegenerate:
    def test_v2_agrees_with_smooth(self, central_binomial):
        G, H, alpha = central_binomial
        frame = build_frame(G, H, 1, alpha, (mpc(1) / 2, mpc(1) / 2),
                            frame_order(3), 3)
        smooth = expand_smooth(frame, 3)
        even = expand_degenerate(frame, 3, v=2)
        assert even.kind == "degenerate-even"
        for e, c in smooth.flattened.terms:
            assert abs(even.flattened.coefficient(e) - c) <= mpf("1e-10") * abs(c)

    def test_requires_two_variables(self):
        H, fams = smirnov_family()
        G, _, p = fams[0]
        frame = build_frame(G, H, p, Direction((1, 1, 1)), (mpc(1) / 3,) * 3, 8, 1)
        with pytest.raises(ExpansionError):
            expand_degenerate(frame, 1, v=2)

    def test_order_guard(self, quantum_walk):
        G, H, alpha = quantum_walk
        frame = build_frame(G, H, 1, alpha, (mpc(1), mpc(1)), 12, 5)
        with pytest.raises(ExpansionError):
            expand_degenerate(frame, 5, v=3)


class TestFrameTerms:
    def test_frame_refuses_more_terms_than_built_for(self, delannoy, delannoy_point):
        # the amplitudes of a frame built for N=2 hold degrees through 2; a
        # third term would read degree 4 of them
        G, H, alpha = delannoy
        frame = build_frame(G, H, 1, alpha, delannoy_point, frame_order(3), 2)
        assert frame.terms == 2
        assert len(expand_smooth(frame, 2).structured) == 2
        with pytest.raises(OrderBudgetError):
            expand_smooth(frame, 3)
        with pytest.raises(OrderBudgetError):
            expand_degenerate(frame, 3, v=2)


class TestExpandUnivariate:
    def test_simple_pole_powers(self):
        one = SparsePoly.constant(1, 1)
        H = poly(1, {(0,): 1, (1,): -1})
        for p, values in ((1, [1, 1, 1]), (2, [1, 2, 3]), (3, [1, 3, 6])):
            e = expand_univariate(one, H, p, (mpc(1),))
            got = [e.evaluate(n)[0] for n in (1, 2, 3)]
            # F_n = binomial(n+p-1, p-1); n starts at 1 here
            expect = [math.comb(n + p - 1, p - 1) for n in (1, 2, 3)]
            for g, x in zip(got, expect):
                assert close(g, x, "1e-50")

    def test_double_pole_amplitudes(self):
        one = SparsePoly.constant(1, 1)
        H = poly(1, {(0,): 1, (1,): -1})
        e = expand_univariate(one, H, 2, (mpc(1),))
        terms = {rec["j"]: rec["term"] for rec in e.structured}
        assert close(terms[0], 1, "1e-55")
        assert abs(terms[1]) < mpf("1e-55")

    def test_geometric_base(self):
        one = SparsePoly.constant(1, 1)
        H = poly(1, {(0,): 1, (1,): -2})
        e = expand_univariate(one, H, 1, (mpc(1) / 2,))
        for n in (1, 5, 10):
            assert close(e.evaluate(n)[0], mpf(2) ** n, "1e-50")

    def test_non_smooth_rejected(self):
        one = SparsePoly.constant(1, 1)
        H = poly(1, {(0,): 1, (2,): -2, (1,): -0}) * poly(1, {(0,): 1})
        Hsq = poly(1, {(0,): 1, (1,): -1}) ** 2
        with pytest.raises(ExpansionError):
            expand_univariate(one, Hsq, 1, (mpc(1),))


class TestCombine:
    def test_two_point_alternation(self):
        one = SparsePoly.constant(1, 1)
        H = poly(1, {(0,): 1, (2,): -1})  # 1 - x^2
        e1 = expand_univariate(one, H, 1, (mpc(1),))
        e2 = expand_univariate(one, H, 1, (mpc(-1),))
        combined = combine_expansions([e1, e2])
        values = [combined.evaluate(n)[0] for n in range(1, 7)]
        for n, val in zip(range(1, 7), values):
            assert close(val, 1 if n % 2 == 0 else 0, "1e-50")

    def test_single_point_unchanged(self, central_binomial):
        G, H, alpha = central_binomial
        e = _expand(G, H, 1, alpha, N=1)
        assert combine_expansions([e]) is e

    def test_duplicates_rejected(self):
        one = SparsePoly.constant(1, 1)
        H = poly(1, {(0,): 1, (1,): -1})
        e1 = expand_univariate(one, H, 1, (mpc(1),))
        e2 = expand_univariate(one, H, 1, (mpc(1),))
        with pytest.raises(ExpansionError):
            combine_expansions([e1, e2])

    def test_direction_mismatch_rejected(self, central_binomial, delannoy):
        G, H, alpha = central_binomial
        G2, H2, alpha2 = delannoy
        e1 = _expand(G, H, 1, alpha, N=1)
        e2 = _expand(G2, H2, 1, alpha2, N=1)
        with pytest.raises(ExpansionError):
            combine_expansions([e1, e2])


class TestEvaluate:
    def test_structured_matches_flattened_plus_dropped(self):
        H, fams = smirnov_family()
        for G, G_den, p in fams:
            e = _expand(G, H, p, Direction((1, 1, 1)), N=2, G_den=G_den)
            for n in (1, 2, 5, 17):
                full = e.base_power(n) * (
                    e.flattened.evaluate(n) + e.dropped.evaluate(n)
                )
                structured = evaluate_structured(e, n)
                assert abs(full - structured) <= mpf("1e-12") * abs(structured)

    def test_non_integral_index_rejected(self, quantum_walk):
        G, H, alpha = quantum_walk
        frame = build_frame(G, H, 1, alpha, (mpc(1), mpc(1)), 27, 5)
        e = expand_degenerate(frame, 5, v=vanishing_order(frame.phase))
        with pytest.raises(ExpansionError):
            e.evaluate(3)

    def test_error_estimate_reported(self, delannoy):
        G, H, alpha = delannoy
        e = _expand(G, H, 1, alpha, N=2)
        value, estimate = e.evaluate(4, terms=1)
        # the estimate is the magnitude of the first unused flattened term
        _, b1 = e.flattened.terms[1]
        expect = abs(e.base_power(4)) * abs(b1) * mpf(4) ** mpf("-1.5")
        assert close(estimate, expect, "1e-30")


class TestRatio:
    def test_smirnov_expectation(self):
        H, fams = smirnov_family()
        alpha = Direction((1, 1, 1))
        G1, _, p1 = fams[0]
        G2, R, p2 = fams[1]
        e1 = _expand(G1, H, p1, alpha, N=2)
        e2 = _expand(G2, H, p2, alpha, N=2, G_den=R)
        ratio = ratio_asymptotics(e2, e1, 2)
        assert ratio.terms[0][0] == 1 and ratio.terms[1][0] == 0
        assert close(ratio.terms[0][1], mpf(3) / 4, "1e-20")
        assert close(ratio.terms[1][1], mpf(-15) / 32, "1e-20")
        assert ratio.error_exponent == Fraction(-1)

    def test_base_mismatch_rejected(self, central_binomial, delannoy):
        G, H, alpha = central_binomial
        G2, H2, alpha2 = delannoy
        e1 = _expand(G, H, 1, alpha, N=1)
        e2 = _expand(G2, H2, 1, alpha2, N=1)
        with pytest.raises(ExpansionError):
            ratio_asymptotics(e1, e2, 1)

    def test_zero_leading_denominator_rejected(self):
        numer = FlatSeries([(Fraction(0), mpc(1))], error_exponent=Fraction(-2))
        denom = FlatSeries([(Fraction(0), mpc(0))], error_exponent=Fraction(-2))
        with pytest.raises(ExpansionError):
            ratio_asymptotics(numer, denom, 1)


def _expand(G, H, p, alpha, N, G_den=None):
    points, _ = solve_critical(H, alpha)
    pos = [pt for pt in points if pt[0].real > 0 and abs(pt[0].imag) < mpf("1e-20")]
    point = min(pos, key=lambda pt: abs(pt[0]))
    frame = build_frame(G, H, p, alpha, point, frame_order(N), N,
                        G_den=G_den)
    return expand_smooth(frame, N)


# -- the flattened coefficients against Stirling's series ----------------------


def multinomial_coefficients(a, N, spec=None):
    """The flattened coefficients ``smoothasym expand`` prints for
    ``1/(1 - x_1 - ... - x_d)`` along ``a`` with N terms, and the precision."""
    d = len(a)
    spec = spec or {
        "variables": [f"x{i}" for i in range(d)],
        "G": [{"exp": [0] * d, "coef": "1"}],
        "H": [{"exp": [0] * d, "coef": "1"}]
        + [{"exp": [int(i == j) for j in range(d)], "coef": "-1"} for i in range(d)],
        "p": 1, "alpha": [str(ai) for ai in a],
    }
    spec = ProblemSpec.from_json(dict(spec, N=N, n_values=[1]))
    result, _ = run_expand(spec)
    return result["expansion"]["flattened"]["terms"], spec.precision_bits


def assert_within(a, N, slack, spec=None):
    """Every printed coefficient within ``2^-(prec - slack)`` of the exact one,
    relative."""
    printed, bits = multinomial_coefficients(a, N, spec)
    with mp.workprec(bits + 200):
        exact = stirling_multinomial_expansion(a, N)
        assert [Fraction(t["exponent"]) for t in printed] == [e for e, _ in exact]
        for t, (e, c) in zip(printed, exact):
            got = mpc(mpf(t["coef"]["re"]), mpf(t["coef"]["im"]))
            assert abs(got - c) <= mpf(2) ** (slack - bits) * abs(c), e


class TestStirlingOracle:
    @pytest.mark.parametrize("a", [(1,), (1, 1), (2, 1), (1, 1, 1), (3, 1, 2)])
    def test_series_matches_the_multinomial_at_large_n(self, a):
        # at n = 200 the 8-term series misses (|a| n)!/prod (a_i n)! by
        # about its first dropped term, e_8 n^-8
        n = 200
        with mp.workprec(300):
            exact = mpf(math.factorial(sum(a) * n)) / math.prod(
                math.factorial(ai * n) for ai in a)
            rho = mpf(sum(a)) ** sum(a) / math.prod(mpf(ai) ** ai for ai in a)
            series = sum(c * mpf(n) ** (mpf(e.numerator) / e.denominator)
                         for e, c in stirling_multinomial_expansion(a, 8))
            assert abs(rho**n * series / exact - 1) < mpf("1e-18")

    def test_central_binomial_terms(self):
        # C(2n, n) ~ 4^n (pi n)^(-1/2) (1 - 1/(8n) + 1/(128 n^2) + ...)
        terms = stirling_multinomial_expansion((1, 1), 3)
        lead = 1 / mp.sqrt(mp.pi)
        expect = [(Fraction(-1, 2), lead), (Fraction(-3, 2), -lead / 8),
                  (Fraction(-5, 2), lead / 128)]
        for (e, c), (f, t) in zip(terms, expect):
            assert e == f and abs(c - t) < mpf("1e-50")

    @pytest.mark.parametrize("a, N", [((1, 1), 8), ((2, 1), 8), ((1, 1, 1), 4),
                                      ((1, 1, 1), 6)])
    def test_printed_coefficients(self, a, N):
        # rounding in the frame and the term sums costs the higher terms up
        # to about 50 bits at 212
        assert_within(a, N, 64)

    @pytest.mark.xfail(
        strict=True,
        reason="the expansion runs at the printed precision: at 212 bits the "
        "Smirnov words N = 4 coefficient of n^-4 misses the exact one by "
        "5.4e-56 relative, against 2^-192 = 1.6e-58",
    )
    def test_smirnov_words_to_working_precision(self):
        docs = json.loads((ROOT / "docs" / "problems" / "smirnov_words.json").read_text())
        assert_within((1, 1, 1), 4, 20, docs)
