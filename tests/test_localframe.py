"""Point-local frames: implicit jets, phase, Hessians, amplitudes."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from mpmath import mp, mpc, mpf

from smoothasym import (
    Direction,
    Jet,
    SparsePoly,
    build_frame,
    implicit_root_jet,
    phase_hessian,
    phase_jet,
    solve_critical,
    vanishing_order,
)
from smoothasym import cli
from smoothasym.cli import PipelineExit, ProblemSpec
from smoothasym.expansion import expand_degenerate, expand_smooth
from smoothasym.localframe import (
    FrameError,
    amplitude_jets,
    frame_order,
    hessian_from_jet,
    phase_window,
    validate_frame,
)
from smoothasym.stationary import (
    OrderBudgetError,
    PhaseData,
    read_degree,
    stationary_term,
    stationary_term_even,
    stationary_term_odd,
)

from smoothasym.series import SeriesError

from conftest import poly, random_critical_instance, smirnov_family
from oracles import (
    above_indices,
    frame_to_json,
    jet_bits,
    phase_hessian_symmetric_q,
    poly_to_json,
    reference_implicit_root,
)


def close(a, b, tol="1e-45"):
    return abs(mpc(a) - mpc(b)) <= mpf(tol) * max(abs(mpc(b)), mpf(1))


class TestImplicitJet:
    def test_linear_case_exact(self):
        H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
        h = implicit_root_jet(H, (mpf(1) / 2, mpf(1) / 2), 6)
        assert close(h.constant_coefficient(), mpf(1) / 2)
        assert close(h.coefficient((1,)), -1)
        assert all(abs(v) < mpf("1e-55") for b, v in h.coeffs.items() if b[0] > 1)

    def test_delannoy_closed_form(self, delannoy, delannoy_point):
        # solving H = 0 for y gives y = (1-x)/(1+x); h'(c1) = -2/(1+c1)^2
        _, H, _ = delannoy
        h = implicit_root_jet(H, delannoy_point, 8)
        c1 = delannoy_point[0]
        assert close(h.coefficient((1,)), -2 / (1 + c1) ** 2)
        assert close(h.constant_coefficient(), delannoy_point[1])

    def test_residual_vanishes_random(self, rng):
        for _ in range(5):
            H, c, _ = random_critical_instance(rng, 2)
            pt = tuple(mpc(z.numerator) / z.denominator for z in c)
            order = 12
            h = implicit_root_jet(H, pt, order)
            H_jet = Jet.from_poly(H, pt, order)
            shift = Jet(
                2, order, pt,
                {b + (0,): v for b, v in h.coeffs.items() if sum(b) > 0},
            )
            residual = H_jet.substitute(1, shift)
            scale = max(H.coeff_bound(), mpf(1))
            worst = max((abs(v) for v in residual.coeffs.values()), default=mpf(0))
            assert worst < scale * mpf("1e-40")

    def test_not_smooth_rejected(self):
        base = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
        with pytest.raises(FrameError):
            implicit_root_jet(base * base, (mpf(1) / 2, mpf(1) / 2), 4)

    def test_off_variety_rejected(self):
        H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
        with pytest.raises(FrameError):
            implicit_root_jet(H, (mpf(1), mpf(1)), 4)


def _newton_cases(delannoy, delannoy_point, quantum_walk):
    """``(name, H, point, order)`` at the docs points, each at the implicit
    order of its high-N frame, and on ``TestAmplitudeTopDegree.H``."""
    smirnov = poly(3, {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
    third = (mpf(1) / 3,) * 3
    H = TestAmplitudeTopDegree.H
    points, _ = solve_critical(H, Direction((1, 1)))
    pt = next(q for q in points if q[0].real > 0 and abs(q[0].imag) < mpf("1e-30"))
    return [
        ("delannoy", delannoy[1], delannoy_point, 44),
        ("quantum_walk", quantum_walk[1], (mpc(1), mpc(1)), 44),
        ("smirnov_snaps", smirnov, third, 15),
        ("smirnov_words", smirnov, third, 20),
        ("top_degree", H, pt, 12),
    ]


class TestImplicitNewtonStop:
    """The Newton loop of ``implicit_root_jet`` stops at the first step that
    returns its input bit for bit, with the fixed-count loop's result."""

    def test_same_bits_as_fixed_count(self, delannoy, delannoy_point, quantum_walk):
        for name, H, pt, order in _newton_cases(delannoy, delannoy_point, quantum_walk):
            got = implicit_root_jet(H, pt, order)
            assert jet_bits(got) == jet_bits(reference_implicit_root(H, pt, order)), name

    def test_steps(self, delannoy, delannoy_point, quantum_walk):
        # the quantum walk's point is (1, 1) and the Smirnov point 1/3, and H
        # is linear in the distinguished variable, so one step is the
        # solution to the last bit and the second repeats it; Delannoy's
        # irrational point leaves rounding noise that never settles, so it
        # takes all ceil(log2(45)) + 1 = 7 steps
        want = {"delannoy": 7, "quantum_walk": 2, "smirnov_snaps": 2, "smirnov_words": 2}
        reciprocal = Jet.reciprocal
        for name, H, pt, order in _newton_cases(delannoy, delannoy_point, quantum_walk):
            calls = []

            def counting(self, window=None):
                calls.append(1)
                return reciprocal(self, window)

            with mock.patch.object(Jet, "reciprocal", counting):
                implicit_root_jet(H, pt, order)
            if name in want:
                assert len(calls) == want[name], name


class TestPhaseJet:
    def test_central_binomial_closed_form(self, central_binomial):
        # phase is log(2 - e^{it}) + it: value 0, slope 0, curvature 2
        _, H, alpha = central_binomial
        h = implicit_root_jet(H, (mpf(1) / 2, mpf(1) / 2), 6)
        g = phase_jet(h, alpha)
        assert g.constant_coefficient() == 0
        assert abs(g.coefficient((1,))) < mpf("1e-55")
        assert close(2 * g.coefficient((2,)), 2)

    def test_gradient_vanishes_at_critical_point(self, delannoy, delannoy_point):
        _, H, alpha = delannoy
        h = implicit_root_jet(H, delannoy_point, 6)
        g = phase_jet(h, alpha)
        assert abs(g.coefficient((1,))) < mpf("1e-55")

    def test_order2_matches_closed_form(self, delannoy, delannoy_point):
        _, H, alpha = delannoy
        h = implicit_root_jet(H, delannoy_point, 6)
        g = phase_jet(h, alpha)
        A = hessian_from_jet(g)
        B = phase_hessian(H, delannoy_point)
        assert close(A[0, 0], B[0, 0], "1e-12")


class TestHessianClosedForm:
    def test_central_binomial_scalar(self, central_binomial):
        _, H, alpha = central_binomial
        A = phase_hessian(H, (mpf(1) / 2, mpf(1) / 2))
        assert close(A[0, 0], 2)

    def test_smirnov_matrix(self):
        H = poly(3, {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
        c = (mpf(1) / 3,) * 3
        A = phase_hessian(H, c)
        assert close(A[0, 0], 2) and close(A[1, 1], 2)
        assert close(A[0, 1], 1) and close(A[1, 0], 1)
        det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
        assert close(det, 3)

    def test_symmetric_q_smirnov(self):
        H = poly(3, {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
        q, det = phase_hessian_symmetric_q(H, (mpf(1) / 3,) * 3)
        assert close(q, 1) and close(det, 3)

    def test_symmetric_q_central_binomial(self, central_binomial):
        _, H, _ = central_binomial
        q, det = phase_hessian_symmetric_q(H, (mpf(1) / 2, mpf(1) / 2))
        assert close(q, 1) and close(det, 2)

    def test_symmetric_q_matches_general(self, rng):
        # symmetric random instances: entries are q off-diagonal, 2q diagonal
        for _ in range(5):
            a = Fraction(rng.randint(1, 3), rng.randint(3, 6))
            d = 3
            one = SparsePoly.constant(d, 1)
            e1 = SparsePoly(d, {})
            e2 = SparsePoly(d, {})
            for i in range(d):
                e1 = e1 + SparsePoly.variable(d, i)
                for j in range(i + 1, d):
                    e2 = e2 + SparsePoly.variable(d, i) * SparsePoly.variable(d, j)
            H = one - e1 + e2 * a
            roots, _ = solve_critical(H, Direction((1, 1, 1)))
            pos = [p for p in roots if p[0].real > 0 and abs(p[0].imag) < mpf("1e-20")]
            if not pos:
                continue
            c = min(pos, key=lambda p: abs(p[0]))
            q, det = phase_hessian_symmetric_q(H, c)
            A = phase_hessian(H, c)
            assert close(A[0, 1], q, "1e-12")
            assert close(A[0, 0], 2 * q, "1e-12")

    def test_asymmetric_rejected(self, delannoy, delannoy_point):
        _, H, _ = delannoy
        with pytest.raises(FrameError):
            phase_hessian_symmetric_q(H, delannoy_point)


class TestAmplitudes:
    def test_central_binomial_constant(self, central_binomial):
        G, H, alpha = central_binomial
        c = (mpf(1) / 2, mpf(1) / 2)
        h = implicit_root_jet(H, c, 6)
        amps, _ = amplitude_jets(G, H, 1, c, h, 6, 1)
        assert close(amps[0].constant_coefficient(), 2)

    def test_delannoy_closed_form(self, delannoy, delannoy_point):
        G, H, _ = delannoy
        h = implicit_root_jet(H, delannoy_point, 6)
        amps, _ = amplitude_jets(G, H, 1, delannoy_point, h, 6, 1)
        c1, c2 = delannoy_point
        assert close(amps[0].constant_coefficient(), 1 / (c2 * (1 + c1)), "1e-40")

    def test_u0_closed_form_random(self, rng):
        # u_0 = G / (-h dH/dx_d)^p at the base point
        for _ in range(4):
            H, c, _ = random_critical_instance(rng, 2)
            pt = tuple(mpc(z.numerator) / z.denominator for z in c)
            G = poly(2, {(0, 0): 2, (1, 0): 1})
            h = implicit_root_jet(H, pt, 8)
            for p in (1, 2):
                amps, _ = amplitude_jets(G, H, p, pt, h, 6, 1)
                dHd = H.partial(1).eval(pt)
                expect = G.eval(pt) / (-pt[1] * dHd) ** p
                assert close(amps[0].constant_coefficient(), expect, "1e-35")

    def test_q_jet_identity(self, delannoy, delannoy_point):
        # distinguished-coordinate derivatives of Q against derivatives of H
        G, H, _ = delannoy
        p = 1
        h = implicit_root_jet(H, delannoy_point, 8)
        # five terms read degree 8: the window is the whole order
        _, Q = amplitude_jets(G, H, p, delannoy_point, h, 8, 5)
        for j in range(0, p + 3):
            lhs = Q.coefficient((0, j))  # j-th derivative / j!
            dj = H
            for _ in range(j + 1):
                dj = dj.partial(1)
            import math

            rhs = dj.eval(delannoy_point) / ((j + 1) * mpf(math.factorial(j)))
            assert abs(lhs - rhs) <= mpf("1e-45") * max(abs(rhs), mpf(1))

    def test_rational_amplitude(self):
        # G = 1/(1+x) handled through the denominator channel
        H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
        G_num = SparsePoly.constant(2, 1)
        G_den = poly(2, {(0, 0): 1, (1, 0): 1})
        c = (mpf(1) / 2, mpf(1) / 2)
        h = implicit_root_jet(H, c, 6)
        amps, _ = amplitude_jets(G_num, H, 1, c, h, 6, 1, G_den=G_den)
        # u_0 = (1/(1+x)) / (-h * dH/dy) = (2/3) * 2
        assert close(amps[0].constant_coefficient(), mpf(4) / 3, "1e-40")


class TestAmplitudeTopDegree:
    """The pole-coordinate jets stop at ``order + p - 1``, so the amplitudes
    are exact only through ``order - 1`` (``amplitude_jets``); no term may
    read degree ``order``."""

    # along y = h(x), dH/dy = -1 - 3xy^2 and d^2H/dy^2 = -6xy have terms of
    # every degree, so amplitude p - 1 is inexact at degree ``order`` for p <= 2
    H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 3): -1})

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_exact_through_order_minus_one(self, p):
        G = SparsePoly.constant(2, 1)
        points, _ = solve_critical(self.H, Direction((1, 1)))
        pt = next(q for q in points if q[0].real > 0 and abs(q[0].imag) < mpf("1e-30"))

        def amplitudes(order):
            h = implicit_root_jet(self.H, pt, order + p - 1)
            # ``order`` terms read past the order: whole jets
            return amplitude_jets(G, self.H, p, pt, h, order, order)[0]

        order = 6
        for lo, hi in zip(amplitudes(order), amplitudes(order + 4)):
            scale = max(abs(v) for v in hi.coeffs.values())
            for m in range(order):
                err = abs(lo.coefficient((m,)) - hi.coefficient((m,)))
                assert err <= mpf(2) ** (30 - mp.prec) * scale, (p, m)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_terms_read_below_order(self, N):
        # the highest degree the terms and the remainder powers read, on
        # frames of the order each route builds
        reads = []
        slice_degree = PhaseData.slice_degree

        def recording(phase, k, l):
            reads.append(slice_degree(phase, k, l))
            return reads[-1]

        def highest(phase, term, order):
            n = phase.remainder.nvars
            u = Jet(n, order, (0,) * n, {})
            reads.clear()
            with mock.patch.object(PhaseData, "slice_degree", recording):
                for k in range(N):
                    term(u, phase, k)
            return max(reads)

        for d in (2, 3):
            order = frame_order(N)
            phase = PhaseData(Jet(d - 1, order, (0,) * (d - 1), {}), N,
                              hessian_inverse=mp.eye(d - 1))
            assert highest(phase, stationary_term, order) <= order - 1
        for v in range(2, 7):
            order = frame_order(N, v)
            phase = PhaseData(Jet(1, order, (0,), {}), N, a=mpc(1), v=v)
            term = stationary_term_even if v % 2 == 0 else stationary_term_odd
            assert highest(phase, term, order) <= order - 1


class TestAmplitudeWindow:
    """Amplitudes built for N terms hold their coefficients through
    ``2(N - 1)``, bit for bit those of the build for more terms than the
    order (whole jets), and carry the whole build's keys above that."""

    @pytest.mark.parametrize("case", ["delannoy", "denominator", "three"])
    def test_window_of_the_whole_build(self, case, delannoy, delannoy_point):
        if case == "delannoy":
            (G, H, _), pt, p, G_den, order = delannoy, delannoy_point, 1, None, 12
        elif case == "denominator":
            H = TestAmplitudeTopDegree.H
            points, _ = solve_critical(H, Direction((1, 1)))
            pt = next(q for q in points if q[0].real > 0 and abs(q[0].imag) < mpf("1e-30"))
            G, G_den, p, order = poly(2, {(0, 0): 2, (1, 1): -1}), poly(2, {(0, 0): 3, (0, 1): 1}), 2, 10
        else:
            H, fams = smirnov_family()
            G, G_den, p = fams[-1]
            pt, order = (mpc(1) / 3,) * 3, 8
        h = implicit_root_jet(H, pt, order + p - 1)
        whole = amplitude_jets(G, H, p, pt, h, order, order, G_den=G_den)[0]
        assert not any(u.above for u in whole)
        for N in (1, 2, 3):
            wu = 2 * (N - 1)
            for u, full in zip(amplitude_jets(G, H, p, pt, h, order, N, G_den=G_den)[0], whole):
                assert jet_bits(u) == jet_bits(full, wu)
                assert above_indices(u) == {b for b in full.coeffs if sum(b) > wu}
                beyond = next(b for b in full.coeffs if sum(b) > wu)
                with pytest.raises(SeriesError):
                    u.coefficient(beyond)


# the terms and pole order of each docs spec's high-N run, whose implicit
# orders ``_newton_cases`` gives
HIGH_N = {"delannoy": (8, 1), "quantum_walk": (8, 1), "smirnov_snaps": (3, 2),
          "smirnov_words": (4, 1)}


def _series_bits(expansion):
    return [(e, c._mpc_) for e, c in expansion.flattened.terms + expansion.dropped.terms]


def _scale_x(f, scale):
    """``f(scale * x, ...)``."""
    return SparsePoly(f.nvars, {e: c * scale ** e[0] for e, c in f.terms.items()})


class TestFrameWindows:
    """The implicit root and the phase built for N terms hold their
    coefficients through their windows, bit for bit those of the whole
    build, and carry the whole build's keys above them."""

    def test_implicit_root_window(self, delannoy, delannoy_point, quantum_walk):
        for name, H, pt, order in _newton_cases(delannoy, delannoy_point, quantum_walk):
            if name not in HIGH_N:
                continue
            N, p = HIGH_N[name]
            window = max(phase_window(N), 2 * (N - 1) + p)
            got = implicit_root_jet(H, pt, order, window)
            want = reference_implicit_root(H, pt, order)
            assert jet_bits(got) == jet_bits(want, window), name
            assert above_indices(got) == {b for b in want.coeffs if sum(b) > window}, name

    @pytest.mark.parametrize("N", [1, 2, 4])
    @pytest.mark.parametrize("case", ["delannoy", "quantum_walk", "smirnov_snaps"])
    def test_window_of_the_whole_build(self, case, N, delannoy, delannoy_point, quantum_walk):
        if case == "delannoy":
            (G, H, alpha), pt, p, G_den = delannoy, delannoy_point, 1, None
        elif case == "quantum_walk":
            (G, H, alpha), pt, p, G_den = quantum_walk, (mpc(1), mpc(1)), 1, None
        else:
            H, fams = smirnov_family()
            (G, G_den, p), alpha, pt = fams[1], Direction((1, 1, 1)), (mpc(1) / 3,) * 3
        order = frame_order(N)
        frame = build_frame(G, H, p, alpha, pt, order, N, G_den=G_den)
        # the whole route builds the implicit root and the phase whole
        whole = build_frame(G, H, p, alpha, pt, order, N, G_den=G_den, v="whole")
        assert not whole.h_jet.above and not whole.phase.above
        wg = phase_window(N)
        wh = max(wg, 2 * (N - 1) + p)
        for jet, full, window in ((frame.h_jet, whole.h_jet, wh), (frame.phase, whole.phase, wg)):
            assert jet_bits(jet) == jet_bits(full, window)
            assert above_indices(jet) == {b for b in full.coeffs if sum(b) > window}
            assert jet.held_through() >= window
        # the amplitudes read the windowed implicit root as the whole one
        for u, full in zip(frame.amplitudes, whole.amplitudes):
            assert jet_bits(u) == jet_bits(full) and u.above == full.above
        if case == "quantum_walk":
            return  # singular Hessian: the nondegenerate route refuses it
        # the remainder of the phase keeps the whole remainder's keys above
        # the window, so the terms are the whole build's bit for bit
        remainder = PhaseData.nondegenerate(frame.phase, frame.hessian, N).remainder
        full = PhaseData.nondegenerate(whole.phase, whole.hessian, N).remainder
        assert above_indices(remainder) == {b for b in full.coeffs if sum(b) > wg}
        assert _series_bits(expand_smooth(frame, N)) == _series_bits(expand_smooth(whole, N))

    @pytest.mark.parametrize("p", [2, 3])
    def test_pole_jets_of_the_windowed_root(self, p):
        # the pole-coordinate jets (the second result, ``Q``) built from the
        # windowed implicit root carry the keys of those built from the whole
        # root, as the amplitudes do
        H, G = TestAmplitudeTopDegree.H, poly(2, {(0, 0): 2, (1, 1): -1})
        points, _ = solve_critical(H, Direction((1, 1)))
        pt = next(q for q in points if q[0].real > 0 and abs(q[0].imag) < mpf("1e-30"))
        order, N = 14, 2
        windowed = implicit_root_jet(H, pt, order + p - 1, 2 * (N - 1) + p)
        whole = implicit_root_jet(H, pt, order + p - 1)
        amps, Q = amplitude_jets(G, H, p, pt, windowed, order, N)
        whole_amps, whole_Q = amplitude_jets(G, H, p, pt, whole, order, N)
        for jet, full in zip([*amps, Q], [*whole_amps, whole_Q]):
            assert jet_bits(jet) == jet_bits(full) and jet.above == full.above

    def test_degenerate_route_needs_its_window(self, quartic_phase):
        # the even route with v = 4 reads the phase through 2(N - 1) + 4,
        # beyond the nondegenerate route's 2N
        G, H, alpha, pt = quartic_phase
        N = 2
        order = frame_order(N, 4)
        frame = build_frame(G, H, 1, alpha, pt, order, N)
        assert frame.phase.held_through() == 2 * N
        assert vanishing_order(frame.phase) == 4
        with pytest.raises(OrderBudgetError):
            PhaseData.degenerate(frame.phase, 4, N)
        with pytest.raises(OrderBudgetError):
            expand_degenerate(frame, N, v=4)
        # a one-term window (degree 2) lies below v: the remainder keeps the
        # phase's keys above it, so the check refuses it before ``a`` is read
        short = build_frame(G, H, 1, alpha, pt, order, 1)
        with pytest.raises(OrderBudgetError):
            PhaseData.degenerate(short.phase, 4, 1)
        wide = build_frame(G, H, 1, alpha, pt, order, N, v=4)
        whole = build_frame(G, H, 1, alpha, pt, order, N, v="whole")
        assert wide.phase.held_through() >= phase_window(N, 4) == 2 * (N - 1) + 4
        assert (_series_bits(expand_degenerate(wide, N, v=4))
                == _series_bits(expand_degenerate(whole, N, v=4)))

    @pytest.mark.parametrize("scale", [1, Fraction(7, 3)])
    def test_beyond_the_window(self, quantum_walk, scale):
        # the quantum walk's t^2 coefficient vanishes and its t^3 is 2, so
        # one term's window, degree 2, holds no order past the gradient.  At
        # x = 1 the t^2 coefficient is exactly 0; with x rescaled by 7/3 the
        # point (3/7, 1) is inexact and it is rounding noise, as is the
        # gradient, which must not set the negligibility scale.  A whole
        # phase shows v = 3 only at an order that reaches it
        (G, H), alpha = (_scale_x(f, scale) for f in quantum_walk[:2]), quantum_walk[2]
        pt = (mpc(Fraction(scale).denominator) / Fraction(scale).numerator, mpc(1))
        frame = build_frame(G, H, 1, alpha, pt, frame_order(1), 1)
        assert frame.phase.held_through() == 2
        assert vanishing_order(frame.phase) is None
        low = build_frame(G, H, 1, alpha, pt, frame_order(1), 1, v="whole")
        assert low.phase.held_through() == low.order == 2
        assert vanishing_order(low.phase) is None
        whole = build_frame(G, H, 1, alpha, pt, frame_order(1, 3), 1, v="whole")
        assert vanishing_order(whole.phase) == 3
        if scale == 1:
            assert whole.phase.coefficient((2,)) == 0
        else:
            assert 0 < abs(whole.phase.coefficient((2,))) < mpf("1e-40")


class TestVanishingOrder:
    def test_quadratic_leading(self):
        g = Jet(1, 6, (mpc(0),), {(2,): mpc(1), (3,): mpc(1)})
        assert vanishing_order(g) == 2

    def test_quartic_leading(self):
        g = Jet(1, 6, (mpc(0),), {(4,): mpc(1)})
        assert vanishing_order(g) == 4

    def test_quantum_walk_cubic(self, quantum_walk):
        G, H, alpha = quantum_walk
        c = (mpc(1), mpc(1))
        h = implicit_root_jet(H, c, 10)
        g = phase_jet(h, alpha)
        assert vanishing_order(g) == 3

    def test_flat_phase_rejected(self):
        # a phase that holds no order is a plain ``None``; the degenerate
        # route refuses it once its whole-phase search finds none.  On
        # ``H = 1 - xy`` along (1, 1) the torus phase at (1, 1) is exactly
        # flat: ``h(x e^{it}) = e^{-it}/x`` cancels the linear term
        assert vanishing_order(Jet(1, 6, (mpc(0),), {})) is None
        H = poly(2, {(0, 0): 1, (1, 1): -1})
        spec = ProblemSpec.from_json({
            "variables": ["x", "y"], "G": poly_to_json(SparsePoly.constant(2, 1)),
            "H": poly_to_json(H), "p": 1, "alpha": ["1", "1"], "N": 1, "n_values": [1],
        })
        report = SimpleNamespace(point=(mpc(1), mpc(1)), reordering=(0, 1))
        with pytest.raises(PipelineExit, match="phase numerically flat") as info:
            cli._expand_at_point(spec, report)
        assert info.value.code == cli.EXIT_NO_CRITICAL


class TestBuildFrame:
    def test_orders_cover_budgets(self):
        # one above the highest degree the terms read: 6(N-1) nondegenerate,
        # 2(N-1)(v+1) for even v, (N-1)(v+1) for odd v; never below the
        # phase window, which one term and a large v set
        assert frame_order(1) == 2
        assert frame_order(2) == 7
        assert frame_order(8) == 43  # Delannoy at N = 8 reads degree 42
        assert frame_order(5, 3) == 17
        assert frame_order(5, 4) == 41
        assert frame_order(1, 7) == 7 == phase_window(1, 7)

    @pytest.mark.parametrize("v", [None, 2, 3, 4, 5, 6])
    def test_frame_order_is_one_above_the_reads(self, v):
        for N in range(1, 9):
            assert frame_order(N, v) - 1 == max(read_degree(N, v), phase_window(N, v) - 1)

    def test_delannoy_frame_validates(self, delannoy, delannoy_point):
        G, H, alpha = delannoy
        frame = build_frame(G, H, 1, alpha, delannoy_point, 10, 2)
        validate_frame(frame)
        assert frame.reordering == (0, 1)
        assert close(frame.h_jet.constant_coefficient(), delannoy_point[1])

    def test_frame_serialization_round_trip(self, delannoy, delannoy_point):
        import json

        G, H, alpha = delannoy
        frame = build_frame(G, H, 1, alpha, delannoy_point, 8, 2)
        blob = json.dumps(frame_to_json(frame))
        data = json.loads(blob)
        assert data["p"] == 1 and data["reordering"] == [0, 1]
        assert mpf(data["hessian"][0][0]["re"]) > 0
        got = {tuple(item["beta"]): item["coef"] for item in data["phase_jet"]["coeffs"]}
        # decimal strings carry the working precision
        assert abs(mpf(got[(2,)]["re"]) * 2 - frame.hessian[0, 0]) < mpf("1e-55")

    def test_hessian_crosscheck_random(self, rng):
        # twice the order-2 jet coefficients equal the closed form, d in {2,3}
        for d in (2, 3):
            for _ in range(6):
                H, c, alpha = random_critical_instance(rng, d)
                pt = tuple(mpc(z.numerator) / z.denominator for z in c)
                frame = build_frame(
                    SparsePoly.constant(d, 1), H, 1, alpha, pt, 6, 1
                )
                A = hessian_from_jet(frame.phase)
                B = frame.hessian
                scale = max(
                    max(abs(B[i, j]) for i in range(d - 1) for j in range(d - 1)),
                    mpf("1e-20"),
                )
                for i in range(d - 1):
                    for j in range(d - 1):
                        assert abs(A[i, j] - B[i, j]) <= mpf("1e-10") * scale

    def test_non_critical_point_rejected(self, central_binomial):
        G, H, _ = central_binomial
        with pytest.raises(FrameError):
            build_frame(G, H, 1, Direction((2, 1)), (mpf(1) / 2, mpf(1) / 2), 6, 1)
