"""The term calculus: worked values, derivative budgets, branch handling."""

from __future__ import annotations

import itertools
import math
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from smoothasym import (
    Jet,
    PhaseData,
    stationary_term,
    stationary_term_even,
    stationary_term_odd,
)
from smoothasym.stationary import (
    BranchError,
    OrderBudgetError,
    ParityError,
    _hessian_inverse_chain,
    branch_root,
    det_inv_sqrt,
    sign_factor,
)

from oracles import (
    drops_above_window,
    fourier_laplace_quad,
    integral_asymptotic_sum,
    jet_bits,
    jet_partial,
    reference_mul_degree,
    reference_powers,
)


def jet1(coeffs, order=14):
    return Jet(1, order, (mpc(0),), {(k,): mpc(v) for k, v in coeffs.items()})


def jet2(coeffs, order=8):
    return Jet(2, order, (mpc(0), mpc(0)), {k: mpc(v) for k, v in coeffs.items()})


def close(a, b, tol="1e-45"):
    return abs(mpc(a) - mpc(b)) <= mpf(tol) * max(abs(mpc(b)), mpf(1))


def quadratic_phase_1d(curvature, terms, extra=None, order=14):
    coeffs = {2: mpf(curvature) / 2}
    coeffs.update(extra or {})
    g = jet1(coeffs, order)
    A = mp.matrix(1, 1)
    A[0, 0] = mpf(curvature)
    return PhaseData.nondegenerate(g, A, terms)


class TestBranchHelpers:
    def test_branch_root_positive(self):
        assert close(branch_root(16, 2), mpf(1) / 4)

    def test_branch_root_rotated(self):
        z = mpc(0, 2)  # arg pi/2 boundary
        out = branch_root(z, 3)
        assert close(out, abs(z) ** (mpf(-1) / 3) * mp.exp(mpc(0, -1) * mp.pi / 6))

    def test_branch_root_outside(self):
        with pytest.raises(BranchError):
            branch_root(mpc(-1, 0.01), 2)

    def test_sign_factor(self):
        assert sign_factor(mpf(3)) == 1
        assert sign_factor(mpf(-2)) == -1
        assert close(sign_factor(mpc(0, 2)), mpc(0, 1))
        assert close(sign_factor(mpc(0, -5)), mpc(0, -1))

    def test_det_inv_sqrt_spd(self):
        A = mp.matrix([[mpc(2), mpc(1)], [mpc(1), mpc(2)]])
        assert close(det_inv_sqrt(A), 1 / mp.sqrt(3))


class TestNondegenerateTerms:
    def test_constant_amplitude_pure_quadratic(self):
        phase = quadratic_phase_1d(1, 3)
        u = jet1({0: 1})
        assert close(stationary_term(u, phase, 0), 1)
        for k in (1, 2):
            assert abs(stationary_term(u, phase, k)) < mpf("1e-55")

    def test_gaussian_second_moment(self):
        # integral t^2 e^{-w t^2/2} dt = sqrt(2 pi) w^{-3/2}: the k=1 term is 1
        phase = quadratic_phase_1d(1, 2)
        u = jet1({2: 1})
        assert close(stationary_term(u, phase, 0), 0)
        assert close(stationary_term(u, phase, 1), 1)

    def test_k0_is_amplitude_value(self, delannoy, delannoy_point):
        from smoothasym import build_frame

        G, H, alpha = delannoy
        frame = build_frame(G, H, 1, alpha, delannoy_point, 10, 1)
        phase = PhaseData.nondegenerate(frame.phase, frame.hessian, 1)
        got = stationary_term(frame.amplitudes[0], phase, 0)
        c1, c2 = delannoy_point
        assert close(got, 1 / (c2 * (1 + c1)), "1e-40")

    def test_budget_error(self):
        phase = quadratic_phase_1d(1, 2, order=4)
        u = jet1({0: 1}, order=4)
        with pytest.raises(OrderBudgetError):
            stationary_term(u, phase, 1)

    def test_remainder_above_budget_inert(self):
        base = quadratic_phase_1d(1, 2, extra={3: mpf(1) / 3})
        u = jet1({0: 1, 1: 1, 2: mpf(1) / 2})
        k = 1
        before = stationary_term(u, base, k)
        bumped = quadratic_phase_1d(1, 2, extra={3: mpf(1) / 3, 2 * k + 3: mpf(5)})
        after = stationary_term(u, bumped, k)
        assert close(after, before, "1e-50")

    def test_wrong_decomposition_rejected(self):
        g = jet1({3: mpc(0, 1)})
        phase = PhaseData.degenerate(g, 3, 1)
        with pytest.raises(ParityError):
            stationary_term(jet1({0: 1}), phase, 0)

    def test_two_variable_operator(self):
        # integral (1 + t1^2) e^{-w(t1^2 + t2^2)/2}: k=1 term against 2 pi/w
        g = jet2({(2, 0): mpf(1) / 2, (0, 2): mpf(1) / 2})
        A = mp.matrix([[mpc(1), mpc(0)], [mpc(0), mpc(1)]])
        phase = PhaseData.nondegenerate(g, A, 2)
        u = jet2({(0, 0): 1, (2, 0): 1})
        assert close(stationary_term(u, phase, 0), 1)
        assert close(stationary_term(u, phase, 1), 1)


class TestDegenerateEven:
    def test_quartic_gamma_value(self):
        g = jet1({4: 1})
        phase = PhaseData.degenerate(g, 4, 1)
        u = jet1({0: 1})
        assert close(stationary_term_even(u, phase, 0), mpmath.gamma(mpf(1) / 4))

    def test_any_even_order_gamma(self):
        for v in (2, 4, 6):
            g = jet1({v: 1}, order=16)
            phase = PhaseData.degenerate(g, v, 1)
            got = stationary_term_even(jet1({0: 1}, order=16), phase, 0)
            assert close(got, mpmath.gamma(mpf(1) / v))

    def test_amplitude_above_budget_inert(self):
        g = jet1({4: 1, 6: mpf(1) / 5})
        phase = PhaseData.degenerate(g, 4, 2)
        k = 1
        u = jet1({0: 1, 1: 1, 2: 1})
        before = stationary_term_even(u, phase, k)
        u_bumped = jet1({0: 1, 1: 1, 2: 1, 2 * k + 1: 7})
        after = stationary_term_even(u_bumped, phase, k)
        assert close(after, before, "1e-50")

    def test_remainder_above_budget_inert(self):
        # a remainder monomial beyond order 2k+v cannot reach the k-th term
        k, v = 1, 4
        u = jet1({0: 1, 1: 1, 2: 1})
        before = stationary_term_even(u, PhaseData.degenerate(jet1({4: 1, 6: mpf(1) / 5}), v, 2), k)
        bumped = PhaseData.degenerate(jet1({4: 1, 6: mpf(1) / 5, 2 * k + v + 1: 3}), v, 2)
        after = stationary_term_even(u, bumped, k)
        assert close(after, before, "1e-50")

    def test_parity_enforced(self):
        g = jet1({3: mpc(0, 1)})
        phase = PhaseData.degenerate(g, 3, 1)
        with pytest.raises(ParityError):
            stationary_term_even(jet1({0: 1}), phase, 0)

    def test_budget_error(self):
        g = jet1({4: 1}, order=6)
        phase = PhaseData.degenerate(g, 4, 2)
        with pytest.raises(OrderBudgetError):
            stationary_term_even(jet1({0: 1}, order=6), phase, 1)

    def test_leading_matches_quartic_integral(self):
        # 2 (a w)^{-1/4} / 4 * Gamma(1/4) equals integral e^{-w t^4} over R
        g = jet1({4: 1})
        phase = PhaseData.degenerate(g, 4, 1)
        u = jet1({0: 1})
        omega = mpf(1000)
        lead = (
            2 * branch_root(phase.a * omega, 4) / 4
            * stationary_term_even(u, phase, 0)
        )
        quad, _ = fourier_laplace_quad(u, g, omega, 1.0)
        # next term enters at relative w^{-1/2}
        assert abs(quad - lead) < 5 * omega ** mpf("-0.5") * abs(lead)


class TestDegenerateOdd:
    def test_cubic_gamma_value(self):
        g = jet1({3: mpc(0, 1)})
        phase = PhaseData.degenerate(g, 3, 1)
        got = stationary_term_odd(jet1({0: 1}), phase, 0)
        assert close(got, mp.sqrt(3) * mpmath.gamma(mpf(1) / 3))

    def test_amplitude_above_budget_inert(self):
        g = jet1({3: mpc(0, 1), 4: mpf(1) / 7})
        phase = PhaseData.degenerate(g, 3, 3)
        k = 2
        u = jet1({0: 1, 1: 1, 2: 1})
        before = stationary_term_odd(u, phase, k)
        after = stationary_term_odd(jet1({0: 1, 1: 1, 2: 1, k + 1: 9}), phase, k)
        assert close(after, before, "1e-50")

    def test_phase_factor_zero_mod_pattern(self):
        # for v=3 the two-sided factor kills every k = 2 mod 3
        g = jet1({3: mpc(0, 1)}, order=22)
        phase = PhaseData.degenerate(g, 3, 6)
        u = jet1({k: 1 for k in range(8)}, order=22)
        assert abs(stationary_term_odd(u, phase, 2)) < mpf("1e-55")
        assert abs(stationary_term_odd(u, phase, 5)) < mpf("1e-55")
        assert abs(stationary_term_odd(u, phase, 1)) > mpf("0.1")

    def test_parity_enforced(self):
        g = jet1({4: 1})
        phase = PhaseData.degenerate(g, 4, 1)
        with pytest.raises(ParityError):
            stationary_term_odd(jet1({0: 1}), phase, 0)

    def test_oscillatory_first_moment(self):
        # integral t e^{-i w t^3} dt = -i sqrt(3) Gamma(2/3) / 3 * w^{-2/3}
        g = jet1({3: mpc(0, 1)})
        phase = PhaseData.degenerate(g, 3, 3)
        u = jet1({1: 1})
        omega = mpf(50)
        total = (
            abs(phase.a * omega) ** (mpf(-1) / 3) / 3
            * sum(
                omega ** (mpf(-k) / 3) * stationary_term_odd(u, phase, k)
                for k in range(3)
            )
        )
        expect = -mpc(0, 1) * mp.sqrt(3) * mpmath.gamma(mpf(2) / 3) / 3 * omega ** (
            mpf(-2) / 3
        )
        assert close(total, expect, "1e-40")


class TestBranchConsistency:
    def test_even_v2_matches_nondegenerate(self):
        # one pair (u, g) with curvature of mixed phase; sums must agree
        u = jet1({0: 1, 1: mpf(1) / 3, 2: mpf(1) / 4, 3: mpf(1) / 5})
        g = jet1({2: mpf(3) / 4, 3: mpc(0, 1) / 6, 4: mpf(1) / 8})
        omega = mpf(400)
        for N in (1, 2, 3):
            smooth = integral_asymptotic_sum(u, g, omega, N, v=2)
            phase = PhaseData.degenerate(g, 2, N)
            even = 2 * branch_root(phase.a, 2) * omega ** mpf("-0.5") / 2 * sum(
                omega ** (-k) * stationary_term_even(u, phase, k) for k in range(N)
            )
            assert abs(smooth - even) <= mpf("1e-10") * abs(smooth)


# -- reference oracle: the full-jet term functionals ----------------------------
#
# The term functionals as first written: each k rebuilds ``remainder^l`` and
# the whole product ``u * remainder^l``, and the nondegenerate rule applies
# the Hessian-inverse operator to whole jets.  The driver in ``stationary``
# reads one homogeneous slice and caches the powers; it must agree bit for bit.


def reference_hop(jet, inv):
    n = jet.nvars
    out = None
    for r in range(n):
        dr = jet_partial(jet, r)
        for s in range(n):
            if inv[r, s] == 0:
                continue
            term = jet_partial(dr, s).scale(-inv[r, s])
            out = term if out is None else out + term
    if out is None:
        return Jet(n, max(jet.order - 2, 0), jet.center, {})
    return out


def _reference_budget(u_jet, phase, k, needed):
    if u_jet.order < needed or phase.remainder.order < needed:
        raise OrderBudgetError(f"term {k} needs jets of order {needed}")


def reference_term(u_jet, phase, k):
    if phase.hessian_inverse is None:
        raise ParityError("not nondegenerate")
    _reference_budget(u_jet, phase, k, 6 * k)
    total = mpc(0)
    gpow = Jet.constant(u_jet.nvars, u_jet.order, u_jet.center, mpc(1))
    for l in range(0, 2 * k + 1):
        w = u_jet * gpow
        for _ in range(l + k):
            w = reference_hop(w, phase.hessian_inverse)
        denom = mpf((-1) ** k) * mpf(2) ** (l + k) * math.factorial(l) * math.factorial(l + k)
        total += w.constant_coefficient() / denom
        if l < 2 * k:
            gpow = gpow * phase.remainder
    return total


def reference_term_even(u_jet, phase, k):
    v = phase.v
    if v is None or v % 2 != 0:
        raise ParityError("not even")
    root = branch_root(phase.a, v)
    _reference_budget(u_jet, phase, k, 2 * k + v * 2 * k)
    total = mpc(0)
    gpow = Jet.constant(1, u_jet.order, u_jet.center, mpc(1))
    for l in range(0, 2 * k + 1):
        m = 2 * k + v * l
        dv = (u_jet * gpow).coefficient((m,))
        weight = (
            mpf((-1) ** l)
            * mpmath.gamma(mpf(2 * k + v * l + 1) / v)
            / mpf(math.factorial(l))
        )
        total += weight * root**m * dv
        if l < 2 * k:
            gpow = gpow * phase.remainder
    return total


def reference_term_odd(u_jet, phase, k):
    v = phase.v
    if v is None or v % 2 == 0:
        raise ParityError("not odd")
    mag_root = abs(mpc(phase.a)) ** (mpf(-1) / v)
    isign = mpc(0, 1) * sign_factor(phase.a)
    zeta = phase.zeta
    _reference_budget(u_jet, phase, k, k + v * k)
    total = mpc(0)
    gpow = Jet.constant(1, u_jet.order, u_jet.center, mpc(1))
    for l in range(0, k + 1):
        m = k + v * l
        dv = (u_jet * gpow).coefficient((m,))
        phase_factor = zeta ** (m + 1) + mpf((-1) ** m) * zeta ** (-(m + 1))
        weight = (
            mpf((-1) ** l)
            * mpmath.gamma(mpf(k + v * l + 1) / v)
            / mpf(math.factorial(l))
        )
        total += weight * phase_factor * (mag_root * isign) ** m * dv
        if l < k:
            gpow = gpow * phase.remainder
    return total


RULES = (
    (stationary_term, reference_term),
    (stationary_term_even, reference_term_even),
    (stationary_term_odd, reference_term_odd),
)


def outcome(fn, *args):
    """The value, or the type of the error raised."""
    try:
        return fn(*args)
    except (OrderBudgetError, ParityError) as exc:
        return type(exc)


# small Gaussian rationals, zero included, so sums cancel and drop out
coefs = st.builds(
    lambda re, im, den: mpc(mpf(re) / den, mpf(im) / den),
    st.integers(-4, 4), st.integers(-4, 4), st.sampled_from([1, 2, 3, 7]),
)


@st.composite
def random_jet(draw, nvars, order, low=0, terms=30):
    """A jet at 0 with up to ``terms`` monomials of degree in [low, order]."""
    monomials = [
        b for b in itertools.product(range(order + 1), repeat=nvars)
        if low <= sum(b) <= order
    ]
    size = min(terms, len(monomials))
    coeffs = draw(st.dictionaries(st.sampled_from(monomials), coefs,
                                  min_size=size // 2, max_size=size))
    return Jet(nvars, order, (mpc(0),) * nvars, coeffs)


@st.composite
def nondegenerate_case(draw, n, k):
    order = max(6 * k, 3) + draw(st.integers(0, 2))
    A = mp.matrix(n, n)
    for r in range(n):
        for s in range(r, n):
            A[r, s] = A[s, r] = draw(coefs)
    assume(mp.det(A) != 0)
    g = draw(random_jet(n, order, low=3))  # the remainder; A is the quadratic part
    return draw(random_jet(n, order)), PhaseData.nondegenerate(g, A, k + 1), k


@st.composite
def degenerate_case(draw, v, k):
    needed = (2 * k + 2 * v * k) if v % 2 == 0 else (k + v * k)
    order = max(needed, v + 1) + draw(st.integers(0, 2))
    g = draw(random_jet(1, order, low=v + 1))
    g.coeffs[(v,)] = mpc(draw(st.integers(1, 5)), draw(st.integers(-5, 5)))
    return draw(random_jet(1, order)), PhaseData.degenerate(g, v, k + 1), k


def same_as_reference(case):
    """Each rule returns its reference's value bit for bit, or raises the same
    error; returns the outcome of every rule.  The slices the driver reads,
    and the cached powers built for the k + 1 terms of the phase, are
    checked against the reference chain of full-order products too (keys,
    key order and bits; a power only through its window), because a
    rounding change in one summand can vanish in the rounding of the sum.
    Each power's coefficients plus ``above`` keys are as many as the full
    power's coefficients, unless a power coefficient above its window sums
    to an exact zero: then they are more, and could reorder a slice (see
    ``series``); in these examples they never do."""
    u, phase, k = case
    slices = []
    mul_degree = Jet.mul_degree

    def recorded(self, other, m):
        out = mul_degree(self, other, m)
        slices.append((m, jet_bits(out)))
        return out

    with mock.patch.object(Jet, "mul_degree", recorded):
        outcomes = [outcome(rule, u, phase, k) for rule, _ in RULES]
    assert outcomes == [outcome(reference, u, phase, k) for _, reference in RULES]
    fulls, dropped = drops_above_window(
        lambda: reference_powers(phase.remainder, 2 * k + 1),
        lambda l: phase.slice_degree(k, l),
    )
    assert slices == [
        (m, jet_bits(reference_mul_degree(u, fulls[l], m))) for l, (m, _) in enumerate(slices)
    ]
    for l, full in enumerate(fulls):
        power = phase.remainder_power(l)
        count = len(power.coeffs) + len(power.above)
        assert jet_bits(power) == jet_bits(full, phase.slice_degree(k, l))
        if dropped:
            assert count >= len(full.coeffs)
        else:
            assert count == len(full.coeffs)
    return outcomes


class TestHessianInverseChain:
    """The operator applied ``times`` times on raw parts against
    ``reference_hop`` applied as often to whole jets: the same order, keys,
    key order and bits.  Real entries take ``mpc * mpf``, as at the docs
    specs' real points, and complex ones ``mpc * mpc``; a zero entry is
    skipped."""

    @pytest.mark.parametrize("n, entries", [
        (1, "real"), (1, "complex"),
        (2, "real"), (2, "complex"), (2, "zero off-diagonal"),
        (3, "real"), (3, "complex"), (3, "zero off-diagonal"),
    ])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_bit_for_bit_against_the_whole_jet_operator(self, n, entries, data):
        order = data.draw(st.integers(2, {1: 12, 2: 8, 3: 6}[n]))
        jet = data.draw(random_jet(n, order))
        inv = mp.matrix(n, n)
        for r in range(n):
            for s in range(n):
                z = data.draw(coefs.filter(lambda z: z.real != 0) if r == s else coefs)
                inv[r, s] = z.real if entries == "real" else z
        if entries == "zero off-diagonal":
            inv[0, n - 1] = 0
        kind = mpf if entries == "real" else mpc
        assert all(type(inv[r, s]) is kind for r in range(n) for s in range(n) if inv[r, s])
        times = data.draw(st.integers(1, order // 2))
        want = jet
        for _ in range(times):
            want = reference_hop(want, inv)
        got = _hessian_inverse_chain(jet, inv, times)
        assert (got.order, jet_bits(got)) == (want.order, jet_bits(want))


class TestDriverMatchesFullJetOracle:
    """The driver against the full-jet reference on random jets with equal
    amplitude and phase orders, as the pipeline builds them."""

    @pytest.mark.parametrize("n, order", [(1, 12), (2, 8), (3, 5)])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_slice_is_the_full_product_slice(self, n, order, data):
        a = data.draw(random_jet(n, order))
        b = data.draw(random_jet(n, order, low=data.draw(st.integers(0, 3))))
        full = (a * b).coeffs
        for m in range(order + 1):
            want = {beta: c for beta, c in full.items() if sum(beta) == m}
            assert a.mul_degree(b, m).coeffs == want

    @pytest.mark.parametrize("n, k", [(n, k) for n in (1, 2, 3) for k in (0, 1, 2)])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_nondegenerate(self, n, k, data):
        outcomes = same_as_reference(data.draw(nondegenerate_case(n, k)))
        assert outcomes[1:] == [ParityError, ParityError]

    @pytest.mark.parametrize("v, k", [(v, k) for v in (2, 4, 6) for k in (0, 1, 2)])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_even(self, v, k, data):
        outcomes = same_as_reference(data.draw(degenerate_case(v, k)))
        assert outcomes[0] is ParityError and outcomes[2] is ParityError

    @pytest.mark.parametrize("v, k", [(v, k) for v in (3, 5) for k in (0, 1, 2, 3)])
    @settings(max_examples=10)
    @given(data=st.data())
    def test_odd(self, v, k, data):
        outcomes = same_as_reference(data.draw(degenerate_case(v, k)))
        assert outcomes[0] is ParityError and outcomes[1] is ParityError

    def test_term_beyond_the_phase_terms(self):
        # the powers of a phase for two terms are too short for term 2
        phase = PhaseData.degenerate(jet1({4: 1, 5: 1}, order=20), 4, 2)
        assert outcome(stationary_term_even, jet1({0: 1}, order=20), phase, 2) is OrderBudgetError

    def test_power_losing_a_key_inside_its_window(self):
        # x^10 of remainder^2 sums to an exact zero (-1/2 + 1 - 1/2), so the
        # full-order square has 4 keys, one fewer than the sums reach; against
        # a 5-key u the full product loops over the power, and the three pairs
        # of the degree-11 slice round differently in the other order
        phase = PhaseData.degenerate(jet1({3: 1, 4: 1, 5: 1, 6: mpf(-1) / 2}, order=20), 3, 6)
        u = jet1({0: mpf(1) / 3, 2: mpf(1) / 4, 3: mpf(1) / 5, 7: 1, 13: 1}, order=20)
        full = reference_powers(phase.remainder, 3)[2]
        power = phase.remainder_power(2)
        assert len(power.coeffs) + len(power.above) == len(full.coeffs) == 4
        assert jet_bits(u.mul_degree(power, 11)) == jet_bits(
            reference_mul_degree(u, full, 11))

    @pytest.mark.parametrize(
        "rule, reference, v, needed",
        [
            (stationary_term, reference_term, None, 6),
            (stationary_term_even, reference_term_even, 4, 10),
            (stationary_term_odd, reference_term_odd, 3, 4),
        ],
    )
    def test_budget_error_fires_one_order_short(self, rule, reference, v, needed):
        def case(order):
            u = jet1({0: 1, 1: 2, 2: 3}, order=order)
            if v is None:
                return u, quadratic_phase_1d(1, 2, extra={3: 1}, order=order), 1
            return u, PhaseData.degenerate(jet1({v: 1, v + 1: 1}, order=order), v, 2), 1

        assert outcome(rule, *case(needed - 1)) is OrderBudgetError
        assert outcome(reference, *case(needed - 1)) is OrderBudgetError
        assert outcome(rule, *case(needed)) == outcome(reference, *case(needed)) != 0
