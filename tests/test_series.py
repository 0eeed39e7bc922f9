"""Polynomial and jet arithmetic: worked examples and ring properties."""

from __future__ import annotations

import contextlib
import itertools
import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    finf, fnan, fninf, from_man_exp, fzero, mpc_abs, mpf_add, mpf_mul, mpf_pow_int, mpf_sub,
    round_nearest,
)

from smoothasym import GaussRat, Jet, SparsePoly, jet_circle_substitute
from smoothasym import series
from smoothasym.series import (
    NonInvertibleJetError,
    SeriesError,
    circle_exp_series,
    coef_to_mpc,
    power_chain,
)

from conftest import poly
from oracles import (
    above_indices,
    drops_above_window,
    eval_exact,
    jet_allclose,
    jet_bits,
    jet_eval,
    poly_degree,
    poly_to_json,
    reference_eval,
    reference_jet_mul,
    reference_log,
    reference_mul_degree,
    reference_powers,
    reference_reciprocal,
    reference_substitute,
)


def close(a, b, tol="1e-50"):
    return abs(mpc(a) - mpc(b)) <= mpf(tol) * max(abs(mpc(b)), mpf(1))


class TestSparsePoly:
    def test_constructor_drops_zeros(self):
        P = SparsePoly(2, {(0, 0): 0, (1, 0): 2})
        assert P.terms == {(1, 0): Fraction(2)}

    def test_arity_checked(self):
        with pytest.raises(SeriesError):
            SparsePoly(2, {(1,): 1})

    def test_mul_and_pow(self):
        one = SparsePoly.constant(1, 1)
        x = SparsePoly.variable(1, 0)
        assert ((one + x) * (one - x)).terms == {(0,): Fraction(1), (2,): Fraction(-1)}
        assert ((one + x) ** 2).terms == {
            (0,): Fraction(1),
            (1,): Fraction(2),
            (2,): Fraction(1),
        }

    def test_partial(self):
        P = poly(2, {(2, 1): 3})
        assert P.partial(0).terms == {(1, 1): Fraction(6)}
        assert P.partial(1).terms == {(2, 0): Fraction(3)}

    def test_eval_matches_exact(self, rng):
        for _ in range(10):
            nv = rng.randint(1, 3)
            terms = {
                tuple(rng.randint(0, 3) for _ in range(nv)): Fraction(
                    rng.randint(-5, 5)
                )
                for _ in range(5)
            }
            P = SparsePoly(nv, terms)
            pt = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nv))
            exact = eval_exact(P, pt)
            approx = P.eval(tuple(coef_to_mpc(z) for z in pt))
            assert close(approx, coef_to_mpc(exact), "1e-55")

    def test_eval_converts_again_when_precision_changes(self):
        # one polynomial object at 212, 300 and 212 bits, each precision with
        # its own powers table shared by three calls: coefficients kept from
        # an earlier precision would change the bits, and the constant term
        # (zero exponents) is the converted coefficient itself
        P = SparsePoly(2, {(0, 0): GaussRat(Fraction(1, 3), Fraction(-2, 7)),
                           (1, 0): GaussRat(Fraction(-5, 11), Fraction(1, 9)),
                           (2, 1): Fraction(3, 13), (0, 3): GaussRat(0, Fraction(4, 15))})
        for bits in (212, 300, 212):
            with mp.workprec(bits):
                point = (mpc(1, 2) / 3, mpc(-3, 1) / 7)
                powers = {}
                for Q in (P, P.partial(0), P):
                    assert Q.eval(point, powers)._mpc_ == reference_eval(Q, point)._mpc_
                assert P.coeff_bound() == max(abs(coef_to_mpc(c)) for c in P.terms.values())

    def test_term_scale_memo_keeps_the_bits(self):
        # the coordinate moduli are kept for the last few points, keyed by
        # their raw parts: the scale is the one computed afresh at every
        # call, bit for bit, across more points than the memo holds, mixed
        # coordinate types and two precisions
        P = SparsePoly(2, {(0, 0): GaussRat(1, -2), (1, 0): Fraction(-5, 11), (2, 1): 3,
                           (0, 3): GaussRat(0, Fraction(4, 15))})

        def afresh(point):
            moduli = [mpc_abs(mpc(z)._mpc_, 53) for z in point]
            total = fzero
            for c, factors in P._terms_at_prec():
                term = mpc_abs(c, 53)
                for j, k in factors:
                    term = mpf_mul(term, mpf_pow_int(moduli[j], k, 53), 53)
                total = mpf_add(total, term, 53)
            return total

        with mp.workprec(300):
            fine = mpf(1) / 7  # rounded again at each lower precision
        for bits in (212, 100, 212):
            with mp.workprec(bits):
                points = [(mpc(k, 1) / 3, mpf(k) / 5) for k in range(12)]
                points += [(fine, 3), (2, mpc(0, -1) / 9)]
                for point in points + points[::-1]:
                    assert P.term_scale(point)._mpf_ == afresh(point)

    def test_json_round_trip(self):
        P = SparsePoly(2, {(1, 0): Fraction(1, 3), (0, 2): GaussRat(0, Fraction(2, 5))})
        again = SparsePoly.from_json(json.loads(json.dumps(poly_to_json(P))))
        assert again == P

    def test_json_string_coefs(self):
        P = SparsePoly.from_json('[{"exp": [1, 1], "coef": "-3/7"}]')
        assert P.terms == {(1, 1): Fraction(-3, 7)}

    def test_permute(self):
        P = poly(2, {(2, 1): 1})
        assert P.permute((1, 0)).terms == {(1, 2): Fraction(1)}


class TestGaussRat:
    def test_field_ops(self):
        i = GaussRat(0, 1)
        assert i * i == Fraction(-1)
        z = GaussRat(Fraction(1, 2), Fraction(3, 4))
        assert z * (Fraction(1) / z) == Fraction(1)
        assert (z + GaussRat(z.re, -z.im)) == Fraction(1)

    def test_collapses_to_fraction(self):
        z = GaussRat(2, 1) * GaussRat(2, -1)
        assert isinstance(z, Fraction) and z == 5


class TestJetFromPoly:
    # small Gaussian integers and halves are exact at the working precision,
    # so these jets compare exactly
    def test_linear_shift(self):
        P = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
        j = Jet.from_poly(P, (mpc(1, 2) / 2, mpc(1, -2) / 2), 2)
        assert j.coeffs == {(1, 0): mpc(-1), (0, 1): mpc(-1)}

    def test_binomial_shift(self):
        P = poly(1, {(2,): 1})
        j = Jet.from_poly(P, (mpc(1, 1),), 2)
        assert j.coeffs == {(0,): mpc(0, 2), (1,): mpc(2, 2), (2,): mpc(1)}

    def test_delannoy_point_on_variety(self, delannoy, delannoy_point):
        _, H, _ = delannoy
        j = Jet.from_poly(H, delannoy_point, 2)
        assert abs(j.constant_coefficient()) < mpf(2) ** (30 - mp.prec)

    def test_eval_matches_poly(self, rng):
        for _ in range(12):
            nv = rng.randint(1, 4)
            deg = rng.randint(1, 6)
            terms = {}
            for _ in range(6):
                e = [0] * nv
                for _ in range(rng.randint(0, deg)):
                    e[rng.randrange(nv)] += 1
                terms[tuple(e)] = Fraction(rng.randint(-6, 6))
            P = SparsePoly(nv, terms)
            center = tuple(
                mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(nv)
            )
            jet = Jet.from_poly(P, center, max(poly_degree(P), 1))
            dt = tuple(mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(nv))
            displaced = tuple(c + d for c, d in zip(center, dt))
            assert close(jet_eval(jet, dt), P.eval(displaced), "1e-12")


class TestJetArithmetic:
    def test_truncated_product(self):
        # the x coefficient sums to an exact zero and is dropped
        a = Jet.from_poly(poly(1, {(0,): 1, (1,): 1}), (0,), 2)
        b = Jet.from_poly(poly(1, {(0,): 1, (1,): -1}), (0,), 2)
        assert (a * b).coeffs == {(0,): mpc(1), (2,): mpc(-1)}

    def test_unit_identity(self, rng):
        a = _random_jet(rng, nvars=2, order=4)
        one = Jet.constant(2, 4, a.center, mpc(1))
        assert jet_allclose(a * one, a)

    def test_circle_exponential_square(self):
        # the torus series of e^{it}, squared, is the series of e^{2it}
        e_it = circle_exp_series(1, 3, 0, mpc(1)) + Jet.constant(1, 3, (mpc(0),), mpc(1))
        sq = e_it * e_it
        expect = {(0,): mpc(1), (1,): mpc(0, 2), (2,): mpc(-2), (3,): mpc(0, -4) / 3}
        for k, v in expect.items():
            assert close(sq.coefficient(k), v)

    def test_center_mismatch_rejected(self):
        a = Jet.constant(1, 2, (mpc(0),), mpc(1))
        b = Jet.constant(1, 2, (mpc(1),), mpc(1))
        with pytest.raises(SeriesError):
            a * b

    def test_ring_axioms_exact(self, rng):
        for _ in range(6):
            a = _random_gauss_jet(rng, 2, 5)
            b = _random_gauss_jet(rng, 2, 5)
            c = _random_gauss_jet(rng, 2, 5)
            assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
            assert (a * b).coeffs == (b * a).coeffs
            assert (a * (b + c)).coeffs == ((a * b) + (a * c)).coeffs

    def test_ring_axioms_float(self, rng):
        tol = mpf(2) ** (10 - mp.prec)
        for _ in range(4):
            a = _random_jet(rng, 2, 5)
            b = _random_jet(rng, 2, 5)
            c = _random_jet(rng, 2, 5)
            assert jet_allclose((a * b) * c, a * (b * c), rel=tol)
            assert jet_allclose(a * (b + c), a * b + a * c, rel=tol)


def _draw_coef(kind, integer):
    """A coefficient of degree ``m`` drawn by ``kind``, from ``integer(lo,
    hi)`` draws: small Gaussian integers (``"gauss"``), rationals rounded to
    the precision (``"rounded"``), reals that are either (``"real"``), the
    real times ``i^m`` the circle substitution makes at a real point
    (``"twisted"``), that times ``2^k`` for a ``k`` drawn per coefficient
    from ``-160, -120, ..., 160`` (``"scaled"``), so sums meet exponent gaps
    on both sides of the 100 bits where ``_mul_add`` hands back to
    ``mpf_add``, or each coefficient real, imaginary or complex
    (``"mixed"``).  The last four use small integers or rounded rationals
    throughout, by one draw."""
    small = kind == "gauss" if kind in ("gauss", "rounded") else bool(integer(0, 1))

    def part():
        value = mpf(integer(-2, 2))
        return value if small else value / integer(1, 7)

    def coef(m):
        if kind in ("gauss", "rounded"):
            return mpc(part(), part())
        if kind == "mixed":
            m = integer(0, 2)
            if m == 2:
                return mpc(part(), part())
        elif kind == "real":
            m = 0
        value = part()
        if kind == "scaled":
            value = mp.ldexp(value, 40 * integer(-4, 4))
        return mpc(*[(value, 0), (0, value), (-value, 0), (0, -value)][m % 4])

    return coef


@st.composite
def product_operands(draw):
    """Two jets for the product kernel, with coefficients built at the
    current precision.

    Each jet draws its own ``kind`` (``_draw_coef``), so pure operands meet
    complex ones; small integers make every sum exact, so cancellations give
    exact zeros, and rationals rounded to the precision make sums round.  The
    second jet is independent of the first, or the first at ``-x`` (the same
    keys, so the sizes tie and every odd-degree sum cancels), or the first's
    keys in reverse order with new coefficients (the sizes tie again).  Each
    jet holds every index of the order or up to 40 random ones, so a cell
    often sums many pairs; indices and coefficients come from a seeded
    generator, as in ``chain_case``.
    """
    nvars = draw(st.sampled_from([1, 2, 3]))
    order = draw(st.sampled_from(range(9)))
    kinds = st.sampled_from(["gauss", "rounded", "real", "twisted", "scaled", "mixed"])
    rng = random.Random(draw(st.integers(0, 2**32)))
    every = [b for b in itertools.product(range(order + 1), repeat=nvars) if sum(b) <= order]

    def keys():
        if draw(st.booleans()):
            return every
        return [rng.choice(every) for _ in range(rng.randint(0, 40))]

    def caps():
        if not draw(st.booleans()):
            return None
        return tuple(draw(st.sampled_from([None, *range(order + 1)])) for _ in range(nvars))

    def jet(keys):
        coef = _draw_coef(draw(kinds), rng.randint)
        return Jet(nvars, order, (0,) * nvars, {b: coef(sum(b)) for b in keys}, caps=caps())

    a = jet(keys())
    shape = draw(st.sampled_from(["independent", "mirror", "reversed"]))
    if shape == "independent":
        b = jet(keys())
    elif shape == "mirror":
        b = Jet(nvars, order, a.center,
                {k: -v if sum(k) % 2 else v for k, v in a.coeffs.items()}, caps=caps())
    else:
        b = jet(reversed(list(a.coeffs)))
    return a, b


class TestProductKernel:
    """``Jet.__mul__`` and ``Jet.mul_degree`` against the loops they replaced
    (``oracles.reference_jet_mul`` and ``reference_mul_degree``): the same
    keys in the same order, and bit-identical ``mpc`` coefficients."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_bit_identical_to_reference_loop(self, data):
        with mp.workprec(data.draw(st.sampled_from([212, 100, 53]))):
            a, b = data.draw(product_operands())
            assert jet_bits(a * b) == jet_bits(reference_jet_mul(a, b))
            for m in range(a.order + 2):
                assert jet_bits(a.mul_degree(b, m)) == jet_bits(
                    reference_mul_degree(a, b, m))

    def test_exponent_gaps(self):
        # twisted coefficients 2^(40 j) apart: the sums of pure pairs meet
        # gaps both sides of 100 bits, and ``_mul_add`` hands the wide ones
        # back to ``mpf_add``, the only ``mpf_add`` calls a pure product makes
        a, b = [Jet(1, 12, (0,), {
            (m,): mpc(*[(v, 0), (0, v), (-v, 0), (0, -v)][m % 4])
            for m in range(13)
            for v in [mp.ldexp(mpf(m + s) / (m + 2 * s + 1), 40 * ((s * m) % 9 - 4))]})
            for s in (1, 2)]
        assert _count_mul(lambda: a * b, names=("mpf_add",)) > 0
        assert jet_bits(a * b) == jet_bits(reference_jet_mul(a, b))


@st.composite
def chain_case(draw):
    """A jet for the Horner chains, with the data they take besides it.

    1-3 variables, order 0-12 (at most 10 in two variables and 7 in three),
    caps on or off.  Coefficients are drawn by a ``kind`` of ``_draw_coef``:
    small integers make every sum exact, so coefficients of the chains cancel
    to exact zeros, and rationals rounded to the precision make sums round;
    real, twisted and scaled jets keep every chain pure.  The support is up
    to 12 random indices, or every index of the order; either may be
    parity-sparse, every exponent even, so the chains never reach an odd
    degree.  Besides
    the jet ``a`` the case draws a second jet ``s`` without constant term
    (the substitution series and power-chain base), a variable, and the first
    window of a power chain.  Indices and coefficients come from a seeded
    generator, so dense jets do not exhaust hypothesis's data.
    """
    nvars = draw(st.sampled_from([1, 2, 3]))
    order = draw(st.sampled_from(range({1: 12, 2: 10, 3: 7}[nvars] + 1)))
    kind = draw(st.sampled_from(["gauss", "rounded", "real", "twisted", "scaled", "mixed"]))
    even, dense = draw(st.sampled_from([False, True])), draw(st.sampled_from([False, True]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    every = [b for b in itertools.product(range(order + 1), repeat=nvars)
             if sum(b) <= order and not (even and any(e % 2 for e in b))]
    coef = _draw_coef(kind, rng.randint)

    def jet(low, caps):
        usable = [b for b in every if sum(b) >= low]
        if usable and not dense:
            usable = [rng.choice(usable) for _ in range(rng.randint(1, 12))]
        return Jet(nvars, order, (0,) * nvars, {b: coef(sum(b)) for b in usable}, caps=caps)

    caps = None
    if draw(st.booleans()):
        caps = tuple(draw(st.sampled_from([None, *range(order + 1)])) for _ in range(nvars))
    a = jet(0, caps)
    const = coef(0)
    if not const:  # the chains need an invertible jet
        const = mpc(1)
    a.coeffs[(0,) * nvars] = const
    return a, jet(1, caps), draw(st.integers(0, nvars - 1)), draw(st.integers(0, order))


def assert_same_chain(got, reference, window):
    """``got`` is ``reference()`` bit for bit, keys, key order and caps
    included, unless the full-order chain dropped an exact zero above a
    window; then the windowed chain may loop a product over the other
    operand, and the coefficients agree to rounding."""
    want, dropped = drops_above_window(reference, window)
    event(f"exact zero above a window: {dropped}")
    if dropped:
        assert jet_allclose(got, want)
    else:
        assert jet_bits(got) == jet_bits(want)


class TestWindowedChains:
    """``reciprocal``, ``log``, ``substitute`` and ``power_chain`` compute each
    Horner step only through the degree a later step reads, against the
    full-order chains (``oracles.reference_*``)."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_bit_identical_to_full_order_chains(self, data):
        with mp.workprec(data.draw(st.sampled_from([212, 100, 53]))):
            a, s, var, start = data.draw(chain_case())
            assert_same_chain(a.reciprocal(), lambda: reference_reciprocal(a), lambda i: i)
            top = max((b[var] for b in a.coeffs), default=0)
            assert_same_chain(a.substitute(var, s), lambda: reference_substitute(a, var, s),
                              lambda i: a.order - top + i)
            assert_same_chain(a.log(), lambda: reference_log(a), lambda i: i)
            # windows that grow by the valuation of the base, as the phase's do
            step = min((sum(b) for b in s.coeffs), default=1)
            window = lambda l: start + step * l  # noqa: E731
            fulls, dropped = drops_above_window(lambda: reference_powers(s, 4), window)
            chain = power_chain(s, window)
            for l, full in enumerate(fulls):
                power = next(chain)
                count = len(power.coeffs) + len(power.above)
                assert count >= len(full.coeffs)
                if not dropped:
                    assert jet_bits(power) == jet_bits(full, window(l))
                    assert count == len(full.coeffs)

    def test_accumulator_shrinks_below_u(self):
        # x^2 and x^5 of the fifth accumulator of 1/a cancel to exact zeros
        # inside its window, so the full chain's last product loops over the
        # accumulator (5 keys), not over u (6 keys)
        a = Jet(1, 6, (0,), {(0,): mpc(-1), (1,): mpc(1), (2,): mpc(-1), (3,): mpc(-1, 1),
                             (4,): mpc(1), (5,): mpc(-1, -1), (6,): mpc(0, 1)})
        assert jet_bits(a.reciprocal()) == jet_bits(reference_reciprocal(a))

    @settings(max_examples=200)
    @given(data=st.data())
    def test_windowed_inputs_and_results(self, data):
        # each chain asked for its result through degree ``hi`` only, on an
        # input cut to that window (``through``), which carries its keys
        # above ``hi``: the window of the full-order chain's result, with the
        # full result's keys above it
        with mp.workprec(data.draw(st.sampled_from([212, 100, 53]))):
            a, s, var, hi = data.draw(chain_case())
            top = max((b[var] for b in a.coeffs), default=0)
            cases = [
                (lambda: a.through(hi).substitute(var, s, hi),
                 lambda: reference_substitute(a, var, s), lambda i: hi - top + i),
                (lambda: a.through(hi).reciprocal(hi),
                 lambda: reference_reciprocal(a), lambda i: hi - a.order + i),
                (lambda: a.through(hi).log(hi),
                 lambda: reference_log(a), lambda i: hi - a.order + i),
                (lambda: s.through(hi).pow_int(3, hi),
                 lambda: reference_powers(s, 4)[3], lambda i: hi),
            ]
            for windowed, reference, window in cases:
                got = windowed()
                want, dropped = drops_above_window(reference, lambda i: max(0, window(i)))
                event(f"exact zero above a window: {dropped}")
                if dropped:
                    assert jet_allclose(got, want.through(hi))
                else:
                    assert jet_bits(got) == jet_bits(want, hi)
                    assert len(got.coeffs) + len(got.above) == len(want.coeffs)

    @settings(max_examples=100)
    @given(data=st.data())
    def test_truncate_keeps_the_window(self, data):
        a, _, _, hi = data.draw(chain_case())
        order = data.draw(st.integers(0, a.order))
        got, want = a.through(hi).truncate(order), a.truncate(order).through(hi)
        assert jet_bits(got) == jet_bits(want)
        assert above_indices(got) == above_indices(want)
        assert above_indices(got) == {b for b in a.truncate(order).coeffs if sum(b) > hi}

    @settings(max_examples=40)
    @given(data=st.data())
    def test_circle_substitution(self, data):
        # the factorial-scaled circle series rounds every product, so no
        # coefficient sums to an exact zero above a window, and the check is
        # strict; at a real center a real jet's products stay pure, as at a
        # combinatorial point
        a = data.draw(chain_case())[0]
        center = data.draw(st.sampled_from([mpc(1, 1) / 3, mpc(1) / 3]))
        a = Jet(a.nvars, a.order, (center,) * a.nvars, a.coeffs, caps=a.caps)
        with mock.patch.object(Jet, "substitute", reference_substitute):
            want = jet_circle_substitute(a)
        assert jet_bits(jet_circle_substitute(a)) == jet_bits(want)


def _reindex_maps(n, j):
    """The pipeline's re-wraps of a jet in ``n`` variables, each as (name,
    index map, number of variables of the result): the identity (``truncate``
    and the circle substitution), the constant dropped, degrees above 2 kept
    (the cuts ``drop_through`` makes without re-packing), the constant and
    the last variable dropped (the Newton filter), a variable appended (the
    ``y = h + v`` shift),
    the last variable dropped where it is 0 (the implicit root), the last
    exponent shifted down (``Q = H / v``) and the slice where it is ``j``
    (the amplitudes)."""
    return [
        ("identity", None, n),
        ("drop the constant", lambda b: b if any(b) else None, n),
        ("keep degree > 2", lambda b: b if sum(b) > 2 else None, n),
        ("Newton filter", lambda b: b if any(b) and b[-1] == 0 else None, n),
        ("append a variable", lambda b: b + (0,), n + 1),
        ("drop the last variable", lambda b: None if b[-1] else b[:-1], n - 1),
        ("shift the last exponent down",
         lambda b: b[:-1] + (b[-1] - 1,) if b[-1] else None, n),
        ("slice on the last exponent", lambda b: b[:-1] if b[-1] == j else None, n - 1),
    ]


class TestReindex:
    """``Jet.reindex`` of a window is the window of the re-indexed full-order
    jet: its coefficients are the images of the full jet's coefficients
    through the window, in order and bit for bit, and its keys above the
    window are the images of the rest, each kept where the result's order
    and caps keep it."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_window_of_the_reindexed_jet(self, data):
        full, _, _, w = data.draw(chain_case())
        n = full.nvars
        name, index, nvars = data.draw(st.sampled_from(_reindex_maps(n, data.draw(
            st.integers(0, 2)))))
        event(name)
        order = data.draw(st.sampled_from([None, max(full.order - 2, 0), full.order + 1]))
        caps = None
        if data.draw(st.booleans()):
            caps = tuple(data.draw(st.sampled_from([None, 0, 1, 3])) for _ in range(nvars))
        center = (mpc(1, 1) / 3,) * nvars
        got = full.through(w).reindex(index, nvars=nvars, order=order, center=center,
                                      caps=caps)
        order = full.order if order is None else order
        assert (got.nvars, got.order, got.center, got.caps) == (nvars, order, center, caps)

        def image(b):
            b = b if index is None else index(b)
            keep = b is not None and sum(b) <= order and (
                caps is None or all(c is None or x <= c for x, c in zip(b, caps)))
            return b if keep else None

        images = [(image(b), b, v) for b, v in full.coeffs.items()]
        assert jet_bits(got) == (caps, [(i, v._mpc_) for i, b, v in images
                                        if i is not None and sum(b) <= w])
        above = {i for i, b, _ in images if i is not None and sum(b) > w}
        event(f"keys above the window: {bool(above)}")
        assert above_indices(got) == above

    @settings(max_examples=100)
    @given(data=st.data())
    def test_drop_through_keeps_the_window(self, data):
        # a degree cut moves no index, so the window's keys above it are
        # handed on as they are: the same set, whatever the cut
        full, _, _, w = data.draw(chain_case())
        window = full.through(w)
        d = data.draw(st.integers(0, full.order + 1))
        got = window.drop_through(d)
        assert jet_bits(got) == (full.caps, [(b, v._mpc_) for b, v in full.coeffs.items()
                                             if d < sum(b) <= w])
        assert got.above is window.above


def _product_sizes(run):
    """For every product ``run()`` makes, the coefficients plus ``above`` keys
    of both operands and of the result."""
    sizes, product = [], Jet._product

    def recorded(self, other, lo, hi, track=False):
        out = product(self, other, lo, hi, track)
        sizes.append(tuple(len(j.coeffs) + len(j.above) for j in (self, other, out)))
        return out

    with mock.patch.object(Jet, "_product", recorded):
        run()
    return sizes


def _keyed_jets(shape):
    """A jet ``a`` and a series ``s`` whose rounded coefficients never sum to
    an exact zero: dense in two variables, sparse with a cap, where the keys
    above a window come from the operands' keys above theirs, sparse in three
    variables, or dense and sparse with a cap in one variable, where the keys
    above a window are computed from degree masks."""
    keys, order, caps = {
        "dense": ([b for b in itertools.product(range(7), repeat=2) if sum(b) <= 6], 6, None),
        "sparse": ([(0, 0), (3, 0), (0, 5), (2, 2), (1, 4)], 12, (None, 9)),
        "three": ([(0, 0, 0), (1, 0, 2), (0, 3, 1), (2, 1, 0), (0, 0, 4), (1, 1, 1)], 7, None),
        "dense1": ([(k,) for k in range(11)], 10, None),
        "sparse1": ([(0,), (2,), (3,), (7,), (11,)], 16, (13,)),
    }[shape]
    n = len(keys[0])

    def coef(b):
        x, y, *z = b + (0,)
        return mpc(1, x - y) / (x + 3 * y + 5 * sum(z) + 7)

    a = Jet(n, order, (0,) * n, {b: coef(b) for b in keys}, caps=caps)
    return a, Jet(n, order, (0,) * n, {b: v for b, v in a.coeffs.items() if any(b)}, caps=caps)


class TestWindowKeys:
    """A windowed step's coefficients plus its ``above`` keys are as many as
    the full-order step's coefficients, for every operand and result of every
    product of a chain."""

    @pytest.mark.parametrize("shape", ["dense", "sparse", "dense1", "sparse1"])
    @pytest.mark.parametrize("chain", ["reciprocal", "substitute", "power"])
    def test_full_order_key_count(self, chain, shape):
        a, s = _keyed_jets(shape)
        top = max(b[0] for b in a.coeffs)
        step = min(sum(b) for b in s.coeffs)
        windowed, reference, window = {
            "reciprocal": (a.reciprocal, lambda: reference_reciprocal(a), lambda i: i),
            "substitute": (lambda: a.substitute(0, s), lambda: reference_substitute(a, 0, s),
                           lambda i: a.order - top + i),
            "power": (lambda: list(itertools.islice(power_chain(s, lambda l: step * l), 5)),
                      lambda: reference_powers(s, 5), lambda l: step * l),
        }[chain]
        assert not drops_above_window(reference, window)[1]
        want = _product_sizes(reference)
        assert _product_sizes(windowed) == want
        assert len(want) >= 3

    @pytest.mark.parametrize("hi", [2, 4])
    @pytest.mark.parametrize("shape", ["dense", "sparse", "three", "dense1", "sparse1"])
    @pytest.mark.parametrize("chain", ["substitute", "circle", "reciprocal", "log", "power"])
    def test_windowed_results(self, chain, shape, hi):
        # results wanted through ``hi`` from inputs cut there: the keys above
        # an input's window decide a chain's length and sizes, as in the
        # second variable of a circle substitution, which reads the first's
        # result above its window
        a, s = _keyed_jets(shape)
        ring = Jet(a.nvars, a.order, (mpc(1, 1) / 3,) * a.nvars, a.coeffs, caps=a.caps)
        var = min(1, a.nvars - 1)
        windowed, reference = {
            "substitute": (lambda: a.through(hi).substitute(var, s, hi),
                           lambda: reference_substitute(a, var, s)),
            "circle": (lambda: jet_circle_substitute(ring.through(hi), None, hi),
                       lambda: _reference_circle(ring)),
            "reciprocal": (lambda: a.through(hi).reciprocal(hi),
                           lambda: reference_reciprocal(a)),
            "log": (lambda: a.through(hi).log(hi), lambda: reference_log(a)),
            "power": (lambda: s.through(hi).pow_int(3, hi), lambda: reference_powers(s, 4)[3]),
        }[chain]
        want, dropped = drops_above_window(reference, lambda i: -1)
        assert not dropped  # no exact zero anywhere in the full chain
        got = windowed()
        assert jet_bits(got) == jet_bits(want, hi)
        assert above_indices(got) == {b for b in want.coeffs if sum(b) > hi}
        assert _product_sizes(windowed) == _product_sizes(reference)

    @pytest.mark.parametrize("hi", [3, 4, 6])
    @pytest.mark.parametrize("chain", ["product", "reciprocal", "power"])
    def test_cap_at_or_below_the_window(self, chain, hi):
        # in one variable a cap of 3 leaves no key above a window through 3,
        # 4 or 6: the degree masks must be cut to nothing, not to every
        # degree above the window
        a = Jet(1, 10, (0,), {(k,): mpc(1, k) / (k + 7) for k in range(11)}, caps=(3,))
        s = a.drop_through(0)
        windowed, reference = {
            "product": (lambda: a.mul_through(s, hi), lambda: reference_jet_mul(a, s)),
            "reciprocal": (lambda: a.reciprocal(hi), lambda: reference_reciprocal(a)),
            "power": (lambda: s.pow_int(3, hi), lambda: reference_powers(s, 4)[3]),
        }[chain]
        got = windowed()
        assert jet_bits(got) == jet_bits(reference())
        assert got.above == set()


def _reference_circle(a):
    with mock.patch.object(Jet, "substitute", reference_substitute):
        return jet_circle_substitute(a)


def _count_mul(fn, names=("_mul_add", "mpf_mul")):
    """The number of multiplies the jet products make inside ``fn()``: calls
    of ``series._mul_add``, one per pair of real or imaginary coefficients,
    plus calls of ``series.mpf_mul``, four per other pair; ``names`` picks
    which of the two are counted."""
    calls = [0]

    def counting(f):
        def counted(*args):
            calls[0] += 1
            return f(*args)
        return counted

    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(mock.patch.object(series, name, counting(getattr(series, name))))
        fn()
    return calls[0]


class TestWindowCost:
    """The windows must keep saving: on a dense order-40 jet in one variable
    a windowed chain makes about a third of the full chain's multiplications
    (step t runs through degree t, so about t^2/2 pairs against 40^2/2)."""

    def dense(self, center):
        return Jet(1, 40, (center,), {(k,): mpc(1, k) / (k + 1) for k in range(41)})

    def test_reciprocal(self):
        a = self.dense(mpc(0))
        windowed = _count_mul(a.reciprocal)
        full = _count_mul(lambda: reference_reciprocal(a))
        assert windowed <= 0.4 * full

    def test_circle_substitute(self):
        a = self.dense(mpc(1, 1) / 3)
        windowed = _count_mul(lambda: jet_circle_substitute(a))
        with mock.patch.object(Jet, "substitute", reference_substitute):
            full = _count_mul(lambda: jet_circle_substitute(a))
        assert windowed <= 0.4 * full


class TestProductShortcuts:
    """A jet packs its coefficients for products once per ``coeffs`` dict,
    and a product whose window no pair reaches runs no pair loop; both keep
    the reference loop's result and the window's keys above it."""

    @staticmethod
    def jet(nvars, low, seed):
        keys = [b for b in itertools.product(range(9), repeat=nvars) if low <= sum(b) <= 8]
        return Jet(nvars, 8, (0,) * nvars,
                   {b: mpc(b[0] + seed, sum(b)) / (b[-1] + 3) for b in keys})

    @pytest.mark.parametrize("nvars", [1, 2])
    def test_window_no_pair_reaches(self, nvars):
        # valuations 3 and 2: no pair lands at or below degree 4
        a, s = self.jet(nvars, 3, 1), self.jet(nvars, 2, 2)
        full = reference_jet_mul(a, s)
        for hi in range(7):
            with mock.patch.object(series, "_pair", side_effect=series._pair) as pairs:
                got = a.mul_through(s, hi)
            assert (pairs.call_count == 0) == (hi < 5)
            assert jet_bits(got) == jet_bits(full, hi)
            assert above_indices(got) == {b for b in full.coeffs if sum(b) > hi}
            assert jet_bits(a.mul_degree(s, hi)) == jet_bits(reference_mul_degree(a, s, hi))
        empty = Jet(nvars, 8, (0,) * nvars, {})
        assert not a.mul_through(empty, 8).coeffs and not empty.mul_through(a, 3).coeffs

    def test_packs_once_and_again_after_a_new_dict(self):
        a, s = self.jet(2, 0, 1), self.jet(2, 1, 2)
        a * s
        packed = a._pack
        a.mul_through(s, 3)
        assert a._pack is packed
        a.coeffs = {b: -v for b, v in list(a.coeffs.items())[:7]}
        assert jet_bits(a * s) == jet_bits(reference_jet_mul(a, s))
        assert jet_bits(s * a) == jet_bits(reference_jet_mul(s, a))
        assert a._pack is not packed


class TestPureProducts:
    """A pair of real or imaginary coefficients takes one multiply, where a
    pair of complex ones takes four; a kernel that falls back to the complex
    formula, or sends pure pairs to ``mpf_mul``, fails this, though its bits
    are the same."""

    @staticmethod
    def jets(parts):
        """Dense order-8 jets in two variables on one support, each
        coefficient made by ``parts(value, degree)``."""
        keys = [b for b in itertools.product(range(9), repeat=2) if sum(b) <= 8]
        return [Jet(2, 8, (0, 0), {b: mpc(*parts(mpf(b[0] + s) / (b[1] + 3), sum(b)))
                                   for b in keys}) for s in (1, 2)]

    @pytest.mark.parametrize("kind", ["real", "twisted"])
    def test_quarter_of_the_complex_multiplies(self, kind):
        pure = self.jets({
            "real": lambda v, m: (v, 0),
            "twisted": lambda v, m: [(v, 0), (0, v), (-v, 0), (0, -v)][m % 4],
        }[kind])
        full = self.jets(lambda v, m: (v, 1 + v))
        count = _count_mul(lambda: pure[0] * pure[1])
        # one per pair of indices: C(12, 4) pairs of total degree <= 8
        assert count == 495
        assert 4 * count == _count_mul(lambda: full[0] * full[1])
        # and none of them goes back to mpmath's multiply
        assert _count_mul(lambda: pure[0] * pure[1], names=("mpf_mul",)) == 0


def _raw(rng, bits, exp, sign, shape="random"):
    """A normalized raw mpf: an odd mantissa of ``bits`` bits, random or all
    ones, times ``2^exp``."""
    man = (1 << bits) - 1 if shape == "ones" else rng.getrandbits(bits) | 1 | 1 << (bits - 1)
    return sign, man, exp, bits


def _mul_add_case(rng):
    """``(kind, s, x, y, prec)``: factors of 1-400 bits, random or all ones,
    times an accumulator ``s`` of one of these kinds, each relative to the
    product ``p`` rounded to ``prec``:

    - ``fzero``, or ``-p`` (exact cancellation);
    - ``gap``: random, of up to ``prec + 100`` bits, its exponent up to
      ``prec + 160`` bits either side of ``p``'s, past the 100 bits where
      ``mpf_add`` may only perturb;
    - ``tie``: the exact sum lies halfway between two ``prec``-bit values;
    - ``carry``: the exact sum has all ones past ``prec`` bits, so it rounds
      up to a power of two;
    - ``special``: infinite or nan.
    """
    prec = rng.choice([53, 100, 212, 300])
    shapes = ["random", "random", "ones"]
    x = _raw(rng, rng.randint(1, 400), rng.randint(-400, 400), rng.randint(0, 1),
             rng.choice(shapes))
    y = _raw(rng, rng.choice([1, rng.randint(1, 400)]), rng.randint(-400, 400),
             rng.randint(0, 1), rng.choice(shapes))
    p = mpf_mul(x, y, prec, round_nearest)
    kind = rng.choice(["fzero", "cancel", "gap", "gap", "tie", "carry", "special"])
    if kind == "fzero":
        return kind, fzero, x, y, prec
    if kind == "cancel":
        return kind, (1 - p[0], *p[1:]), x, y, prec
    if kind == "special":
        return kind, rng.choice([finf, fninf, fnan]), x, y, prec
    if kind == "gap":
        exp = p[2] + rng.randint(-prec - 160, prec + 160)
        return kind, _raw(rng, rng.randint(1, prec + 100), exp, rng.randint(0, 1)), x, y, prec
    # the exact sum T = s + p, T's mantissa prec + n bits long with the n
    # dropped bits a tie (100...0) or all ones; then s = T - p exactly
    n = rng.randint(1, 40)
    if kind == "tie":
        man = (rng.getrandbits(prec) | 1 << (prec - 1)) << n | 1 << (n - 1)
    else:
        man = (1 << (prec + n)) - 1
    total = from_man_exp(-man if rng.randint(0, 1) else man, p[2] + rng.randint(-20, 20))
    return kind, mpf_sub(total, p), x, y, prec


class TestMulAdd:
    """``series._mul_add`` is ``mpf_add(s, mpf_mul(x, y, prec, 'n'), prec,
    'n')`` bit for bit."""

    def test_matches_mpmath(self):
        rng = random.Random(20261019)
        seen = set()
        for _ in range(100_000):
            kind, s, x, y, prec = _mul_add_case(rng)
            p = mpf_mul(x, y, prec, round_nearest)
            want = mpf_add(s, p, prec, round_nearest)
            assert series._mul_add(s, x, y, prec) == want, (kind, s, x, y, prec)
            if kind == "gap":
                gap = abs(s[2] - p[2])
                big, small = (s, p) if s[2] > p[2] else (p, s)
                perturb = big[3] + big[2] - small[3] - small[2] > prec + 4
                kind = ("gap", gap > 100, perturb)
            seen.add((kind, (s[0], x[0], y[0])))
        # every kind with every sign, and gaps past 100 bits with and without
        # libmpf's perturbation
        kinds = {k for k, _ in seen}
        assert {("gap", True, True), ("gap", True, False), ("gap", False, False)} <= kinds
        assert {"fzero", "cancel", "tie", "carry", "special"} <= kinds
        for kind in kinds - {"fzero", "cancel"}:
            assert {signs for k, signs in seen if k == kind} == set(
                itertools.product((0, 1), repeat=3)), kind

    @pytest.mark.parametrize("prec", [53, 100, 212, 300])
    def test_crafted(self, prec):
        rng = random.Random(prec)
        ones = _raw(rng, prec + 1, 0, 0, "ones")  # rounds up to 2^(prec + 1)
        for signs in itertools.product((0, 1), repeat=3):
            for x, y in [(ones, (0, 1, 5, 1)), (ones, ones),
                         (_raw(rng, prec, -7, 0), _raw(rng, 2, 3, 0)),
                         ((0, 1, 0, 1), (0, 1, 0, 1))]:
                x, y = (signs[1], *x[1:]), (signs[2], *y[1:])
                p = mpf_mul(x, y, prec, round_nearest)
                for s in [fzero, (1 - p[0], *p[1:]), p, finf, fnan,
                          *[(signs[0], 3, p[2] + gap, 2) for gap in (-101, -100, 99, 100, 101)]]:
                    want = mpf_add(s, p, prec, round_nearest)
                    assert series._mul_add(s, x, y, prec) == want, (s, x, y)

    def test_context_rounds_to_nearest(self):
        # the helper assumes round-to-nearest; ``mp`` runs no other mode and
        # has no rounding setter
        assert mp._prec_rounding[1] == round_nearest
        with mp.workprec(53):
            assert mp._prec_rounding[1] == round_nearest
        assert not hasattr(mp, "rounding")


class TestReciprocal:
    def test_geometric_series(self):
        a = Jet.from_poly(poly(1, {(0,): 1, (1,): -1}), (0,), 3)
        assert a.reciprocal().coeffs == {(k,): mpc(1) for k in range(4)}

    def test_involution(self, rng):
        for _ in range(5):
            a = _random_jet(rng, 1, 6, unit_constant=True)
            assert jet_allclose(a.reciprocal().reciprocal(), a, rel=mpf(2) ** (40 - mp.prec))

    def test_product_with_inverse_is_one(self, rng):
        a = _random_jet(rng, 2, 5, unit_constant=True)
        one = Jet.constant(2, 5, a.center, mpc(1))
        assert jet_allclose(a * a.reciprocal(), one, rel=mpf(2) ** (40 - mp.prec))

    def test_zero_constant_rejected(self):
        a = Jet(1, 3, (mpc(0),), {(1,): mpc(1)})
        with pytest.raises(NonInvertibleJetError):
            a.reciprocal()


class TestLog:
    def test_log1p_series(self):
        a = Jet.from_poly(poly(1, {(0,): 1, (1,): 1}), (0,), 3)
        out = a.log()
        assert close(out.coefficient((1,)), 1)
        assert close(out.coefficient((2,)), mpf(-1) / 2)
        assert close(out.coefficient((3,)), mpf(1) / 3)
        assert close(out.constant_coefficient(), 0)

    def test_constant_one(self):
        a = Jet.constant(1, 3, (mpc(0),), mpc(1))
        assert a.log().coeffs == {}

    def test_multiplicative(self, rng):
        for _ in range(5):
            a = _random_jet(rng, 1, 6, unit_constant=True)
            b = _random_jet(rng, 1, 6, unit_constant=True)
            lhs = (a * b).log()
            rhs = a.log() + b.log()
            # constants may differ by the branch; positive orders must agree
            for k in range(1, 7):
                assert close(lhs.coefficient((k,)), rhs.coefficient((k,)), "1e-55")

    def test_zero_constant_rejected(self):
        with pytest.raises(NonInvertibleJetError):
            Jet(1, 2, (mpc(0),), {(1,): mpc(1)}).log()


class TestCircleSubstitute:
    def test_identity_map(self):
        a = Jet.from_poly(poly(1, {(1,): 1}), (mpf(1) / 2,), 2)
        out = jet_circle_substitute(a)
        assert close(out.constant_coefficient(), mpf(1) / 2)
        assert close(out.coefficient((1,)), mpc(0, 0.5))
        assert close(out.coefficient((2,)), mpf(-1) / 4)

    def test_one_minus_w(self):
        a = Jet.from_poly(poly(1, {(0,): 1, (1,): -1}), (mpf(1) / 2,), 4)
        out = jet_circle_substitute(a)
        expect = {
            (0,): mpc(0.5),
            (1,): mpc(0, -0.5),
            (2,): mpc(0.25),
            (3,): mpc(0, 1) / 12,
            (4,): mpc(-1) / 48,
        }
        for k, v in expect.items():
            assert close(out.coefficient(k), v)

    def test_constant_unchanged(self):
        a = Jet.constant(1, 3, (mpc(2),), mpc(7))
        out = jet_circle_substitute(a)
        assert out.coeffs == {(0,): mpc(7)}

    def test_zero_center_rejected(self):
        a = Jet.constant(1, 2, (mpc(0),), mpc(1))
        with pytest.raises(SeriesError):
            jet_circle_substitute(a)

    def test_commutes_with_multiply(self, rng):
        for nv in (1, 2):
            center = tuple(mpc(rng.uniform(0.3, 1.2), rng.uniform(-0.4, 0.4)) for _ in range(nv))
            a = _random_jet(rng, nv, 5, center=center)
            b = _random_jet(rng, nv, 5, center=center)
            lhs = jet_circle_substitute(a * b)
            rhs = jet_circle_substitute(a) * jet_circle_substitute(b)
            assert jet_allclose(lhs, rhs, rel=mpf(2) ** (40 - mp.prec))


def _random_jet(rng, nvars, order, unit_constant=False, center=None):
    center = center or (mpc(0),) * nvars
    coeffs = {}
    for _ in range(8):
        beta = [0] * nvars
        for _ in range(rng.randint(0, order)):
            beta[rng.randrange(nvars)] += 1
        coeffs[tuple(beta)] = mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
    if unit_constant or rng.random() < 0.5:
        coeffs[(0,) * nvars] = mpc(1 + rng.uniform(0.2, 1.0), rng.uniform(-0.3, 0.3))
    return Jet(nvars, order, center, coeffs)


def _random_gauss_jet(rng, nvars, order):
    """A jet with small Gaussian-integer coefficients: sums and products of a
    few of them are exact at the working precision."""
    coeffs = {}
    for _ in range(8):
        beta = [0] * nvars
        for _ in range(rng.randint(0, order)):
            beta[rng.randrange(nvars)] += 1
        coeffs[tuple(beta)] = mpc(rng.randint(-9, 9), rng.randint(-9, 9))
    return Jet(nvars, order, (mpc(0),) * nvars, coeffs)
