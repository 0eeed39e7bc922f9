"""Polynomial and jet arithmetic: worked examples and ring properties."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from smoothasym import GaussRat, Jet, SparsePoly, jet_circle_substitute
from smoothasym.series import (
    NonInvertibleJetError,
    SeriesError,
    circle_exp_series,
    coef_to_mpc,
)

from conftest import poly
from oracles import eval_exact, jet_allclose, reference_jet_mul, reference_mul_degree


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

    def test_json_round_trip(self):
        P = SparsePoly(2, {(1, 0): Fraction(1, 3), (0, 2): GaussRat(0, Fraction(2, 5))})
        again = SparsePoly.from_json(json.loads(json.dumps(P.to_json())))
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
        assert (z + z.conjugate()) == Fraction(1)

    def test_collapses_to_fraction(self):
        z = GaussRat(2, 1) * GaussRat(2, -1)
        assert isinstance(z, Fraction) and z == 5


class TestJetFromPoly:
    def test_linear_shift(self):
        P = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
        j = Jet.from_poly(P, (Fraction(1, 2), Fraction(1, 2)), 2, exact=True)
        assert j.coeffs == {(1, 0): Fraction(-1), (0, 1): Fraction(-1)}

    def test_binomial_shift(self):
        P = poly(1, {(2,): 1})
        j = Jet.from_poly(P, (1,), 2, exact=True)
        assert j.coeffs == {(0,): 1, (1,): 2, (2,): 1}

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
            jet = Jet.from_poly(P, center, P.degree() if P.degree() > 0 else 1)
            dt = tuple(mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(nv))
            displaced = tuple(c + d for c, d in zip(center, dt))
            assert close(jet.eval(dt), P.eval(displaced), "1e-12")


class TestJetArithmetic:
    def test_truncated_product(self):
        a = Jet.from_poly(poly(1, {(0,): 1, (1,): 1}), (0,), 2, exact=True)
        b = Jet.from_poly(poly(1, {(0,): 1, (1,): -1}), (0,), 2, exact=True)
        assert (a * b).coeffs == {(0,): Fraction(1), (2,): Fraction(-1)}

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
            a = _random_exact_jet(rng, 2, 5)
            b = _random_exact_jet(rng, 2, 5)
            c = _random_exact_jet(rng, 2, 5)
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


@st.composite
def product_operands(draw):
    """Two jets for the product kernel, with coefficients built at the
    current precision.

    ``kind`` picks the coefficients: small Gaussian integers (every sum is
    exact, so cancellations give exact zeros), rationals rounded to the
    precision (sums round), or exact ``Fraction`` values.  The second jet is
    independent of the first, or the first at ``-x`` (the same keys, so the
    sizes tie and every odd-degree sum cancels), or the first's keys in
    reverse order with new coefficients (the sizes tie again).
    """
    nvars = draw(st.integers(1, 3))
    order = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["gauss", "rounded", "fraction"]))

    def coef():
        if kind == "fraction":
            return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
        re, im = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        if kind == "gauss":
            return mpc(re, im)
        return mpc(mpf(re) / draw(st.integers(1, 7)), mpf(im) / draw(st.integers(1, 7)))

    def index():
        room, beta = order, []
        for _ in range(nvars):
            beta.append(draw(st.integers(0, room)))
            room -= beta[-1]
        return tuple(draw(st.permutations(beta)))

    def caps():
        if not draw(st.booleans()):
            return None
        return tuple(draw(st.none() | st.integers(0, order)) for _ in range(nvars))

    def jet(keys):
        return Jet(nvars, order, (0,) * nvars, {b: coef() for b in keys}, caps=caps())

    a = jet([index() for _ in range(draw(st.integers(0, 12)))])
    shape = draw(st.sampled_from(["independent", "mirror", "reversed"]))
    if shape == "independent":
        b = jet([index() for _ in range(draw(st.integers(0, 12)))])
    elif shape == "mirror":
        b = Jet(nvars, order, a.center,
                {k: -v if sum(k) % 2 else v for k, v in a.coeffs.items()}, caps=caps())
    else:
        b = jet(reversed(list(a.coeffs)))
    return a, b


def _bits(jet):
    """A jet's keys in order, each with its coefficient's raw ``mpc`` parts
    (or the exact value itself), and its caps."""
    return jet.caps, [(b, getattr(v, "_mpc_", v)) for b, v in jet.coeffs.items()]


class TestProductKernel:
    """``Jet.__mul__`` and ``Jet.mul_degree`` against the loops they replaced
    (``oracles.reference_jet_mul`` and ``reference_mul_degree``): the same
    keys in the same order, and bit-identical ``mpc`` coefficients."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_bit_identical_to_reference_loop(self, data):
        with mp.workprec(data.draw(st.sampled_from([212, 100]))):
            a, b = data.draw(product_operands())
            assert _bits(a * b) == _bits(reference_jet_mul(a, b))
            for m in range(a.order + 2):
                assert _bits(a.mul_degree(b, m)) == _bits(reference_mul_degree(a, b, m))


class TestReciprocal:
    def test_geometric_series(self):
        a = Jet.from_poly(poly(1, {(0,): 1, (1,): -1}), (0,), 3, exact=True)
        assert a.reciprocal().coeffs == {
            (0,): Fraction(1),
            (1,): Fraction(1),
            (2,): Fraction(1),
            (3,): Fraction(1),
        }

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
        a = Jet.from_poly(poly(1, {(0,): 1, (1,): 1}), (0,), 3).to_float()
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


def _random_exact_jet(rng, nvars, order):
    coeffs = {}
    for _ in range(8):
        beta = [0] * nvars
        for _ in range(rng.randint(0, order)):
            beta[rng.randrange(nvars)] += 1
        coeffs[tuple(beta)] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return Jet(nvars, order, (Fraction(0),) * nvars, coeffs)
