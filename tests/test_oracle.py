"""Exact coefficient tables and the quadrature oracle."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from smoothasym import GaussRat, Jet, SparsePoly, maclaurin_table, oracle
from smoothasym.cli import decimal_str
from smoothasym.oracle import OracleError

from conftest import poly, smirnov_family
from oracles import (
    box_cells,
    fourier_laplace_quad,
    maclaurin_table_geometric,
    recurrence_residual,
    table_values,
)


class TestMaclaurinTable:
    def test_delannoy_values(self, delannoy):
        G, H, _ = delannoy
        table = maclaurin_table(G, H, 1, box_cells((6, 4)))
        assert table.coeff_at((0, 0)) == 1
        assert table.coeff_at((1, 1)) == 3
        assert table.coeff_at((3, 2)) == 25
        assert table.coeff_at((6, 4)) == 1289

    def test_central_binomial_diagonal(self, central_binomial):
        G, H, _ = central_binomial
        table = maclaurin_table(G, H, 1, box_cells((6, 6)))
        assert table.coeff_at((2, 2)) == 6
        assert table.coeff_at((3, 3)) == 20

    def test_quantum_walk_cells(self, quantum_walk):
        G, H, _ = quantum_walk
        table = maclaurin_table(G, H, 1, box_cells((8, 2)))
        assert table.coeff_at((4, 1)) == Fraction(3, 16)

    def test_smirnov_expectation_cell(self):
        H, fams = smirnov_family()
        G1, _, p1 = fams[0]
        G2, R, p2 = fams[1]
        words = maclaurin_table(G1, H, p1, box_cells((2, 2, 2)))
        snaps = maclaurin_table(G2, H, p2, box_cells((2, 2, 2)), G_den=R)
        assert words.coeff_at((2, 2, 2)) == 90
        assert snaps.coeff_at((2, 2, 2)) / words.coeff_at((2, 2, 2)) == 1

    def test_origin_cell(self):
        G = poly(2, {(0, 0): 3})
        H = poly(2, {(0, 0): 2, (1, 0): -1})
        table = maclaurin_table(G, H, 2, box_cells((2, 0)))
        assert table.coeff_at((0, 0)) == Fraction(3, 4)

    def test_origin_on_variety_rejected(self):
        H = poly(1, {(1,): 1})
        with pytest.raises(OracleError):
            maclaurin_table(SparsePoly.constant(1, 1), H, 1, box_cells((2,)))

    def test_out_of_bounds_rejected(self, delannoy):
        G, H, _ = delannoy
        table = maclaurin_table(G, H, 1, box_cells((2, 2)))
        with pytest.raises(OracleError):
            table.coeff_at((3, 0))

    def test_gaussian_rational_coefficients(self):
        # 1/(1 - i x): coefficients are powers of i
        H = SparsePoly(1, {(0,): Fraction(1), (1,): GaussRat(0, -1)})
        table = maclaurin_table(SparsePoly.constant(1, 1), H, 1, box_cells((4,)))
        assert table.coeff_at((1,)) == GaussRat(0, 1)
        assert table.coeff_at((2,)) == Fraction(-1)
        assert table.coeff_at((3,)) == GaussRat(0, -1)
        assert recurrence_residual(table, SparsePoly.constant(1, 1), H, 1) == 0

    def test_residual_exactly_zero(self, delannoy, quantum_walk):
        for G, H, _ in (delannoy, quantum_walk):
            table = maclaurin_table(G, H, 1, box_cells((8, 5)))
            assert recurrence_residual(table, G, H, 1) == 0

    def test_two_methods_agree(self, delannoy):
        G, H, _ = delannoy
        direct = maclaurin_table(G, H, 1, box_cells((10, 10)))
        geo = maclaurin_table_geometric(G, H, 1, 10)
        values = table_values(direct)
        for e, c in geo.items():
            assert values.get(e, Fraction(0)) == c
        for e, c in values.items():
            if sum(e) <= 10:
                assert geo.get(e, Fraction(0)) == c

    def test_decimal_str(self):
        assert decimal_str(Fraction(1, 3), 5) == "0.33333"

    @pytest.mark.parametrize("cells", [
        [],  # no cell
        [(2, 1), (3,)],  # one cell short of a variable
        [(2, -1)],  # a negative exponent
        (6, 4),  # a bounds tuple, not a list of cells
        [(2.5, 1)],  # not an integer exponent
    ])
    def test_malformed_cells_rejected(self, delannoy, cells):
        G, H, _ = delannoy
        with pytest.raises(OracleError):
            maclaurin_table(G, H, 1, cells)

    def test_unrequested_cell_rejected(self, delannoy):
        G, H, _ = delannoy
        table = maclaurin_table(G, H, 1, [(6, 4), (3, 2)])
        assert table.bounds == (6, 4)
        assert table.coeff_at((3, 2)) == 25
        with pytest.raises(OracleError, match="not requested"):
            table.coeff_at((2, 3))

    def test_vanishing_denominator_named(self, delannoy):
        G, H, _ = delannoy
        with pytest.raises(OracleError, match="G denominator vanishes"):
            maclaurin_table(G, H, 1, [(2, 2)], G_den=poly(2, {(1, 0): 1}))

    def test_every_stage_scales(self):
        # 1/((3 - 2y)(2 - x/3 - y)^3): the stages clear to L q = 3, 18, 18, 18
        G = SparsePoly.constant(2, 1)
        G_den = poly(2, {(0, 0): 3, (0, 1): -2})
        H = poly(2, {(0, 0): 2, (1, 0): Fraction(-1, 3), (0, 1): -1})
        table = maclaurin_table(G, H, 3, box_cells((6, 6)), G_den=G_den)
        geo = maclaurin_table_geometric(G, H, 3, 6, G_den=G_den)
        for beta in box_cells((6, 6)):
            if sum(beta) <= 6:
                assert table.coeff_at(beta) == geo.get(beta, Fraction(0)), beta
        assert recurrence_residual(table, G, H, 3, G_den=G_den) == 0

    @staticmethod
    def _delannoy_peak(path, G, H, n):
        """``path``'s Delannoy value at ``n (3, 2)``, checked against the
        closed form, and its peak traced memory."""
        a, b = 3 * n, 2 * n
        tracemalloc.start()
        try:
            table = path(G, H, 1, [(a, b)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.coeff_at((a, b)) == sum(
            math.comb(a, k) * math.comb(b, k) * 2**k for k in range(b + 1))
        return peak

    def test_memory_stays_with_the_row(self, delannoy):
        # the sweep's full 193x129 box of numerators would take about 1.4 MB
        G, H, _ = delannoy
        peak = self._delannoy_peak(oracle._sweep, G, H, 64)
        assert peak < 200_000, peak

    def test_elimination_memory_stays_with_one_row(self, delannoy):
        # x is eliminated, so each T_k is one row of y (385 numerators)
        G, H, _ = delannoy
        assert oracle._linear_variable(H, (576, 384)) == 0
        peak = self._delannoy_peak(maclaurin_table, G, H, 192)
        assert peak < 200_000, peak


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))
nonzero_rationals = rationals.filter(bool)


@st.composite
def oracle_instances(draw, gaussian=False):
    """Random ``(G_num, H, p, bounds, G_den)`` with ``H(0)`` not in {0, 1}.

    ``G_num`` carries a random monomial factor, so some cells are zero.  With
    ``gaussian`` one coefficient of ``H`` (maybe the constant term) gets a
    nonzero imaginary part.
    """
    d = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * d)
    zero = (0,) * d

    def poly(const, min_terms=0):
        terms = draw(st.dictionaries(exps.filter(any), nonzero_rationals,
                                     min_size=min_terms, max_size=3))
        terms[zero] = draw(const)
        return terms

    H = poly(nonzero_rationals.filter(lambda c: c != 1), min_terms=1)
    if gaussian:
        e = draw(st.sampled_from(sorted(H)))
        H[e] = GaussRat(H[e], draw(nonzero_rationals))
    shift = SparsePoly(d, {draw(exps): 1})
    G_num = SparsePoly(d, poly(rationals)) * shift
    G_den = SparsePoly(d, poly(nonzero_rationals)) if draw(st.booleans()) else None
    p = draw(st.sampled_from([1, 2, 3]))
    bounds = draw(st.tuples(*[st.integers(0, 5)] * d))
    return G_num, SparsePoly(d, H), p, bounds, G_den


def _check_against_geometric(G_num, H, p, bounds, G_den):
    table = maclaurin_table(G_num, H, p, box_cells(bounds), G_den=G_den)
    k = max(bounds)
    geo = maclaurin_table_geometric(G_num, H, p, k, G_den=G_den)
    for beta in itertools.product(*(range(b + 1) for b in bounds)):
        if sum(beta) > k:
            continue
        got, want = table.coeff_at(beta), geo.get(beta, Fraction(0))
        assert got == want and type(got) is type(want), (beta, got, want)
    assert recurrence_residual(table, G_num, H, p, G_den=G_den) == 0
    for beta in (tuple(b + 1 if j == 0 else b for j, b in enumerate(bounds)),
                 (-1,) + tuple(bounds[1:]), tuple(bounds) + (0,)):
        with pytest.raises(OracleError):
            table.coeff_at(beta)
    return table


class TestMaclaurinTableProperties:
    @settings(max_examples=60)
    @given(oracle_instances())
    def test_matches_geometric_series(self, instance):
        _check_against_geometric(*instance)

    @settings(max_examples=30)
    @given(oracle_instances(gaussian=True))
    def test_gaussian_cells_are_exact(self, instance):
        table = _check_against_geometric(*instance)
        for val in table_values(table).values():
            assert isinstance(val, Fraction) or (isinstance(val, GaussRat) and val.im)

    def test_zero_cells_are_fraction_zero(self):
        # x^2 / (2 - y): every cell with beta_x != 2 vanishes
        G = poly(2, {(2, 0): 1})
        H = poly(2, {(0, 0): 2, (0, 1): -1})
        table = maclaurin_table(G, H, 2, box_cells((3, 3)))
        assert table.coeff_at((2, 3)) == Fraction(4, 2**5)
        for beta in ((0, 0), (1, 3), (3, 2)):
            val = table.coeff_at(beta)
            assert val == 0 and type(val) is Fraction
        assert set(table_values(table)) == {(2, j) for j in range(4)}


@st.composite
def linear_instances(draw, gaussian=False):
    """Random ``(G_num, H, p, bounds)`` with ``H = A + x'^v B~ z`` of degree 1
    in a variable ``z``, ``A(0)`` not in {0, 1} and ``B~(0) != 0``.

    ``v`` is a random monomial (like the quantum walk's
    ``B = x (1/2 - x)``), ``G_num`` carries a random monomial factor, so some
    cells are zero.  With ``gaussian`` some coefficients of ``G_num`` get a
    nonzero imaginary part.
    """
    d = draw(st.integers(1, 3))
    z = draw(st.integers(0, d - 1))
    exps = st.tuples(*[st.integers(0, 2)] * (d - 1))
    zero = (0,) * (d - 1)

    def rest(const):
        terms = draw(st.dictionaries(exps.filter(any), nonzero_rationals, max_size=3))
        terms[zero] = draw(const)
        return terms

    def lift(e, j):
        return e[:z] + (j,) + e[z:]

    A = rest(nonzero_rationals.filter(lambda c: c != 1))
    B = rest(nonzero_rationals)
    v = draw(st.tuples(*[st.integers(0, 1)] * (d - 1)))
    H = {lift(e, 0): c for e, c in A.items()}
    H.update({lift(tuple(map(sum, zip(e, v))), 1): c for e, c in B.items()})
    coef = rationals
    if gaussian:
        coef = st.one_of(rationals, st.builds(GaussRat, rationals, nonzero_rationals))
    G = draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * d), coef,
                             min_size=gaussian, max_size=4))
    shift = SparsePoly(d, {draw(st.tuples(*[st.integers(0, 2)] * d)): 1})
    p = draw(st.sampled_from([1, 2, 3]))
    bounds = draw(st.tuples(*[st.integers(0, 5)] * d))
    return SparsePoly(d, G) * shift, SparsePoly(d, H), p, bounds


def _check_against_sweep(instance, data):
    G, H, p, bounds = instance
    assert oracle._linear_variable(H, bounds) is not None
    cells = box_cells(bounds)
    table = maclaurin_table(G, H, p, cells)
    swept = oracle._sweep(G, H, p, cells)
    assert table.bounds == swept.bounds == bounds
    for beta in cells:
        got, want = table.coeff_at(beta), swept.coeff_at(beta)
        assert got == want and type(got) is type(want), (beta, got, want)
        assert isinstance(got, Fraction) or got.im, (beta, got)
    assert recurrence_residual(table, G, H, p) == 0
    # a few cells alone, repeated, each T_k then swept only as far as
    # those cells read
    some = data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))
    part = maclaurin_table(G, H, p, some)
    for beta in some:
        got = part.coeff_at(beta)
        assert got == table.coeff_at(beta) and type(got) is type(table.coeff_at(beta))


class TestElimination:
    @settings(max_examples=80)
    @given(linear_instances(), st.data())
    def test_matches_the_sweep(self, instance, data):
        _check_against_sweep(instance, data)

    @settings(max_examples=40)
    @given(linear_instances(gaussian=True), st.data())
    def test_gaussian_g_matches_the_sweep(self, instance, data):
        _check_against_sweep(instance, data)

    def test_monomial_factor_and_gaussian_g(self, quantum_walk):
        # the quantum walk's B = x (1/2 - x), so every y comes with an x; with
        # G = (1 - x/2) i + y, a cell with beta_y = 0 is purely imaginary, one
        # with beta_y = beta_x + 1 is real (only y G reaches it) and one
        # further out is zero
        _, H, _ = quantum_walk
        G = SparsePoly(2, {(0, 0): GaussRat(0, 1), (1, 0): GaussRat(0, Fraction(-1, 2)),
                           (0, 1): Fraction(1)})
        cells = box_cells((9, 4))
        assert oracle._linear_variable(H, (9, 4)) == 1
        table = maclaurin_table(G, H, 2, cells)
        swept = oracle._sweep(G, H, 2, cells)
        for beta in cells:
            got, want = table.coeff_at(beta), swept.coeff_at(beta)
            assert got == want and type(got) is type(want), (beta, got, want)
        assert table.coeff_at((3, 0)) == GaussRat(0, Fraction(1, 8))
        assert table.coeff_at((3, 4)) == Fraction(-1, 2)
        assert table.coeff_at((2, 4)) == 0 and type(table.coeff_at((2, 4))) is Fraction

    @pytest.mark.parametrize("terms", [
        # B = -y - z for x, and likewise for y and z: B~(0) = 0 every time
        {(0, 0, 0): 1, (1, 1, 0): -1, (1, 0, 1): -1, (0, 1, 1): -1},
        {(0, 0, 0): 1, (2, 0, 0): -1, (0, 2, 0): -1, (0, 0, 2): -1},  # degree 2
    ])
    def test_other_inputs_take_the_sweep(self, terms):
        H = poly(3, terms)
        assert oracle._linear_variable(H, (4, 4, 4)) is None

    def test_gaussian_h_takes_the_sweep(self):
        H = SparsePoly(1, {(0,): Fraction(1), (1,): GaussRat(0, -1)})
        assert oracle._linear_variable(H, (4,)) is None


class TestQuadrature:
    def test_gaussian(self):
        u = Jet.constant(1, 4, (mpc(0),), mpc(1))
        g = Jet(1, 4, (mpc(0),), {(2,): mpc(1) / 2})
        val, err = fourier_laplace_quad(u, g, 100, 3)
        expect = mp.sqrt(2 * mp.pi / 100)
        assert abs(val - expect) < mpf("1e-12") * expect
        assert err < mpf("1e-10")

    def test_gaussian_second_moment(self):
        u = Jet(1, 4, (mpc(0),), {(2,): mpc(1)})
        g = Jet(1, 4, (mpc(0),), {(2,): mpc(1) / 2})
        val, _ = fourier_laplace_quad(u, g, 100, 3)
        expect = mp.sqrt(2 * mp.pi) * mpf(100) ** mpf("-1.5")
        assert abs(val - expect) < mpf("1e-12") * expect

    def test_quartic_leading_term(self):
        import mpmath

        u = Jet.constant(1, 4, (mpc(0),), mpc(1))
        g = Jet(1, 4, (mpc(0),), {(4,): mpc(1)})
        omega = mpf(1000)
        val, _ = fourier_laplace_quad(u, g, omega, 1.0)
        lead = mpmath.gamma(mpf(1) / 4) / 2 * omega ** mpf("-0.25")
        assert abs(val - lead) < 5 * omega ** mpf("-0.5") * lead

    def test_two_dimensional_gaussian(self):
        u = Jet.constant(2, 4, (mpc(0), mpc(0)), mpc(1))
        g = Jet(2, 4, (mpc(0), mpc(0)), {(2, 0): mpc(1) / 2, (0, 2): mpc(1) / 2})
        with mp.workprec(80):
            val, err = fourier_laplace_quad(u, g, 60, 2.5)
        expect = 2 * mp.pi / 60
        assert abs(val - expect) < mpf("1e-10") * expect
        assert abs(val - expect) <= err < mpf("1e-10") * expect

    def test_two_dimensional_second_moment(self):
        # g = t^T A t / 2 with A = [[1, 1/2], [1/2, 2]]: the integral of t1^2
        # is 2 pi / (omega sqrt(det A)) * (A^{-1})_{11} / omega, on a window
        # that differs per variable
        u = Jet(2, 4, (mpc(0), mpc(0)), {(2, 0): mpc(1)})
        g = Jet(2, 4, (mpc(0), mpc(0)),
                {(2, 0): mpc(1) / 2, (1, 1): mpc(1) / 2, (0, 2): mpc(1)})
        omega = 40
        with mp.workprec(80):
            val, err = fourier_laplace_quad(u, g, omega, (2.5, 3.0))
            expect = 2 * mp.pi / (omega * mp.sqrt(mpf(7) / 4)) * (mpf(8) / 7) / omega
        assert abs(val - expect) <= err < mpf("1e-12") * expect

    def test_dimension_mismatch(self):
        u = Jet.constant(1, 2, (mpc(0),), mpc(1))
        g = Jet.constant(2, 2, (mpc(0), mpc(0)), mpc(1))
        with pytest.raises(OracleError):
            fourier_laplace_quad(u, g, 10, 1)
