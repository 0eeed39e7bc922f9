"""Critical-point solving and classification."""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from smoothasym import (
    Direction,
    GaussRat,
    SparsePoly,
    check_minimality,
    check_smooth,
    critical_system,
    is_aperiodic,
    solve_critical,
)
from smoothasym import geometry
from smoothasym.cli import ProblemSpec
from smoothasym.geometry import (
    RESIDUAL_TOL,
    GeometryError,
    build_report,
    newton_polish,
    resultant_eliminate_y,
    system_residual,
    _best_slice_root,
    _dense_roots_double,
    _jacobian_singular,
    _min_modulus_roots,
    _paired_y_roots,
    _scan_minimality_2d,
)

from conftest import poly, random_critical_instance
from oracles import reference_eval

PROBLEMS = Path(__file__).resolve().parents[1] / "docs" / "problems"
DOCS_SPECS = ("delannoy", "quantum_walk", "smirnov_snaps", "smirnov_words")


def _docs_spec(name):
    return ProblemSpec.from_json(json.loads((PROBLEMS / f"{name}.json").read_text()))


class TestDirection:
    def test_primitive_scaling(self):
        d = Direction((2, Fraction(1, 2)))
        assert d.primitive == (4, 1)
        assert d.n_is_integral(2) and not d.n_is_integral(3)
        assert d.index_for(4) == (8, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(GeometryError):
            Direction((1, 0))
        with pytest.raises(GeometryError):
            Direction((1, Fraction(-1, 2)))


class TestCriticalSystem:
    def test_delannoy_system(self, delannoy):
        _, H, alpha = delannoy
        polys = critical_system(H, alpha).polys
        assert polys[0] == H
        # 2x(-1-y) - 3y(-1-x), collected
        assert polys[1].terms == {
            (1, 0): Fraction(-2),
            (0, 1): Fraction(3),
            (1, 1): Fraction(1),
        }

    def test_symmetric_direction(self, central_binomial):
        _, H, alpha = central_binomial
        polys = critical_system(H, alpha).polys
        assert polys[1].terms == {(1, 0): Fraction(-1), (0, 1): Fraction(1)}

    def test_univariate_has_no_proportionality_rows(self):
        H = poly(1, {(0,): 1, (1,): -1})
        assert critical_system(H, Direction((1,))).polys == [H]


class TestSolveCritical:
    def test_delannoy_points(self, delannoy):
        _, H, alpha = delannoy
        points, checks = solve_critical(H, alpha)
        assert len(points) == 2
        s13 = mp.sqrt(13)
        expect = sorted([((-2 + s13) / 3, (-3 + s13) / 2), ((-2 - s13) / 3, (-3 - s13) / 2)],
                        key=lambda p: p[0])
        got = sorted(points, key=lambda p: p[0].real)
        for g, e in zip(got, expect):
            assert abs(g[0] - e[0]) < mpf("1e-40")
            assert abs(g[1] - e[1]) < mpf("1e-40")
        assert [c.isolated for c in checks] == ["yes", "yes"]

    def test_vanishing_jacobian_column(self):
        # at the candidate x = 0 the first Jacobian column is zero, so no
        # pivot clears the singularity tolerance of ``_gauss_solve``
        H = poly(2, {(0, 0): 1, (0, 1): 2, (2, 0): 3, (2, 2): -1})
        alpha = Direction((2, 1))
        system = critical_system(H, alpha)
        assert _jacobian_singular(system, (mpc(0), mpc(-1) / 2))
        points, _ = solve_critical(H, alpha)
        assert points
        for pt in points:
            res_h, res_c = system_residual(system, pt)
            assert res_h < mpf("1e-30") and res_c < mpf("1e-30")

    def test_symmetric_diagonal_shortcut(self):
        H = poly(3, {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
        points, _ = solve_critical(H, Direction((1, 1, 1)))
        assert len(points) == 1
        assert all(abs(z - mpf(1) / 3) < mpf("1e-50") for z in points[0])

    def test_central_binomial(self, central_binomial):
        _, H, alpha = central_binomial
        points, _ = solve_critical(H, alpha)
        assert len(points) == 1
        assert all(abs(z - mpf(1) / 2) < mpf("1e-50") for z in points[0])

    def test_residual_invariant(self, delannoy):
        _, H, alpha = delannoy
        system = critical_system(H, alpha)
        for pt, check in zip(*solve_critical(H, alpha)):
            res_h, res_c = system_residual(system, pt)
            assert res_h < mpf("1e-10") and res_c < mpf("1e-10")
            assert (check.residual_H, check.residual_critical) == (res_h, res_c)

    def test_seed_superset(self, delannoy):
        _, H, alpha = delannoy
        base, _ = solve_critical(H, alpha)
        seeded, _ = solve_critical(H, alpha, seeds=[(mpf("0.54"), mpf("0.3"))])
        for pt in base:
            assert any(
                max(abs(a - b) for a, b in zip(pt, q)) < mpf("1e-30") for q in seeded
            )

    def test_count_matches_elimination_roots(self, delannoy):
        _, H, alpha = delannoy
        elim = resultant_eliminate_y(*critical_system(H, alpha).polys)
        distinct = set()
        for r in _dense_roots_double(elim):
            if not any(abs(r - s) < 1e-8 for s in distinct):
                distinct.add(r)
        points, _ = solve_critical(H, alpha)
        assert len(points) == len(distinct)

    def test_newton_needs_seeds_beyond_two_vars(self):
        H = poly(3, {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -2, (0, 0, 1): -3})
        points, _ = solve_critical(H, Direction((1, 1, 1)))
        assert points == []
        seeded, _ = solve_critical(
            H, Direction((1, 1, 1)), seeds=[(mpf(1) / 3, mpf(1) / 6, mpf(1) / 9)]
        )
        assert len(seeded) == 1

    def test_univariate_roots(self):
        H = poly(1, {(0,): 1, (1,): -1})
        points, _ = solve_critical(H, Direction((1,)))
        assert len(points) == 1 and abs(points[0][0] - 1) < mpf("1e-50")


# -- the all-pairs back-substitution, kept as the reference for the paired one --


def reference_dedupe(points, tol=None):
    tol = tol or mpf("1e-12")
    out = []
    for p in points:
        scale = max(max(abs(z) for z in p), mpf(1))
        if not any(max(abs(a - b) for a, b in zip(p, q)) < tol * scale for q in out):
            out.append(tuple(p))
    return out


def reference_solve_critical_2d(H, direction):
    """``solve_critical`` for d=2 without seeds, polishing every y-root of
    ``H(x_r, .)`` for every eliminant root ``x_r``.  Returns (points, flags)."""
    system = critical_system(H, direction)
    candidates = []
    elim = resultant_eliminate_y(*system.polys)
    if not elim:
        raise GeometryError(
            "critical system is degenerate: the elimination polynomial vanishes"
        )
    for xr in _dense_roots_double(elim):
        # back-substitute: roots in y of H(x, .)
        ydeg = H.max_degree(1)
        ycoeffs = [mpc(0)] * (ydeg + 1)
        for (ex, ey), c in H.terms.items():
            ycoeffs[ey] += geometry.coef_to_mpc(c) * mpc(xr) ** ex
        arr = np.array(
            [complex(v) for v in reversed(ycoeffs)], dtype=np.complex128
        )
        arr_trim = np.trim_zeros(arr, "f")
        if arr_trim.size <= 1:
            continue
        for yr in np.roots(arr_trim):
            candidates.append((mpc(xr), mpc(complex(yr))))

    points = []
    for cand in candidates:
        x, ok = newton_polish(system, cand)
        if not ok:
            continue
        res_h, res_c = system_residual(system, x)
        if res_h > RESIDUAL_TOL or res_c > RESIDUAL_TOL:
            continue
        points.append(tuple(x))
    unique = reference_dedupe(points)
    iso = []
    for p in unique:
        iso.append("isolated-unverified" if _jacobian_singular(system, p) else "yes")
    return unique, iso


@st.composite
def bivariate_critical_systems(draw):
    """Random rational H(x, y) with H(0) != 0 and y-degree at least 2, and a
    direction."""
    rationals = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    terms = draw(st.dictionaries(exps, rationals, min_size=1, max_size=4))
    terms[(draw(st.integers(0, 2)), draw(st.integers(2, 3)))] = draw(rationals)
    terms[(0, 0)] = draw(rationals)
    alpha = Direction((draw(st.integers(1, 3)), draw(st.integers(1, 3))))
    return SparsePoly(2, terms), alpha


def _same_point(p, q, tol=mpf("1e-30")):
    return max(abs(a - b) for a, b in zip(p, q)) < tol


class TestPairedBackSubstitution:
    @settings(max_examples=20)
    @given(bivariate_critical_systems())
    def test_matches_all_pairs_reference(self, case):
        H, alpha = case
        try:
            ref_points, ref_iso = reference_solve_critical_2d(H, alpha)
        except GeometryError:
            with pytest.raises(GeometryError):
                solve_critical(H, alpha)
            return
        points, checks = solve_critical(H, alpha)
        assert len(points) == len(ref_points)
        for pt, check in zip(points, checks):
            hits = [k for k, q in enumerate(ref_points) if _same_point(pt, q)]
            assert len(hits) == 1
            assert check.isolated == ref_iso[hits[0]]

    def test_every_newton_start_converges(self):
        # the y-root of H(x_r, .) that solves no critical equation used to
        # start a Newton run that stalled for NEWTON_MAX_ITER steps
        H = poly(2, {(0, 0): 1, (1, 0): -4, (0, 1): -1, (2, 2): -4})
        alpha = Direction((1, 2))
        converged = []

        def recording(*args):
            out = newton_polish(*args)
            converged.append(out[1])
            return out

        with mock.patch.object(geometry, "newton_polish", recording):
            points, _ = solve_critical(H, alpha)
        assert points and converged and all(converged)

    @pytest.mark.parametrize("terms, alpha, x, y_squared", [
        # the resultant is (2 - 3x)^2: a double root
        ({(0, 0): 1, (1, 0): -1, (0, 2): -1}, (1, 1), Fraction(2, 3), Fraction(1, 3)),
        # the second critical equation on H = 0 is 2(x - 1)^2
        ({(0, 0): 1, (1, 0): -1, (0, 2): -1, (2, 0): Fraction(1, 3)}, (1, 2),
         Fraction(1), Fraction(1, 3)),
    ])
    def test_points_sharing_an_x_coordinate(self, terms, alpha, x, y_squared):
        H = poly(2, terms)
        points, _ = solve_critical(H, Direction(alpha))
        x = mpf(x.numerator) / x.denominator
        y = mp.sqrt(mpf(y_squared.numerator) / y_squared.denominator)
        expect = [(x, y), (x, -y)]
        assert len(points) == 2
        for e in expect:
            assert any(_same_point(p, e, mpf("1e-20")) for p in points)

    def test_pairing_keeps_every_root_when_none_passes(self):
        # P = y - x at x = i
        P = poly(2, {(0, 1): 1, (1, 0): -1})
        ys = np.array([1j * (1 + 1e-9), -1j, 2], dtype=np.complex128)
        assert list(_paired_y_roots(P, 1j, ys)) == [ys[0]]
        far = ys[1:]
        assert list(_paired_y_roots(P, 1j, far)) == list(far)


# ``(H terms, direction, whether a Newton run stops at a known point)``
KNOWN_POINT_DRAWS = [
    ({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): -1}, (3, 2), False),  # Delannoy
    ({(0, 0): 1, (1, 0): -1, (0, 2): -1}, (1, 1), True),  # a double eliminant root
    ({(0, 0): 1, (1, 0): -1, (0, 2): -1, (2, 0): Fraction(1, 3)}, (1, 2), True),  # singular
    ({(0, 0): 1, (1, 0): -4, (0, 1): -1, (2, 2): -4}, (1, 2), True),
    # (1 - y)(1 - 3x^2 - 3x^2 y), a benchmark draw: eliminant 36 x^4 (6x^2 - 1)^2
    ({(0, 0): 1, (0, 1): -1, (2, 0): -3, (2, 2): 3}, (2, 1), True),
]


class TestKnownPoints:
    """``solve_critical`` hands the points kept so far to ``newton_polish``,
    which stops a run that comes within ``DEDUPE_TOL`` of one of them; the
    result is the one the runs polished to the end give, bit for bit."""

    @pytest.mark.parametrize("terms, alpha, repeats", KNOWN_POINT_DRAWS)
    def test_same_points_as_full_runs(self, terms, alpha, repeats):
        H, alpha = poly(2, terms), Direction(alpha)
        stops = []

        def recording(system, point, known=()):
            x, ok = newton_polish(system, point, known)
            stops.append(any(x == list(k) for k in known))
            return x, ok

        with mock.patch.object(geometry, "newton_polish", recording):
            got = solve_critical(H, alpha)
        with mock.patch.object(geometry, "newton_polish",
                               lambda system, point, known=(): newton_polish(system, point)):
            want = solve_critical(H, alpha)
        assert got == want
        assert any(stops) == repeats

    def test_run_stops_at_a_known_point(self):
        H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): -1})
        system = critical_system(H, Direction((3, 2)))
        (point, *_), _ = solve_critical(H, Direction((3, 2)))
        start = [z * (1 + mpf("1e-6")) for z in point]
        x, ok = newton_polish(system, start, [point])
        assert ok and x == list(point)
        far = [mpc(5), mpc(5)]
        assert newton_polish(system, start, [far]) == newton_polish(system, start)


def _bits(z):
    return mpc(z)._mpc_


@st.composite
def complex_systems(draw):
    """A square complex matrix (1x1 to 3x3), a right-hand side at 212 bits
    and the matrix's shape: full-precision entries, some zero, and sometimes
    a row that is a multiple of another ("dependent") or a zero column."""
    n = draw(st.integers(1, 3))
    parts = st.one_of(st.just(0), st.integers(-9, 9))

    def entry():
        re, im, den = draw(parts), draw(parts), draw(st.integers(1, 7))
        return mpc(re, im) / den

    with mp.workprec(212):
        A = [[entry() for _ in range(n)] for _ in range(n)]
        b = [entry() for _ in range(n)]
        shape = draw(st.sampled_from(["regular", "dependent", "zero column"]))
        if shape == "dependent" and n > 1:
            factor = entry() / 3
            A[-1] = [v * factor for v in A[0]]
        elif shape == "zero column":
            j = draw(st.integers(0, n - 1))
            for row in A:
                row[j] = mpc(0)
        else:
            shape = "regular"
    return A, b, shape


def _norm(v):
    return max(abs(z) for z in v)


def _mpmath_lu(A, b):
    """``_gauss_solve``'s result from mpmath's ``lu_solve`` and ``det``."""
    try:
        return list(mp.lu_solve(mp.matrix(A), mp.matrix(b))), mp.det(mp.matrix(A))
    except (ZeroDivisionError, TypeError):  # mpmath's two ways to report singular
        return None


class TestGaussSolve:
    """``_gauss_solve``, the elimination behind Newton's step and the
    isolation check, against mpmath's LU."""

    @settings(max_examples=200)
    @given(complex_systems())
    def test_solves_as_mpmath(self, case):
        A, b, shape = case
        with mp.workprec(212):
            eps = +mp.eps  # ``mp.eps`` itself follows the working precision
            solved = geometry._gauss_solve(A, b)
            reference = _mpmath_lu(A, b)
        if shape != "regular":
            assert solved is None
            return
        with mp.workprec(600):
            try:
                inverse = mp.inverse(mp.matrix(A))
            except (ZeroDivisionError, TypeError):
                return  # an exactly singular draw: either answer is right
            n = len(A)
            norm_A = max(sum(abs(v) for v in row) for row in A)
            cond = norm_A * max(sum(abs(inverse[i, j]) for j in range(n)) for i in range(n))
            if cond > 2**100:
                return
            assert solved is not None and reference is not None
            (x, det), (x_ref, det_ref) = solved, reference
            residual = [sum(A[i][j] * x[j] for j in range(n)) - b[i] for i in range(n)]
            assert _norm(residual) <= 64 * eps * norm_A * _norm(x)
            assert _norm([u - v for u, v in zip(x, x_ref)]) <= 64 * cond * eps * _norm(x_ref)
            assert abs(det - det_ref) <= 64 * n * cond * eps * abs(det_ref)

    @pytest.mark.parametrize("A", [
        [[1, 2], [2, 4]],  # numerically singular
        [[0, 1], [0, 2]],  # no pivot in the first column
        [[1, 0], [2, 0]],  # a zero last column
        [[0]],
    ])
    def test_singular_matrices(self, A):
        A = [[mpc(v) for v in row] for row in A]
        assert geometry._gauss_solve(A, [mpc(1)] * len(A)) is None
        assert _mpmath_lu(A, [mpc(1)] * len(A)) is None

    def test_pivots_on_the_largest_entry(self):
        # eliminating on the tiny entry would lose 60 of the 64 digits
        A = [[mpc(10) ** -60, mpc(1)], [mpc(1), mpc(1)]]
        b = [mpc(1), mpc(2)]
        (x, det), (x_ref, det_ref) = geometry._gauss_solve(A, b), _mpmath_lu(A, b)
        assert _norm([u - v for u, v in zip(x, x_ref)]) <= 4 * mp.eps
        assert abs(det - det_ref) <= 4 * mp.eps

    @pytest.mark.parametrize("H, alpha", [
        *[(poly(2, terms), Direction(alpha)) for terms, alpha, _ in KNOWN_POINT_DRAWS],
        *[(spec.H, spec.alpha) for spec in map(_docs_spec, DOCS_SPECS)],
    ], ids=[*(f"known-{i}" for i in range(len(KNOWN_POINT_DRAWS))), *DOCS_SPECS])
    def test_points_as_with_mpmath_lu(self, H, alpha):
        # Newton's steps taken with mpmath's LU polish every isolated point
        # to the same bits, apart from dust (a part within 2^-(prec-20) of
        # its coordinate's modulus); at a singular point Newton crawls, and
        # the two runs stop within the crawl's reach, the square root of the
        # residual target, of each other
        got, checks = solve_critical(H, alpha)
        with mock.patch.object(geometry, "_gauss_solve", _mpmath_lu):
            want, _ = solve_critical(H, alpha)
        assert len(got) == len(want)
        dust = mpf(2) ** (20 - mp.prec)
        for g, w, check in zip(got, want, checks):
            for z, y in zip(g, w):
                if check.isolated == "isolated-unverified":
                    assert abs(z - y) <= mp.sqrt(dust) * abs(z)
                    continue
                for u, v in ((z.real, y.real), (z.imag, y.imag)):
                    assert u == v or max(abs(u), abs(v)) <= dust * abs(z)


class TestCompiledSystem:
    """The critical system reproduces the ``mpc``-object evaluation
    (``reference_eval``) bit for bit."""

    @settings(max_examples=30)
    @given(bivariate_critical_systems(), st.tuples(*[st.integers(-9, 9)] * 4))
    def test_values_and_jacobian_match_eval(self, case, parts):
        H, alpha = case
        with mp.workprec(212):
            system = critical_system(H, alpha)
        # the coefficients are converted again whenever the precision changes
        for bits in (212, 300, 212):
            with mp.workprec(bits):
                point = (mpc(parts[0], parts[1]) / 7, mpc(parts[2], parts[3] or 1) / 3)
                powers = {}
                values = system.values(point, powers)
                jacobian = system.jacobian(point, powers)
                assert [_bits(v) for v in values] == [
                    _bits(reference_eval(P, point)) for P in system.polys]
                assert [[_bits(v) for v in row] for row in jacobian] == [
                    [_bits(reference_eval(P.partial(j), point)) for j in range(2)]
                    for P in system.polys]
                assert [_bits(v) for v in system.values(point)] == [
                    _bits(v) for v in values]

    def test_gaussian_three_variable_system(self):
        H = SparsePoly(3, {(0, 0, 0): 1, (1, 0, 0): GaussRat(Fraction(-1, 3), 1),
                           (0, 2, 1): Fraction(-2, 5), (1, 1, 3): GaussRat(0, Fraction(1, 7))})
        system = critical_system(H, Direction((1, 2, 3)))
        for bits in (300, 212):
            with mp.workprec(bits):
                point = (mpc(1, 2) / 3, mpc(-1) / 7, mpc(2, -5) / 11)
                assert [_bits(v) for v in system.values(point)] == [
                    _bits(reference_eval(P, point)) for P in system.polys]
                assert [[_bits(v) for v in row] for row in system.jacobian(point)] == [
                    [_bits(reference_eval(P.partial(j), point)) for j in range(3)]
                    for P in system.polys]
                assert system.scales() == [
                    max(max(abs(geometry.coef_to_mpc(c)) for c in P.terms.values()), mpf(1))
                    for P in system.polys]


class TestCheckSmooth:
    def test_delannoy_keeps_order(self, delannoy, delannoy_point):
        _, H, _ = delannoy
        smooth, witness, perm = check_smooth(H, delannoy_point)
        assert smooth
        assert perm == (0, 1)
        dy = H.partial(1).eval(delannoy_point)
        assert abs(dy - (-1 - delannoy_point[0])) < mpf("1e-45")

    def test_squared_factor_not_smooth(self):
        base = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
        H = base * base
        smooth, witness, _ = check_smooth(H, (mpf(1) / 2, mpf(1) / 2))
        assert not smooth and witness == -1

    def test_univariate_smooth(self):
        H = poly(1, {(0,): 1, (1,): -1})
        smooth, witness, perm = check_smooth(H, (mpc(1),))
        assert smooth and witness == 0 and perm == (0,)

    def test_off_variety_rejected(self, delannoy):
        _, H, _ = delannoy
        with pytest.raises(GeometryError):
            check_smooth(H, (mpc(0), mpc(0)))

    def test_reorders_when_last_coordinate_fails(self):
        # dH/dy = 0 along y = 0; only x can be distinguished
        H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 2): 1})
        smooth, _, perm = check_smooth(H, (mpc(1), mpc(0)))
        assert smooth and perm == (1, 0)


class TestAperiodic:
    def test_unit_support(self):
        assert is_aperiodic(poly(2, {(1, 0): 1, (0, 1): 1, (1, 1): 1}))

    def test_even_support_univariate(self):
        assert not is_aperiodic(poly(1, {(2,): 1}))

    def test_delannoy_complement(self, delannoy):
        _, H, _ = delannoy
        P = SparsePoly.constant(2, 1) - H
        assert is_aperiodic(P)

    def test_permutation_invariant(self, rng):
        for _ in range(10):
            nv = rng.randint(2, 3)
            terms = {}
            for _ in range(4):
                e = tuple(rng.randint(0, 3) for _ in range(nv))
                terms[e] = Fraction(rng.randint(1, 3))
            P = SparsePoly(nv, terms)
            if P.is_zero():
                continue
            perm = list(range(nv))
            rng.shuffle(perm)
            assert is_aperiodic(P) == is_aperiodic(P.permute(tuple(perm)))

    def test_sublattice_detected(self):
        assert not is_aperiodic(poly(2, {(2, 0): 1, (0, 2): 1, (2, 2): 1}))

    def test_zero_rejected(self):
        with pytest.raises(GeometryError):
            is_aperiodic(SparsePoly(2, {}))


class TestMinimality:
    def test_delannoy_positive_strict(self, delannoy, delannoy_point):
        _, H, _ = delannoy
        verdict = check_minimality(H, delannoy_point)
        assert verdict.kind == "strictly-minimal"

    def test_delannoy_negative_not_minimal(self, delannoy, delannoy_point):
        _, H, _ = delannoy
        s13 = mp.sqrt(13)
        neg = (mpc(-2 - s13) / 3, mpc(-3 - s13) / 2)
        verdict = check_minimality(H, neg, other_points=[delannoy_point])
        assert verdict.kind == "not-minimal"
        assert verdict.witness is not None

    def test_delannoy_negative_found_by_scan(self, delannoy):
        # same verdict without handing over the positive point
        _, H, _ = delannoy
        s13 = mp.sqrt(13)
        neg = (mpc(-2 - s13) / 3, mpc(-3 - s13) / 2)
        verdict = check_minimality(H, neg)
        assert verdict.kind == "not-minimal"
        assert abs(H.eval(verdict.witness)) < mpf("1e-9")

    def test_central_binomial_strict(self, central_binomial):
        _, H, _ = central_binomial
        verdict = check_minimality(H, (mpc(1) / 2, mpc(1) / 2))
        assert verdict.kind == "strictly-minimal"

    def test_quantum_walk_minimal_not_strict(self, quantum_walk):
        _, H, _ = quantum_walk
        verdict = check_minimality(H, (mpc(1), mpc(1)))
        assert verdict.kind == "minimal"

    def test_univariate_finitely_minimal(self):
        H = poly(1, {(0,): 1, (2,): -1})  # 1 - x^2
        verdict = check_minimality(H, (mpc(1),))
        assert verdict.kind == "finitely-minimal"
        assert len(verdict.companions) == 1
        assert abs(verdict.companions[0][0] + 1) < mpf("1e-40")

    def test_three_vars_unknown_without_shortcut(self):
        # negative coefficient in 1-H defeats the nonnegativity route
        H = poly(3, {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1,
                     (1, 1, 0): Fraction(1, 10)})
        pts, _ = solve_critical(H, Direction((1, 1, 1)),
                                seeds=[(mpf("0.35"), mpf("0.35"), mpf("0.31"))])
        assert pts
        verdict = check_minimality(H, pts[0])
        assert verdict.kind in ("unknown", "not-minimal")

    def test_verdict_monotonicity(self, delannoy, delannoy_point):
        _, H, _ = delannoy
        verdict = check_minimality(H, delannoy_point)
        assert verdict.kind in ("strictly-minimal", "finitely-minimal", "minimal")


class TestReports:
    def test_delannoy_reports(self, delannoy):
        _, H, alpha = delannoy
        points, checks = solve_critical(H, alpha)
        reports = [
            build_report(H, pt, check,
                         other_points=[q for q in points if q is not pt])
            for pt, check in zip(points, checks)
        ]
        kinds = sorted(r.minimality.kind for r in reports)
        assert kinds == ["not-minimal", "strictly-minimal"]
        for r in reports:
            assert r.smooth
            assert r.residual_H < RESIDUAL_TOL and r.residual_critical < RESIDUAL_TOL
            js = r.to_json()
            assert set(js) >= {"point", "smooth", "minimality", "residual_H"}

    def test_random_instances_solve_and_classify(self, rng):
        # critical-by-construction points must be found valid
        for _ in range(6):
            H, c, alpha = random_critical_instance(rng, 2)
            pt = tuple(mpc(mpf(z.numerator)) / z.denominator for z in c)
            system = critical_system(H, alpha)
            res_h, res_c = system_residual(system, pt)
            assert res_h < mpf("1e-30") and res_c < mpf("1e-30")
            points, _ = solve_critical(H, alpha, seeds=[pt])
            assert any(
                max(abs(a - b) for a, b in zip(pt, q)) < mpf("1e-25") for q in points
            )


# -- the per-slice scan, kept as the reference for the batched one -------------


def reference_torus_slice_min(H, x_values, prec_scan=53):
    """For each x in x_values, the min |y| over roots of H(x, .). d=2 only."""
    ydeg = H.max_degree(1)
    terms = [dict() for _ in range(ydeg + 1)]
    for (ex, ey), c in H.terms.items():
        terms[ey][(ex,)] = terms[ey].get((ex,), Fraction(0)) + c
    ycoef_polys = [SparsePoly(1, t) for t in terms]
    out = []
    for x in x_values:
        coeffs = np.array(
            [complex(P.eval((x,))) for P in reversed(ycoef_polys)], dtype=np.complex128
        )
        coeffs = np.trim_zeros(coeffs, "f")
        if coeffs.size <= 1:
            out.append((x, None))
            continue
        roots = np.roots(coeffs)
        if roots.size == 0:
            out.append((x, None))
            continue
        k = int(np.argmin(np.abs(roots)))
        out.append((x, complex(roots[k])))
    return out


def reference_best_slice_root(H, point, grid):
    """``_best_slice_root`` as a loop of one slice at a time, each evaluated
    at working precision and solved by ``np.roots``."""
    n_r, n_theta = grid
    r1 = abs(point[0])
    r2 = abs(point[1])
    best = None  # (ratio, x, y)
    for i in range(1, n_r + 1):
        r = r1 * i / (n_r + 1)  # strictly inside |x| < |c1|
        for k in range(n_theta):
            theta = 2 * math.pi * k / n_theta
            x = complex(float(r) * math.cos(theta), float(r) * math.sin(theta))
            for xv, y in reference_torus_slice_min(H, [x]):
                if y is None:
                    continue
                ratio = abs(y) / float(r2)
                if best is None or ratio < best[0]:
                    best = (ratio, x, y)
    return best if best is not None else (math.inf, None, None)


def reference_scan(H, point, grid):
    with mock.patch.object(geometry, "_best_slice_root", reference_best_slice_root):
        return _scan_minimality_2d(H, point, grid)


@st.composite
def bivariate_scans(draw):
    """Random H(x, y) with H(0) != 0, Gaussian coefficients among them, and a
    polyradius to scan inside.

    The scan reads only the moduli of the point, so it need not lie on the
    variety."""
    rationals = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
    coefs = st.one_of(rationals, st.builds(GaussRat, rationals, rationals))
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    terms = draw(st.dictionaries(exps, coefs, min_size=1, max_size=6))
    terms[(0, 0)] = draw(coefs)
    point = tuple(mpc(draw(st.integers(1, 12))) / 6 for _ in range(2))
    return SparsePoly(2, terms), point


@st.composite
def low_degree_batches(draw):
    """Slice rows of one width, highest degree first: degree 1 (width 2) or
    degree 2 (width 3).  Coefficients have moduli from 1e-8 to 1e8; rows
    with a zero leading or constant coefficient, constant rows and, in
    degree 2, near-double roots (relative separation 1e-2 to 1e-1) are mixed
    in.  Closer roots move by about ``eps`` over their separation under any
    method, ``np.roots`` included, so they cannot be compared at 1e-12."""
    width = draw(st.sampled_from([2, 3]))
    phases = st.floats(0, 2 * math.pi).map(lambda t: complex(math.cos(t), math.sin(t)))
    coefs = st.builds(lambda u, e: u * 10.0**e, phases, st.floats(-8, 8))
    kinds = ["regular", "zero-leading", "zero-constant", "constant"]
    rows = []
    for kind in draw(st.lists(st.sampled_from(kinds + ["near-double"] * (width == 3)),
                              min_size=1, max_size=8)):
        row = [draw(coefs) for _ in range(width)]
        if kind == "near-double":
            r = draw(coefs)
            r2 = r * (1 + 10 ** draw(st.floats(-2, -1)) * draw(phases))
            a = draw(phases) * 10.0 ** draw(st.floats(-4, 4))
            row = [a, -a * (r + r2), a * r * r2]
        elif kind == "zero-leading":
            row[0] = 0
        elif kind == "zero-constant":
            row[-1] = 0
        elif kind == "constant":
            row[:-1] = [0] * (width - 1)
        rows.append(row)
    return np.array(rows, dtype=np.complex128)


class TestSliceScan:
    GRID = (6, 24)

    @settings(max_examples=30)
    @given(bivariate_scans())
    def test_matches_per_slice_reference(self, case):
        H, point = case
        ratio, _, _ = _best_slice_root(H, point, self.GRID)
        ref_ratio, _, _ = reference_best_slice_root(H, point, self.GRID)
        if math.isinf(ref_ratio):
            assert math.isinf(ratio)
        else:
            assert abs(ratio - ref_ratio) <= 1e-9 * ref_ratio
        verdict = _scan_minimality_2d(H, point, self.GRID)
        ref = reference_scan(H, point, self.GRID)
        assert verdict.kind == ref.kind
        if ref.witness is not None:
            x, y = verdict.witness
            assert abs(H.eval((x, y))) < mpf("1e-40")
            assert abs(x) < abs(point[0]) and abs(y) < abs(point[1])

    def test_quantum_walk_full_grid_evidence(self, quantum_walk):
        _, H, _ = quantum_walk
        point = (mpc(1), mpc(1))
        verdict = _scan_minimality_2d(H, point, (24, 96))
        ref = reference_scan(H, point, (24, 96))
        assert verdict.kind == ref.kind == "minimal"
        assert verdict.evidence == ref.evidence

    @pytest.mark.parametrize("row", [
        [0, 0, 1, -3, 2],  # zero leading coefficients
        [1, -3, 2, 0, 0],  # zero constant term: roots at 0
        [0, 0, 0, 0, 5],  # constant: no root
        [0, 0, 0, 0, 0],  # zero: no root
        [2, 1j, -1, 3, 1 - 1j],  # regular, for the batched path
    ])
    def test_min_modulus_roots_agree_with_np_roots(self, row):
        regular = [1, 2, 3, 4, 5]
        polys = np.array([regular, row, regular, row], dtype=np.complex128)
        roots, found = _min_modulus_roots(polys)
        for s, p in enumerate(polys):
            expect = np.roots(np.trim_zeros(p, "f"))
            assert found[s] == (expect.size > 0)
            if expect.size:
                assert roots[s] == expect[np.argmin(np.abs(expect))]

    @pytest.mark.parametrize("polys, least", [
        ([[1e-310, -1, 0.5]], 0.5),
        ([[1e-310, 1, -3, 2], [1, -6, 11, -6]], 1),
    ])
    def test_subnormal_leading_coefficient_lowers_the_degree(self, polys, least):
        # a leading coefficient below the smallest normal double, relative to
        # the row's largest, is cut to 0: dividing by it would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots, found = _min_modulus_roots(np.array(polys, dtype=np.complex128))
        assert found.all()
        assert abs(roots[0] - least) < 1e-15

    @settings(max_examples=200)
    @given(low_degree_batches())
    @example(np.array([[1e300, -3e300, 2e300], [1e-300, 3e-300, 2e-300]]))
    @example(np.array([[1e-320, -3e-320, 2e-320]]))
    def test_closed_form_roots_agree_with_np_roots(self, polys):
        # degree 1 (the same companion eigenvalue) and the rows np.roots
        # solves are exact; degree 2 agrees in modulus to rounding, whichever
        # of two near-tied roots is taken
        roots, found = _min_modulus_roots(polys)
        for s, p in enumerate(polys):
            expect = np.roots(np.trim_zeros(p, "f"))
            assert found[s] == (expect.size > 0)
            if not expect.size:
                continue
            least = expect[np.argmin(np.abs(expect))]
            if polys.shape[1] == 2 or p[0] == 0 or p[-1] == 0:
                assert roots[s] == least
            else:
                assert abs(abs(roots[s]) - abs(least)) <= 1e-12 * abs(least)

    def test_scan_of_a_quadratic_slice_needs_no_eigvals(self):
        # 1 - x - y + x y^2/2: every slice is quadratic in y
        H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 2): Fraction(1, 2)})
        point = (mpc(2), mpc(1) / 2)
        refused = AssertionError("np.linalg.eigvals called")
        with mock.patch("numpy.linalg.eigvals", side_effect=refused) as eigvals:
            verdict = _scan_minimality_2d(H, point, (24, 96))
            assert eigvals.call_count == 0
            with pytest.raises(AssertionError, match="eigvals called"):
                _min_modulus_roots(np.array([[1, 2, 3, 4]], dtype=np.complex128))
            assert eigvals.call_count == 1
        ref = reference_scan(H, point, (24, 96))
        assert verdict.kind == ref.kind == "not-minimal"

    @pytest.mark.parametrize("polished", [None, mpc(10)])
    def test_inside_root_that_does_not_polish_is_unknown(self, delannoy, polished):
        # the scan finds a root inside, but polishing fails (None) or lands
        # outside the polydisc: no witness, and no claim of minimality
        _, H, _ = delannoy
        s13 = mp.sqrt(13)
        neg = (mpc(-2 - s13) / 3, mpc(-3 - s13) / 2)
        with mock.patch.object(geometry, "_polish_slice_root", return_value=polished):
            verdict = _scan_minimality_2d(H, neg, (24, 96))
        assert verdict.kind == "unknown"
        assert verdict.witness is None
        assert "ratio 0." in verdict.evidence

    def test_unit_circle_is_math_cos_and_sin(self):
        cos, sin = geometry._unit_circle(96)
        angles = [2 * math.pi * k / 96 for k in range(96)]
        assert list(cos) == list(map(math.cos, angles))
        assert list(sin) == list(map(math.sin, angles))
        assert not cos.flags.writeable

    def test_min_modulus_roots_constant_in_y(self):
        roots, found = _min_modulus_roots(np.array([[1], [0]], dtype=np.complex128))
        assert not found.any()

