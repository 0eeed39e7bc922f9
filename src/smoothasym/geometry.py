"""Critical points of the singular variety and their classification.

Builds the critical-point system for a direction, solves it (exact univariate
elimination for two variables, damped Newton plus a symmetric-diagonal
shortcut otherwise), and classifies each solution: smoothness with a
distinguished coordinate, isolation, and minimality with explicit evidence.

One rule decides that a polynomial is zero at a point (``vanishes``):
``|P(c)| <= RESIDUAL_TOL sum_e |a_e||c^e|``, the scale of the rounding error
of evaluating ``P``.  ``c`` is on the variety when ``H`` vanishes, smooth
when some partial does not, and isolated when the Jacobian determinant
exceeds ``RESIDUAL_TOL`` times the product of its rows' term scales, whatever
the units of ``H`` and of the variables.  The printed residuals
(``system_residual``) keep each equation's largest coefficient as their
scale, so the output that checks read against 1e-10 stays as it was.

The system is built once per solve (``CriticalSystem``): its equations and
Jacobian entries are ``SparsePoly``s, which keep their coefficients converted
at the working precision, and a point's values and Jacobian share one table
of powers.  One Gaussian elimination with partial pivoting on plain lists
(``_gauss_solve``) gives both Newton's step and the isolation check's
determinant, and reports a singular Jacobian, which ends a Newton run.  A
Newton run that comes within ``DEDUPE_TOL`` of a point already kept stops
there and returns that point, which ``solve_critical`` drops as a duplicate.

Minimality in two and more variables is searched by one slice search
(``_slice_search``): the least-modulus root of ``H(w, .)`` for a batch of
leading coordinates ``w`` inside the polydisc, a grid in two variables
(``_scan_minimality_2d``) and seeded samples on shrunken tori in more
(``_sample_minimality``).  ``_min_modulus_roots`` takes those roots for the
whole batch at once, in closed form when ``H`` has degree 2 in its last
variable, and from one batched companion-matrix eigenvalue call otherwise.

numpy is imported on first use, inside the seed-root helpers
(``_normal_doubles``, ``_dense_roots_double``, ``_slice_roots``) and the
minimality search (``_scan_minimality_2d``, ``_sample_minimality``,
``_slice_search``, ``_min_modulus_roots``) only, never at module level: it
is about 0.16 s of a 0.28 s ``import smoothasym.cli``, which a process pays
before its first request, and the ``oracle`` command and spec errors never
need it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .series import GaussRat, SparsePoly, coef_to_mpc, complex_to_json

RESIDUAL_TOL = mpf("1e-10")
NEWTON_MAX_ITER = 200
DEDUPE_TOL = mpf("1e-12")  # two solutions closer than this (relative) are one
POSITIVE_REAL_TOL = mpf("1e-12")  # imaginary part allowed, relative to |z|
SLICE_GRID = (24, 96)  # radii x angles of the two-variable minimality scan
MARGIN = 1e-8  # a slice root or witness lies inside below 1 - MARGIN of the point's moduli
TORUS_SAMPLES = 400  # witness search in more than two variables, fixed seed
TORUS_SEED = 7

# A y-root of H(x_r, .) is paired with the eliminant root x_r when the second
# critical polynomial at (x_r, y), evaluated in complex128, is below this
# fraction of the sum of its term moduli.  It sits far above double-precision
# error because x_r is only a double-precision root: good to about 1e-16 when
# simple, but to about 1e-8 when double and 1e-5 when triple (square and cube
# roots of the unit roundoff), as when H depends on y only through y^2 or
# y^3.  It sits far below O(1) because a y-root that belongs to no critical
# point leaves the polynomial at a sizeable share of its term moduli (1e-2 or
# more on random bivariate H); such starts are where Newton stalls.
PAIRING_TOL = 1e-3


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Direction:
    """A direction vector with positive rational components.

    ``primitive`` is the scaled copy with coprime positive integer entries;
    ``alpha`` keeps the original scale, which fixes how expansions are indexed
    by n.
    """

    alpha: tuple

    def __post_init__(self):
        alpha = tuple(Fraction(a) for a in self.alpha)
        if not alpha:
            raise GeometryError("direction must be nonempty")
        if any(a <= 0 for a in alpha):
            raise GeometryError("direction components must be positive")
        object.__setattr__(self, "alpha", alpha)

    @property
    def d(self):
        return len(self.alpha)

    @property
    def primitive(self):
        denom_lcm = 1
        for a in self.alpha:
            denom_lcm = denom_lcm * a.denominator // math.gcd(denom_lcm, a.denominator)
        ints = [int(a * denom_lcm) for a in self.alpha]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        return tuple(v // g for v in ints)

    def permute(self, perm):
        return Direction(tuple(self.alpha[p] for p in perm))

    def n_is_integral(self, n):
        return all((a * n).denominator == 1 for a in self.alpha)

    def index_for(self, n):
        if not self.n_is_integral(n):
            raise GeometryError(f"n={n} does not give an integral index")
        return tuple(int(a * n) for a in self.alpha)

    def base_magnitude(self, point):
        """``|point^(-alpha)|``: the exponential growth per unit of n of the
        coefficients ``F_{n alpha}`` that ``point`` contributes."""
        out = mpf(1)
        for z, a in zip(point, self.alpha):
            out *= abs(z) ** (-mpf(a.numerator) / a.denominator)
        return out


@dataclass
class MinimalityVerdict:
    kind: str  # strictly-minimal | finitely-minimal | minimal | unknown | not-minimal
    evidence: str
    companions: list = field(default_factory=list)
    witness: tuple = None


@dataclass
class CriticalPointReport:
    point: tuple
    smooth: bool
    smooth_witness: int
    reordering: tuple
    minimality: MinimalityVerdict
    residual_H: object
    residual_critical: object
    isolated: str = "yes"  # yes | isolated-unverified

    def to_json(self):
        return {
            "point": [complex_to_json(z) for z in self.point],
            "smooth": self.smooth,
            "smooth_witness": self.smooth_witness,
            "reordering": list(self.reordering),
            "minimality": {
                "kind": self.minimality.kind,
                "evidence": self.minimality.evidence,
                "companions": [
                    [complex_to_json(z) for z in pt] for pt in self.minimality.companions
                ],
                "witness": [complex_to_json(z) for z in self.minimality.witness]
                if self.minimality.witness
                else None,
            },
            "residual_H": mp.nstr(self.residual_H, 6),
            "residual_critical": mp.nstr(self.residual_critical, 6),
            "isolated": self.isolated,
        }


# -- the critical system ------------------------------------------------------


def critical_system(H, direction):
    """H together with the cleared proportionality equations.

    The ``CriticalSystem``'s ``polys`` are d polynomials: H itself and, for
    each m < d-1, ``A_d x_m dH/dx_m - A_m x_d dH/dx_d`` with A the primitive
    integer direction (denominators cleared).
    """
    d = H.nvars
    if direction.d != d:
        raise GeometryError("direction length does not match polynomial")
    polys = [H]
    if d > 1:
        A = direction.primitive
        xd_dH = SparsePoly.variable(d, d - 1) * H.partial(d - 1)
        for m in range(d - 1):
            xm_dH = SparsePoly.variable(d, m) * H.partial(m)
            polys.append(xm_dH * A[d - 1] - xd_dH * A[m])
    return CriticalSystem(polys)


class CriticalSystem:
    """A square polynomial system for Newton's method: its equations
    ``polys`` and their partials ``partials[i][j] = polys[i].partial(j)``,
    each built once per solve.  ``values`` and ``jacobian`` are their
    ``SparsePoly.eval`` at a point, and a ``powers`` dict passed to both at
    one point and precision is their shared table of ``x_j ** k``.
    """

    def __init__(self, polys):
        self.polys = list(polys)
        self.partials = [[P.partial(j) for j in range(len(self.polys))] for P in self.polys]

    def scales(self):
        """``max(P.coeff_bound(), 1)`` for each equation."""
        return [max(P.coeff_bound(), mpf(1)) for P in self.polys]

    def values(self, point, powers=None):
        """``[P.eval(point) for P in polys]``."""
        powers = {} if powers is None else powers
        return [P.eval(point, powers) for P in self.polys]

    def jacobian(self, point, powers=None):
        """Rows ``[P.partial(j).eval(point) for j]``, one per ``P`` in ``polys``."""
        powers = {} if powers is None else powers
        return [[Q.eval(point, powers) for Q in row] for row in self.partials]


def system_residual(system, point):
    """(|H(c)|, max residual of the critical equations), scale-normalized."""
    res = [abs(v) / scale for v, scale in zip(system.values(point), system.scales())]
    return res[0], max(res[1:], default=mpf(0))


# -- exact univariate helpers for elimination ---------------------------------


def _pnorm(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a, b):
    n = max(len(a), len(b))
    return _pnorm([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ])


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _pnorm(out)


def _pdivexact(a, b):
    """Exact division in Q[x]; raises if the remainder is nonzero."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        coef = a[i + len(b) - 1] / lead
        if coef:
            q[i] = coef
            for j, y in enumerate(b):
                a[i + j] -= coef * y
    if any(x != 0 for x in a):
        raise GeometryError("inexact polynomial division in determinant")
    return _pnorm(q)


def _bareiss_det(M):
    """Fraction-free determinant of a matrix of dense Q[x] polynomials."""
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = [Fraction(1)]
    for k in range(n - 1):
        if not M[k][k]:
            pivot_row = next((i for i in range(k + 1, n) if M[i][k]), None)
            if pivot_row is None:
                return []
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _padd(_pmul(M[i][j], M[k][k]), [-c for c in _pmul(M[i][k], M[k][j])])
                M[i][j] = _pdivexact(num, prev)
            M[i][k] = []
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return [c * sign for c in det]


def _as_y_poly(P):
    """Bivariate polynomial as dense lists in x, keyed by y-degree."""
    out = {}
    for (ex, ey), c in P.terms.items():
        if isinstance(c, GaussRat):
            raise GeometryError("elimination requires rational coefficients")
        row = out.setdefault(ey, [])
        while len(row) <= ex:
            row.append(Fraction(0))
        row[ex] += c
    return {k: _pnorm(v) for k, v in out.items() if _pnorm(list(v))}


def resultant_eliminate_y(P1, P2):
    """Resultant of two bivariate polynomials with respect to y (in Q[x])."""
    a = _as_y_poly(P1)
    b = _as_y_poly(P2)
    if not a or not b:
        return []
    m = max(a)
    n = max(b)
    if m == 0 or n == 0:
        # one input is y-free; its resultant power convention is not needed
        # at this call site, fall back to the y-free factor itself
        return a.get(0, []) if m == 0 else b.get(0, [])
    size = m + n
    rows = []
    for i in range(n):
        row = [[] for _ in range(size)]
        for k, coef in a.items():
            row[i + (m - k)] = list(coef)
        rows.append(row)
    for i in range(m):
        row = [[] for _ in range(size)]
        for k, coef in b.items():
            row[i + (n - k)] = list(coef)
        rows.append(row)
    return _bareiss_det(rows)


def _normal_doubles(p):
    """``p`` with its coefficients below the smallest normal double set to
    0, in place.  Callers first scale ``p`` so that its largest modulus is
    about 1: a root finder dividing by a subnormal leading coefficient
    overflows."""
    import numpy as np

    p[np.abs(p) < np.finfo(np.float64).tiny] = 0
    return p


def _dense_roots_double(coeffs):
    """Seed roots of a dense Fraction polynomial via the companion matrix,
    after an exact division by its largest coefficient
    (``_normal_doubles``).  When that leaves a nonzero coefficient below the
    smallest normal double, ``x = 2^s t`` is substituted first, exactly, with
    ``s`` the mean ``log2`` ratio of the end coefficients per degree, read
    from their bit lengths, and the roots ``t`` are scaled back; a root whose
    ``x`` would exceed the largest double is dropped, as it can seed no
    double-precision point."""
    import numpy as np

    coeffs = _pnorm(list(coeffs))
    if len(coeffs) <= 1:
        return []
    s, scale = 0, max(map(abs, coeffs))
    if any(c and abs(c) / scale < np.finfo(np.float64).tiny for c in coeffs):
        low = next(i for i, c in enumerate(coeffs) if c)
        bits = [abs(c.numerator).bit_length() - c.denominator.bit_length()
                for c in (coeffs[low], coeffs[-1])]
        s = round((bits[0] - bits[1]) / (len(coeffs) - 1 - low))
        coeffs = [c * Fraction(2) ** (s * i) for i, c in enumerate(coeffs)]
        scale = max(map(abs, coeffs))
    arr = np.array([float(c / scale) for c in reversed(coeffs)], dtype=np.float64)
    return [complex(math.ldexp(z.real, s), math.ldexp(z.imag, s))
            for z in np.roots(_normal_doubles(arr)) if math.frexp(abs(z))[1] + s <= 1024]


# -- Newton refinement ---------------------------------------------------------


def _gauss_solve(A, b):
    """Solve ``A x = b`` for a square list of rows ``A`` by Gaussian
    elimination with partial pivoting, at the working precision.

    Returns ``(x, det)``, or ``None`` when ``A`` is singular: when a pivot's
    modulus is at most ``mp.eps`` times the largest modulus of its own row
    of ``A``, so rows of different scales are each judged by their own.
    """
    n = len(A)
    tols = [mp.eps * max(abs(v) for v in row) for row in A]
    M = [list(row) + [v] for row, v in zip(A, b)]
    det = mpf(1)
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(M[i][j]))
        if abs(M[p][j]) <= tols[p]:
            return None
        if p != j:
            M[j], M[p], tols[j], tols[p] = M[p], M[j], tols[p], tols[j]
            det = -det
        pivot = M[j][j]
        det *= pivot
        for i in range(j + 1, n):
            f = M[i][j] / pivot
            for k in range(j + 1, n + 1):
                M[i][k] -= f * M[j][k]
    x = [None] * n
    for i in range(n - 1, -1, -1):
        x[i] = (M[i][n] - sum(M[i][k] * x[k] for k in range(i + 1, n))) / M[i][i]
    return x, det


def newton_polish(system, point, known=()):
    """Damped Newton iteration on a ``CriticalSystem``, at working precision.

    Returns the last iterate, which ``solve_critical``'s residual filter
    judges.  The values and Jacobian at an iterate share one table of
    powers, and each step solves with ``_gauss_solve``; a Jacobian that it
    reports singular ends the iteration.  A run whose iterate comes within
    ``DEDUPE_TOL`` (relative) of one of the ``known`` points, solutions
    already kept, returns that point, and ``solve_critical`` drops it as a
    duplicate.  Such a run nearly always ends at that point; one that would
    only pass it on the way to a distinct solution loses that solution.
    """
    d = len(point)
    x = [mpc(z) for z in point]
    target = mpf(2) ** (20 - mp.prec)
    powers = {}
    vals = system.values(x, powers)
    err = max(abs(v) for v in vals)
    for _ in range(NEWTON_MAX_ITER):
        if err < target:
            break
        near = _near(x, known, DEDUPE_TOL)
        if near is not None:
            return list(near)
        solved = _gauss_solve(system.jacobian(x, powers), [-v for v in vals])
        if solved is None:
            break
        step = solved[0]
        lam = mpf(1)
        for _ in range(60):
            trial = [x[i] + lam * step[i] for i in range(d)]
            trial_powers = {}
            tvals = system.values(trial, trial_powers)
            terr = max(abs(v) for v in tvals)
            if terr < err:
                x, vals, err, powers = trial, tvals, terr, trial_powers
                break
            lam /= 2
        else:
            break
    return x


def _jacobian_singular(system, point):
    """Whether the critical system's Jacobian at ``point`` is singular:
    ``_gauss_solve`` reports it so, or its determinant is at most
    ``RESIDUAL_TOL`` times the product over its rows of the sum of their
    entries' ``term_scale``s, a bound on the determinant (Hadamard)."""
    solved = _gauss_solve(system.jacobian(point), [mpc(0)] * len(point))
    bound = math.prod(sum(Q.term_scale(point) for Q in row) for row in system.partials)
    return solved is None or abs(solved[1]) <= RESIDUAL_TOL * bound


def _near(p, points, tol):
    """The first of ``points`` within ``tol`` of ``p``, relative to ``p``'s
    largest coordinate modulus, or ``None``."""
    scale = max(abs(z) for z in p)
    return next((q for q in points if max(abs(a - b) for a, b in zip(p, q)) <= tol * scale),
                None)


def _paired_y_roots(P, x, ys):
    """The roots in ``ys`` that pair with ``x`` on ``P`` (``PAIRING_TOL``).

    ``P`` is evaluated at every ``(x, y)`` in complex128 and judged against
    the sum of its term moduli there; a root where that evaluation overflows
    does not pass.  If no root passes, all of ``ys`` are returned, so an
    ill-conditioned eliminant root loses no candidate.
    """
    terms = [(complex(coef_to_mpc(c)), ex, ey) for (ex, ey), c in P.terms.items()]
    paired = []
    for y in ys:
        try:
            values = [c * x**ex * complex(y) ** ey for c, ex, ey in terms]
        except OverflowError:
            continue
        total = sum(map(abs, values))
        if math.isfinite(total) and abs(sum(values)) <= PAIRING_TOL * total:
            paired.append(y)
    return paired or list(ys)


def _y_slice(H, w):
    """Coefficients of ``H(w, .)`` in the last variable, lowest degree first,
    with the leading coordinates fixed at the ``mpc`` values ``w``.

    Each term is ``coef * w_0**e_0 * w_1**e_1 * ...``, multiplied in that
    order, and the terms are summed in ``H.terms`` order.
    """
    d = H.nvars
    coeffs = [mpc(0)] * (H.max_degree(d - 1) + 1)
    for e, c in H.terms.items():
        term = coef_to_mpc(c)
        for j in range(d - 1):
            term *= w[j] ** e[j]
        coeffs[e[d - 1]] += term
    return coeffs


def _slice_roots(coeffs):
    """Double-precision roots of a ``_y_slice``, scaled by a power of two
    (``_normal_doubles``); none when it is constant."""
    import numpy as np

    top = max(abs(v) for v in coeffs)
    e = -mp.frexp(top)[1] if top else 0
    scaled = [complex(mp.ldexp(v.real, e), mp.ldexp(v.imag, e)) for v in reversed(coeffs)]
    return np.roots(_normal_doubles(np.array(scaled, dtype=np.complex128)))


class PointCheck(NamedTuple):
    """What ``solve_critical`` measured at one returned point."""

    isolated: str  # yes | isolated-unverified
    residual_H: object
    residual_critical: object


def solve_critical(H, direction, seeds=None):
    """All isolated solutions of the critical system found by the solver.

    Returns ``(points, checks)``, with one ``PointCheck`` per point: its
    isolation flag and its ``system_residual``.

    d=1: the equations reduce to H itself (univariate roots).  d=2: exact
    elimination of y by a resultant in x, companion-matrix eigenvalues for
    its roots ``x_r``, and back-substitution: the y-roots of ``H(x_r, .)``
    are seeds only where they also nearly solve the second critical
    equation (``_paired_y_roots``: complex128, relative to the sum of its
    term moduli, below ``PAIRING_TOL``), or all of them where none does.
    Each seed gets a Newton polish at working precision.  d>=3: damped
    Newton from each seed plus the diagonal shortcut for symmetric H with a
    constant direction.  Every returned point has ``system_residual`` at
    most ``RESIDUAL_TOL``.
    """
    d = H.nvars
    system = critical_system(H, direction)
    candidates = []

    if d == 1:
        coeffs = [Fraction(0)] * (H.max_degree(0) + 1)
        for (e,), c in H.terms.items():
            coeffs[e] += c
        for z in _dense_roots_double(coeffs):
            candidates.append((mpc(z),))
    elif d == 2:
        elim = resultant_eliminate_y(*system.polys)
        if not elim:
            raise GeometryError(
                "critical system is degenerate: the elimination polynomial vanishes"
            )
        for xr in _dense_roots_double(elim):
            # back-substitute: roots in y of H(x, .)
            ys = _slice_roots(_y_slice(H, (mpc(xr),)))
            for yr in _paired_y_roots(system.polys[1], xr, ys):
                candidates.append((mpc(xr), mpc(complex(yr))))
    else:
        if _is_symmetric(H) and len(set(direction.primitive)) == 1:
            diag = _diagonal_points(H)
            candidates.extend(diag)
    for seed in seeds or []:
        candidates.append(tuple(mpc(z) for z in seed))

    # each converged point is kept unless it lies within ``DEDUPE_TOL`` of a
    # point kept before it; a run that comes that close to a kept point stops
    points = []
    residuals = []
    for cand in candidates:
        x = newton_polish(system, cand, points)
        if _near(x, points, DEDUPE_TOL) is not None:
            continue
        res_h, res_c = system_residual(system, x)
        if res_h > RESIDUAL_TOL or res_c > RESIDUAL_TOL:
            continue
        points.append(tuple(x))
        residuals.append((res_h, res_c))
    checks = [
        PointCheck("isolated-unverified" if _jacobian_singular(system, x) else "yes", *res)
        for x, res in zip(points, residuals)
    ]
    return points, checks


def _is_symmetric(H):
    d = H.nvars
    if d < 2:
        return True
    base = H.terms
    for i in range(d - 1):
        perm = list(range(d))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if H.permute(tuple(perm)).terms != base:
            return False
    return True


def _diagonal_points(H):
    """Roots of H(s, s, ..., s): critical by symmetry for constant directions."""
    d = H.nvars
    coeffs = {}
    for e, c in H.terms.items():
        k = sum(e)
        coeffs[k] = coeffs.get(k, Fraction(0)) + c
    dense = [coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)]
    return [(mpc(z),) * d for z in _dense_roots_double(dense)]


# -- smoothness ---------------------------------------------------------------


def vanishes(P, point, value=None):
    """Whether ``P`` vanishes at ``point``: ``|P(c)|`` (``value``, when the
    caller has it) is at most ``RESIDUAL_TOL`` times ``P.term_scale(c)``."""
    value = P.eval(point) if value is None else value
    return abs(value) <= RESIDUAL_TOL * P.term_scale(point)


def check_smooth(H, point):
    """(is_smooth, witness index, reordering that puts a usable coordinate last).

    Each test is ``vanishes``; the witness is the nonvanishing partial of
    largest modulus.  The last coordinate stays last unless ``c_d`` or
    ``dH/dx_d`` vanishes; then the largest ``|c_j dH/dx_j(c)|`` with neither
    vanishing goes last, so downstream implicit solves are well-conditioned.
    """
    d = H.nvars
    if not vanishes(H, point):
        raise GeometryError("point is not on the variety")
    parts = [H.partial(j) for j in range(d)]
    mags = [abs(P.eval(point)) for P in parts]
    mags = [0 if vanishes(P, point, m) else m for P, m in zip(parts, mags)]
    witness = max(range(d), key=lambda j: mags[j])
    if not mags[witness]:
        return False, -1, tuple(range(d))
    weighted = [abs(point[j]) * mags[j] for j in range(d)]
    last = d - 1  # keep the original order when it already works
    if not weighted[last]:
        last = max(range(d), key=lambda j: weighted[j])
        if not weighted[last]:
            # smooth, but x_j dH/dx_j vanishes in every coordinate
            last = witness
    perm = [j for j in range(d) if j != last] + [last]
    return True, witness, tuple(perm)


# -- aperiodicity --------------------------------------------------------------


def is_aperiodic(P):
    """Whether the support of P spans the full integer lattice over Z."""
    if P.is_zero():
        raise GeometryError("aperiodicity is undefined for the zero polynomial")
    d = P.nvars
    rows = [list(e) for e in P.terms if any(e)]
    if not rows:
        return False
    # integer row reduction to upper-triangular (Hermite-style)
    cols = d
    mat = [row[:] for row in rows]
    rank = 0
    det = 1
    for col in range(cols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            return False
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        changed = True
        while changed:
            changed = False
            for i in range(rank + 1, len(mat)):
                if mat[i][col] == 0:
                    continue
                q = mat[i][col] // mat[rank][col]
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[rank])]
                if mat[i][col] != 0:
                    mat[rank], mat[i] = mat[i], mat[rank]
                    changed = True
        det *= mat[rank][col]
        rank += 1
        if rank == cols:
            break
    return rank == cols and abs(det) == 1


# -- minimality ----------------------------------------------------------------


def _is_positive_real(point):
    return all(z.real > 0 and abs(z.imag) <= POSITIVE_REAL_TOL * abs(z) for z in point)


def _inside(q, point):
    """Whether ``q`` lies strictly inside the polydisc of ``point``: below
    ``1 - MARGIN`` of its modulus in every coordinate."""
    return all(abs(a) < abs(b) * (1 - MARGIN) for a, b in zip(q, point))


def _one_minus_H_nonneg(H):
    """``(ok, P)``: ``P = 1 - H/H(0)``, which has the variety of ``H``, and
    whether ``H(0)`` is a nonzero rational and ``P`` has nonnegative
    coefficients."""
    const = H.constant_term()
    if isinstance(const, GaussRat) or not const:
        return False, None
    P = SparsePoly.constant(H.nvars, 1) - H * (1 / const)
    return all(not isinstance(c, GaussRat) and c >= 0 for c in P.terms.values()), P


def check_minimality(H, point, other_points=None):
    """Minimality verdict for a smooth variety point.

    ``other_points`` are the other solutions of the critical system, when
    the caller has them; in one variable they are every other root of
    ``H``, and ``H`` is solved here when they are not given.

    Ladder: (a) nonnegativity/aperiodicity shortcut certifying strict
    minimality at positive real points; (b) ``_slice_search`` for a variety
    point inside the polydisc, its least-modulus slice root polished at
    working precision: for two variables over a ``SLICE_GRID`` grid, which
    can certify not-minimal with a witness, report plain minimality, or
    report unknown when a root inside does not polish to a witness; (c)
    otherwise over seeded torus samples, which only ever yields not-minimal
    or unknown.
    """
    d = H.nvars
    if not vanishes(H, point):
        raise GeometryError("point is not on the variety")

    # quick not-minimal witness: another known variety point strictly inside
    for q in other_points or ():
        if _inside(q, point):
            return MinimalityVerdict(
                "not-minimal",
                "another variety point has strictly smaller coordinate moduli",
                witness=tuple(q),
            )

    if d == 1:
        if other_points is None:
            roots = solve_critical(H, Direction((1,)))[0]
        else:
            roots = [*other_points, point]
        return _check_minimality_univariate(point, roots)

    ok, P = _one_minus_H_nonneg(H)
    if ok and _is_positive_real(point) and is_aperiodic(P):
        return MinimalityVerdict(
            "strictly-minimal",
            "1-H is aperiodic with nonnegative coefficients and the point is "
            "positive real, so every positive variety point is strictly minimal",
        )

    if d == 2:
        return _scan_minimality_2d(H, point, SLICE_GRID)

    return _sample_minimality(H, point)


def _check_minimality_univariate(point, roots):
    """Verdict for ``point`` among ``roots``, all the roots of ``H``."""
    inner = min(roots, key=lambda r: abs(r[0]))
    if _inside(inner, point):
        return MinimalityVerdict(
            "not-minimal", "a root of smaller modulus exists", witness=tuple(inner)
        )
    c = point[0]
    tol = MARGIN * abs(c)
    same = [r for (r,) in roots if abs(abs(r) - abs(c)) <= tol]
    companions = [(r,) for r in same if abs(r - c) > tol]
    if companions:
        return MinimalityVerdict(
            "finitely-minimal",
            f"{len(companions)} other root(s) share the minimal modulus",
            companions=companions,
        )
    return MinimalityVerdict("strictly-minimal", "unique root of minimal modulus")


def _scan_minimality_2d(H, point, grid):
    """Double-precision slice grid scan inside the polydisc, plus refinement.

    The grid is ``n_r x n_theta`` points ``x = r e^{i theta}``, with
    ``r = |c1| i/(n_r+1)`` for ``i = 1..n_r`` (strictly inside ``|x| < |c1|``)
    and ``theta = 2 pi k/n_theta``, in row-major ``(i, k)`` order, searched
    by ``_slice_search``.  Its polished witness makes the point not minimal;
    a root inside that does not polish to a witness leaves the verdict
    unknown.  Otherwise the verdict is plain minimality: a grid can miss a
    witness and never certifies strictness.
    """
    import numpy as np

    n_r, n_theta = grid
    radii = float(abs(point[0])) * np.arange(1, n_r + 1) / (n_r + 1)
    xs = radii[:, None] * np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    ratio, inside, witness = _slice_search(H, point, xs.reshape(-1, 1))
    if witness is not None:
        return MinimalityVerdict(
            "not-minimal",
            "variety point with strictly smaller coordinate moduli found by "
            "the slice scan",
            witness=witness,
        )
    if inside:
        return MinimalityVerdict(
            "unknown",
            f"a {grid[0]}x{grid[1]} slice grid root lies inside (min |y|/|c2| ratio "
            f"{ratio:.6f}) but did not polish to a variety point with strictly "
            "smaller coordinate moduli",
        )
    return MinimalityVerdict(
        "minimal",
        f"no interior variety point with smaller polyradius on a {grid[0]}x{grid[1]} "
        f"slice grid (min |y|/|c2| ratio {ratio:.6f}); strictness not certified",
    )


def _slice_search(H, point, ws):
    """The least-modulus root of the slices ``H(w, .)`` for the rows ``w``
    of the complex128 array ``ws``.

    All slices are built at once in complex128: each coefficient of ``H``,
    scaled by the power of two that brings ``H.coeff_bound()`` into
    ``[1/2, 1)``, times powers of the coordinates built by repeated
    multiplication.  ``_min_modulus_roots`` solves them, and the root of
    least ``|y|/|c_d|`` is kept, the first on ties.  Returns ``(ratio,
    inside, witness)``: that ratio (``inf`` when no slice has a root),
    whether it is below ``1 - MARGIN``, and the witness ``w + (y,)``, with
    the root polished once on its slice at working precision, when it lies
    inside the polydisc of ``point`` by ``MARGIN`` in every coordinate, or
    ``None``.
    """
    import numpy as np

    d, count = H.nvars, len(ws)
    powers = [np.cumprod(np.vstack([np.ones(count), np.tile(ws[:, j], (H.max_degree(j), 1))]),
                         axis=0) for j in range(d - 1)]
    # one contiguous row per power of the last variable: solving the
    # transpose of this layout is faster than solving contiguous slices
    slices = np.zeros((H.max_degree(d - 1) + 1, count), dtype=np.complex128)
    unit = mp.ldexp(1, -mp.frexp(H.coeff_bound())[1])
    for e, c in H.terms.items():
        term = complex(coef_to_mpc(c) * unit)
        for j in range(d - 1):
            term = term * powers[j][e[j]]
        slices[e[-1]] += term
    ys, found = _min_modulus_roots(slices[::-1].T)
    ratios = np.where(found, np.abs(ys), np.inf) / float(abs(point[-1]))
    best = int(np.argmin(ratios))
    ratio = float(ratios[best])
    if not ratio < 1 - MARGIN:
        return ratio, False, None
    w = tuple(mpc(complex(z)) for z in ws[best])
    y = _polish_slice_root(H, w, complex(ys[best]))
    if y is None or not _inside(w + (y,), point):
        return ratio, True, None
    return ratio, True, w + (y,)


def _min_modulus_roots(polys):
    """Least-modulus root of each row of ``polys`` (highest degree first).

    Each row is first scaled by a power of two, with ``np.ldexp`` on its
    real and imaginary parts (exact at every exponent, subnormal rows
    included), so that its largest modulus lies in ``[1/2, 1)``, and its
    coefficients below the smallest normal double are set to 0
    (``_normal_doubles``).  Regular rows, whose coefficients are finite and
    whose leading and constant coefficients are both nonzero, all have the
    degree ``n`` of the batch, and are solved together:

    - ``n = 2``: the stable quadratic formula.  With ``disc`` the square
      root of ``b^2 - 4ac``, signed so that ``Re(conj(b) disc) >= 0``, and
      ``q = -(b + disc)/2``, the roots are ``q/a`` and ``c/q``.  That sign
      makes ``|b + disc|^2 >= |b|^2 + |disc|^2``, so ``q`` vanishes only
      where ``ac`` does, which a regular row rules out, and neither root is
      formed by cancellation; the scaling keeps ``b^2`` from overflowing.
      The smaller root in modulus is taken, ``q/a`` on an exact tie; it
      agrees with ``np.roots``'s to rounding;
    - otherwise: one batched ``np.linalg.eigvals`` over companion matrices
      laid out as ``np.roots`` lays them out (first row ``-p[1:]/p[0]``,
      ones on the subdiagonal), so each matches ``np.roots`` on that row.

    The other rows go through ``np.roots`` after trimming leading zeros; it
    returns the zero roots of a vanishing constant term itself, and raises
    on a non-finite coefficient as the batched call would.  Returns
    ``(roots, found)``; ``found`` is False where a row is constant and has
    no root, and the first root of least modulus is taken on ties.
    """
    import numpy as np

    count, size = polys.shape
    roots = np.zeros(count, dtype=np.complex128)
    found = np.zeros(count, dtype=bool)
    n = size - 1
    if n == 0:
        return roots, found
    e = -np.frexp(np.abs(polys).max(axis=1, keepdims=True))[1]
    polys = _normal_doubles(np.ldexp(polys.real, e) + 1j * np.ldexp(polys.imag, e))
    regular = (polys[:, 0] != 0) & (polys[:, -1] != 0) & np.isfinite(polys).all(axis=1)
    p = polys[regular]
    if n == 2:
        a, b, c = p.T
        disc = np.sqrt(b * b - 4 * a * c)
        disc[(b.conj() * disc).real < 0] *= -1
        q = -(b + disc) / 2
        large, small = q / a, c / q
        roots[regular] = np.where(np.abs(small) < np.abs(large), small, large)
    else:
        companion = np.zeros((p.shape[0], n, n), dtype=np.complex128)
        companion[:, 0, :] = -p[:, 1:] / p[:, :1]
        companion[:, np.arange(1, n), np.arange(n - 1)] = 1
        eig = np.linalg.eigvals(companion)
        roots[regular] = eig[np.arange(p.shape[0]), np.argmin(np.abs(eig), axis=1)]
    found[regular] = True
    for s in np.flatnonzero(~regular):
        r = np.roots(np.trim_zeros(polys[s], "f"))
        if r.size:
            roots[s] = r[np.argmin(np.abs(r))]
            found[s] = True
    return roots, found


def _polish_slice_root(H, w, y0):
    coeffs = _y_slice(H, w)
    y = mpc(y0)
    for _ in range(80):
        f = sum(coeffs[k] * y**k for k in range(len(coeffs)))
        fp = sum(k * coeffs[k] * y ** (k - 1) for k in range(1, len(coeffs)))
        if abs(fp) == 0:
            return None
        step = f / fp
        y -= step
        if abs(step) < mpf(2) ** (20 - mp.prec) * max(abs(y), mpf(1)):
            break
    f = sum(coeffs[k] * y**k for k in range(len(coeffs)))
    return y if vanishes(H, w + (y,), f) else None


def _sample_minimality(H, point):
    """Random scaled-torus sampling; can only find witnesses, never certify.

    ``TORUS_SAMPLES`` points ``w``, each coordinate ``s |c_j| e^{i t_j}``
    with one shrink factor ``s`` in ``[1/2, 1)`` per sample, are searched by
    ``_slice_search``; its polished witness makes the point not minimal.
    Only the least-ratio root is polished, so a root inside that does not
    polish leaves the verdict unknown even where another sample's might."""
    import numpy as np

    rng = random.Random(TORUS_SEED)
    draws = np.reshape([rng.random() for _ in range(TORUS_SAMPLES * H.nvars)], (-1, H.nvars))
    radii = np.array([float(abs(z)) for z in point[:-1]])
    ws = (0.5 + 0.5 * draws[:, :1]) * radii * np.exp(2j * np.pi * draws[:, 1:])
    ratio, inside, witness = _slice_search(H, point, ws)
    if witness is not None:
        return MinimalityVerdict("not-minimal", "sampled variety point with strictly "
                                 "smaller coordinate moduli", witness=witness)
    seen = (f"a root of {TORUS_SAMPLES} scaled-torus samples lies inside (min |y|/|c_d| "
            f"ratio {ratio:.6f}) but did not polish to a variety point with strictly "
            "smaller coordinate moduli" if inside
            else f"no witness in {TORUS_SAMPLES} scaled-torus samples")
    return MinimalityVerdict("unknown", f"{seen}; minimality in more than two variables "
                             "is not decided by this tool")


def build_report(H, point, check, other_points=None):
    """Classify one solved point into a CriticalPointReport.

    ``check`` is the point's ``PointCheck`` from ``solve_critical``.
    """
    smooth, witness, perm = check_smooth(H, point)
    if smooth:
        verdict = check_minimality(H, point, other_points=other_points)
    else:
        verdict = MinimalityVerdict("unknown", "not a smooth point")
    return CriticalPointReport(
        point=tuple(point),
        smooth=smooth,
        smooth_witness=witness,
        reordering=perm,
        minimality=verdict,
        residual_H=check.residual_H,
        residual_critical=check.residual_critical,
        isolated=check.isolated,
    )
