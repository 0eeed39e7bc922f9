"""Reference implementations the tests judge the package against.

The pipeline calls none of these; each reaches its answer by its own route.
Independent oracles, and what each checks:
  maclaurin_table_geometric  ``maclaurin_table``, by a geometric series of 1/D
  recurrence_residual        a coefficient table, by the residual of D * F = G
  fourier_laplace_quad       the integral the term calculus expands, by quadrature
  integral_asymptotic_sum    the term functionals, summed against the quadrature
  phase_hessian_symmetric_q  ``phase_hessian``, for symmetric H on the diagonal
  eval_exact                 ``SparsePoly.eval``, in exact arithmetic
  reference_eval             ``SparsePoly.eval``, by the loop on ``mpc`` objects
  evaluate_structured        an expansion's flattened and dropped series
  reference_jet_mul          ``Jet.__mul__``, by the product loop on ``mpc`` objects
  reference_mul_degree       ``Jet.mul_degree``, by the same loop on one degree
  jet_partial                the derivative of a jet, on ``mpc`` objects, for
                             the Hessian-inverse operator the term calculus
                             applies on raw parts
  reference_reciprocal       ``Jet.reciprocal``, by the chain of full-order products
  reference_log              ``Jet.log``, the same
  reference_substitute       ``Jet.substitute``, the same
  reference_powers           ``PhaseData.remainder_power``, the same
  reference_implicit_root    ``implicit_root_jet``, by a fixed count of Newton steps
  stirling_multinomial_expansion
                             the flattened coefficients of 1/(1 - x_1 - ... - x_d),
                             exactly, by Stirling's series
Test harness:
  box_cells                  every cell of a box, for ``maclaurin_table``
  jet_eval                   a jet's truncated series at a displacement
  table_values               a coefficient table's nonzero cells as a dict
  poly_to_json               a polynomial in the spec's JSON term format
  poly_degree                a polynomial's total degree
  drops_above_window         whether a full-order chain drops an exact zero
                             above the window its windowed step computes
  frame_to_json              a local frame as JSON, jets and Hessian in decimals
  jet_to_json                a jet as JSON, for ``frame_to_json``
  jet_allclose               coefficientwise closeness of two jets
  jet_bits                   a jet's caps, keys in order and raw coefficient bits
  above_indices              the multi-indices a windowed jet holds above its window
  series_mul                 the product of two flattened series, cut at the
                             error order the factors allow
  series_sub                 the difference of two flattened series, the same
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
from mpmath import mp, mpc, mpf

from smoothasym.expansion import FlatSeries
from smoothasym.geometry import _is_symmetric
from smoothasym.localframe import FrameError, hessian_from_jet
from smoothasym.oracle import OracleError
from smoothasym.series import (
    GaussRat,
    Jet,
    NonInvertibleJetError,
    SeriesError,
    SparsePoly,
    _layout,
    _merge_caps,
    coef_to_mpc,
    complex_to_json,
)
from smoothasym.stationary import (
    BranchError,
    PhaseData,
    branch_root,
    det_inv_sqrt,
    stationary_term,
    stationary_term_even,
    stationary_term_odd,
)


def recurrence_residual(table, G_num, H, p, G_den=None):
    """Max |D*F - P| over the box; exactly zero for a correct table."""
    D = H**p
    if G_den is not None:
        D = D * G_den
    values = table_values(table)
    worst = Fraction(0)
    for beta in box_cells(table.bounds):
        acc = -G_num.terms.get(beta, Fraction(0))
        for e, c in D.terms.items():
            prev = tuple(b - g for b, g in zip(beta, e))
            if any(x < 0 for x in prev):
                continue
            acc = acc + c * values.get(prev, Fraction(0))
        mag = acc.re * acc.re + acc.im * acc.im if isinstance(acc, GaussRat) else acc * acc
        if mag > worst:
            worst = mag
    return worst


def maclaurin_table_geometric(G_num, H, p, max_total_degree, G_den=None):
    """Independent small-case method: expand 1/D as a geometric series.

    ``1/D = (1/D0) sum_m (1 - D/D0)^m`` truncated by total degree; the factor
    polynomial has positive valuation so the sum is finite.  Quadratic cost,
    intended for cross-checking boxes of small total degree only.
    """
    d = H.nvars
    D = H**p
    if G_den is not None:
        D = D * G_den
    D0 = D.constant_term()
    if not D0:
        raise OracleError("H(0) = 0: the origin lies on the variety")

    def trunc(P):
        return SparsePoly(
            d, {e: c for e, c in P.terms.items() if sum(e) <= max_total_degree}
        )

    U = trunc(SparsePoly.constant(d, 1) - D * (Fraction(1) / D0))
    acc = SparsePoly.constant(d, 1)
    for _ in range(max_total_degree):
        acc = trunc(U * acc) + SparsePoly.constant(d, 1)
    inv = acc * (Fraction(1) / D0)
    series = trunc(G_num * inv)
    return {e: c for e, c in series.terms.items()}


def eval_exact(P, point):
    """Evaluate ``P`` at exact rational/Gaussian-rational coordinates."""
    total = Fraction(0)
    for e, c in P.terms.items():
        term = c
        for j, k in enumerate(e):
            if k:
                term = term * point[j] ** k
        total = total + term
    return total


def reference_eval(P, point):
    """``P`` at a complex vector at the working precision, by the loop on
    ``mpc`` objects that ``SparsePoly.eval`` replaced: each coefficient
    converted afresh, each power ``x_j ** k`` computed once per call, the
    factors of a term multiplied in turn and the terms summed from zero."""
    point = [mpc(z) for z in point]
    total = mpc(0)
    pow_cache = [{} for _ in range(P.nvars)]
    for e, c in P.terms.items():
        term = coef_to_mpc(c)
        for j, k in enumerate(e):
            if k:
                pk = pow_cache[j].get(k)
                if pk is None:
                    pk = point[j] ** k
                    pow_cache[j][k] = pk
                term *= pk
        total += term
    return total


_GL_DEGREE = 24
_START_PIECES = {1: 32, 2: 4}  # per variable
_MAX_NODES = 400_000  # tensor grid points of the finest resolution tried
_ROUNDING = 10 * float(np.finfo(float).eps)  # per unit of integrated modulus
_AGREE = 1e-13  # relative agreement of two resolutions that ends the doubling
_FLAT = mpf("1e-20")  # phase coefficients below this share of the largest vanish


def _bump_np(s):
    """C-infinity cutoff profile: 1 for s <= 0, 0 for s >= 1."""
    out = np.zeros_like(s)
    out[s <= 0] = 1.0
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    f1 = np.exp(-1.0 / (1.0 - sm))
    f0 = np.exp(-1.0 / sm)
    out[mid] = f1 / (f1 + f0)
    return out


def _jet_on_grid(jet, axes):
    """The truncated jet as a polynomial on the tensor grid of ``axes``."""
    coef = np.zeros((jet.order + 1,) * jet.nvars, dtype=np.complex128)
    for b, v in jet.coeffs.items():
        coef[b] = complex(coef_to_mpc(v))
    # each Horner pass consumes the leading exponent axis and appends a grid axis
    for t in axes:
        coef = np.polynomial.polynomial.polyval(t, coef)
    return coef


def _quad_composite(u_jet, g_jet, omega, X, pieces):
    """Tensor composite Gauss-Legendre over uniform pieces per variable.

    Returns the integral and the integral of the integrand's modulus, which
    scales the double-precision rounding error of the sum.
    """
    nodes, weights = np.polynomial.legendre.leggauss(_GL_DEGREE)
    axes, wts = [], []
    for Xj in X:
        edges = np.linspace(-Xj, Xj, pieces + 1)
        mids = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1] - edges[0])
        axes.append((mids[:, None] + half * nodes[None, :]).ravel())
        wts.append(np.tile(weights, pieces) * half)
    vals = _jet_on_grid(u_jet, axes) * np.exp(-omega * _jet_on_grid(g_jet, axes))
    radius = functools.reduce(
        np.maximum, [2.0 * np.abs(t) / Xj - 1.0 for t, Xj in zip(np.ix_(*axes), X)]
    )
    vals = vals * _bump_np(radius)
    size = np.abs(vals)
    for w in wts:
        vals = np.tensordot(w, vals, axes=1)
        size = np.tensordot(w, size, axes=1)
    return complex(vals), float(size)


def fourier_laplace_quad(u_jet, g_jet, omega, window):
    """Direct quadrature of ``integral u(t) exp(-omega g(t)) dt``.

    ``u_jet``/``g_jet`` are jets at 0 in one or two variables, evaluated as
    truncated polynomials on the window ``[-X, X]`` (per variable).  A smooth
    plateau factor (identically 1 on the inner half) makes the integrand
    compactly supported, matching the hypotheses of the expansion theorems.
    Tensor composite Gauss-Legendre panels, in double precision, double the
    pieces per variable until two resolutions agree to ``_AGREE`` relative
    (handles the oscillatory phases) or the grid would exceed ``_MAX_NODES``
    points.  Returns (value, achieved-error estimate), the estimate being the
    difference of the last two resolutions but never below the rounding level
    ``_ROUNDING * integral |u exp(-omega g)|``; inspect it rather than
    assuming convergence.
    """
    if u_jet.nvars != g_jet.nvars:
        raise OracleError("amplitude and phase dimension mismatch")
    nv = u_jet.nvars
    if nv not in _START_PIECES:
        raise OracleError("quadrature oracle supports one or two variables")
    if isinstance(window, (tuple, list)):
        X = [float(w) for w in window]
    else:
        X = [float(window)] * nv
    omega = float(omega)
    p = _START_PIECES[nv]
    prev, size = _quad_composite(u_jet, g_jet, omega, X, p)
    err = mp.inf
    while (2 * p * _GL_DEGREE) ** nv <= _MAX_NODES:
        p *= 2
        cur, size = _quad_composite(u_jet, g_jet, omega, X, p)
        err = abs(cur - prev)
        prev = cur
        if err < _AGREE * max(abs(cur), 1e-30):
            break
    return mpc(prev), mpf(max(err, _ROUNDING * size))


def integral_asymptotic_sum(u_jet, g_jet, omega, N, v=None):
    """N-term asymptotic value of ``integral u e^{-omega g} dt`` at one omega.

    Routes on the vanishing order of the one-variable phase (or uses the
    nondegenerate multivariate route when the quadratic part is nonsingular);
    the direct counterpart of the quadrature oracle.
    """
    omega = mpf(omega)
    if g_jet.nvars == 1 and v is None:
        top = max((abs(c) for c in g_jet.coeffs.values()), default=mpf(0))
        for m in range(2, g_jet.order + 1):
            if abs(g_jet.coefficient((m,))) > _FLAT * top:
                v = m
                break
        if v is None:
            raise BranchError("phase numerically flat")
    if g_jet.nvars > 1 or v == 2:
        A = hessian_from_jet(g_jet)
        phase = PhaseData.nondegenerate(g_jet, A, N)
        s = sum(omega ** (-k) * stationary_term(u_jet, phase, k) for k in range(N))
        n = g_jet.nvars
        return (omega / (2 * mp.pi)) ** (-mpf(n) / 2) * det_inv_sqrt(A) * s
    phase = PhaseData.degenerate(g_jet, v, N)
    if v % 2 == 0:
        s = sum(
            omega ** (mpf(-2 * k) / v) * stationary_term_even(u_jet, phase, k)
            for k in range(N)
        )
        return 2 * branch_root(phase.a, v) * omega ** (mpf(-1) / v) / v * s
    s = sum(
        omega ** (mpf(-k) / v) * stationary_term_odd(u_jet, phase, k)
        for k in range(N)
    )
    return abs(mpc(phase.a)) ** (mpf(-1) / v) * omega ** (mpf(-1) / v) / v * s


def phase_hessian_symmetric_q(H, point):
    """Symmetric shortcut: the scalar q with off-diagonal q, diagonal 2q.

    Requires H symmetric under variable permutations and the point on the
    positive diagonal; returns (q, det) with det = d * q^(d-1).
    """
    d = H.nvars
    if not _is_symmetric(H):
        raise FrameError("polynomial is not symmetric in its variables")
    c = tuple(mpc(z) for z in point)
    if any(abs(z - c[0]) > mpf("1e-12") * max(abs(c[0]), mpf(1)) for z in c):
        raise FrameError("point is not on the diagonal")
    dHd = H.partial(d - 1).eval(c)
    ddH = H.partial(d - 1).partial(d - 1).eval(c)
    dxdH = H.partial(0).partial(d - 1).eval(c)
    q = 1 + (c[0] / dHd) * (ddH - dxdH)
    return q, d * q ** (d - 1)


def evaluate_structured(expansion, n):
    """Evaluate from the structured (j, k) records, nothing dropped."""
    if expansion.kind == "combined":
        return sum(evaluate_structured(child, n) for child in expansion.children)
    base = expansion.base_power(n)
    alpha_d = expansion.meta["alpha_d"]
    y = mpf(alpha_d.numerator) / alpha_d.denominator * n
    total = mpc(0)
    for rec in expansion.structured:
        rf = mpf(1)
        for i in range(rec["rising"]):
            rf *= y + 1 + i
        e = rec["y_exponent"]
        total += rf * rec["weight"] * rec["term"] * y ** (
            mpf(e.numerator) / e.denominator
        )
    return base * total


def jet_eval(jet, displacement):
    """The truncated series of ``jet`` at ``center + displacement``."""
    total = mpc(0)
    for b, term in jet.coeffs.items():
        for j, k in enumerate(b):
            term *= mpc(displacement[j]) ** k
        total += term
    return total


def box_cells(bounds):
    """Every cell of the box with the given per-variable maximum exponents,
    in row-major order."""
    return list(itertools.product(*(range(b + 1) for b in bounds)))


def table_values(table):
    """Exponent tuple -> Fraction | GaussRat, for every nonzero cell of a
    ``CoeffTable``."""
    return {beta: value for beta in box_cells(table.bounds)
            if (value := table.coeff_at(beta))}


def poly_to_json(P):
    """A ``SparsePoly`` as the spec's ``[{"exp", "coef"}, ...]`` terms."""
    return [
        {"exp": list(e), "coef": {"re": str(c.re), "im": str(c.im)}
         if isinstance(c, GaussRat) else str(c)}
        for e, c in sorted(P.terms.items())
    ]


def poly_degree(P):
    """Total degree of a ``SparsePoly``; -1 for the zero polynomial."""
    return max((sum(e) for e in P.terms), default=-1)


def jet_allclose(a, b, rel=None):
    """Coefficientwise closeness, relative to the largest magnitude present."""
    scale = mpf(0)
    for jet in (a, b):
        for v in jet.coeffs.values():
            m = abs(coef_to_mpc(v))
            if m > scale:
                scale = m
    if scale == 0:
        return True
    if rel is None:
        rel = mpf(2) ** (10 - mp.prec)
    tol = scale * rel
    keys = set(a.coeffs) | set(b.coeffs)
    for k in keys:
        va = coef_to_mpc(a.coeffs.get(k, 0))
        vb = coef_to_mpc(b.coeffs.get(k, 0))
        if abs(va - vb) > tol:
            return False
    return True


# The product loops ``Jet.__mul__`` and ``Jet.mul_degree`` ran before the jet
# kernel worked on raw ``_mpc_`` pairs, kept as they were: coefficient objects
# and their Python operators, tuple indices, and a degree test on every pair.
# The kernel must give the same keys, in the same order, with the same bits.


def reference_jet_mul(self, other):
    if not isinstance(other, Jet):
        return self.scale(other)
    self._compat(other)
    caps = _merge_caps(self.caps, other.caps)
    out = Jet(self.nvars, self.order, self.center, {}, caps=caps)
    coeffs = out.coeffs
    small, big = self.coeffs, other.coeffs
    if len(big) < len(small):
        small, big = big, small
    for b1, v1 in small.items():
        d1 = sum(b1)
        for b2, v2 in big.items():
            if d1 + sum(b2) > self.order:
                continue
            b = tuple(x + y for x, y in zip(b1, b2))
            if not out._keeps(b):
                continue
            prod = v1 * v2
            coeffs[b] = coeffs[b] + prod if b in coeffs else prod
    out.coeffs = {b: v for b, v in coeffs.items() if not (v == 0)}
    return out


def reference_mul_degree(self, other, m):
    self._compat(other)
    small, big = self.coeffs, other.coeffs
    if len(big) < len(small):
        small, big = big, small
    by_degree = {}
    for b2, v2 in big.items():
        by_degree.setdefault(sum(b2), []).append((b2, v2))
    coeffs = {}
    for b1, v1 in small.items():
        for b2, v2 in by_degree.get(m - sum(b1), ()):
            b = tuple(x + y for x, y in zip(b1, b2))
            prod = v1 * v2
            coeffs[b] = coeffs[b] + prod if b in coeffs else prod
    return Jet(self.nvars, self.order, self.center, coeffs,
               caps=_merge_caps(self.caps, other.caps))


def jet_partial(jet, r):
    """The derivative of ``jet`` in variable ``r``, of one order less: each
    coefficient times its exponent in ``r`` (``mpc * int``)."""
    if jet.order == 0:
        return Jet(jet.nvars, 0, jet.center, {})
    coeffs = {}
    for b, v in jet.coeffs.items():
        if b[r] == 0:
            continue
        nb = list(b)
        nb[r] -= 1
        if sum(nb) <= jet.order - 1:
            coeffs[tuple(nb)] = v * b[r]
    return Jet(jet.nvars, jet.order - 1, jet.center, coeffs, caps=jet.caps)


def jet_to_json(jet):
    """A jet as JSON: center and coefficients as full-precision decimals."""
    return {
        "nvars": jet.nvars,
        "order": jet.order,
        "center": [complex_to_json(z) for z in jet.center],
        "coeffs": [
            {"beta": list(b), "coef": complex_to_json(v)}
            for b, v in sorted(jet.coeffs.items())
        ],
    }


def frame_to_json(frame):
    """A ``LocalFrame`` as JSON: its point, direction and jets, and the
    closed-form Hessian, with the digits the working precision carries."""
    n = frame.d - 1
    return {
        "point": [complex_to_json(z) for z in frame.point],
        "alpha": [str(a) for a in frame.direction.alpha],
        "p": frame.p,
        "order": frame.order,
        "reordering": list(frame.reordering),
        "implicit_jet": jet_to_json(frame.h_jet),
        "phase_jet": jet_to_json(frame.phase),
        "amplitude_jets": [jet_to_json(u) for u in frame.amplitudes],
        "hessian": [
            [complex_to_json(frame.hessian[i, j]) for j in range(n)]
            for i in range(n)
        ],
    }


def jet_bits(jet, window=None):
    """A jet's caps and its keys in order, each with its coefficient's raw
    ``mpc`` parts; only the keys of degree at most ``window`` when one is
    given."""
    return jet.caps, [
        (b, v._mpc_) for b, v in jet.coeffs.items()
        if window is None or sum(b) <= window
    ]


def above_indices(jet):
    """The multi-indices of ``jet.above``, unpacked by the jet's layout."""
    shifts, _, mask = _layout(jet)
    return {tuple(k >> s & mask for s in shifts) for k in jet.above}


def drops_above_window(run, window):
    """``(run(), dropped)``: the result of a full-order chain, and whether a
    product or sum in it dropped a coefficient that summed to an exact zero
    above the window of its step.  Product i of the chain (from 1), and each
    sum after it, are step i, which the windowed chain computes through
    degree ``window(i)``."""
    step, dropped = [0], [False]
    product, add = Jet._product, Jet.__add__

    def note(out, reached):
        gone = {b for b in reached if out._keeps(b)} - set(out.coeffs)
        dropped[0] |= any(sum(b) > window(step[0]) for b in gone)

    def watched_product(self, other, lo, hi, track=False):
        step[0] += 1
        out = product(self, other, lo, hi, track)
        note(out, {tuple(map(sum, zip(b1, b2))) for b1 in self.coeffs for b2 in other.coeffs})
        return out

    def watched_add(self, other):
        out = add(self, other)
        note(out, set(self.coeffs) | set(other.coeffs))
        return out

    with mock.patch.object(Jet, "_product", watched_product), \
            mock.patch.object(Jet, "__add__", watched_add):
        return run(), dropped[0]


# The Horner chains as they ran before each step was cut to the degrees a
# later step reads: every step a full-order product, kept as they were.  The
# windowed chains must give the same keys, in the same order, with the same
# bits.  Each takes the ``window`` its chain takes and ignores it: patched in
# for the chain, it computes the whole jet.


def reference_reciprocal(self, window=None):
    """Jet ``b`` with ``self * b = 1`` through the truncation order."""
    a0 = self.constant_coefficient()
    if a0 == 0:
        raise NonInvertibleJetError("jet has zero constant term")
    # 1/a = (1/a0) * sum_m u^m with u = 1 - a/a0 (valuation >= 1)
    u = Jet(
        self.nvars,
        self.order,
        self.center,
        {b: -(v / a0) for b, v in self.coeffs.items() if sum(b) > 0},
        caps=self.caps,
    )
    one = mpc(1)
    acc = Jet.constant(self.nvars, self.order, self.center, one, caps=self.caps)
    for _ in range(self.order):
        acc = u * acc
        acc = acc + Jet.constant(self.nvars, self.order, self.center, one, caps=self.caps)
    return acc.map_coeffs(lambda v: v / a0)


def reference_log(self, window=None):
    """Principal-branch logarithm; constant term is ``Log a(center)``."""
    a0 = self.constant_coefficient()
    if a0 == 0:
        raise NonInvertibleJetError("jet has zero constant term")
    u = Jet(
        self.nvars,
        self.order,
        self.center,
        {b: v / a0 for b, v in self.coeffs.items() if sum(b) > 0},
        caps=self.caps,
    )
    if self.order == 0:
        out = Jet(self.nvars, 0, self.center, {}, caps=self.caps)
    else:
        # log(1+u) = u*(1 - u/2 + u^2/3 - ...) via Horner
        acc = Jet.constant(
            self.nvars, self.order, self.center,
            mpc((-1) ** (self.order + 1)) / self.order, caps=self.caps,
        )
        for m in range(self.order - 1, 0, -1):
            acc = u * acc
            acc = acc + Jet.constant(
                self.nvars, self.order, self.center,
                mpc((-1) ** (m + 1)) / m, caps=self.caps,
            )
        out = u * acc
    const = mp.log(mpc(coef_to_mpc(a0)))
    if const != 0:
        out = out + Jet.constant(self.nvars, self.order, self.center, const, caps=self.caps)
    return out


def reference_substitute(self, var, series, window=None):
    """Replace the displacement of ``var`` by ``series`` (Horner form)."""
    if not isinstance(series, Jet) or series.nvars != self.nvars:
        raise SeriesError("substitution series must match the index space")
    if series.order != self.order:
        raise SeriesError("substitution series order mismatch")
    if series.constant_coefficient() != 0:
        raise SeriesError("substitution series must have zero constant term")
    parts = {}
    top = 0
    for b, v in self.coeffs.items():
        k = b[var]
        nb = list(b)
        nb[var] = 0
        parts.setdefault(k, {})[tuple(nb)] = v
        top = max(top, k)
    out = Jet(self.nvars, self.order, self.center, parts.get(top, {}), caps=self.caps)
    series = Jet(self.nvars, self.order, self.center, series.coeffs, caps=self.caps)
    for k in range(top - 1, -1, -1):
        out = out * series
        if k in parts:
            out = out + Jet(self.nvars, self.order, self.center, parts[k], caps=self.caps)
    return out


def reference_powers(remainder, count):
    """``remainder**l`` for l < count, each one full-order product from the
    one below, as ``PhaseData`` built them."""
    powers = [Jet.constant(remainder.nvars, remainder.order, remainder.center, mpc(1))]
    while len(powers) < count:
        powers.append(powers[-1] * remainder)
    return powers


def reference_implicit_root(H, point, order):
    """The jet of ``implicit_root_jet``, by the Newton loop as it ran before it
    stopped at the first repeat: ``ceil(log2(order + 1)) + 1`` steps always,
    without the input and residual checks."""
    d = H.nvars
    c = tuple(mpc(z) for z in point)
    H_jet = Jet.from_poly(H, c, order)
    dH_jet = Jet.from_poly(H.partial(d - 1), c, order)
    eta = Jet(d, order, c, {})
    for _ in range(max(1, math.ceil(math.log2(order + 1))) + 1):
        num = H_jet.substitute(d - 1, eta)
        den = dH_jet.substitute(d - 1, eta)
        eta = eta - num * den.reciprocal()
        eta = Jet(d, order, c,
                  {b: v for b, v in eta.coeffs.items() if b[d - 1] == 0 and any(b)})
    coeffs = {b[: d - 1]: v for b, v in eta.coeffs.items()}
    zero = (0,) * (d - 1)
    coeffs[zero] = coeffs.get(zero, mpc(0)) + c[d - 1]
    return Jet(d - 1, order, c[: d - 1], coeffs)


def series_mul(a, b):
    """``a * b`` for ``FlatSeries``: every product of terms above the error
    order, the larger of each factor's error order plus the other's leading
    exponent."""
    err = None
    candidates = []
    if a.error_exponent is not None and b.terms:
        candidates.append(a.error_exponent + b.terms[0][0])
    if b.error_exponent is not None and a.terms:
        candidates.append(b.error_exponent + a.terms[0][0])
    if candidates:
        err = max(candidates)
    acc = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = e1 + e2
            if err is not None and e <= err:
                continue
            acc[e] = acc.get(e, mpc(0)) + c1 * c2
    return FlatSeries(list(acc.items()), error_exponent=err)


def series_sub(a, b):
    """``a - b`` for ``FlatSeries``, the terms above the larger error order."""
    err = None
    for e in (a.error_exponent, b.error_exponent):
        if e is not None:
            err = e if err is None else max(err, e)
    acc = {}
    for e, c in a.terms:
        if err is None or e > err:
            acc[e] = acc.get(e, mpc(0)) + c
    for e, c in b.terms:
        if err is None or e > err:
            acc[e] = acc.get(e, mpc(0)) - c
    return FlatSeries(list(acc.items()), error_exponent=err)


def stirling_multinomial_expansion(a, N):
    """The first ``N`` flattened coefficients of ``F = 1/(1 - x_1 - ... - x_d)``
    along the positive integer direction ``a``, as ``[(exponent, mpf)]``.

    ``F_{na} = (|a| n)! / prod (a_i n)!``.  Stirling's series for each
    factorial (DLMF 5.11.1, exact Bernoulli numbers from ``mpmath.bernfrac``)
    gives ``F_{na} = rho^n C n^(-(d-1)/2) exp(S(1/n))`` with
    ``C = sqrt(|a|/prod a_i) (2 pi)^(-(d-1)/2)`` and
    ``S(u) = sum_k B_2k/(2k (2k-1)) (|a|^(1-2k) - sum a_i^(1-2k)) u^(2k-1)``;
    ``exp(S)`` is a power series in ``1/n`` with rational coefficients
    ``e_j``, and the coefficient of ``n^(-(d-1)/2 - j)`` is ``C e_j``, at the
    working precision.
    """
    d, total = len(a), sum(a)
    s = [Fraction(0)] * N  # S(u), by powers of u
    for k in range(1, N // 2 + 1):
        num, den = mp.bernfrac(2 * k)
        inv = Fraction(1, total ** (2 * k - 1)) - sum(Fraction(1, ai ** (2 * k - 1)) for ai in a)
        s[2 * k - 1] = Fraction(num, den) / (2 * k * (2 * k - 1)) * inv
    e = [Fraction(1)]  # exp(S), by e' = S' e
    for m in range(1, N):
        e.append(sum(j * s[j] * e[m - j] for j in range(1, m + 1)) / m)
    const = mp.sqrt(mpf(total) / math.prod(a)) * (2 * mp.pi) ** (-mpf(d - 1) / 2)
    return [(Fraction(1 - d, 2) - j, const * mpf(c.numerator) / c.denominator)
            for j, c in enumerate(e)]
