"""Ground truth: exact Maclaurin coefficients and direct quadrature.

The coefficient oracle solves ``D * F = G_num`` with ``D = G_den * H^p``
coefficientwise, in exact integer (or Gaussian-integer) arithmetic.  The
coefficient denominators are cleared once: with ``L`` their lcm, ``D' = L*D``
and ``P' = L*G_num`` have integer coefficients and ``q = D'(0)``.  Each cell
stores the numerator ``E_beta = q^{|beta|+1} F_beta``, which satisfies

    E_beta = q^{|beta|} P'_beta - sum_{e != 0} c'_e q^{|e|-1} E_{beta-e},

so no cell ever needs a gcd.  Every stencil offset ``e`` has ``|e| >= 1``,
hence the hyperplane ``|beta| = s`` depends only on earlier hyperplanes, and
the box is swept one total degree at a time with each hyperplane updated as
a numpy ``object`` array.  ``Fraction`` (or ``GaussRat``) cells are built
only when asked for.  The quadrature oracle integrates
``u(t) exp(-w g(t))`` directly and exists only to validate the term
calculus.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, mpf

from .series import GaussRat, SparsePoly, coef_to_mpc


class OracleError(ValueError):
    pass


@dataclass(eq=False)
class CoeffTable:
    """Dense box of exact Maclaurin coefficients of G/H^p.

    ``numerators`` holds ``E_beta = q^{|beta|+1} F_beta`` (an ``int``, or a
    ``GaussRat`` with integer parts) for every cell of the box.
    """

    bounds: tuple  # per-variable maximum exponent, inclusive
    numerators: np.ndarray  # object array of shape bounds + 1
    qpow: list  # qpow[k] = q^k for k <= sum(bounds) + 1

    def coeff_at(self, beta):
        beta = tuple(int(b) for b in beta)
        if len(beta) != len(self.bounds) or any(
            b < 0 or b > m for b, m in zip(beta, self.bounds)
        ):
            raise OracleError(f"index {beta} outside the computed box {self.bounds}")
        return self._cell(beta)

    def _cell(self, beta):
        num = self.numerators[beta]
        if not num:
            return Fraction(0)
        den = self.qpow[sum(beta) + 1]
        return num / den if isinstance(num, GaussRat) else Fraction(num) / den

    @functools.cached_property
    def values(self):
        """Exponent tuple -> Fraction | GaussRat, for every nonzero cell."""
        return {
            tuple(int(i) for i in beta): self._cell(beta)
            for beta in zip(*np.nonzero(self.numerators))
        }


def rational_str(v):
    """Exact rational as ``num/den``; a Gaussian one as ``re+imi`` or
    ``re-imi``."""
    if isinstance(v, GaussRat):
        return f"{v.re}{'+' if v.im >= 0 else ''}{v.im}i"
    return str(v)


def decimal_str(value, digits=10):
    """Exact rational rendered as a decimal with the given significant digits."""
    with mp.workprec(max(mp.prec, 4 * digits)):
        return mp.nstr(coef_to_mpc(value).real if not isinstance(value, GaussRat)
                       or value.im == 0 else coef_to_mpc(value), digits)


def _cleared(c, scale):
    """``scale * c`` for an exact coefficient, as an int or a GaussRat."""
    c = c * scale
    return c if isinstance(c, GaussRat) else int(c)


def _denominators(c):
    if isinstance(c, GaussRat):
        return (c.re.denominator, c.im.denominator)
    return (c.denominator,)


def maclaurin_table(G_num, H, p, bounds, G_den=None):
    """Exact coefficients of ``G_num / (G_den * H^p)`` on the given box.

    Swept by total degree from ``D * F = P`` with ``D = G_den * H^p`` (see
    the module docstring); requires a unit constant direction, i.e.
    ``H(0) != 0`` (and ``G_den(0) != 0``).
    """
    d = H.nvars
    bounds = tuple(int(b) for b in bounds)
    if len(bounds) != d or any(b < 0 for b in bounds):
        raise OracleError("bounds must list a nonnegative cap per variable")
    D = H**p
    if G_den is not None:
        if G_den.nvars != d:
            raise OracleError("denominator nvars mismatch")
        D = D * G_den
    if not D.constant_term():
        raise OracleError("H(0) = 0: the origin lies on the variety")
    if G_num.nvars != d:
        raise OracleError("numerator nvars mismatch")

    L = math.lcm(*(den for P in (D, G_num) for c in P.terms.values()
                   for den in _denominators(c)))
    q = _cleared(D.constant_term(), L)
    top = sum(bounds)
    qpow = [1]
    for _ in range(top + 1):
        qpow.append(qpow[-1] * q)

    def in_box(e):
        return all(x <= b for x, b in zip(e, bounds))

    shape = tuple(b + 1 for b in bounds)
    E = np.zeros(math.prod(shape), dtype=object)
    for e, c in G_num.terms.items():
        if in_box(e):
            E[np.ravel_multi_index(e, shape)] = qpow[sum(e)] * _cleared(c, L)
    stencil = [
        (np.array(e)[:, None], np.ravel_multi_index(e, shape),
         _cleared(c, L) * qpow[sum(e) - 1], sum(e))
        for e, c in D.terms.items() if any(e) and in_box(e)
    ]

    grid = np.indices(shape).reshape(d, -1)
    degree = grid.sum(axis=0)
    order = np.argsort(degree, kind="stable")
    cuts = np.searchsorted(degree[order], np.arange(top + 2))
    for s in range(1, top + 1):
        cells = order[cuts[s]:cuts[s + 1]]
        coords = grid[:, cells]
        for e, off, w, size in stencil:
            if size > s:
                continue
            tgt = cells[np.all(coords >= e, axis=0)]
            E[tgt] -= w * E[tgt - off]
    return CoeffTable(bounds=bounds, numerators=E.reshape(shape), qpow=qpow)


def recurrence_residual(table, G_num, H, p, G_den=None):
    """Max |D*F - P| over the box; exactly zero for a correct table."""
    D = H**p
    if G_den is not None:
        D = D * G_den
    worst = Fraction(0)
    for beta in itertools.product(*(range(b + 1) for b in table.bounds)):
        acc = -G_num.terms.get(beta, Fraction(0))
        for e, c in D.terms.items():
            prev = tuple(b - g for b, g in zip(beta, e))
            if any(x < 0 for x in prev):
                continue
            acc = acc + c * table.values.get(prev, Fraction(0))
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


# -- quadrature oracle ---------------------------------------------------------

_GL_DEGREE = 24
_START_PIECES = {1: 32, 2: 4}  # per variable
_MAX_NODES = 400_000  # tensor grid points of the finest resolution tried
_ROUNDING = 10 * float(np.finfo(float).eps)  # per unit of integrated modulus


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


def _quad_composite(u_jet, g_jet, omega, X, cutoff, pieces):
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
    if cutoff:
        radius = functools.reduce(
            np.maximum, [2.0 * np.abs(t) / Xj - 1.0 for t, Xj in zip(np.ix_(*axes), X)]
        )
        vals = vals * _bump_np(radius)
    size = np.abs(vals)
    for w in wts:
        vals = np.tensordot(w, vals, axes=1)
        size = np.tensordot(w, size, axes=1)
    return complex(vals), float(size)


def fourier_laplace_quad(u_jet, g_jet, omega, window, cutoff=True, pieces=None,
                         tol=1e-13):
    """Direct quadrature of ``integral u(t) exp(-omega g(t)) dt``.

    ``u_jet``/``g_jet`` are jets at 0 in one or two variables, evaluated as
    truncated polynomials on the window ``[-X, X]`` (per variable).  With
    ``cutoff`` a smooth plateau factor (identically 1 on the inner half) makes
    the integrand compactly supported, matching the hypotheses of the
    expansion theorems.  Tensor composite Gauss-Legendre panels, in double
    precision, double the pieces per variable until two resolutions agree to
    ``tol`` relative (handles the oscillatory phases) or the grid would exceed
    ``_MAX_NODES`` points.  Returns (value, achieved-error estimate), the
    estimate being the difference of the last two resolutions (infinite when
    ``pieces`` leaves no room to double) but never below the rounding level
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
    p = pieces or _START_PIECES[nv]
    prev, size = _quad_composite(u_jet, g_jet, omega, X, cutoff, p)
    err = mp.inf
    while (2 * p * _GL_DEGREE) ** nv <= _MAX_NODES:
        p *= 2
        cur, size = _quad_composite(u_jet, g_jet, omega, X, cutoff, p)
        err = abs(cur - prev)
        prev = cur
        if err < tol * max(abs(cur), 1e-30):
            break
    return mpc(prev), mpf(max(err, _ROUNDING * size))
