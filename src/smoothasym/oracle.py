"""Ground truth: exact Maclaurin coefficients.

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
only when asked for.  The tests check the table against an independent
geometric-series expansion and against the exact residual of the recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .series import GaussRat, coef_to_mpc


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
        num = self.numerators[beta]
        if not num:
            return Fraction(0)
        den = self.qpow[sum(beta) + 1]
        return num / den if isinstance(num, GaussRat) else Fraction(num) / den


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
