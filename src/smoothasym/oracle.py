"""Ground truth: exact Maclaurin coefficients.

The coefficient oracle solves ``D * F = G_num`` with ``D = G_den * H^p``
coefficientwise, in exact integer (or Gaussian-integer) arithmetic.  The
coefficient denominators are cleared once: with ``L`` their lcm, ``D' = L*D``
and ``P' = L*G_num`` have integer coefficients and ``q = D'(0)``.  Each cell
stores the numerator ``E_beta = q^{|beta|+1} F_beta``, which satisfies

    E_beta = q^{|beta|} P'_beta - sum_{e != 0} c'_e q^{|e|-1} E_{beta-e},

so no cell ever needs a gcd.  Every stencil offset ``e`` is nonnegative and
nonzero, so ``beta - e`` comes before ``beta`` in row-major order, and the
box is swept in that order, one row of the last variable at a time, in Python
ints.  ``Fraction`` (or ``GaussRat``) cells are built only when asked for.
The tests check the table against an independent geometric-series expansion
and against the exact residual of the recurrence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .series import GaussRat, coef_to_mpc


class OracleError(ValueError):
    pass


@dataclass(eq=False)
class CoeffTable:
    """Dense box of exact Maclaurin coefficients of G/H^p.

    ``numerators`` holds ``E_beta = q^{|beta|+1} F_beta`` (an ``int``, or a
    ``GaussRat`` with integer parts) for every cell of the box, in row-major
    order.
    """

    bounds: tuple  # per-variable maximum exponent, inclusive
    numerators: list  # flat, row-major over the box
    qpow: list  # qpow[k] = q^k for k <= sum(bounds) + 1

    def coeff_at(self, beta):
        beta = tuple(int(b) for b in beta)
        if len(beta) != len(self.bounds) or any(
            b < 0 or b > m for b, m in zip(beta, self.bounds)
        ):
            raise OracleError(f"index {beta} outside the computed box {self.bounds}")
        num = self.numerators[_flat(beta, self.bounds)]
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


def _flat(beta, bounds):
    """The row-major position of ``beta`` in the box ``bounds``."""
    i = 0
    for b, m in zip(beta, bounds):
        i = i * (m + 1) + b
    return i


def _denominators(c):
    if isinstance(c, GaussRat):
        return (c.re.denominator, c.im.denominator)
    return (c.denominator,)


def maclaurin_table(G_num, H, p, bounds, G_den=None):
    """Exact coefficients of ``G_num / (G_den * H^p)`` on the given box.

    Swept in row-major order from ``D * F = P`` with ``D = G_den * H^p`` (see
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

    width = bounds[-1] + 1  # a row: the last variable, the others fixed
    E = [0] * math.prod(b + 1 for b in bounds)
    for e, c in G_num.terms.items():
        if in_box(e):
            E[_flat(e, bounds)] = qpow[sum(e)] * _cleared(c, L)
    # each offset as (its leading part, its last exponent, flat offset, weight)
    stencil = [(e[:-1], e[-1], _flat(e, bounds), _cleared(c, L) * qpow[sum(e) - 1])
               for e, c in D.terms.items() if any(e) and in_box(e)]
    along = [(t, w) for head, t, _, w in stencil if not any(head)]
    across = [(head, t, t - off, w) for head, t, off, w in stencil if any(head)]
    # the offsets into earlier rows that a row takes depend on its leading
    # exponents only up to the largest each offset has
    reach = [max((h[j] for h, *_ in across), default=0) for j in range(d - 1)]
    takes = {}
    rows = itertools.product(*(range(b + 1) for b in bounds[:-1]))
    for base, lead in zip(range(0, len(E), width), rows):
        row = E[base:base + width]
        key = tuple(map(min, lead, reach))
        if key not in takes:
            takes[key] = [(t, shift, w) for head, t, shift, w in across
                          if all(x <= y for x, y in zip(head, key))]
        for t, shift, w in takes[key]:  # offsets into earlier rows, a row at once
            src = base + shift  # the source of the row's cell t
            row[t:] = [x - w * y for x, y in zip(row[t:], E[src:src + width - t])]
        for i in range(1, width) if along else ():  # offsets along the row
            x = row[i]
            for t, w in along:
                if t <= i:
                    x -= w * row[i - t]
            row[i] = x
        E[base:base + width] = row
    return CoeffTable(bounds=bounds, numerators=E, qpow=qpow)
