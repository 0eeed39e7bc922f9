"""Ground truth: exact Maclaurin coefficients.

The coefficient oracle divides ``G_num`` by one factor at a time: by
``G_den`` when there is one, then by ``H``, p times.  The product of the
factors is never formed.  Each stage clears its own denominators: with ``L``
the lcm of its factor's coefficient denominators, ``f' = L f`` has integer
(or Gaussian-integer) coefficients ``c'_e`` and ``q = f'(0)``.  With ``Q``
the product of the earlier stages' ``q``, a stage turns the numerators ``A``
of its input into those of its output by

    B_beta = L q^{|beta|} A_beta - sum_{e != 0} c'_e Q^{|e|} q^{|e|-1} B_{beta-e}.

The first stage's input is ``L_0 G_num``, ``L_0`` the lcm of ``G_num``'s
denominators, so after the last stage every cell holds the numerator
``E_beta = s Q^{|beta|} F_beta`` with ``s = L_0 Q`` and ``Q`` the product of
every stage's ``q``: no cell ever needs a gcd.

Every stencil offset ``e`` is nonnegative and nonzero, so ``beta - e`` comes
before ``beta`` in row-major order.  A row is the last variable, the others
fixed.  The box is swept one row at a time in Python ints, and each row
passes through every stage before the next row starts.  A stage keeps only
the rows of its output that its stencil still reaches (one row for Delannoy,
one plane for the three-variable Smirnov specs), and only the cells the
caller asked for leave the sweep, as ``Fraction`` (or ``GaussRat``) values.
The tests check the cells against an independent geometric-series expansion
and against the exact residual of the recurrence.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import add, index, le, mul, sub

from .series import GaussRat


class OracleError(ValueError):
    pass


@dataclass(eq=False)
class CoeffTable:
    """Exact Maclaurin coefficients of G/H^p at the requested cells.

    ``bounds`` is the swept box, the componentwise maximum of the cells;
    ``values`` maps each requested cell to its ``Fraction`` (or ``GaussRat``).
    """

    bounds: tuple  # per-variable maximum exponent, inclusive
    values: dict

    def coeff_at(self, beta):
        beta = tuple(int(b) for b in beta)
        if len(beta) != len(self.bounds) or any(
            b < 0 or b > m for b, m in zip(beta, self.bounds)
        ):
            raise OracleError(f"index {beta} outside the computed box {self.bounds}")
        if beta not in self.values:
            raise OracleError(f"index {beta} was not requested")
        return self.values[beta]


def _cleared(c, scale):
    """``scale * c`` for an exact coefficient, as an int or a GaussRat."""
    c = c * scale
    return c if isinstance(c, GaussRat) else int(c)


def _denominators(c):
    if isinstance(c, GaussRat):
        return (c.re.denominator, c.im.denominator)
    return (c.denominator,)


def _lcm_of_denominators(P):
    return math.lcm(*(den for c in P.terms.values() for den in _denominators(c)))


def _powers(x, count, first=1):
    """``[first, first*x, ..., first*x^(count-1)]``; ``GaussRat`` has no ``**``."""
    return list(itertools.accumulate(itertools.repeat(x, count - 1), mul, initial=first))


class _Stage:
    """Division by one factor ``f``, one row at a time (see the module
    docstring); ``Q`` is the product of the earlier stages' ``q``."""

    def __init__(self, f, Q, bounds):
        L = _lcm_of_denominators(f)
        self.q = q = _cleared(f.constant_term(), L)
        # L q^k for every |beta| in the box; None when every one is 1
        self.scale = None if L == 1 and q == 1 else _powers(q, sum(bounds) + 1, L)
        offsets = [e for e in f.terms if any(e) and all(map(le, e, bounds))]
        # c'_e Q^{|e|} q^{|e|-1} = c'_e Q (Qq)^{|e|-1}
        step = _powers(Q * q, max(map(sum, offsets), default=1))
        weight = {e: _cleared(f.terms[e], L) * Q * step[sum(e) - 1] for e in offsets}
        # rows back from a row to the row of its leading exponents minus head
        strides = [math.prod(b + 1 for b in bounds[j + 1:-1])
                   for j in range(len(bounds) - 1)]
        self.along = [(e[-1], weight[e]) for e in offsets if not any(e[:-1])]
        self.across = [(e[:-1], sum(map(mul, e[:-1], strides)), e[-1], weight[e])
                       for e in offsets if any(e[:-1])]
        # the offsets into earlier rows that a row takes depend on its leading
        # exponents only up to the largest each offset has
        self.reach = [max((head[j] for head, *_ in self.across), default=0)
                      for j in range(len(bounds) - 1)]
        self.takes = {}
        self.rows = deque(maxlen=max((back for _, back, *_ in self.across), default=0))
        self.width = bounds[-1] + 1

    def divide(self, row, lead):
        """This stage's output row at leading exponents ``lead``.

        ``row`` is the input row already scaled by ``L q^{|beta|}``, or None
        for a row of zeros; every offset is applied to it in place, and it is
        kept while the stencil still reaches it.
        """
        key = tuple(map(min, lead, self.reach))
        takes = self.takes.get(key)
        if takes is None:
            takes = self.takes[key] = [(back, t, w) for head, back, t, w in self.across
                                       if all(map(le, head, key))]
        rows = self.rows
        for back, t, w in takes:
            src = rows[-back]  # the source of the row's cell t
            if row is None:
                if t == 0 and w == -1:  # zeros plus the source
                    row = src.copy()
                    continue
                row = [0] * self.width
            if w == 1:
                row[t:] = map(sub, row[t:], src)
            elif w == -1:
                row[t:] = map(add, row[t:], src)
            else:
                row[t:] = map(sub, row[t:], map(mul, itertools.repeat(w), src))
        if row is None:
            row = [0] * self.width
        along = self.along
        if len(along) == 1 and along[0][0] == 1:
            w = along[0][1]
            row[:] = itertools.accumulate(row, add if w == -1 else lambda b, x: x - w * b)
        elif along:
            for i in range(1, len(row)):
                x = row[i]
                for t, w in along:
                    if t <= i:
                        x -= w * row[i - t]
                row[i] = x
        rows.append(row)
        return row


def _cells(cells, d):
    """The requested cells as int tuples, each of length ``d``."""
    try:
        cells = [tuple(map(index, cell)) for cell in cells]
    except TypeError:
        raise OracleError("cells must be a list of tuples of integer exponents, "
                          "e.g. [(6, 4)], not one bounds tuple") from None
    if not cells:
        raise OracleError("no cells requested")
    for cell in cells:
        if len(cell) != d or min(cell) < 0:
            raise OracleError(f"cell {cell} is not {d} nonnegative exponents")
    return cells


def maclaurin_table(G_num, H, p, cells, G_den=None):
    """Exact coefficients of ``G_num / (G_den * H^p)`` at the given cells.

    Swept stage by stage and row by row over the componentwise maximum of the
    cells (see the module docstring); requires ``H(0) != 0`` and
    ``G_den(0) != 0``.
    """
    d = H.nvars
    cells = _cells(cells, d)
    bounds = tuple(map(max, zip(*cells)))
    if G_num.nvars != d:
        raise OracleError("numerator nvars mismatch")
    if not H.constant_term():
        raise OracleError("H(0) = 0: the origin lies on the variety")
    factors = [H] * p
    if G_den is not None:
        if G_den.nvars != d:
            raise OracleError("denominator nvars mismatch")
        if not G_den.constant_term():
            raise OracleError("G denominator vanishes at the origin")
        factors.insert(0, G_den)

    stages, Q = [], 1
    for f in factors:
        stages.append(_Stage(f, Q, bounds))
        Q = Q * stages[-1].q
    L0 = _lcm_of_denominators(G_num)
    first, later = stages[0], stages[1:]
    # the first stage's input, scaled: the terms of G_num in the box, by row
    seeds = {}
    for e, c in G_num.terms.items():
        if all(map(le, e, bounds)):
            a = _cleared(c, L0)
            seeds.setdefault(e[:-1], []).append(
                (e[-1], a * first.scale[sum(e)] if first.scale else a))
    wanted = {}
    for cell in cells:
        wanted.setdefault(cell[:-1], []).append(cell[-1])
    # s Q^{|beta|} for every |beta| up to the largest cell's
    dens = _powers(Q, max(map(sum, cells)) + 1, L0 * Q)

    width = bounds[-1] + 1
    values = {}
    for lead in itertools.product(*(range(b + 1) for b in bounds[:-1])):
        row = None
        if lead in seeds:
            row = [0] * width
            for t, a in seeds[lead]:
                row[t] = a
        row = first.divide(row, lead)
        level = sum(lead)
        for stage in later:
            scale = stage.scale
            row = stage.divide(list(map(mul, row, scale[level:level + width]))
                               if scale else row.copy(), lead)
        for t in wanted.get(lead, ()):
            num, den = row[t], dens[level + t]
            if not num:
                values[lead + (t,)] = Fraction(0)
            else:
                values[lead + (t,)] = (num / den if isinstance(num, GaussRat)
                                       else Fraction(num) / den)
    return CoeffTable(bounds=bounds, values=values)
