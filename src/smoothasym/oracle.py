"""Ground truth: exact Maclaurin coefficients.

``maclaurin_table`` takes one of two paths; both give the same exact values.

**Elimination**, O(n^(d-1)) per cell of a ray ``n alpha``.  It runs when
there is no ``G_den``, ``H`` has rational coefficients and degree 1 in some
variable ``z``, and ``H = A(x') + B(x') z`` with ``B = x'^v B~`` and
``B~(0) != 0`` (which fails only for some ``B`` in three or more variables).
Of those variables it takes the one with the largest bound.  Then

    H^-p = sum_k (-1)^k C(p+k-1, k) B^k A^-(p+k) z^k,

so a cell ``(beta', c)`` is ``sum_(e,j) g_(e,j) (-1)^k C(p+k-1, k)
[x'^(beta'-e-kv)] T_k`` over the terms ``g_(e,j) x'^e z^j`` of ``G_num``,
with ``k = c - j`` and ``T_k = B~^k A^-(p+k)``.  One sweep of the
(d-1)-box of ``x'`` computes ``T_k`` by the Euler-operator recurrence
(J.C.P. Miller's for powers of a series; Knuth, TAOCP vol. 2, 4.7): with
``E = sum x_i d/dx_i``, ``P = A B~`` and ``R = k A E(B~) - (p+k) B~ E(A)``,
``P E(T_k) = R T_k``, so

    P_0 |g| T_g = sum_(e != 0) (R_e - (|g| - |e|) P_e) T_(g-e).

The recurrence runs on ``A' = L_A A`` and ``B' = L_B B~``, cleared to
integer polynomials, whose series ``T'_k = B'^k A'^-(p+k)`` is
``T_k L_B^k / L_A^(p+k)``.  The coefficient of ``x'^g`` in ``A'^-1`` is an
integer over ``A'(0)^(|g|+1)``, so with ``Q = P'(0)`` the numerators
``U_g = Q^|g| A'(0)^(p+k) T'_g`` are integers, ``U_0 = B'(0)^k``, and the
division by ``|g|`` is exact.  One ``T_k`` serves every cell with that
``k``, and each is swept only as far as its cells read, so a whole-box
request still costs O(box), and only the (d-1)-box of one ``T_k`` is held
at a time.

**Staged sweep**, O(n^d): every other input (a ``G_den``, no variable of
degree 1, ``B~(0) = 0``, or a Gaussian-rational ``H``).  It divides
``G_num`` by one factor at a time: by ``G_den`` when there is one, then by
``H``, p times.  The product of the factors is never formed.  Each stage
clears its own denominators: with ``L`` the lcm of its factor's coefficient
denominators, ``f' = L f`` has integer (or Gaussian-integer) coefficients
``c'_e`` and ``q = f'(0)``.  With ``Q`` the product of the earlier stages'
``q``, a stage turns the numerators ``A`` of its input into those of its
output by

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
one plane for the three-variable Smirnov specs).

On either path only the cells the caller asked for leave as ``Fraction``
values, or ``GaussRat`` where the imaginary part is nonzero.  The tests
check both paths against each other, against an independent
geometric-series expansion and against the exact residual of the
recurrence.
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

    ``bounds`` is the componentwise maximum of the cells: the box the staged
    sweep covers, and on the elimination path the box whose (d-1)-dimensional
    faces bound each ``T_k``; ``values`` maps each requested cell to its
    ``Fraction`` (or ``GaussRat``).
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


def _product(P, R):
    """The product of two polynomials held as ``{exponent: int}``."""
    out = {}
    for e, a in P.items():
        for f, b in R.items():
            g = tuple(map(add, e, f))
            out[g] = out.get(g, 0) + a * b
    return out


def _euler(P):
    """``E(P) = sum x_i dP/dx_i``: each term times its total degree."""
    return {e: sum(e) * c for e, c in P.items()}


def _linear_variable(H, bounds):
    """The variable the elimination path takes in closed form, or None.

    Among the variables in which a rational ``H`` has degree 1 and whose
    ``B`` has a term ``x'^v`` dividing all its others (so ``B~(0) != 0``), the
    one with the largest bound, the first on ties.
    """
    if any(isinstance(c, GaussRat) for c in H.terms.values()):
        return None
    best = None
    for m in range(H.nvars):
        if max(e[m] for e in H.terms) != 1:
            continue
        B = [e[:m] + e[m + 1:] for e in H.terms if e[m]]
        if tuple(map(min, zip(*B))) in B and (best is None or bounds[m] > bounds[best]):
            best = m
    return best


def _miller(P, R, u0, hs):
    """``U_h`` at each ``h`` of ``hs``, where ``T`` solves ``P E(T) = R T``
    with ``R(0) = 0`` and ``U_g = Q^|g| T_g / T_0 * u0``, ``Q = P(0)``.

    ``P`` and ``R`` hold integers, and the caller picks ``u0`` so that every
    ``U_g`` is an integer; then ``|g| U_g = S1 - |g| S2`` with
    ``S1 = sum_e (R_e + |e| P_e) Q^(|e|-1) U_(g-e)`` and
    ``S2 = sum_e P_e Q^(|e|-1) U_(g-e)``, so ``S1 // |g|`` is exact.  The box
    up to ``hs`` is swept in row-major order, padded in front by the reach
    of the stencil so that every offset reads a zero outside it.
    """
    box = tuple(map(max, zip(*hs)))
    if not box:  # one variable: T is a constant
        return [u0] * len(hs)
    Q = P[(0,) * len(box)]
    offsets = [e for e in P.keys() | R.keys() if any(e) and all(map(le, e, box))]
    reach = [max((e[i] for e in offsets), default=0) for i in range(len(box))]
    dims = list(map(add, box, (r + 1 for r in reach)))
    strides = [math.prod(dims[i + 1:]) for i in range(len(box))]

    def at(g):
        return sum(map(mul, map(add, g, reach), strides))

    step = _powers(Q, max(map(sum, offsets), default=1))  # Q^(|e|-1)
    stencil = [(sum(map(mul, e, strides)),
                (R.get(e, 0) + sum(e) * P.get(e, 0)) * step[sum(e) - 1],
                P.get(e, 0) * step[sum(e) - 1]) for e in offsets]
    stencil = [term for term in stencil if term[1] or term[2]]
    U = [0] * math.prod(dims)
    width = box[-1] + 1
    for lead in itertools.product(*(range(b + 1) for b in box[:-1])):
        base, level = at(lead + (0,)), sum(lead)
        if not level:
            U[base] = u0
        for i in range(base + (not level), base + width):
            s1 = s2 = 0
            for off, a, b in stencil:
                u = U[i - off]
                if u:
                    s1 += a * u
                    s2 += b * u
            U[i] = s1 // (level + i - base) - s2
    return [U[at(h)] for h in hs]


def _eliminate(G_num, H, p, cells, m):
    """The elimination path (see the module docstring), with ``z`` the
    variable ``m``; returns the value of each (checked) cell."""
    def split(e):
        return e[:m] + e[m + 1:], e[m]

    A, B = {}, {}
    for e, c in H.terms.items():
        rest, j = split(e)
        (B if j else A)[rest] = c
    v = tuple(map(min, zip(*B)))
    B = {tuple(map(sub, e, v)): c for e, c in B.items()}
    LA, LB = (math.lcm(*(c.denominator for c in f.values())) for f in (A, B))
    A = {e: int(c * LA) for e, c in A.items()}
    B = {e: int(c * LB) for e, c in B.items()}
    zero = (0,) * (H.nvars - 1)
    a0, b0 = A[zero], B[zero]
    Q = a0 * b0
    P, AEB, BEA = _product(A, B), _product(A, _euler(B)), _product(B, _euler(A))

    values = dict.fromkeys(cells, Fraction(0))
    # k -> the (cell, h, g_(e,j)) that read [x'^h] T_k, h = beta' - e - k v
    reads = {}
    for cell in values:
        rest, c = split(cell)
        for e, g in G_num.terms.items():
            erest, j = split(e)
            k = c - j
            h = tuple(map(sub, map(sub, rest, erest), (k * t for t in v)))
            if k >= 0 and min(h, default=0) >= 0:
                reads.setdefault(k, []).append((cell, h, g))

    for k, group in reads.items():
        R = {e: k * AEB.get(e, 0) - (p + k) * BEA.get(e, 0)
             for e in AEB.keys() | BEA.keys()}
        hs = [h for _, h, _ in group]
        # (-1)^k C(p+k-1, k) T_k[h] = top U_h / (bottom Q^|h|)
        top = (-1) ** k * math.comb(p + k - 1, k) * LA ** (p + k)
        bottom = LB**k * a0 ** (p + k)
        for (cell, h, g), u in zip(group, _miller(P, R, b0**k, hs)):
            if u:  # a GaussRat sum whose imaginary part cancels is a Fraction
                values[cell] += g * Fraction(top * u, bottom * Q ** sum(h))
    return values


def maclaurin_table(G_num, H, p, cells, G_den=None):
    """Exact coefficients of ``G_num / (G_den * H^p)`` at the given cells.

    By elimination of one variable when ``G_den`` is None and ``H`` is
    rational and linear in a variable whose coefficient ``B~(0) != 0``, else
    by the staged sweep over the componentwise maximum of the cells (see the
    module docstring); requires ``H(0) != 0`` and ``G_den(0) != 0``.
    """
    d = H.nvars
    cells = _cells(cells, d)
    if G_num.nvars != d:
        raise OracleError("numerator nvars mismatch")
    if not H.constant_term():
        raise OracleError("H(0) = 0: the origin lies on the variety")
    if G_den is not None:
        if G_den.nvars != d:
            raise OracleError("denominator nvars mismatch")
        if not G_den.constant_term():
            raise OracleError("G denominator vanishes at the origin")
        return _sweep(G_num, H, p, cells, G_den)
    bounds = tuple(map(max, zip(*cells)))
    m = _linear_variable(H, bounds)
    if m is None:
        return _sweep(G_num, H, p, cells)
    return CoeffTable(bounds=bounds, values=_eliminate(G_num, H, p, cells, m))


def _sweep(G_num, H, p, cells, G_den=None):
    """The staged sweep: stage by stage and row by row over the
    componentwise maximum of the (checked) cells."""
    bounds = tuple(map(max, zip(*cells)))
    factors = [H] * p if G_den is None else [G_den] + [H] * p

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
