"""Assemble term functionals into evaluable asymptotic expansions.

An expansion holds the per-point exponential base ``c^(-n alpha)``, the
structured (j, k) terms with their rising-factorial weights, and a flattened
form: coefficients against powers of n with strictly decreasing exponents,
truncated at the error order the underlying theorem guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mp, mpc, mpf

from .geometry import Direction, check_smooth
from .localframe import amplitude_jets, frame_order
from .series import Jet, coef_to_mpc, complex_to_json
from .stationary import (
    OrderBudgetError,
    PhaseData,
    branch_root,
    det_inv_sqrt,
    stationary_term,
    stationary_term_even,
    stationary_term_odd,
)

DEGENERACY_GATE = mpf("1e-10")


class ExpansionError(ValueError):
    pass


class DegenerateHessianError(ExpansionError):
    """Nondegenerate path requested but the phase Hessian is singular."""


def rising_factorial_poly(shift, length):
    """Coefficients (by power of y) of ``(y+shift)(y+shift+1)...``, ``length``
    factors; the empty product is 1."""
    coeffs = [Fraction(1)]
    for i in range(length):
        c = shift + i
        coeffs = [Fraction(0)] + coeffs
        coeffs = [coeffs[j] + (c * coeffs[j + 1] if j + 1 < len(coeffs) else 0)
                  for j in range(len(coeffs))]
    return coeffs  # coeffs[i] multiplies y^i


@dataclass
class FlatSeries:
    """Descending power series in n: sum of coef * n^exponent terms.

    ``error_exponent`` is the O(n^e) order of what was dropped; ``None`` means
    the series is exact up to an exponentially small remainder.
    """

    terms: list  # [(Fraction exponent, mpc coefficient)], descending
    error_exponent: Fraction = None

    def __post_init__(self):
        self.terms = sorted(
            ((Fraction(e), mpc(c)) for e, c in self.terms), key=lambda t: -t[0]
        )

    def evaluate(self, n):
        total = mpc(0)
        for e, c in self.terms:
            total += c * mpf(n) ** (mpf(e.numerator) / e.denominator)
        return total

    def leading(self):
        if not self.terms:
            raise ExpansionError("empty series")
        return self.terms[0]

    def coefficient(self, exponent):
        exponent = Fraction(exponent)
        for e, c in self.terms:
            if e == exponent:
                return c
        return mpc(0)

    def truncated(self, count):
        return FlatSeries(self.terms[:count], error_exponent=(
            self.terms[count][0] if count < len(self.terms) else self.error_exponent))

    def to_json(self):
        return {
            "terms": [
                {"exponent": str(e), "coef": complex_to_json(c)} for e, c in self.terms
            ],
            "error_exponent": None
            if self.error_exponent is None
            else str(self.error_exponent),
        }


@dataclass
class Expansion:
    """Asymptotic expansion of the coefficients along one direction."""

    kind: str  # smooth | degenerate-even | degenerate-odd | univariate | combined
    base_point: tuple  # the critical point, original variable order not needed
    direction: Direction
    p: int
    N: int
    structured: list  # per-(j, k) term records
    flattened: FlatSeries
    dropped: FlatSeries  # flatten contributions at or below the error order
    error_exponent: Fraction  # None for exact-to-exponential kinds
    meta: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def base_magnitude(self):
        return self.direction.base_magnitude(self.base_point)

    def base_power(self, n):
        """``c^(-n alpha)`` for an admissible integer-index n."""
        idx = self.direction.index_for(n)
        out = mpc(1)
        for z, e in zip(self.base_point, idx):
            out *= mpc(z) ** (-e)
        return out

    def evaluate(self, n, terms=None):
        """(value, first-dropped-term magnitude estimate) at index n.

        ``terms`` limits the flattened sum to its leading entries, e.g.
        ``terms=1`` evaluates the one-term approximation.
        """
        if self.kind == "combined":
            vals = [child.evaluate(n, terms=terms) for child in self.children]
            return sum(v for v, _ in vals), sum(e for _, e in vals)
        if n < 1:
            raise ExpansionError("evaluation index must be a positive integer")
        if not self.direction.n_is_integral(n):
            raise ExpansionError(
                f"n={n} gives a non-integral coefficient index for this direction"
            )
        series = self.flattened if terms is None else self.flattened.truncated(terms)
        base = self.base_power(n)
        value = base * series.evaluate(n)
        estimate = mpf(0)
        if terms is not None and terms < len(self.flattened.terms):
            e, c = self.flattened.terms[terms]
            estimate = abs(base) * abs(c) * mpf(n) ** (mpf(e.numerator) / e.denominator)
        elif self.dropped.terms:
            e, c = self.dropped.terms[0]
            estimate = abs(base) * abs(c) * mpf(n) ** (mpf(e.numerator) / e.denominator)
        return value, estimate

    def to_json(self):
        out = {
            "kind": self.kind,
            "point": [complex_to_json(z) for z in self.base_point],
            "alpha": [str(a) for a in self.direction.alpha],
            "p": self.p,
            "N": self.N,
            "base_magnitude": mp.nstr(self.base_magnitude(), 20),
            "flattened": self.flattened.to_json(),
            "error_exponent": None
            if self.error_exponent is None
            else str(self.error_exponent),
            "meta": {k: str(v) for k, v in self.meta.items()},
        }
        if self.children:
            out["children"] = [c.to_json() for c in self.children]
        return out


def _flatten(records, alpha_d, error_exponent):
    """Collect structured records into powers of n.

    Each record contributes ``weight * term`` (the weight already carries the
    constant prefactor) against ``y^(i + y_exponent)`` for every power i of
    its rising factorial, where ``y = alpha_d n``; y-powers are then converted
    to n-powers.  Terms at or below the error exponent go to the dropped
    bucket.
    """
    acc = {}
    for rec in records:
        rf = rising_factorial_poly(Fraction(1), rec["rising"])
        for i, ci in enumerate(rf):
            if ci == 0:
                continue
            e = Fraction(i) + rec["y_exponent"]
            val = rec["weight"] * rec["term"] * coef_to_mpc(ci)
            acc[e] = acc.get(e, mpc(0)) + val
    kept, dropped = {}, {}
    for e, val in acc.items():
        # convert y^e = (alpha_d n)^e into n^e
        scale = mpf(alpha_d.numerator) / alpha_d.denominator
        val = val * scale ** (mpf(e.numerator) / e.denominator)
        if error_exponent is not None and e <= error_exponent:
            dropped[e] = dropped.get(e, mpc(0)) + val
        else:
            kept[e] = kept.get(e, mpc(0)) + val
    return (
        FlatSeries(list(kept.items()), error_exponent=error_exponent),
        FlatSeries(list(dropped.items()), error_exponent=None),
    )


def _assemble(frame, kind, N, term, phase, pref, y_exponent, error_exponent, meta):
    """Expansion from the term functional ``term(u, phase, k)`` of every
    amplitude u.

    Record (j, k) carries ``pref / ((p-1-j)! j!)`` as its weight, ``p-1-j``
    rising-factorial factors and ``y_exponent(k)``.
    """
    alpha_d = frame.direction.alpha[-1]
    p = frame.p
    records = []
    for j in range(p):
        u = frame.amplitudes[j]
        for k in range(N):
            records.append(
                {
                    "j": j,
                    "k": k,
                    "term": term(u, phase, k),
                    "weight": pref / (math.factorial(p - 1 - j) * math.factorial(j)),
                    "rising": p - 1 - j,
                    "y_exponent": y_exponent(k),
                }
            )
    flattened, dropped = _flatten(records, alpha_d, error_exponent)
    return Expansion(
        kind=kind,
        base_point=frame.point,
        direction=frame.direction,
        p=p,
        N=N,
        structured=records,
        flattened=flattened,
        dropped=dropped,
        error_exponent=error_exponent,
        meta={"alpha_d": alpha_d, **meta, "reordering": frame.reordering},
    )


def _check_terms(frame, N, v=None):
    """N must be at least 1 and at most the terms the amplitudes were built
    for, and the frame's order at least ``frame_order(N, v)`` of the route:
    otherwise a term would read coefficients the frame does not hold."""
    if N < 1:
        raise ExpansionError("need at least one term")
    if N > frame.terms:
        raise OrderBudgetError(
            f"{N} terms asked of a frame whose amplitudes serve {frame.terms}"
        )
    if frame.order < frame_order(N, v):
        raise ExpansionError(f"frame order {frame.order} below the {frame_order(N, v)} "
                             f"required for N={N}, v={v}")


def expand_smooth(frame, N):
    """Nondegenerate expansion at a smooth minimal critical point, N terms."""
    _check_terms(frame, N)
    d = frame.d
    if d < 2:
        raise ExpansionError("use the univariate path for one variable")
    det = frame.hessian_det()
    hscale = max(
        max(abs(frame.hessian[i, j]) for i in range(d - 1) for j in range(d - 1)),
        mpf(1),
    )
    if abs(det) <= DEGENERACY_GATE * hscale ** (d - 1):
        raise DegenerateHessianError(
            "phase Hessian is singular at the critical point"
        )
    phase = PhaseData.nondegenerate(frame.phase, frame.hessian, N)
    return _assemble(
        frame,
        "smooth",
        N,
        stationary_term,
        phase,
        pref=(2 * mp.pi) ** (-mpf(d - 1) / 2) * det_inv_sqrt(frame.hessian),
        y_exponent=lambda k: -(Fraction(d - 1, 2) + k),
        error_exponent=Fraction(frame.p - 1) - Fraction(d - 1, 2) - N,
        meta={"det": det},
    )


def expand_degenerate(frame, N, v):
    """Degenerate (two-variable) expansion with vanishing order v, N terms."""
    _check_terms(frame, N, v)
    if frame.d != 2:
        raise ExpansionError("degenerate expansions require exactly two variables")
    parity = "even" if v % 2 == 0 else "odd"
    phase = PhaseData.degenerate(frame.phase, v, N)
    if parity == "even":
        term, step = stationary_term_even, 2
        pref = branch_root(phase.a, v) / (mp.pi * v)
    else:
        term, step = stationary_term_odd, 1
        pref = abs(mpc(phase.a)) ** (mpf(-1) / v) / (2 * mp.pi * v)
    return _assemble(
        frame,
        f"degenerate-{parity}",
        N,
        term,
        phase,
        pref=pref,
        y_exponent=lambda k: -(Fraction(1, v) + Fraction(step * k, v)),
        error_exponent=Fraction(frame.p - 1) - Fraction(step * N + 1, v),
        meta={"v": v, "a": phase.a},
    )


def expand_univariate(G_num, H, p, point, G_den=None, direction=None):
    """One-variable expansion: exact up to an exponentially small remainder.

    The amplitudes are constants; the result is a polynomial in the
    coefficient index against the base ``c^{-n alpha_1}`` (``direction``
    defaults to index steps of one).  ``check_smooth`` judges the point,
    and raises ``GeometryError`` when it is not on the variety.
    """
    if H.nvars != 1:
        raise ExpansionError("univariate path requires one variable")
    direction = direction or Direction((1,))
    a1 = direction.alpha[0]
    c = mpc(point[0] if isinstance(point, (tuple, list)) else point)
    if not check_smooth(H, (c,))[0]:
        raise ExpansionError("point is not a smooth (simple) zero")
    # the residue at x = c is the frame with no torus variables
    amps, _ = amplitude_jets(G_num, H, p, (c,), Jet(0, p, (), {(): c}), 1, 1, G_den=G_den)
    records = [
        {
            "j": j,
            "k": 0,
            "term": amps[j].constant_coefficient(),
            "weight": mpf(1) / (math.factorial(p - 1 - j) * math.factorial(j)),
            "rising": p - 1 - j,
            "y_exponent": Fraction(0),
        }
        for j in range(p)
    ]
    flattened, dropped = _flatten(records, a1, None)
    return Expansion(
        kind="univariate",
        base_point=(c,),
        direction=direction,
        p=p,
        N=p,
        structured=records,
        flattened=flattened,
        dropped=dropped,
        error_exponent=None,
        meta={"alpha_d": a1},
    )


def combine_expansions(expansions):
    """Sum of expansions around the points sharing one minimal polycircle."""
    if not expansions:
        raise ExpansionError("nothing to combine")
    if len(expansions) == 1:
        return expansions[0]
    first = expansions[0]
    mag = first.base_magnitude()
    for e in expansions[1:]:
        if e.direction.alpha != first.direction.alpha:
            raise ExpansionError("combined expansions must share the direction")
        if abs(e.base_magnitude() - mag) > mpf("1e-9") * mag:
            raise ExpansionError("combined expansions must share the base magnitude")
    for i, e1 in enumerate(expansions):
        for e2 in expansions[i + 1 :]:
            dist = max(abs(a - b) for a, b in zip(e1.base_point, e2.base_point))
            if dist < mpf("1e-9") * max(mag, mpf(1)):
                raise ExpansionError("duplicate expansion points in combination")
    errs = [e.error_exponent for e in expansions if e.error_exponent is not None]
    return Expansion(
        kind="combined",
        base_point=first.base_point,
        direction=first.direction,
        p=first.p,
        N=first.N,
        structured=[],
        flattened=FlatSeries([]),
        dropped=FlatSeries([]),
        error_exponent=max(errs) if errs else None,
        children=list(expansions),
    )


def _common_step(exponents):
    exps = sorted(set(exponents), reverse=True)
    if len(exps) < 2:
        return Fraction(1)
    step = None
    for a, b in zip(exps, exps[1:]):
        gap = a - b
        step = gap if step is None else Fraction(
            math.gcd(step.numerator * gap.denominator, gap.numerator * step.denominator),
            step.denominator * gap.denominator,
        )
    return step


def ratio_asymptotics(numer, denom, N):
    """Asymptotics of the termwise ratio of two expansions over the same base.

    Returns a FlatSeries in descending powers of n, truncated at N terms or at
    the order where either input's own error takes over, whichever is sooner.
    """
    if isinstance(numer, Expansion):
        _check_same_base(numer, denom)
        num_f, den_f = numer.flattened, denom.flattened
    else:
        num_f, den_f = numer, denom
    if not num_f.terms or not den_f.terms:
        raise ExpansionError("ratio needs nonempty series")
    p0, a0 = num_f.leading()
    q0, b0 = den_f.leading()
    if abs(b0) == 0:
        raise ExpansionError("denominator has zero leading coefficient")
    step = _common_step(
        [e for e, _ in num_f.terms]
        + [e for e, _ in den_f.terms]
        + ([num_f.error_exponent] if num_f.error_exponent is not None else [])
        + ([den_f.error_exponent] if den_f.error_exponent is not None else [])
    )
    # valid term count limited by each input's own error order
    limit = N
    for f, lead in ((num_f, p0), (den_f, q0)):
        if f.error_exponent is not None:
            limit = min(limit, int((lead - f.error_exponent) / step))
    if limit < 1:
        raise ExpansionError("inputs carry no usable common terms")

    def slot(f, lead, i):
        return f.coefficient(lead - i * step)

    a = [slot(num_f, p0, i) for i in range(limit)]
    b = [slot(den_f, q0, i) for i in range(limit)]
    q = []
    for i in range(limit):
        s = a[i]
        for m in range(i):
            s -= q[m] * b[i - m]
        q.append(s / b0)
    terms = [(p0 - q0 - i * step, q[i]) for i in range(limit)]
    return FlatSeries(terms, error_exponent=p0 - q0 - limit * step)


def _check_same_base(numer, denom):
    if numer.direction.alpha != denom.direction.alpha:
        raise ExpansionError("ratio requires a common direction")
    for a, b in zip(numer.base_point, denom.base_point):
        if abs(a - b) > mpf("1e-9") * max(abs(a), mpf(1)):
            raise ExpansionError("ratio requires a common base point")
