"""Exact sparse polynomials and truncated multivariate Taylor (jet) arithmetic.

Polynomials carry exact rational (or Gaussian-rational) coefficients and are
the only accepted input format.  Jets are truncated Taylor expansions at a
point with arbitrary-precision complex (``mpc``) coefficients, and are the
substrate for every derivative computed downstream.  Jet coefficients are
Taylor coefficients, i.e. the coefficient of ``(x-c)^beta`` is
``d^beta f(c) / beta!``.

Every jet product runs through one coefficient loop, ``Jet._product``, which
``__mul__`` and ``mul_degree`` share.  Its invariants:

- The operand with fewer coefficients is the outer loop; on a tie ``self``
  is.  The inner operand keeps its own order.
- Each output coefficient sums its pairs in outer-loop order: the first
  product is stored, each later one is added to the running sum.
- Output keys appear in the order in which the loops first reach them.
- Coefficients that sum to an exact zero are dropped.

The loop works on the raw ``_mpc_`` pairs with ``mpmath.libmp``: ``mpf_mul``
without rounding, then ``mpf_sub``/``mpf_add`` at the context's precision and
rounding, read once per product.  That is exactly what ``mpc.__mul__`` and
``mpc.__add__`` do, so each coefficient is bit-identical to the one the same
loop over ``mpc`` objects gives.  ``Jet.__add__`` and the zero filter of
``Jet.__init__`` work on the same pairs.

A pair of pure coefficients, each real (imaginary part ``fzero``) or
imaginary (real part ``fzero``), finite and nonzero, lands in one part of its
cell, negated exactly by ``mpf_neg`` for imaginary times imaginary; a pair
with any other coefficient takes the four-multiply formula.  At a positive
real point, as in the combinatorial case, the jets are real and the circle
substitution makes every degree-``m`` coefficient ``i^m`` times a real, so
nearly every pair is pure.  The shortcut keeps ``mpc``'s bits: there the
pair's zero parts contribute ``fzero``, which leaves a rounded sum as it is,
and its nonzero part is one rounding of the same exact product.

A pure pair takes one call of ``_mul_add(s, x, y, prec)``, a new cell
starting from ``fzero``.  It returns ``mpf_add(s, mpf_mul(x, y, prec, rnd),
prec, rnd)`` bit for bit on plain Python ints: the branches of ``libmpf``'s
``mpf_mul`` and ``mpf_add`` for regular numbers, each rounded by
``normalize1``'s round-half-even test and trailing-zero strip.  It hands the
sum back to ``mpf_add`` where that takes another branch: an exponent gap over
100 bits, and an accumulator that is special (a zero mantissa that is not
``fzero``).  It assumes round-to-nearest, the only mode of mpmath's ``mp``
context.

The Horner chains (``reciprocal``, ``log``, ``substitute`` and
``power_chain``) compute each step only through the highest degree a later
step reads: a product over the window ``0..hi`` drops the pairs outside it,
and with the same outer operand every kept coefficient, its key and the key
order are exactly the full product's restricted to the window.  A windowed
operand has fewer coefficients than its full-order self, so it carries the
keys its full-order self has above the window (``Jet.above``), and
``_product`` picks the outer operand by the full-order sizes, in-window plus
above-window keys.  A windowed product records the sums of its operands'
full-order keys that land above ``hi`` within the order and caps, and
``__add__`` unions them; the terms a chain adds lie inside the window.  In
one variable a key is a function of its degree, so those sums are the
sumset of the operands' degree sets: an OR of one operand's degree mask (a
Python int with bit ``d`` set for each degree ``d``) shifted by each degree
of the other, cut to the degrees above ``hi`` through the order and cap.  In
more variables each key is added to the other operand's keys of the degrees
that land there, found by bisecting their sorted list.  That
count is the full chain's unless a coefficient above a window sums to an
exact zero, which only the full chain can see; then a product may loop over
the other operand, and its coefficients agree with the full chain's to
rounding.

A chain's result can itself be a window: ``reciprocal``, ``log``,
``pow_int``, ``substitute``, ``mul_through`` and ``jet_circle_substitute``
take the degree through which it is wanted, and accept windowed inputs
exact at least that far.  ``through`` cuts a jet to a window, and
``reindex`` is the one re-wrap that moves indices: it moves every
multi-index by one map, the above-window keys with it, into a jet of any
number of variables, order, center and caps, so that callers slice, shift
and truncate windows without seeing ``above``.  ``drop_through`` drops the
low degrees and hands the keys above the window on as they are, without
decoding them.  ``coefficient`` refuses an index a window lacks but its
full-order self holds, ``held_through`` gives the degree through which a
jet holds every coefficient of its full-order self, and ``same_bits``
compares two jets bit for bit, ``above`` included.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from fractions import Fraction
from itertools import count, islice
from operator import lshift

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    fzero, mpc_abs, mpc_add, mpc_mul, mpc_pow_int, mpf_add, mpf_mul, mpf_neg, mpf_pow_int,
    mpf_sub, round_nearest,
)

DEFAULT_BITS = 212


class SeriesError(ValueError):
    """Malformed polynomial/jet input or incompatible operands."""


class NonInvertibleJetError(SeriesError):
    """Jet has zero constant term where an invertible one is required."""


def check_precision(bits):
    """Reject a significand precision below double precision's 53 bits."""
    if bits < 53:
        raise SeriesError("precision must be at least 53 bits")


def json_int(value, name):
    """``int(value)``, refusing a bool or a number with a fractional part,
    which ``int`` would silently truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise SeriesError(f"{name}: {value!r} is not an integer")
    return int(value)


def parse_fraction(value):
    """``Fraction(value)``, reporting a zero denominator as malformed input."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise SeriesError(f"zero denominator in {value!r}") from None


def workprec(bits):
    """Context manager running mpmath at the given significand precision."""
    check_precision(bits)
    return mp.workprec(bits)


class GaussRat:
    """Exact Gaussian rational ``re + im*i``, components ``Fraction``."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussRat is immutable")

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return _gauss_or_frac(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return _gauss_or_frac(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        return _gauss_or_frac(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        if other is NotImplemented:
            return NotImplemented
        den = other.re * other.re + other.im * other.im
        if den == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return _gauss_or_frac(
            (self.re * other.re + self.im * other.im) / den,
            (self.im * other.re - self.re * other.im) / den,
        )

    def __rtruediv__(self, other):
        return _as_gauss(other) / self


def _as_gauss(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x, 0)
    return NotImplemented


def _gauss_or_frac(re, im):
    # collapse to Fraction whenever the imaginary part cancels
    return Fraction(re) if im == 0 else GaussRat(re, im)


def coef_to_mpc(c):
    """Exact coefficient (or number) -> mpc at the current working precision."""
    if isinstance(c, Fraction):
        return mpc(mpf(c.numerator) / mpf(c.denominator))
    if isinstance(c, GaussRat):
        return mpc(
            mpf(c.re.numerator) / mpf(c.re.denominator),
            mpf(c.im.numerator) / mpf(c.im.denominator),
        )
    return mpc(c)


def parse_coef(obj):
    """Parse a JSON coefficient: "num/den" string, int, or {"re","im"} pair."""
    if isinstance(obj, dict):
        return _gauss_or_frac(parse_rational(obj.get("re", 0)), parse_rational(obj.get("im", 0)))
    return parse_rational(obj)


def parse_rational(obj, name="coefficient"):
    """A JSON integer or ``"num/den"`` string as a ``Fraction``; a float or a
    boolean is malformed."""
    if isinstance(obj, str):
        return parse_fraction(obj)
    if isinstance(obj, int):
        return Fraction(json_int(obj, name))
    raise SeriesError(f"cannot parse {name} {obj!r}")


def complex_to_json(z):
    """Complex number as a ``{"re", "im"}`` pair of decimal strings, with the
    digits the working precision carries."""
    z = mpc(z)
    digits = int(mp.prec / 3.32) + 2
    return {"re": mp.nstr(z.real, digits), "im": mp.nstr(z.imag, digits)}


class SparsePoly:
    """Multivariate polynomial with exact coefficients, stored sparsely.

    ``terms`` maps exponent tuples (length ``nvars``, nonnegative) to nonzero
    ``Fraction`` or ``GaussRat`` coefficients.  A polynomial is not changed
    after it is built: ``eval``, ``coeff_bound`` and ``term_scale`` keep its
    coefficients converted at the precision of their last call.
    """

    __slots__ = ("nvars", "terms", "_prec", "_converted")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != self.nvars:
                raise SeriesError(f"exponent {exp} has wrong length")
            if any(e < 0 for e in exp):
                raise SeriesError(f"negative exponent in {exp}")
            if not isinstance(coef, (Fraction, GaussRat)):
                coef = Fraction(coef)
            if coef:
                clean[exp] = clean.get(exp, Fraction(0)) + coef
        self.terms = {e: c for e, c in clean.items() if c}
        self._prec = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, j):
        exp = [0] * nvars
        exp[j] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def from_json(cls, obj, nvars=None):
        """Parse ``[{"exp": [...], "coef": ...}, ...]`` (or a JSON string)."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, list):
            raise SeriesError("polynomial JSON must be a list of terms")
        terms = {}
        for item in obj:
            exp = tuple(json_int(e, "exponent") for e in item["exp"])
            if nvars is None:
                nvars = len(exp)
            coef = parse_coef(item["coef"])
            terms[exp] = terms.get(exp, Fraction(0)) + coef
        if nvars is None:
            raise SeriesError("empty polynomial JSON needs an explicit nvars")
        return cls(nvars, terms)

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SparsePoly):
            other = SparsePoly.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise SeriesError("nvars mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return SparsePoly(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussRat)):
            return SparsePoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        other = self._check(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return SparsePoly(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise SeriesError("polynomial powers must be nonnegative integers")
        result = SparsePoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"SparsePoly({self.nvars}, {self.terms!r})"

    def is_zero(self):
        return not self.terms

    # -- calculus / evaluation ----------------------------------------------

    def partial(self, j):
        terms = {}
        for e, c in self.terms.items():
            if e[j] == 0:
                continue
            ne = list(e)
            ne[j] -= 1
            terms[tuple(ne)] = c * e[j]
        return SparsePoly(self.nvars, terms)

    def _terms_at_prec(self):
        """``(coefficient, factors)`` per term, in ``terms`` order: the
        coefficient's raw ``_mpc_`` by ``coef_to_mpc`` at the current
        precision, and the pairs ``(j, k)`` of the exponent's nonzero entries
        ``k = e_j``.  Converted once per precision, and again whenever
        ``mp.prec`` differs from the precision of the last conversion."""
        if self._prec != mp.prec:
            self._converted = [
                (coef_to_mpc(c)._mpc_, tuple((j, k) for j, k in enumerate(e) if k))
                for e, c in self.terms.items()
            ]
            self._prec = mp.prec
        return self._converted

    def eval(self, point, powers=None):
        """Evaluate at a complex vector at the current working precision.

        Works on the raw ``_mpc_`` parts with ``mpmath.libmp``, as ``mpc``
        arithmetic does: ``mpc_pow_int`` for each power ``x_j ** k``,
        ``mpc_mul`` for each factor of a term in turn, and ``mpc_add`` for
        each term, from zero.  A ``powers`` dict passed to several calls at
        one point and precision is their shared table of ``x_j ** k``, keyed
        by ``(j, k)``.
        """
        prec, rnd = mp._prec_rounding
        x = [mpc(z)._mpc_ for z in point]
        if powers is None:
            powers = {}
        total = _ZERO_PAIR
        for term, factors in self._terms_at_prec():
            for f in factors:
                pk = powers.get(f)
                if pk is None:
                    pk = powers[f] = mpc_pow_int(x[f[0]], f[1], prec, rnd)
                term = mpc_mul(term, pk, prec, rnd)
            total = mpc_add(total, term, prec, rnd)
        return _mpc_of(*total)

    def term_scale(self, point):
        """``sum_e |a_e| |point^e|`` at 53 bits, from the coefficients ``eval``
        holds: the scale of ``eval``'s rounding error at ``point`` (Higham,
        *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 5.1)."""
        moduli = [mpc_abs(mpc(z)._mpc_, 53) for z in point]
        total = fzero
        for c, factors in self._terms_at_prec():
            term = mpc_abs(c, 53)
            for j, k in factors:
                term = mpf_mul(term, mpf_pow_int(moduli[j], k, 53), 53)
            total = mpf_add(total, term, 53)
        return mp.make_mpf(total)

    def permute(self, perm):
        """Reorder variables: new variable i is old variable ``perm[i]``."""
        if sorted(perm) != list(range(self.nvars)):
            raise SeriesError(f"{perm} is not a permutation")
        terms = {}
        for e, c in self.terms.items():
            terms[tuple(e[p] for p in perm)] = c
        return SparsePoly(self.nvars, terms)

    def max_degree(self, j):
        return max((e[j] for e in self.terms), default=-1)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def coeff_bound(self):
        """Max coefficient magnitude at the current precision: the scale of
        the printed critical-system residuals and of the minimality slices."""
        best = mpf(0)
        for c, _ in self._terms_at_prec():
            m = abs(_mpc_of(*c))
            if m > best:
                best = m
        return best


# -- jets --------------------------------------------------------------------

_ZERO_PAIR = (fzero, fzero)
_ZERO_CELL = [fzero, fzero]


def _mpc_of(re, im):
    """An ``mpc`` with the given raw parts, as ``mpc`` arithmetic builds one."""
    z = object.__new__(mpc)
    z._mpc_ = (re, im)
    return z


def _layout(jet):
    """How a multi-index of the jets of ``jet``'s order and nvars packs into
    one integer key: ``width`` bits per variable at ``shifts``, under the
    mask, and the total degree from bit ``top`` up.  Keys sort by degree, and
    no index of total degree <= order has a part above order, so the sum of
    two keys never carries and is the key of the summed index."""
    width = jet.order.bit_length() or 1
    top = width * jet.nvars
    return range(0, top, width), top, (1 << width) - 1


def _key(beta, shifts, top):
    """The packed key of the multi-index ``beta`` (``_layout``)."""
    return sum(map(lshift, beta, shifts)) + (sum(beta) << top)


def _packed(coeffs, shifts, top):
    """``(degree, index, key, re, im)`` for each coefficient, in order."""
    return [
        ((d := sum(b)), b, sum(map(lshift, b, shifts)) + (d << top), *v._mpc_)
        for b, v in coeffs.items()
    ]


def _degrees(jet, packed, top):
    """The degrees of a jet's full-order keys: of its ``_packed``
    coefficients and of its keys above its window."""
    return {t[0] for t in packed}.union(k >> top for k in jet.above)


def _pure(re, im):
    """``(0, re)`` for a real coefficient, ``(1, im)`` for an imaginary one
    and ``(None, None)`` for any other, which includes a coefficient with an
    infinite or nan part (a zero mantissa that is not ``fzero``)."""
    if im == fzero and re[1]:
        return 0, re
    if re == fzero and im[1]:
        return 1, im
    return None, None


def _mul_add(s, x, y, prec):
    """``mpf_add(s, mpf_mul(x, y, prec, rnd), prec, rnd)`` for finite nonzero
    raw parts ``x`` and ``y``, rounding to nearest (``rnd = round_nearest``,
    the only mode of mpmath's ``mp`` context), with the same bits.

    The product takes one mantissa multiply, with ``int.bit_length`` for the
    bit counts, and ``libmpf.normalize1``'s round-half-even test and
    trailing-zero strip; the sum aligns the exponents, adds or subtracts the
    signed mantissas and rounds the same way.  Where ``mpf_add`` takes
    another branch the sum is handed back to it: an exponent gap over 100
    bits, where it may only perturb the larger operand, and an ``s`` that is
    special (a zero mantissa that is not ``fzero``).
    """
    sign, man, exp, _ = x
    ysign, yman, yexp, _ = y
    sign ^= ysign
    man *= yman
    exp += yexp
    bc = man.bit_length()
    if bc > prec:
        n = bc - prec
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
        if not man & 1:
            n = (man & -man).bit_length() - 1
            man >>= n
            exp += n
        bc = man.bit_length()
    ssign, sman, sexp, _ = s
    if not sman:
        if s == fzero:
            return sign, man, exp, bc
        return mpf_add(s, (sign, man, exp, bc), prec, round_nearest)
    offset = sexp - exp
    if offset > 100 or offset < -100:
        return mpf_add(s, (sign, man, exp, bc), prec, round_nearest)
    if sign:
        man = -man
    if ssign:
        sman = -sman
    if offset >= 0:
        man += sman << offset
    else:
        man = sman + (man << -offset)
        exp = sexp
    if man < 0:
        sign, man = 1, -man
    elif man:
        sign = 0
    else:
        return fzero
    bc = man.bit_length()
    if bc > prec:
        n = bc - prec
        t = man >> (n - 1)
        if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
            man = (t >> 1) + 1
        else:
            man = t >> 1
        exp += n
    if not man & 1:
        n = (man & -man).bit_length() - 1
        man >>= n
        exp += n
    return sign, man, exp, man.bit_length()


def _pair(part, k2, c, d):
    """The row entry ``(key, slot, y)`` of the inner coefficient ``c + d i``
    against an outer coefficient whose only nonzero part is ``part`` (0 real,
    1 imaginary, ``None`` for both).  For two pure coefficients the product's
    one nonzero part is ``x * y`` for the outer part ``x``, landing in
    ``slot`` (0 real, 1 imaginary), with ``y`` negated for ``i * i = -1``;
    otherwise ``slot`` is ``None`` and ``y`` is ``(c, d)``."""
    other, y = _pure(c, d)
    if part is None or other is None:
        return k2, None, (c, d)
    return k2, part ^ other, mpf_neg(y) if part & other else y


class Jet:
    """Truncated Taylor expansion at ``center``, orders ``<= order``.

    Coefficients and center coordinates are ``mpc``; other numbers are
    converted at the working precision.  ``caps`` is an optional per-variable
    degree cap used internally to avoid carrying powers that can never
    influence the requested coefficients.

    Products keep the invariants the module docstring states: the smaller
    operand (``self`` on a tie) is the outer loop, each coefficient sums its
    pairs in outer-loop order, keys appear in first-reached order, and exact
    zeros are dropped.  Every rounding is the one ``mpc`` arithmetic makes,
    so results are bit-identical to it.  A pair of real or imaginary
    coefficients takes one ``_mul_add`` into the one part of the sum it lands
    in: ``libmpf``'s rounded multiply and add on plain ints, handing exponent
    gaps over 100 bits and special accumulators back to ``mpf_add``, rounding
    to nearest as ``mp`` always does.

    The Horner chains compute step ``t`` only through the degree later steps
    read (``t`` for ``reciprocal`` and ``log``, ``order - k`` for the power
    ``k`` of ``substitute``, less where the result itself is wanted only
    through a lower degree).  Such a window keeps the full ``order`` and
    holds in ``above`` the packed keys (``_layout``) its full-order self has
    above the window; ``above`` is empty for a whole jet.  Products size
    their operands by coefficients plus ``above``, so the chains' results
    are the full chains' bit for bit, unless a coefficient above a window
    sums to an exact zero.  A windowed product finds its keys above the
    window from degree masks in one variable and as a sumset of keys in
    more.
    """

    __slots__ = ("nvars", "order", "center", "coeffs", "caps", "above")

    def __init__(self, nvars, order, center, coeffs=None, caps=None, above=frozenset()):
        self.nvars = int(nvars)
        self.order = int(order)
        if self.order < 0:
            raise SeriesError("jet order must be nonnegative")
        if len(center) != self.nvars:
            raise SeriesError("center length does not match nvars")
        self.center = tuple(z if type(z) is mpc else coef_to_mpc(z) for z in center)
        self.caps = tuple(caps) if caps is not None else None
        self.above = above
        self.coeffs = {}
        if coeffs:
            for beta, c in coeffs.items():
                if type(c) is not mpc:
                    c = coef_to_mpc(c)
                if self._keeps(beta) and c._mpc_ != _ZERO_PAIR:
                    self.coeffs[tuple(beta)] = c

    def _keeps(self, beta):
        if sum(beta) > self.order:
            return False
        if self.caps is not None:
            for b, cap in zip(beta, self.caps):
                if cap is not None and b > cap:
                    return False
        return True

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, nvars, order, center, value, caps=None):
        return cls(nvars, order, center, {(0,) * nvars: value}, caps=caps)

    @classmethod
    def from_poly(cls, poly, center, order):
        """Taylor-shift a polynomial: coefficients of ``P(center + s)``.

        Exact for every polynomial whose degree fits the truncation; terms
        beyond ``order`` are cut.
        """
        if len(center) != poly.nvars:
            raise SeriesError("center length does not match polynomial nvars")
        cpoint = tuple(mpc(z) for z in center)
        one = mpc(1)
        out = cls(poly.nvars, order, cpoint, {})
        zero_idx = (0,) * poly.nvars
        for e, c in poly.terms.items():
            # expand prod_j (c_j + s_j)^{e_j} by the binomial theorem
            parts = {zero_idx: coef_to_mpc(c)}
            for j, k in enumerate(e):
                if k == 0:
                    continue
                cj = cpoint[j]
                binom = [one]
                for i in range(1, k + 1):
                    binom.append(binom[-1] * (k - i + 1) / i)
                powers = [one]
                for _ in range(k):
                    powers.append(powers[-1] * cj)
                new_parts = {}
                for beta, val in parts.items():
                    for i in range(0, k + 1):
                        nb = list(beta)
                        nb[j] += i
                        nb = tuple(nb)
                        if not out._keeps(nb):
                            continue
                        term = val * binom[i] * powers[k - i]
                        if nb in new_parts:
                            new_parts[nb] = new_parts[nb] + term
                        else:
                            new_parts[nb] = term
                parts = new_parts
            for beta, val in parts.items():
                if beta in out.coeffs:
                    out.coeffs[beta] = out.coeffs[beta] + val
                else:
                    out.coeffs[beta] = val
        out.coeffs = {b: v for b, v in out.coeffs.items() if not (v == 0)}
        return out

    # -- helpers -------------------------------------------------------------

    def coefficient(self, beta):
        beta = tuple(beta)
        if sum(beta) > self.order:
            raise SeriesError(f"index {beta} beyond truncation order {self.order}")
        if self.above:
            shifts, top, _ = _layout(self)
            if _key(beta, shifts, top) in self.above:
                raise SeriesError(f"index {beta} is above the window this jet holds")
        return self.coeffs.get(beta, mpc(0))

    def constant_coefficient(self):
        return self.coeffs.get((0,) * self.nvars, mpc(0))

    def truncate(self, order):
        return self.reindex(order=min(order, self.order), caps=self.caps)

    def through(self, hi):
        """This jet's window through degree ``hi``: its coefficients above
        ``hi`` become ``above`` keys."""
        if hi >= self.order:
            return self
        shifts, top, _ = _layout(self)
        out = Jet(self.nvars, self.order, self.center, caps=self.caps)
        out.coeffs = {b: v for b, v in self.coeffs.items() if sum(b) <= hi}
        out.above = self.above.union(
            _key(b, shifts, top) for b in self.coeffs if sum(b) > hi
        )
        return out

    def held_through(self):
        """The highest degree through which this jet holds every coefficient
        its full-order self holds: one below the lowest degree in ``above``,
        or the order for a whole jet."""
        if not self.above:
            return self.order
        return (min(self.above) >> _layout(self)[1]) - 1

    def reindex(self, index=None, nvars=None, order=None, center=None, caps=None):
        """This jet re-wrapped: each multi-index ``b`` moves to ``index(b)``
        (``None`` drops it; every index stays by default), in a jet of
        ``nvars``, ``order`` and ``center`` (this jet's by default) and of
        ``caps``, which keeps what its order and caps keep.  The keys above
        the window move by the same map and are packed by the new layout, so
        the result is the window of the re-indexed full-order jet."""
        coeffs = self.coeffs
        if index is not None:
            coeffs = {k: v for k, v in zip(map(index, coeffs), coeffs.values())
                      if k is not None}
        out = Jet(self.nvars if nvars is None else nvars,
                  self.order if order is None else order,
                  self.center if center is None else center, coeffs, caps, self.above)
        if not self.above or (index is None and caps in (None, self.caps)
                              and (out.nvars, out.order) == (self.nvars, self.order)):
            return out
        shifts, _, mask = _layout(self)
        mine, top, _ = _layout(out)
        above = set()
        for k in self.above:
            b = tuple(k >> s & mask for s in shifts)
            if index is not None:
                b = index(b)
            if b is not None and out._keeps(b):
                above.add(_key(b, mine, top))
        out.above = above
        return out

    def drop_through(self, d):
        """This jet without its coefficients of degree <= ``d``; the keys
        above its window stay as they are, shared, not re-packed."""
        return Jet(self.nvars, self.order, self.center,
                   {b: v for b, v in self.coeffs.items() if sum(b) > d}, self.caps, self.above)

    def same_bits(self, other):
        """Whether ``other`` holds the same keys in the same order, each with
        the same raw parts, and the same keys above its window."""
        return self.above == other.above and len(self.coeffs) == len(other.coeffs) and all(
            b == b2 and v._mpc_ == v2._mpc_
            for (b, v), (b2, v2) in zip(self.coeffs.items(), other.coeffs.items())
        )

    def _compat(self, other):
        if not isinstance(other, Jet):
            raise SeriesError("expected a Jet")
        if other.nvars != self.nvars or other.order != self.order:
            raise SeriesError("jet order/nvars mismatch")
        if other.center != self.center:
            raise SeriesError("jet center mismatch")

    def map_coeffs(self, f):
        return Jet(self.nvars, self.order, self.center,
                   {b: f(v) for b, v in self.coeffs.items()}, self.caps, self.above)

    def __add__(self, other):
        self._compat(other)
        prec, rnd = mp._prec_rounding
        coeffs = dict(self.coeffs)
        for b, v in other.coeffs.items():
            old = coeffs.get(b)
            if old is None:
                coeffs[b] = v
            else:
                (re, im), (re2, im2) = old._mpc_, v._mpc_
                coeffs[b] = _mpc_of(mpf_add(re, re2, prec, rnd), mpf_add(im, im2, prec, rnd))
        return Jet(self.nvars, self.order, self.center, coeffs,
                   _merge_caps(self.caps, other.caps), self.above | other.above)

    def __neg__(self):
        return self.map_coeffs(lambda v: -v)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return self.map_coeffs(lambda v: v * k)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self.scale(other)
        return self.mul_through(other, self.order)

    __rmul__ = scale

    def mul_through(self, other, hi):
        """``self * other`` through degree ``hi``: the window of the full
        product, with the keys the full product has above ``hi`` in
        ``above``.  Exact where both operands are exact through ``hi``."""
        return self._product(other, 0, hi, track=True)

    def mul_degree(self, other, m):
        """Degree-``m`` homogeneous part of ``self * other``.

        Each coefficient is bit-identical to the one ``__mul__`` returns for
        the full-order jets ``self`` and ``other`` are windows of: both run
        ``_product``.
        """
        return self._product(other, m, m)

    def _product(self, other, lo, hi, track=False):
        """The terms of ``self * other`` of total degree ``lo..hi``: the one
        product loop, with the invariants the module docstring states.

        The outer operand is chosen by full-order sizes, coefficients plus
        ``above``.  With ``track``, as the Horner chains' windows ``0..hi``
        ask, the result's ``above`` holds the keys the full-order product has
        above ``hi``: the sums of the operands' full-order keys there, within
        the order and caps, from degree masks in one variable.
        """
        self._compat(other)
        caps = _merge_caps(self.caps, other.caps)
        out = Jet(self.nvars, self.order, self.center, {}, caps=caps)
        hi = min(hi, self.order)
        small, big = self, other
        if len(other.coeffs) + len(other.above) < len(self.coeffs) + len(self.above):
            small, big = other, self
        mul, add, sub, mul_add = mpf_mul, mpf_add, mpf_sub, _mul_add
        prec, rnd = mp._prec_rounding
        shifts, top, mask = _layout(self)
        capped = [(j, cap) for j, cap in enumerate(caps or ()) if cap is not None]
        outer = _packed(small.coeffs, shifts, top)
        inner = _packed(big.coeffs, shifts, top)
        entries = {}  # outer part -> (degree, index, row entry) of each inner term
        rows = {}  # (outer degree, room under each cap, outer part) -> usable entries
        acc = {}  # key -> [re, im], updated in place
        get = acc.get
        for d1, b1, k1, a, b in outer:
            part, x = _pure(a, b)
            room = tuple(cap - b1[j] for j, cap in capped)
            row = rows.get((d1, room, part))
            if row is None:
                if part not in entries:
                    entries[part] = [(d2, b2, _pair(part, k2, c, d))
                                     for d2, b2, k2, c, d in inner]
                row = rows[d1, room, part] = [
                    e for d2, b2, e in entries[part]
                    if lo <= d1 + d2 <= hi
                    and (not capped or all(b2[j] <= r for (j, _), r in zip(capped, room)))
                ]
            for k2, slot, y in row:
                k = k1 + k2
                cell = get(k)
                if slot is None:
                    c, d = y
                    re = sub(mul(a, c), mul(b, d), prec, rnd)
                    im = add(mul(a, d), mul(b, c), prec, rnd)
                    if cell is None:
                        acc[k] = [re, im]
                    else:
                        cell[0] = add(cell[0], re, prec, rnd)
                        cell[1] = add(cell[1], im, prec, rnd)
                else:
                    if cell is None:
                        cell = acc[k] = [fzero, fzero]
                    cell[slot] = mul_add(cell[slot], x, y, prec)
        out.coeffs = {
            tuple(k >> s & mask for s in shifts): _mpc_of(*cell)
            for k, cell in acc.items()
            if cell != _ZERO_CELL
        }
        if not track or hi >= self.order:
            return out
        if self.nvars == 1:
            # a key is ``d + (d << top)``, so the keys above ``hi`` are the
            # sumset of the two degree sets: an OR of shifted degree masks
            theirs = sum(1 << d for d in _degrees(big, inner, top))
            sums = 0
            for d in _degrees(small, outer, top):
                sums |= theirs << d
            lim = min(self.order, capped[0][1]) if capped else self.order
            # a cap at or below ``hi`` leaves nothing above the window
            sums &= (1 << (lim + 1)) - (1 << (hi + 1)) if lim > hi else 0
            out.above = set()
            while sums:
                low = sums & -sums
                out.above.add((low.bit_length() - 1) * ((1 << top) + 1))
                sums ^= low
            return out
        theirs = sorted(big.above.union(t[2] for t in inner))
        above = set()
        for x in small.above.union(t[2] for t in outer):
            d = x >> top
            first = bisect_left(theirs, (hi + 1 - d) << top)
            stop = bisect_left(theirs, (self.order + 1 - d) << top)
            above.update(map(x.__add__, theirs[first:stop]))
        if capped:
            above = {
                k for k in above
                if all(k >> shifts[j] & mask <= cap for j, cap in capped)
            }
        out.above = above
        return out

    def pow_int(self, k, window=None):
        """``self**k``, the k-th power of ``power_chain``, each power through
        degree ``window`` (the order by default)."""
        if not isinstance(k, int) or k < 0:
            raise SeriesError("jet powers must be nonnegative integers")
        hi = self.order if window is None else window
        return next(islice(power_chain(self, lambda l: hi), k, None))

    # -- series inverses -----------------------------------------------------

    def _unit_part(self):
        """``(a0, u)`` with ``a0`` the constant term and ``u = (self - a0)/a0``."""
        a0 = self.constant_coefficient()
        if a0 == 0:
            raise NonInvertibleJetError("jet has zero constant term")
        return a0, Jet(self.nvars, self.order, self.center,
                       {b: v / a0 for b, v in self.coeffs.items() if sum(b) > 0},
                       self.caps, self.above)

    def reciprocal(self, window=None):
        """Jet ``b`` with ``self * b = 1`` through the truncation order, or
        through degree ``window``."""
        a0, u = self._unit_part()
        # 1/a = (1/a0) * sum_m (-u)^m; u has valuation >= 1
        acc = (-u)._horner([mpc(1)] * (self.order + 1), window)
        return acc.map_coeffs(lambda v: v / a0)

    def log(self, window=None):
        """Principal-branch logarithm, through the truncation order or
        through degree ``window``; constant term is ``Log a(center)``."""
        a0, u = self._unit_part()
        if self.order == 0:
            out = Jet(self.nvars, 0, self.center, {}, caps=self.caps)
        else:
            # log(1+u) = u*(1 - u/2 + u^2/3 - ...) via Horner
            out = u._horner(
                [None] + [mpc((-1) ** (m + 1)) / m for m in range(1, self.order + 1)],
                window,
            )
        const = mp.log(a0)
        if const != 0:
            out = out + Jet.constant(self.nvars, self.order, self.center, const, caps=self.caps)
        return out

    def _horner(self, coeffs, window=None):
        """``sum_m coeffs[m] * self**m`` for a jet without constant term, by
        the chain ``acc = self * acc + coeffs[m]`` from the top ``m`` down;
        ``coeffs[0]`` may be ``None``, which adds nothing.

        The last step, ``t = len(coeffs) - 1``, runs through degree
        ``window`` (the order by default) and each step before it one degree
        less, down to 0: ``self`` has valuation >= 1, so step ``t + 1`` reads
        step ``t`` one degree below its own window.
        """
        top = len(coeffs) - 1
        lag = top - (self.order if window is None else window)
        acc = Jet.constant(self.nvars, self.order, self.center, coeffs[top], caps=self.caps)
        for t in range(1, top + 1):
            acc = self._product(acc, 0, max(0, t - lag), track=True)
            if coeffs[top - t] is not None:
                acc = acc + Jet.constant(
                    self.nvars, self.order, self.center, coeffs[top - t], caps=self.caps
                )
        return acc

    # -- calculus ------------------------------------------------------------

    def substitute(self, var, series, window=None):
        """Replace the displacement of ``var`` by ``series`` (Horner form),
        through degree ``window`` (the order by default).

        ``series`` must live in the same index space, have the same truncation
        order and a vanishing constant term, so truncation commutes with the
        substitution.  ``self`` and ``series`` may be windows through
        ``window`` or beyond.
        """
        if not isinstance(series, Jet) or series.nvars != self.nvars:
            raise SeriesError("substitution series must match the index space")
        if series.order != self.order:
            raise SeriesError("substitution series order mismatch")
        if series.constant_coefficient() != 0:
            raise SeriesError("substitution series must have zero constant term")
        hi = self.order if window is None else window
        parts = {}
        for b, v in self.coeffs.items():
            k = b[var]
            nb = list(b)
            nb[var] = 0
            parts.setdefault(k, {})[tuple(nb)] = v
        # the keys above self's window split the same way; they are part of
        # the full chain's parts, its length and its operand sizes
        shifts, top_bit, mask = _layout(self)
        above = {}
        for key in self.above:
            k = key >> shifts[var] & mask
            above.setdefault(k, set()).add(key - (k << shifts[var]) - (k << top_bit))
        top = max([*parts, *above], default=0)

        def part(k):
            # ``series`` has valuation >= 1, so the result reads the step for
            # ``k`` only through degree ``hi - k``
            return Jet(self.nvars, self.order, self.center, parts.get(k), self.caps,
                       above.get(k, frozenset())).through(max(0, hi - k))

        out = part(top)
        series = series.reindex(center=self.center, caps=self.caps)
        for k in range(top - 1, -1, -1):
            out = out._product(series, 0, max(0, hi - k), track=True)
            if k in parts or k in above:
                out = out + part(k)
        return out

    def __repr__(self):
        items = ", ".join(f"{b}: {v}" for b, v in sorted(self.coeffs.items()))
        return f"Jet(nvars={self.nvars}, order={self.order}, {{{items}}})"


def power_chain(base, window):
    """Yield ``base**l`` for ``l = 0, 1, ...``, each power one product from
    the one below and computed only through degree ``window(l)``.

    ``window(l)`` must cover what power ``l + 1`` reads, which holds when
    ``window(l + 1) - window(l)`` is at most the valuation of ``base``.
    """
    power = Jet.constant(base.nvars, base.order, base.center, mpc(1))
    for l in count(1):
        yield power
        power = power._product(base, 0, window(l), track=True)


def _merge_caps(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return tuple(
        x if y is None else y if x is None else min(x, y) for x, y in zip(a, b)
    )


def circle_exp_series(nvars, order, var, radius):
    """Jet of ``radius * (e^{i t_var} - 1)`` in the t-index space."""
    coeffs = {}
    term = mpc(radius)
    for k in range(1, order + 1):
        term = term * mpc(0, 1) / k
        beta = [0] * nvars
        beta[var] = k
        coeffs[tuple(beta)] = term
    return Jet(nvars, order, (mpc(0),) * nvars, coeffs)


def jet_circle_substitute(a, order=None, window=None):
    """Restrict a jet to the torus through its center: ``w_m = c_m e^{i t_m}``.

    Substitutes the truncated series ``c_m (e^{i t_m} - 1)`` for each
    displacement ``w_m - c_m``; the result is a jet in ``t`` at 0, through
    degree ``window`` (the order by default).
    """
    order = a.order if order is None else order
    if order > a.order:
        raise SeriesError("cannot extend a jet beyond its truncation order")
    out = a.reindex(order=order, center=(mpc(0),) * a.nvars, caps=a.caps)
    for m, radius in enumerate(a.center):
        if radius == 0:
            raise SeriesError("circle substitution requires nonzero center")
        out = out.substitute(m, circle_exp_series(a.nvars, order, m, radius), window)
    return out
