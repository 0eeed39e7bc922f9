"""Term calculus for stationary-point expansions of Fourier-Laplace integrals.

Given jets of an amplitude u and a phase g at the stationary point, these
functions evaluate the k-th coefficient functional of the asymptotic
expansion of ``integral u(t) exp(-w g(t)) dt``: the nondegenerate case in any
dimension (Hessian-inverse differential operator), and the one-dimensional
degenerate cases of even/odd vanishing order v with Gamma-factor weights.
Only the terms live here; ``expansion`` weights and sums them.  The tests
sum them into the integral itself and compare with direct quadrature.

All three are one driver, ``_term``: the k-th term is a finite sum over
``l <= last_power(k, v)`` of a weight times one linear functional of
``u * remainder^l``, and only the weights differ.  Each functional reads one
homogeneous slice of that product, of degree ``m(l)``: the ``t^m`` coefficient
in the degenerate cases, and ``Hop^(l+k)(w)(0)`` with ``m = 2(l+k)`` in the
nondegenerate case, as the Hessian-inverse operator ``Hop`` lowers degree by 2.
The slice is computed with the pair order of the full jet product, and the
powers ``remainder^l`` are built once per phase, through the degree the terms
read: with N terms, the degree ``m(l)`` of term ``k = N - 1``.  Each power is
a window (see ``series``) of the full-order power (``series.power_chain``), so
``series`` picks the outer operand of a product with it as the full-order
product would, and every term equals, bit for bit, the one the full-jet
computation gives, unless a coefficient of a power above its window sums to
an exact zero.

The ``l + k`` applications of ``Hop`` run on the raw ``_mpc_`` parts of the
slice (``_hessian_inverse_chain``), with no jet built per application.  They
make the ``libmp`` calls of the jet operations they stand for, in the same
order: ``mpc_mul_int`` for each derivative, ``mpc_mul_mpf`` or ``mpc_mul``
for the scale by a real or complex entry of ``-A^{-1}``, and ``mpf_add`` per
part for each sum, dropping exact zeros where a jet drops them.

Branch convention throughout: ``z**(-1/v) = |z|**(-1/v) exp(-i arg(z)/v)``
with ``arg z`` in [-pi/2, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, mpc_mul, mpc_mul_int, mpc_mul_mpf, mpf_add

from .series import Jet, power_chain

_ZERO = (fzero, fzero)


class OrderBudgetError(ValueError):
    """A requested term needs jet coefficients beyond the truncation order."""


class BranchError(ValueError):
    """Leading phase data falls outside the fixed branch convention."""


class ParityError(ValueError):
    """Even/odd term functional called with the wrong vanishing-order parity."""


def branch_root(z, v):
    """``z**(-1/v)`` on the fixed branch; requires ``arg z`` in [-pi/2, pi/2]."""
    z = mpc(z)
    if z == 0:
        raise BranchError("zero leading coefficient")
    arg = mp.arg(z)
    if abs(arg) > mp.pi / 2 + mpf("1e-12"):
        raise BranchError(
            f"argument {mp.nstr(arg, 5)} outside [-pi/2, pi/2]; branch undefined"
        )
    return abs(z) ** (mpf(-1) / v) * mp.exp(mpc(0, -1) * arg / v)


def det_inv_sqrt(A):
    """``det(A)**(-1/2)`` as the product of eigenvalue branch roots."""
    n = A.rows
    if n == 1:
        return branch_root(A[0, 0], 2)
    eigvals, _ = mpmath.eig(A)
    out = mpc(1)
    for lam in eigvals:
        out *= branch_root(lam, 2)
    return out


SIGN_TOL = mpf("1e-12")


def sign_factor(a):
    """``sgn a`` for the odd-order weights: the real sign when a is real to
    tolerance, otherwise the complex phase a/|a|."""
    a = mpc(a)
    mag = abs(a)
    if mag == 0:
        raise BranchError("zero leading coefficient")
    if abs(a.imag) <= SIGN_TOL * mag:
        return mpc(1) if a.real > 0 else mpc(-1)
    return a / mag


def last_power(k, v=None):
    """The highest power of the remainder term k reads: ``k`` for odd v, else ``2k``."""
    return k if v is not None and v % 2 else 2 * k


def read_degree(N, v=None):
    """The highest degree N terms read of ``u * remainder^l``: ``6(N-1)``
    nondegenerate, ``2(N-1)(v+1)`` for even v, ``(N-1)(v+1)`` for odd v."""
    return slice_degree(N - 1, last_power(N - 1, v), v)


def slice_degree(k, l, v=None):
    """The degree of ``u * remainder^l`` that term ``k`` reads for ``l``:
    ``2(l+k)`` when nondegenerate (``v`` None), ``2k+vl`` for even v, ``k+vl``
    for odd v.  The remainder's valuation (at least 3, or v + 1) exceeds the
    step in l, so power ``l`` through this degree for ``k = N - 1`` covers
    what every term and power ``l + 1`` read."""
    if v is None:
        return 2 * (l + k)
    return (2 * k if v % 2 == 0 else k) + v * l


@dataclass
class PhaseData:
    """Decomposed phase for the term calculus.

    ``remainder`` is the phase with its modeled part removed: the full
    quadratic part in the nondegenerate case, the single ``a t^v`` term in the
    degenerate one-variable case.  ``hessian_inverse`` is set only for the
    nondegenerate case; ``a``, ``v``, ``zeta`` only for the degenerate one.
    ``terms`` is the number N of terms the phase serves; the remainder powers
    are built through the degree term N - 1 reads.  The remainder may be a
    window (see ``series``) of its full-order self, as ``localframe`` builds
    the phase, if it holds every degree through ``slice_degree(N - 1, 1)``;
    otherwise ``OrderBudgetError``.
    """

    remainder: Jet
    terms: int
    hessian_inverse: object = None
    a: object = None
    v: int = None
    _powers: list = field(init=False, repr=False, compare=False)
    _chain: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # power l reads the remainder through slice_degree(N - 1, l) less
        # (l - 1) times its valuation, which is most at l = 1
        read = min(self.slice_degree(self.terms - 1, 1), self.remainder.order)
        if self.remainder.held_through() < read:
            raise OrderBudgetError(
                f"{self.terms} terms read the phase remainder through degree "
                f"{read}; its window holds {self.remainder.held_through()}"
            )
        self._powers = []
        self._chain = power_chain(
            self.remainder, lambda l: self.slice_degree(self.terms - 1, l)
        )

    def slice_degree(self, k, l):
        """``slice_degree(k, l, v)`` for this phase's route."""
        return slice_degree(k, l, self.v)

    def remainder_power(self, l):
        """``remainder**l`` through the degree the terms read.  Each power is
        one product from the one below, built once per phase at the precision
        in effect when first asked for."""
        while len(self._powers) <= l:
            self._powers.append(next(self._chain))
        return self._powers[l]

    @property
    def zeta(self):
        if self.v is None:
            return None
        return mp.exp(mpc(0, 1) * mp.pi / (2 * self.v))

    @classmethod
    def nondegenerate(cls, g_jet, hessian, terms):
        remainder = g_jet.drop_through(2)
        return cls(remainder=remainder, terms=terms, hessian_inverse=_invert(hessian))

    @classmethod
    def degenerate(cls, g_jet, v, terms):
        if g_jet.nvars != 1:
            raise ValueError("degenerate phases are handled in one variable only")
        # the window check covers ``a`` too: slice_degree(N - 1, 1) >= v
        phase = cls(remainder=g_jet.drop_through(v), terms=terms, v=v)
        phase.a = g_jet.coefficient((v,))
        if phase.a == 0:
            raise BranchError("vanishing-order coefficient is zero")
        return phase


def _invert(A):
    n = A.rows
    if n == 1:
        if A[0, 0] == 0:
            raise BranchError("singular phase Hessian")
        B = mp.matrix(1, 1)
        B[0, 0] = 1 / A[0, 0]
        return B
    return A**-1


def _hessian_inverse_chain(jet, inv, times):
    """``Hop^times(jet)`` for ``Hop = -sum_{r,s} (A^{-1})_{rs} d_r d_s``.

    Each application runs on the raw ``_mpc_`` parts, with the ``libmp``
    calls of the jet operations it stands for, in their order: per ``r``
    the derivative ``d_r`` (``mpc_mul_int`` by the exponent, as
    ``mpc * int``), then per ``s`` with ``inv[r, s] != 0`` the derivative
    ``d_s`` and the scale by ``-inv[r, s]`` (``mpc_mul_mpf`` for a real
    entry, ``mpc_mul`` for a complex one, as ``mpc * mpf`` and
    ``mpc * mpc``), added into the result part by part with ``mpf_add``.
    Exact zeros are dropped where a jet drops them: after each derivative,
    scale and sum.  Keys keep a jet's order.  Only the result is a ``Jet``,
    of order ``order - 2 times`` (at least 0).
    """
    n = jet.nvars
    prec, rnd = mp._prec_rounding
    width = jet.order.bit_length() or 1  # exponents never exceed the order
    mask = (1 << width) - 1
    ops = []  # (shift of r, [(shift of s, multiply, raw -inv[r, s])])
    for r in range(n):
        row = []
        for s in range(n):
            if inv[r, s] == 0:
                continue
            neg = -inv[r, s]
            if hasattr(neg, "_mpc_"):
                row.append((width * s, mpc_mul, neg._mpc_))
            else:
                row.append((width * s, mpc_mul_mpf, neg._mpf_))
        ops.append((width * r, row))
    coeffs = {sum(e << (width * j) for j, e in enumerate(b)): v._mpc_
              for b, v in jet.coeffs.items()}
    for _ in range(times):
        out = {}
        for r, row in ops:
            dr = {}
            for key, z in coeffs.items():
                e = key >> r & mask
                if e:
                    z = mpc_mul_int(z, e, prec, rnd)
                    if z != _ZERO:
                        dr[key - (1 << r)] = z
            for s, mul, neg in row:
                for key, z in dr.items():
                    e = key >> s & mask
                    if not e:
                        continue
                    z = mpc_mul_int(z, e, prec, rnd)
                    if z == _ZERO:
                        continue
                    z = mul(z, neg, prec, rnd)
                    if z == _ZERO:
                        continue
                    key -= 1 << s
                    old = out.get(key)
                    if old is None:
                        out[key] = z
                        continue
                    z = mpf_add(old[0], z[0], prec, rnd), mpf_add(old[1], z[1], prec, rnd)
                    if z == _ZERO:
                        del out[key]
                    else:
                        out[key] = z
        coeffs = out
    return Jet(n, max(jet.order - 2 * times, 0), jet.center,
               {tuple(key >> (width * j) & mask for j in range(n)): mp.make_mpc(z)
                for key, z in coeffs.items()}, jet.caps)


def _term(u_jet, phase, k, summand):
    """Sum over ``l <= last_power(k, v)`` of ``summand(l, w)``, where ``w``
    is the ``phase.slice_degree(k, l)`` part of ``u * remainder^l`` (the
    degree increases with l, so the last slice sets the order budget)."""
    if k >= phase.terms:
        raise OrderBudgetError(f"term {k} is beyond the {phase.terms} terms of the phase")
    needed = phase.slice_degree(k, last_power(k, phase.v))
    if u_jet.order < needed or phase.remainder.order < needed:
        raise OrderBudgetError(
            f"term {k} needs jets of order {needed}, have "
            f"{min(u_jet.order, phase.remainder.order)}"
        )
    total = mpc(0)
    for l in range(last_power(k, phase.v) + 1):
        m = phase.slice_degree(k, l)
        total += summand(l, u_jet.mul_degree(phase.remainder_power(l), m))
    return total


def stationary_term(u_jet, phase, k):
    """k-th term functional at a nondegenerate stationary point.

    Finite sum over l <= 2k of ``Hop^{l+k}(u * remainder^l)(0)`` with weights
    ``1/((-1)^k 2^{l+k} l! (l+k)!)``; every term takes at most 2k derivatives
    of u and of the second phase derivatives combined.
    """
    if phase.hessian_inverse is None:
        raise ParityError("phase was not decomposed for the nondegenerate case")

    def summand(l, w):
        w = _hessian_inverse_chain(w, phase.hessian_inverse, l + k)
        denom = mpf((-1) ** k) * mpf(2) ** (l + k) * math.factorial(l) * math.factorial(l + k)
        return w.constant_coefficient() / denom

    return _term(u_jet, phase, k, summand)


def stationary_term_even(u_jet, phase, k):
    """k-th term functional for even vanishing order v (one variable).

    Weights ``(-1)^l Gamma((2k+vl+1)/v) / (l! (2k+vl)!)`` against the
    ``(2k+vl)``-th derivative of ``u * remainder^l`` scaled by the branch
    root of the leading coefficient; at most 2k derivatives land on u.
    """
    v = _degenerate_order(phase, "even")
    root = branch_root(phase.a, v)

    def summand(l, w):
        m = 2 * k + v * l
        weight = mpf((-1) ** l) * mpmath.gamma(mpf(m + 1) / v) / mpf(math.factorial(l))
        return weight * root**m * w.coefficient((m,))  # m-th derivative / m!

    return _term(u_jet, phase, k, summand)


def stationary_term_odd(u_jet, phase, k):
    """k-th term functional for odd vanishing order v (one variable).

    Sum over l <= k with the two-sided phase factors
    ``zeta^{m+1} + (-1)^m zeta^{-(m+1)}`` (m = k+vl) and derivative scale
    ``|a|^{-1/v} i sgn(a)``; at most k derivatives land on u.
    """
    v = _degenerate_order(phase, "odd")
    scale = abs(mpc(phase.a)) ** (mpf(-1) / v) * (mpc(0, 1) * sign_factor(phase.a))
    zeta = phase.zeta

    def summand(l, w):
        m = k + v * l
        phase_factor = zeta ** (m + 1) + mpf((-1) ** m) * zeta ** (-(m + 1))
        weight = mpf((-1) ** l) * mpmath.gamma(mpf(m + 1) / v) / mpf(math.factorial(l))
        return weight * phase_factor * scale**m * w.coefficient((m,))

    return _term(u_jet, phase, k, summand)


def _degenerate_order(phase, parity):
    v = phase.v
    if v is None:
        raise ParityError("phase was not decomposed for the degenerate case")
    if ("even" if v % 2 == 0 else "odd") != parity:
        raise ParityError(f"{parity}-order functional with v={v}")
    return v
