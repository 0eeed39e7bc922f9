"""Point-local data at a smooth critical point.

Everything the term calculus consumes is built here as jets at the
distinguished point: the implicit solution ``h`` of ``H(w, h(w)) = 0``, the
torus phase ``log(h~(t)/h~(0)) + i sum (alpha_m/alpha_d) t_m``, the amplitude
jets weighting the residue terms, and the phase Hessian both from the jet and
from closed forms in derivatives of H (cross-checked against each other).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .geometry import Direction, check_smooth, vanishes
from .series import Jet, jet_circle_substitute
from .stationary import read_degree, slice_degree

VANISHING_TOL = mpf("1e-12")  # negligible phase coefficient, relative to the largest or 1
FRAME_TOL = mpf("1e-10")  # relative tolerance of the ``validate_frame`` identities


class FrameError(ValueError):
    pass


def frame_order(N, v=None):
    """Truncation order of a frame for N terms on the route ``v`` (None
    nondegenerate): one above ``stationary.read_degree``, as the amplitudes
    are exact only below the order, and never below ``phase_window``."""
    return max(phase_window(N, v), read_degree(N, v) + 1)


def search_order(N):
    """Order of the whole phase searched for a vanishing order beyond ``2N``."""
    return 2 * (N + 1) ** 2 + 1


def phase_window(N, v=None):
    """The degree through which N terms read the phase: the nondegenerate
    route's (``v`` None) or the degenerate route's of vanishing order ``v``.

    One factor of the remainder in term k is read at most through
    ``stationary.slice_degree(k, 1)``, so the phase is read through
    ``slice_degree(N - 1, 1)``: ``2N`` nondegenerate, ``2(N-1)+v`` for even
    v and ``(N-1)+v`` for odd v; and never below 2, since ``validate_frame``
    reads the Hessian.
    """
    return max(2, slice_degree(N - 1, 1, v))


def implicit_root_jet(H, point, order, window=None):
    """Jet of the holomorphic ``h`` with ``H(w, h(w)) = 0`` and ``h(c^) = c_d``.

    Solved by Newton iteration on jets, ``ceil(log2(order + 1)) + 1`` steps
    or fewer: the loop stops at the first step that returns its input bit for
    bit, since every later step would return it too.  Each step runs through
    degree ``window`` (the order by default), so the result is the window
    (see ``series``) of the full-order solution.  The composite residual
    vanishes through the window, to ``2^-(prec/2)`` of ``H.term_scale(c)``.
    """
    d = H.nvars
    if d < 2:
        raise FrameError("implicit solve needs at least two variables")
    c = tuple(mpc(z) for z in point)
    if not vanishes(H, c):
        raise FrameError("point is not on the variety")
    if vanishes(H.partial(d - 1), c):
        raise FrameError("not smooth in the distinguished coordinate")

    hi = order if window is None else min(window, order)
    H_jet = Jet.from_poly(H, c, order)
    dH_jet = Jet.from_poly(H.partial(d - 1), c, order)
    w_center = c[: d - 1]

    # the solution depends on w alone and vanishes at the base point; the
    # z-slots and the constant carry only Newton noise
    def solution(b):
        return b if b[d - 1] == 0 and any(b) else None

    # eta(s) = h(c^ + s) - c_d, solved to increasing accuracy; each Newton
    # step doubles the correct valuation.  A step reads only eta (it has no
    # caps), so once a step returns eta bit for bit every later step would too.
    eta = Jet(d, order, c, {})
    steps = max(1, math.ceil(math.log2(order + 1))) + 1
    for _ in range(steps):
        num = H_jet.substitute(d - 1, eta, hi)
        den = dH_jet.substitute(d - 1, eta, hi)
        new = (eta - num.mul_through(den.reciprocal(hi), hi)).reindex(solution)
        if new.same_bits(eta):
            break
        eta = new
    residual = H_jet.substitute(d - 1, eta, hi)
    res = max((abs(v) for v in residual.coeffs.values()), default=mpf(0))
    if res > H.term_scale(c) * mpf(2) ** (-(mp.prec // 2)):
        raise FrameError(f"implicit solve residual too large: {mp.nstr(res, 5)}")

    return (eta.reindex(lambda b: b[: d - 1], nvars=d - 1, center=w_center)
            + Jet.constant(d - 1, order, w_center, c[d - 1]))


def phase_jet(h_jet, direction, order=None, window=None):
    """Jet at 0 of the torus phase driving the Fourier-Laplace integrals.

    ``log(h~(t)/h~(0)) + i sum_m (alpha_m/alpha_d) t_m`` where ``h~`` is the
    restriction of h to the torus through the base point.  The constant term
    is exactly zero; at a critical point the gradient vanishes too.

    The circle substitution and the logarithm run through degree ``window``
    (the order by default), so the result is the window (see ``series``) of
    the full-order phase; ``h_jet`` may be a window through that degree or
    beyond.
    """
    order = h_jet.order if order is None else order
    hi = order if window is None else min(window, order)
    if h_jet.constant_coefficient() == 0:
        raise FrameError("implicit jet has zero constant term")
    h_torus = jet_circle_substitute(h_jet, order, hi)
    g = h_torus.log(hi)
    n = g.nvars
    alpha = direction.alpha
    linear = {}
    for m in range(n):
        ratio = alpha[m] / alpha[-1]
        beta = tuple(int(j == m) for j in range(n))
        linear[beta] = mpc(0, 1) * mpf(ratio.numerator) / mpf(ratio.denominator)
    # the log branch constant cancels by definition
    return (g.drop_through(0)
            + Jet(n, order, g.center, linear))


def hessian_from_jet(g_jet):
    """Second-derivative matrix at 0 recovered from order-2 jet coefficients."""
    n = g_jet.nvars
    A = mp.matrix(n, n)
    for r in range(n):
        for s in range(n):
            beta = [0] * n
            beta[r] += 1
            beta[s] += 1
            coef = g_jet.coefficient(tuple(beta))
            A[r, s] = 2 * coef if r == s else coef
    return A


def phase_hessian(H, point):
    """Closed-form phase Hessian from partial derivatives of H at the point.

    Valid at any smooth point with nonvanishing last coordinate and last
    partial; the direction does not enter (the linear phase term drops out
    after two derivatives).
    """
    d = H.nvars
    c = tuple(mpc(z) for z in point)
    parts = [H.partial(j) for j in range(d)]
    dH = [parts[j].eval(c) for j in range(d)]
    if vanishes(parts[d - 1], c, dH[d - 1]) or c[d - 1] == 0:
        raise FrameError("needs c_d and dH/dx_d nonzero at the point")
    second = [[parts[i].partial(j).eval(c) for j in range(d)] for i in range(d)]
    cd, dHd = c[d - 1], dH[d - 1]
    A = mp.matrix(d - 1, d - 1)
    for l in range(d - 1):
        for m in range(d - 1):
            if l == m:
                val = c[l] * dH[l] / (cd * dHd) + (c[l] ** 2 / (cd**2 * dHd**2)) * (
                    dH[l] ** 2
                    + cd
                    * (
                        dHd * second[l][l]
                        - 2 * dH[l] * second[d - 1][l]
                        + (dH[l] ** 2 / dHd) * second[d - 1][d - 1]
                    )
                )
            else:
                val = (c[l] * c[m] / (cd**2 * dHd**2)) * (
                    dH[m] * dH[l]
                    + cd
                    * (
                        dHd * second[m][l]
                        - dH[m] * second[d - 1][l]
                        - dH[l] * second[m][d - 1]
                        + (dH[l] * dH[m] / dHd) * second[d - 1][d - 1]
                    )
                )
            A[l, m] = val
    return A


def amplitude_jets(G_num, H, p, point, h_jet, order, terms, G_den=None):
    """Torus jets of the amplitudes weighting each residue term, j < p.

    Writes ``H(w, y) = (y - h(w)) Q(w, y)`` on the jet level, forms
    ``(y - h)^p F = G / Q^p`` as a jet in (w displacement, y - h(w)), reads
    off the normalized y-derivatives at the pole, and restricts to the torus.
    Returns (list of torus amplitude jets, Q jet in the shifted coordinates).

    The pole-coordinate jets have order ``order + p - 1``, so ``Q`` lacks its
    coefficients of that total degree and amplitude ``p - 1`` can be wrong at
    w-degree ``order``: the amplitudes are exact only through ``order - 1``,
    and ``frame_order`` sets the order one above every degree a term reads.
    With no torus variables (``H`` in one variable, ``h_jet`` a constant jet
    in none) this is the univariate residue.

    ``terms`` terms read the amplitudes through degree ``wu = 2(terms - 1)``
    (at most ``2k`` derivatives land on u in term k), so each jet is built
    only as a window (see ``series``) of its full-order self: the amplitudes
    through ``wu``, the pole-coordinate chain (``G``'s pole jet, ``Q``,
    ``Q^p``, its reciprocal) through ``wu + p - 1`` and ``H``'s pole jet
    through ``wu + p``.  Every coefficient a term reads is the full-order
    chain's, bit for bit, and a window at or above the order is the whole
    jet.  ``h_jet`` may itself be a window, through ``wu + p`` or beyond.
    The check that ``H``'s v^0 slice vanishes covers its window;
    ``implicit_root_jet`` checks the same residual through its own.
    """
    d = H.nvars
    c = tuple(mpc(z) for z in point)
    caps = (None,) * (d - 1) + (p + 2,)
    work_order = order + p - 1
    if h_jet.order < work_order:
        raise FrameError(
            f"amplitudes to order {order} at pole order {p} need the implicit "
            f"jet to order {work_order}, have {h_jet.order}"
        )
    wu = min(2 * (terms - 1), order)  # the amplitudes' window
    wk = wu + p - 1  # the pole-coordinate chain's
    if h_jet.held_through() < min(wk + 1, h_jet.order):
        raise FrameError(
            f"amplitudes for {terms} terms read the implicit jet through degree "
            f"{wk + 1}; its window holds {h_jet.held_through()}"
        )
    # substitute y = h(w) + v
    y_shift = h_jet.reindex(
        lambda b: b + (0,) if any(b) else None, nvars=d, order=work_order, center=c
    ) + Jet(d, work_order, c, {(0,) * (d - 1) + (1,): mpc(1)})

    def at_pole(P, window, caps=None):
        shifted = Jet.from_poly(P, c, work_order).substitute(d - 1, y_shift, window)
        return shifted.reindex(caps=caps)

    H_sv = at_pole(H, wk + 1)
    # the v^0 slice vanishes identically
    zero_slice = max(
        (abs(v) for b, v in H_sv.coeffs.items() if b[d - 1] == 0), default=mpf(0)
    )
    if zero_slice > H.term_scale(c) * mpf(2) ** (-(mp.prec // 2)):
        raise FrameError("pole division failed: H(w, h(w)) does not vanish on jets")

    # Q = H / (y - h): divide by v by shifting the v-exponent down
    def divide_by_v(b):
        return b[: d - 1] + (b[d - 1] - 1,) if b[d - 1] else None

    Q_sv = H_sv.reindex(divide_by_v, caps=caps)
    if Q_sv.constant_coefficient() == 0:
        raise FrameError("Q has zero constant term; the point cannot be smooth")

    K = at_pole(G_num, wk, caps).mul_through(Q_sv.pow_int(p, wk).reciprocal(wk), wk)
    if G_den is not None:
        K = K.mul_through(at_pole(G_den, wk, caps).reciprocal(wk), wk)

    inv_neg_h = (-h_jet).reciprocal(wu).truncate(order)
    out = []
    for j in range(p):
        # j-th y-derivative of G/Q^p at the pole, as a jet in w
        def v_slice(b):
            return b[: d - 1] if b[d - 1] == j else None

        dj = K.reindex(v_slice, nvars=d - 1, order=order, center=c[: d - 1])
        dj = dj.through(wu).scale(mpf(math.factorial(j)))
        u = dj.mul_through(inv_neg_h.pow_int(p - j, wu), wu)
        out.append(jet_circle_substitute(u, order, wu))
    return out, Q_sv


def vanishing_order(g_jet):
    """Least order >= 2 whose phase jet coefficient is non-negligible, or
    ``None`` when the jet holds no such order.

    The scale is the largest coefficient the jet holds, floored at 1 so that
    rounding noise cannot set it: a windowed phase (``phase_jet``) may hold
    nothing past the noise of its gradient and Hessian.  The search stays
    inside the window: ``None`` means v lies beyond it (or the order)."""
    if g_jet.nvars != 1:
        raise FrameError("vanishing order is only defined for one torus variable")
    top = max((abs(v) for v in g_jet.coeffs.values()), default=mpf(0))
    negligible = VANISHING_TOL * max(top, 1)
    for v in range(2, g_jet.held_through() + 1):
        if abs(g_jet.coefficient((v,))) > negligible:
            return v
    return None


@dataclass
class LocalFrame:
    """All point-local data at a smooth critical point (reordered coords).

    The amplitude jets have order ``order`` but are exact only through
    ``order - 1`` (see ``amplitude_jets``); ``frame_order`` keeps every
    degree the terms read below that.
    The jets are built for ``terms`` terms: each is a window (see
    ``series``) of its full-order self through the degree those terms read.
    The amplitudes are windows through ``2(terms - 1)``, the phase through
    the ``phase_window`` of its route (``build_frame``) and ``h_jet`` through
    the larger of that and ``2(terms - 1) + p``, which the amplitudes read.
    An expansion asks for at most ``terms`` terms.
    """

    point: tuple  # reordered so the distinguished coordinate is last
    direction: Direction  # reordered to match
    p: int
    h_jet: Jet
    phase: Jet  # jet of the torus phase at 0
    amplitudes: list  # torus amplitude jets, one per j < p
    hessian: object  # closed-form (d-1)x(d-1) matrix
    reordering: tuple
    order: int
    terms: int

    @property
    def d(self):
        return len(self.point)

    def hessian_det(self):
        return mp.det(self.hessian) if self.d > 1 else mpc(1)


def build_frame(G_num, H, p, direction, point, order, terms, G_den=None, reordering=None,
                v=None):
    """Construct and validate the local frame at a solved critical point.

    The jets have order ``order`` and are built for ``terms`` terms of an
    expansion (``LocalFrame``) on the route ``v``: the phase through
    ``phase_window(terms, v)``, the nondegenerate route's for ``v`` None
    and the degenerate route's of vanishing order ``v`` otherwise; ``v``
    ``"whole"`` builds the whole phase, for ``vanishing_order`` to search
    beyond a window.  The reordering (from the smoothness check) is applied
    to everything first; pass ``reordering`` explicitly to reuse a
    previously chosen frame.
    """
    d = H.nvars
    if p < 1:
        raise FrameError("pole order must be a positive integer")
    if reordering is None:
        smooth, _, reordering = check_smooth(H, point)
        if not smooth:
            raise FrameError("cannot build a frame at a non-smooth point")
    perm = tuple(reordering)
    Hp = H.permute(perm)
    Gp = G_num.permute(perm)
    Gdp = G_den.permute(perm) if G_den is not None else None
    cp = tuple(point[j] for j in perm)
    dirp = direction.permute(perm)

    window = order + p - 1 if v == "whole" else phase_window(terms, v)
    h_jet = implicit_root_jet(Hp, cp, order + p - 1, max(window, 2 * (terms - 1) + p))
    g_jet = phase_jet(h_jet, dirp, order, window)
    amps, _ = amplitude_jets(Gp, Hp, p, cp, h_jet, order, terms, G_den=Gdp)
    hess = phase_hessian(Hp, cp)

    frame = LocalFrame(
        point=cp,
        direction=dirp,
        p=p,
        h_jet=h_jet,
        phase=g_jet,
        amplitudes=amps,
        hessian=hess,
        reordering=perm,
        order=order,
        terms=terms,
    )
    validate_frame(frame)
    return frame


def validate_frame(frame):
    """Assert the identities every valid frame satisfies.

    The phase jet has zero constant term and vanishing gradient (criticality),
    and twice its order-2 coefficients reproduce the closed-form Hessian.
    The scale of the first two tests is the largest coefficient the phase
    holds, through its window.
    """
    g = frame.phase
    n = g.nvars
    scale = max((abs(v) for v in g.coeffs.values()), default=mpf(1))
    if abs(g.constant_coefficient()) > FRAME_TOL * scale:
        raise FrameError("phase jet has a nonzero constant term")
    for m in range(n):
        beta = tuple(1 if j == m else 0 for j in range(n))
        if abs(g.coefficient(beta)) > FRAME_TOL * max(scale, mpf(1)):
            raise FrameError(
                "phase gradient does not vanish: the point is not critical "
                "for this direction"
            )
    A = hessian_from_jet(g)
    B = frame.hessian
    hscale = max(
        max(abs(B[i, j]) for i in range(n) for j in range(n)), mpf(1e-30)
    )
    for i in range(n):
        for j in range(n):
            if abs(A[i, j] - B[i, j]) > FRAME_TOL * hscale:
                raise FrameError(
                    "phase Hessian from the jet disagrees with the closed form"
                )
