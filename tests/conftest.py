"""Shared fixtures: canonical polynomials and randomized smooth instances."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import settings
from mpmath import mp, mpc

from smoothasym import Direction, SparsePoly

from oracles import eval_exact

# the same examples on every run, and no per-example time limit
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def default_precision():
    old = mp.prec
    mp.prec = 212
    yield
    mp.prec = old


def poly(nvars, terms):
    return SparsePoly(nvars, {tuple(e): Fraction(c) for e, c in terms.items()})


@pytest.fixture
def delannoy():
    H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): -1})
    G = SparsePoly.constant(2, 1)
    return G, H, Direction((3, 2))


@pytest.fixture
def delannoy_point():
    s13 = mp.sqrt(13)
    return (mpc(-2 + s13) / 3, mpc(-3 + s13) / 2)


@pytest.fixture
def central_binomial():
    H = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1})
    G = SparsePoly.constant(2, 1)
    return G, H, Direction((1, 1))


@pytest.fixture
def quantum_walk():
    q = Fraction(1, 2)
    H = SparsePoly(2, {(0, 0): 1, (1, 0): -q, (1, 1): q, (2, 1): -1})
    G = SparsePoly(2, {(0, 0): 1, (1, 0): -q})
    return G, H, Direction((2, Fraction(1, 2)))


@pytest.fixture
def quartic_phase():
    """A smooth point whose torus phase vanishes to order 4 (even route).

    ``h = 16/P`` with ``P = -1 + 9x + 9x^2 - x^3``: at ``x = 1`` the weights
    of ``P`` have the first three moments of a point mass at 3/2, so
    ``log(P(e^{it})/16)`` is ``3it/2`` plus terms of degree 4 and beyond, and
    the direction (3, 2) cancels the linear term.  Returns (G, H, alpha,
    point).
    """
    H = poly(2, {(0, 0): 1, (0, 1): Fraction(1, 16), (1, 1): Fraction(-9, 16),
                 (2, 1): Fraction(-9, 16), (3, 1): Fraction(1, 16)})
    return SparsePoly.constant(2, 1), H, Direction((3, 2)), (mpc(1), mpc(1))


def smirnov_family(d=3):
    """H = 1 - e1 and the three snap-counting coefficient functions.

    Returns (H, [(G_num, G_den, p)]) for the plain word count (p=1), the snap
    count (p=2), and the second-moment combination (p=3).
    """
    one = SparsePoly.constant(d, 1)
    xs = [SparsePoly.variable(d, j) for j in range(d)]
    H = one
    for xj in xs:
        H = H - xj
    R = one
    for xj in xs:
        R = R * (one + xj)
    S = SparsePoly(d, {})
    for j in range(d):
        prod = SparsePoly.constant(d, 1)
        for i in range(d):
            prod = prod * ((one + xs[i]) if i != j else xs[j])
        S = S + prod
    P2 = R - S - H * R
    P3 = P2 * (R * 2 - S * 2 - H * R)
    return H, [
        (one, None, 1),
        (P2, R, 2),
        (P3, R * R, 3),
    ]


def random_critical_instance(rng, d, max_degree=4):
    """Random smooth polynomial with an exact positive critical point.

    Draws a random polynomial, then corrects its linear and constant parts so
    a chosen positive rational point lies on the variety and is critical for a
    chosen positive integer direction (all exact arithmetic).
    """
    while True:
        c = tuple(Fraction(rng.randint(1, 5), rng.randint(2, 7)) for _ in range(d))
        alpha = tuple(rng.randint(1, 4) for _ in range(d))
        terms = {}
        for _ in range(rng.randint(3, 7)):
            exp = [0] * d
            budget = rng.randint(1, max_degree)
            for _ in range(budget):
                exp[rng.randrange(d)] += 1
            terms[tuple(exp)] = Fraction(rng.randint(-4, 4))
        H0 = SparsePoly(d, terms)
        dHd = eval_exact(H0.partial(d - 1), c)
        if dHd == 0:
            continue
        kappa = c[d - 1] * dHd / alpha[d - 1]
        lams = []
        ok = True
        for j in range(d - 1):
            lam = alpha[j] * kappa / c[j] - eval_exact(H0.partial(j), c)
            lams.append(lam)
        H = H0
        for j, lam in enumerate(lams):
            H = H + SparsePoly.variable(d, j) * lam
        H = H - SparsePoly.constant(d, eval_exact(H, c))
        # reconfirm smoothness in the last coordinate after the correction
        if eval_exact(H.partial(d - 1), c) == 0:
            continue
        return H, c, Direction(alpha)


@pytest.fixture
def rng():
    return random.Random(20260810)
