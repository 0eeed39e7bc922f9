"""Output checks for one request, independent of the program's own code.

A request fails when ``cli.main`` raises, returns an exit code its spec does
not allow (exit 1 is never allowed), or writes output that fails a check:

- flattened expansion coefficients agree with the stored reference to
  ``2^-(prec-20)`` relative (the ROADMAP accuracy rule);
- exact oracle values are string-identical to the stored reference, and
  agree with an independent exact value where the benchmark can compute one
  (Delannoy and multinomial closed forms; a dense series recurrence for
  small boxes) to the 20 significant digits the output carries;
- every reported critical point has residuals below tolerance, and every
  ``not-minimal`` verdict carries a witness on the variety whose moduli are
  strictly inside the point's.  Verdict text is not compared, so a better
  minimality decision still passes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

CSV_HEADER = "n,exact,approx_1,approx_N,rel_err_1,rel_err_N"
RESIDUAL_TOL = Fraction(1, 10**10)
EXACT_REL_TOL = Fraction(1, 10**19)  # the JSON table's exact column has 20 digits
SERIES_CHECK_MAX_CELLS = 5000
DEFAULT_BITS = 212


@dataclass
class Outcome:
    """What one ``cli.main`` call did."""

    rid: str
    code: object  # exit code, or None when an exception escaped
    error: str  # traceback text when an exception escaped, else None
    seconds: float  # raw wall time of the call
    json_text: str = None
    csv_text: str = None
    stderr: str = ""
    start: float = 0.0  # perf_counter when the call began
    scaled: float = None  # ``seconds`` at the reference speed (speed.py)


def check(req, out, reference=None):
    """Problems with one request's outcome; an empty list means it passed."""
    if out.error is not None:
        return ["exception escaped cli.main: " + out.error.strip().splitlines()[-1]]
    if out.code not in req.expect:
        return [f"exit code {out.code}, expected one of {list(req.expect)}: {out.stderr.strip()}"]
    if out.code != 0:
        try:
            json.loads(out.stderr.strip().splitlines()[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            return [f"exit {out.code} without a JSON diagnostic on stderr"]
        return []
    try:
        result = json.loads(out.json_text)
        if req.command == "expand":
            return _check_expand(req, result, out.csv_text, reference)
        return _check_critical(req, result)
    except (TypeError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


# -- expand --------------------------------------------------------------------


def _check_expand(req, result, csv_text, reference):
    problems = []
    spec = req.spec
    rows = result["table"]
    if [row["n"] for row in rows] != list(spec["n_values"]):
        problems.append(f"table rows {[r['n'] for r in rows]} != n_values {spec['n_values']}")
    lines = (csv_text or "").splitlines()
    if not lines or lines[0] != CSV_HEADER or len(lines) != len(rows) + 1:
        problems.append("CSV header or row count wrong")
    ref = (reference or {}).get(req.key())
    if ref is not None:
        problems += _compare_flattened(result["expansion"]["flattened"]["terms"],
                                       ref["flattened"],
                                       int(spec.get("precision_bits", DEFAULT_BITS)))
        for row in rows:
            want = ref["exact"].get(str(row["n"]))
            if want is not None and row["exact"] != want:
                problems.append(f"n={row['n']}: exact {row['exact']} != reference {want}")
    alpha = [Fraction(a) for a in spec["alpha"]]
    for row in rows:
        index = [int(a * row["n"]) for a in alpha]
        value = independent_exact(req, index)
        if value is not None and not decimal_agrees(row["exact"], value):
            problems.append(f"n={row['n']}: exact {row['exact']} != independent {value}")
    return problems


def _compare_flattened(terms, ref_terms, bits):
    if [t["exponent"] for t in terms] != [e for e, _, _ in ref_terms]:
        return ["flattened exponents differ from the reference"]
    tol = Fraction(1, 2 ** (bits - 20))
    problems = []
    for t, (e, re, im) in zip(terms, ref_terms):
        got = (_frac(t["coef"]["re"]), _frac(t["coef"]["im"]))
        want = (_frac(re), _frac(im))
        err2 = (got[0] - want[0]) ** 2 + (got[1] - want[1]) ** 2
        if err2 > tol**2 * (want[0] ** 2 + want[1] ** 2):
            problems.append(f"flattened coefficient of n^({e}) off the reference")
    return problems


def reference_entry(result):
    """What the reference stores for one expand result."""
    return {
        "flattened": [[t["exponent"], t["coef"]["re"], t["coef"]["im"]]
                      for t in result["expansion"]["flattened"]["terms"]],
        "exact": {str(row["n"]): row["exact"] for row in result["table"]},
    }


def _frac(text):
    return Fraction(Decimal(text))


def decimal_agrees(text, value):
    """The decimal string rounds ``value`` to the output's 20 digits."""
    got = _frac(text)
    if value == 0:
        return got == 0
    return abs(got - value) <= EXACT_REL_TOL * abs(value)


def independent_exact(req, index):
    """The exact coefficient at ``index`` by the benchmark's own arithmetic,
    or None where no closed form applies and the box is too large."""
    if req.closed_form == "delannoy":
        a, b = index
        return sum(math.comb(a, k) * math.comb(b, k) * 2**k for k in range(min(a, b) + 1))
    if req.closed_form == "multinomial":
        return math.factorial(sum(index)) // math.prod(math.factorial(i) for i in index)
    if math.prod(i + 1 for i in index) > SERIES_CHECK_MAX_CELLS:
        return None
    return series_coefficient(req.spec, index)


def _poly(terms):
    out = {}
    for t in terms:
        e = tuple(int(x) for x in t["exp"])
        out[e] = out.get(e, 0) + Fraction(t["coef"])
    return out


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def series_coefficient(spec, index):
    """``[x^index] G / H^p`` by the recurrence ``D F = numer``, ``D = denom H^p``."""
    G = spec["G"]
    numer = _poly(G["numer"] if isinstance(G, dict) else G)
    d = len(index)
    D = _poly(G["denom"]) if isinstance(G, dict) and G.get("denom") else {(0,) * d: Fraction(1)}
    H = _poly(spec["H"])
    for _ in range(int(spec.get("p", 1))):
        D = _pmul(D, H)
    d0 = D[(0,) * d]
    steps = [(e, c) for e, c in D.items() if any(e) and c]
    F = {}
    for beta in itertools.product(*(range(i + 1) for i in index)):
        acc = numer.get(beta, 0)
        for e, c in steps:
            prev = tuple(b - g for b, g in zip(beta, e))
            if min(prev) >= 0:
                acc -= c * F[prev]
        F[beta] = acc / d0
    return F[tuple(index)]


# -- critical ------------------------------------------------------------------


def _check_critical(req, result):
    problems = []
    points = result["critical_points"]
    if not points:
        return ["exit 0 with no critical point reported"]
    H = _poly(req.spec["H"])
    scale = max(max(abs(c) for c in H.values()), 1)
    for i, rep in enumerate(points):
        point = [_cplx(z) for z in rep["point"]]
        if not (_frac(rep["residual_H"]) < RESIDUAL_TOL
                and _frac(rep["residual_critical"]) < RESIDUAL_TOL):
            problems.append(f"point {i}: reported residuals above {float(RESIDUAL_TOL)}")
        if _abs2(_peval(H, point)) > (RESIDUAL_TOL * scale) ** 2:
            problems.append(f"point {i}: H(point) is not below tolerance")
        verdict = rep["minimality"]
        if verdict["kind"] != "not-minimal":
            continue
        witness = verdict.get("witness")
        if not witness or len(witness) != len(point):
            problems.append(f"point {i}: not-minimal without a witness")
            continue
        witness = [_cplx(z) for z in witness]
        if not all(_abs2(w) < _abs2(c) for w, c in zip(witness, point)):
            problems.append(f"point {i}: witness moduli not strictly inside")
        if _abs2(_peval(H, witness)) > (RESIDUAL_TOL * scale) ** 2:
            problems.append(f"point {i}: witness is not on the variety")
    return problems


def _cplx(z):
    return (_frac(z["re"]), _frac(z["im"]))


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _abs2(z):
    return z[0] ** 2 + z[1] ** 2


def _peval(P, point):
    total = (Fraction(0), Fraction(0))
    for e, c in P.items():
        term = (c, Fraction(0))
        for z, k in zip(point, e):
            for _ in range(k):
                term = _cmul(term, z)
        total = (total[0] + term[0], total[1] + term[1])
    return total
