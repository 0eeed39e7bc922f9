"""Batch front end: problem specs in JSON, expansions and tables out.

Pipeline per spec, in every dimension: solve the critical-point system,
classify the points, expand at the chosen minimal point(s) (univariate route
in one variable, nondegenerate or degenerate route beyond), evaluate against
the exact coefficient oracle, and emit a paper-style CSV table plus a
machine-readable JSON result.

Exit codes: 2 no valid critical point, 3 minimality unknown without the
override flag, 4 degenerate Hessian in more than two variables; a malformed
spec or anything else malformed exits 1.  Diagnostics go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf

from . import __version__
from .expansion import (
    DegenerateHessianError,
    ExpansionError,
    combine_expansions,
    expand_degenerate,
    expand_smooth,
    expand_univariate,
)
from .geometry import Direction, GeometryError, build_report, solve_critical
from .localframe import (FrameError, build_frame, frame_order, phase_window, search_order,
                         vanishing_order)
from .oracle import maclaurin_table
from .series import (DEFAULT_BITS, GaussRat, SeriesError, SparsePoly, check_precision,
                     coef_to_mpc, json_int, parse_fraction, parse_rational, workprec)

EXIT_NO_CRITICAL = 2
EXIT_MINIMALITY_UNKNOWN = 3
EXIT_DEGENERATE_HIGH_DIM = 4


class PipelineExit(Exception):
    def __init__(self, code, message, **details):
        super().__init__(message)
        self.code = code
        self.diagnostic = {"error": message, **details}


def format_value(z, digits=10):
    """Decimal string; collapses to the real part when imaginary dust only."""
    z = mpc(z)
    if abs(z.imag) <= mpf("1e-9") * max(abs(z.real), mpf(1e-30)):
        return mp.nstr(z.real, digits)
    return f"{mp.nstr(z.real, digits)}{'+' if z.imag >= 0 else ''}{mp.nstr(z.imag, digits)}j"


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


@dataclass
class ProblemSpec:
    """One expansion request: F = G/H^p along a direction."""

    variables: list
    G_num: SparsePoly
    H: SparsePoly
    p: int
    alpha: Direction
    N: int
    n_values: list
    G_den: SparsePoly = None
    seeds: list = None
    assume_strictly_minimal: bool = False
    force_degenerate: bool = False
    precision_bits: int = DEFAULT_BITS

    def __post_init__(self):
        d = len(self.variables)
        if self.H.nvars != d or self.G_num.nvars != d:
            raise SeriesError("polynomial arity does not match the variable list")
        if self.G_den is not None and self.G_den.nvars != d:
            raise SeriesError("denominator arity does not match the variable list")
        if self.p < 1:
            raise SeriesError("p must be a positive integer")
        if self.N < 1:
            raise SeriesError("N must be a positive integer")
        if any(n < 1 for n in self.n_values):
            raise SeriesError("n_values entries must be positive integers")
        check_precision(self.precision_bits)
        if self.alpha.d != d:
            raise SeriesError("direction length does not match the variable list")

    @property
    def d(self):
        return len(self.variables)

    @classmethod
    def from_json(cls, obj):
        if isinstance(obj, str):
            obj = json.loads(obj)
        variables = obj["variables"]
        if not isinstance(variables, list):
            raise SeriesError("variables must be a list of names")
        d = len(variables)
        G = obj["G"]
        if isinstance(G, dict) and "numer" in G:
            G_num = SparsePoly.from_json(G["numer"], nvars=d)
            G_den = SparsePoly.from_json(G["denom"], nvars=d) if G.get("denom") else None
        else:
            G_num = SparsePoly.from_json(G, nvars=d)
            G_den = None
        H = SparsePoly.from_json(obj["H"], nvars=d)
        overrides = obj.get("overrides", {})
        n_values = obj.get("n_values", [1, 2, 4, 8, 16])
        if not isinstance(n_values, list):
            raise SeriesError("n_values must be a list of integers")
        seeds = None
        if obj.get("seeds"):
            seeds = [
                [_parse_complex(z) for z in point] for point in obj["seeds"]
            ]
        return cls(
            variables=variables,
            G_num=G_num,
            G_den=G_den,
            H=H,
            p=json_int(obj.get("p", 1), "p"),
            alpha=Direction(tuple(parse_rational(a, "alpha") for a in obj["alpha"])),
            N=json_int(obj.get("N", 2), "N"),
            n_values=[json_int(n, "n_values") for n in n_values],
            seeds=seeds,
            assume_strictly_minimal=_json_bool(overrides, "assume_strictly_minimal"),
            force_degenerate=_json_bool(overrides, "force_degenerate"),
            precision_bits=json_int(obj.get("precision_bits", DEFAULT_BITS), "precision_bits"),
        )


def _json_bool(overrides, name):
    """The override ``name``, false when absent; only a JSON boolean is one."""
    value = overrides.get(name, False)
    if not isinstance(value, bool):
        raise SeriesError(f"overrides.{name}: {value!r} is not a boolean")
    return value


def _not_bool(value, name):
    """``value``, refusing a boolean, which would read as 0 or 1."""
    if isinstance(value, bool):
        raise SeriesError(f"{name}: {value!r} is not a number")
    return value


def _parse_complex(z):
    if isinstance(z, (list, tuple)):
        re, im = z
    else:
        re, im = z, 0
    re, im = _not_bool(re, "seeds"), _not_bool(im, "seeds")
    re = parse_fraction(re) if isinstance(re, str) else re
    im = parse_fraction(im) if isinstance(im, str) else im
    return mpc(mpf(re.numerator) / re.denominator if isinstance(re, Fraction) else re,
               mpf(im.numerator) / im.denominator if isinstance(im, Fraction) else im)


def provenance(spec):
    return {
        "tool": f"smoothasym {__version__}",
        "precision_bits": spec.precision_bits,
        "overrides": {
            "assume_strictly_minimal": spec.assume_strictly_minimal,
            "force_degenerate": spec.force_degenerate,
        },
    }


# -- point selection -----------------------------------------------------------


def analyze_critical_points(spec):
    """Solve the system and classify every solution; raises on empty."""
    if not spec.H.constant_term():
        raise PipelineExit(EXIT_NO_CRITICAL, "origin on variety: H(0) = 0")
    if spec.G_den is not None and not spec.G_den.constant_term():
        raise PipelineExit(1, "G denominator vanishes at the origin")
    try:
        points, checks = solve_critical(spec.H, spec.alpha, seeds=spec.seeds)
    except GeometryError as exc:
        raise PipelineExit(EXIT_NO_CRITICAL, f"critical solve failed: {exc}")
    if not points:
        advice = "; supply seeds for more than two variables" if spec.d >= 3 else ""
        raise PipelineExit(EXIT_NO_CRITICAL, "no critical point converged" + advice)
    reports = []
    for pt, check in zip(points, checks):
        others = [q for q in points if q is not pt]
        reports.append(build_report(spec.H, pt, check, other_points=others))
    return reports


def select_expansion_points(spec, reports):
    """The smooth minimal point(s) the expansion is taken around.

    Strictly minimal points qualify, and so do finitely minimal ones: the
    roots of least modulus in one variable, whose expansions are summed.
    """
    smooth = [r for r in reports if r.smooth]
    if not smooth:
        raise PipelineExit(EXIT_NO_CRITICAL, "no smooth critical point found")
    chosen = [
        r for r in smooth
        if r.minimality.kind in ("strictly-minimal", "finitely-minimal")
    ]
    if not chosen and spec.assume_strictly_minimal:
        chosen = [r for r in smooth if r.minimality.kind != "not-minimal"]
    if not chosen:
        kinds = sorted({r.minimality.kind for r in smooth})
        raise PipelineExit(
            EXIT_MINIMALITY_UNKNOWN,
            "no strictly minimal critical point certified "
            f"(verdicts: {', '.join(kinds)}); pass --assume-strictly-minimal to "
            "override",
            verdicts=kinds,
        )
    # keep the group with the largest exponential base |c^(-alpha)|
    mags = [spec.alpha.base_magnitude(r.point) for r in chosen]
    best = max(mags)
    group = [r for r, mag in zip(chosen, mags) if mag >= best * (1 - mpf("1e-9"))]
    # every companion of a finitely minimal point shares its base, so it is in
    # the group unless it is not smooth, and then the sum would miss its pole
    if any(len(r.minimality.companions) >= len(group) for r in group):
        raise PipelineExit(
            EXIT_NO_CRITICAL, "a critical point of minimal modulus is not smooth"
        )
    return group


# -- expansion construction ------------------------------------------------------


def build_expansion(spec):
    """Full route: reports -> frames -> expansion (single point or combined)."""
    reports = analyze_critical_points(spec)
    group = select_expansion_points(spec, reports)
    return combine_expansions([_expand_at_point(spec, rep) for rep in group]), reports


def _expand_at_point(spec, report):
    if spec.d == 1:
        try:
            return expand_univariate(
                spec.G_num, spec.H, spec.p, report.point, G_den=spec.G_den,
                direction=spec.alpha,
            )
        except (ExpansionError, FrameError, GeometryError, SeriesError) as exc:
            raise PipelineExit(EXIT_NO_CRITICAL, f"univariate expansion failed: {exc}")

    def frame_of_order(order, v=None):
        return build_frame(
            spec.G_num, spec.H, spec.p, spec.alpha, report.point, order, spec.N,
            G_den=spec.G_den, reordering=report.reordering, v=v,
        )

    try:
        frame = frame_of_order(frame_order(spec.N))
    except FrameError as exc:
        raise PipelineExit(EXIT_NO_CRITICAL, f"frame construction failed: {exc}")
    if not spec.force_degenerate:
        try:
            return expand_smooth(frame, spec.N)
        except DegenerateHessianError:
            pass
    if spec.d != 2:
        raise PipelineExit(
            EXIT_DEGENERATE_HIGH_DIM,
            "degenerate phase Hessian in more than two variables is out of scope",
        )
    try:
        v = vanishing_order(frame.phase)
        if v is None:
            # v lies beyond the window 2N: search the whole phase
            frame = frame_of_order(search_order(spec.N), "whole")
            v = vanishing_order(frame.phase)
            if v is None:
                raise FrameError("phase numerically flat")
        if (frame.order < frame_order(spec.N, v)
                or frame.phase.held_through() < phase_window(spec.N, v)):
            frame = frame_of_order(frame_order(spec.N, v), v)
        return expand_degenerate(frame, spec.N, v=v)
    except FrameError as exc:
        raise PipelineExit(EXIT_NO_CRITICAL, f"degenerate route failed: {exc}")


# -- table assembly ---------------------------------------------------------------


def usable_n_values(spec):
    """``(usable, skipped)``: the requested n whose indices ``n alpha`` are
    integral, and the others.  Exits 1 when ``n_values`` is empty or no n is
    usable; ``expand`` checks this before it builds anything."""
    if not spec.n_values:
        raise PipelineExit(1, "n_values is empty")
    usable = [n for n in spec.n_values if spec.alpha.n_is_integral(n)]
    skipped = [n for n in spec.n_values if n not in usable]
    if not usable:
        raise PipelineExit(
            1,
            "no requested n gives integral coefficient indices for this direction",
            skipped=[int(n) for n in skipped],
        )
    return usable, skipped


def exact_table(spec, usable):
    """The exact table of every index ``n alpha``, n in ``usable``."""
    cells = [spec.alpha.index_for(n) for n in usable]
    return maclaurin_table(spec.G_num, spec.H, spec.p, cells, G_den=spec.G_den)


def evaluation_rows(spec, expansion, usable):
    """Paper-style rows: n, exact, one-term, N-term, signed relative errors.

    Relative error convention matches the published tables:
    ``(exact - approx) / exact``.
    """
    table = exact_table(spec, usable)
    rows = []
    for n in usable:
        idx = spec.alpha.index_for(n)
        exact = table.coeff_at(idx)
        exact_mp = coef_to_mpc(exact)
        approx1, _ = expansion.evaluate(n, terms=1)
        approxN, _ = expansion.evaluate(n)
        rel1 = (exact_mp - approx1) / exact_mp if exact_mp != 0 else mpc("nan")
        relN = (exact_mp - approxN) / exact_mp if exact_mp != 0 else mpc("nan")
        rows.append(
            {
                "n": n,
                "index": list(idx),
                "exact": exact,
                "approx_1": approx1,
                "approx_N": approxN,
                "rel_err_1": rel1,
                "rel_err_N": relN,
            }
        )
    return rows


def rows_to_csv(rows):
    lines = ["n,exact,approx_1,approx_N,rel_err_1,rel_err_N"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    str(row["n"]),
                    decimal_str(row["exact"], 10),
                    format_value(row["approx_1"], 10),
                    format_value(row["approx_N"], 10),
                    format_value(row["rel_err_1"], 10),
                    format_value(row["rel_err_N"], 10),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# -- the three commands ------------------------------------------------------------


def run_expand(spec):
    """expansion + oracle comparison; returns (result dict, csv text)."""
    with workprec(spec.precision_bits):
        usable, skipped = usable_n_values(spec)
        expansion, reports = build_expansion(spec)
        rows = evaluation_rows(spec, expansion, usable)
        result = {
            "provenance": provenance(spec),
            "critical_points": [r.to_json() for r in reports],
            "expansion": expansion.to_json(),
            "table": [
                {
                    "n": row["n"],
                    "index": row["index"],
                    "exact": decimal_str(row["exact"], 20),
                    "approx_1": format_value(row["approx_1"], 20),
                    "approx_N": format_value(row["approx_N"], 20),
                    "rel_err_1": format_value(row["rel_err_1"], 20),
                    "rel_err_N": format_value(row["rel_err_N"], 20),
                }
                for row in rows
            ],
        }
        if skipped:
            result["skipped_n"] = [int(n) for n in skipped]
        return result, rows_to_csv(rows)


def run_critical(spec):
    """Critical-point reports only."""
    with workprec(spec.precision_bits):
        reports = analyze_critical_points(spec)
        return {
            "provenance": provenance(spec),
            "critical_points": [r.to_json() for r in reports],
        }


def run_oracle(spec):
    """Exact coefficients at the requested indices, as CSV rows."""
    with workprec(spec.precision_bits):
        usable, _ = usable_n_values(spec)
        table = exact_table(spec, usable)
        header = (
            [f"beta_{v}" for v in spec.variables] + ["exact_rational", "decimal"]
        )
        lines = [",".join(header)]
        for n in usable:
            idx = spec.alpha.index_for(n)
            val = table.coeff_at(idx)
            cells = [str(i) for i in idx] + [rational_str(val), decimal_str(val, 10)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# -- argument handling ---------------------------------------------------------------


def _apply_cli_overrides(spec_obj, args):
    if args.N is not None:
        spec_obj["N"] = args.N
    if args.n_values is not None:
        spec_obj["n_values"] = [int(x) for x in args.n_values.split(",") if x]
    if args.precision_bits is not None:
        spec_obj["precision_bits"] = args.precision_bits
    if args.assume_strictly_minimal:
        spec_obj.setdefault("overrides", {})["assume_strictly_minimal"] = True
    if args.seeds is not None:
        spec_obj["seeds"] = json.loads(args.seeds)
    return spec_obj


def _write_or_print(text, path):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="smoothasym",
        description="Asymptotics of Maclaurin coefficients of G/H^p at smooth "
        "minimal critical points, validated against an exact oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("expand", "full pipeline: critical points, expansion, oracle table"),
        ("critical", "critical-point reports only"),
        ("oracle", "exact coefficients at the requested indices"),
    ):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--input", required=True, help="problem spec JSON file")
        sp.add_argument("--N", type=int, default=None, help="number of terms")
        sp.add_argument("--n-values", dest="n_values", default=None,
                        help="comma-separated evaluation indices")
        sp.add_argument("--precision-bits", dest="precision_bits", type=int,
                        default=None)
        sp.add_argument("--assume-strictly-minimal", action="store_true",
                        help="expand at an uncertified minimal point anyway")
        sp.add_argument("--seeds", default=None,
                        help="JSON list of seed points for the solver")
        sp.add_argument("--out-json", dest="out_json", default=None)
        sp.add_argument("--out-csv", dest="out_csv", default=None)
    args = parser.parse_args(argv)

    try:
        with open(args.input) as fh:
            spec_obj = json.load(fh)
        spec = ProblemSpec.from_json(_apply_cli_overrides(spec_obj, args))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        diagnostic = {"error": f"malformed spec: {exc}"}
        sys.stderr.write(json.dumps(diagnostic, sort_keys=True) + "\n")
        return 1
    try:
        if args.command == "expand":
            result, csv_text = run_expand(spec)
            _write_or_print(json.dumps(result, indent=2, sort_keys=True) + "\n",
                            args.out_json)
            if args.out_csv:
                _write_or_print(csv_text, args.out_csv)
            else:
                sys.stdout.write(csv_text)
        elif args.command == "critical":
            result = run_critical(spec)
            _write_or_print(json.dumps(result, indent=2, sort_keys=True) + "\n",
                            args.out_json)
        else:
            csv_text = run_oracle(spec)
            _write_or_print(csv_text, args.out_csv)
        return 0
    except PipelineExit as exc:
        sys.stderr.write(json.dumps(exc.diagnostic, sort_keys=True) + "\n")
        return exc.code
    except (SeriesError, GeometryError, FrameError, ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
