"""Span tracing from outside the program, and per-layer self times.

``Tracer.install`` replaces the public functions the pipeline calls with
wrappers at the names they are looked up under (``cli.solve_critical``,
``localframe.implicit_root_jet``, ``Jet.__mul__``, ...), so no program file
changes.  Each wrapped call appends one span ``[name, start, end, parent,
request, info]`` to an in-memory list; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.request = None  # id stamped on every span that starts

    def wrap(self, name, fn, info=None):
        """``fn`` wrapped to record a span; ``info(args, result)`` may add counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = perf_counter()
            if info is not None:
                rec[5] = info(args, result)
            return result

        return traced

    def install(self, points):
        """Wrap ``owner.attr`` for each ``(owner, attr, span_name, info)``."""
        for owner, attr, name, info in points:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, info))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, request, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "info": info}) + "\n")


def trace_points(modules):
    """The wrap list for the smoothasym modules ``cli, geometry, localframe,
    expansion, series``."""
    cli, geometry, localframe, expansion, series = modules

    def points_found(args, result):
        return {"points": len(result[0])}

    def verdict(args, result):
        return {"verdict": result.kind}

    def frame_order(args, result):
        return {"order": result.order}

    def box_cells(args, result):
        return {"cells": math.prod(b + 1 for b in result.bounds)}

    def exit_code(args, result):
        return {"exit": result}

    return [
        (cli, "main", "cli.main", exit_code),
        (cli, "solve_critical", "cli.solve_critical", points_found),
        (cli, "build_report", "cli.build_report", None),
        (cli, "build_frame", "cli.build_frame", frame_order),
        (cli, "expand_smooth", "cli.expand_smooth", None),
        (cli, "expand_degenerate", "cli.expand_degenerate", None),
        (cli, "maclaurin_table", "cli.maclaurin_table", box_cells),
        (geometry, "check_minimality", "geometry.check_minimality", verdict),
        (geometry, "check_smooth", "geometry.check_smooth", None),
        (localframe, "implicit_root_jet", "localframe.implicit_root_jet", None),
        (localframe, "phase_jet", "localframe.phase_jet", None),
        (localframe, "amplitude_jets", "localframe.amplitude_jets", None),
        (localframe, "phase_hessian", "localframe.phase_hessian", None),
        (localframe, "validate_frame", "localframe.validate_frame", None),
        (localframe, "jet_circle_substitute", "localframe.jet_circle_substitute", None),
        (expansion, "stationary_term", "expansion.stationary_term", None),
        (expansion, "stationary_term_even", "expansion.stationary_term_even", None),
        (expansion, "stationary_term_odd", "expansion.stationary_term_odd", None),
        (expansion.Expansion, "evaluate", "Expansion.evaluate", None),
        (series.Jet, "__mul__", "Jet.__mul__", None),
        (series.Jet, "reciprocal", "Jet.reciprocal", None),
        (series.Jet, "log", "Jet.log", None),
        (series.Jet, "pow_int", "Jet.pow_int", None),
        (series.Jet, "substitute", "Jet.substitute", None),
    ]


def self_times(spans):
    """Per span: its duration minus the part of it its children cover."""
    children = defaultdict(list)
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            children[rec[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        reach = start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# span name -> per-layer metric that sums its self time
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "cli.solve_critical": "geometry.solve_s",
    "cli.build_report": "geometry.classify_s",
    "geometry.check_smooth": "geometry.smooth_s",
    "geometry.check_minimality": "geometry.minimality_s",
    "cli.build_frame": "localframe.frame_s",
    "localframe.implicit_root_jet": "localframe.implicit_s",
    "localframe.phase_jet": "localframe.phase_s",
    "localframe.amplitude_jets": "localframe.amplitude_s",
    "localframe.phase_hessian": "localframe.hessian_s",
    "localframe.validate_frame": "localframe.validate_s",
    "Jet.__mul__": "series.jet_mul_s",
    "Jet.reciprocal": "series.jet_reciprocal_s",
    "Jet.log": "series.jet_log_s",
    "Jet.pow_int": "series.jet_pow_int_s",
    "Jet.substitute": "series.jet_substitute_s",
    "localframe.jet_circle_substitute": "series.circle_substitute_s",
    "expansion.stationary_term": "stationary.term_s",
    "expansion.stationary_term_even": "stationary.term_s",
    "expansion.stationary_term_odd": "stationary.term_s",
    "cli.expand_smooth": "expansion.self_s",
    "cli.expand_degenerate": "expansion.self_s",
    "Expansion.evaluate": "expansion.evaluate_s",
    "cli.maclaurin_table": "oracle.table_s",
}

CALL_METRICS = {
    "cli.main": "cli.requests",
    "cli.solve_critical": "geometry.solve_calls",
    "cli.build_frame": "localframe.frame_calls",
    "Jet.__mul__": "series.jet_mul_calls",
    "expansion.stationary_term": "stationary.term_calls",
    "expansion.stationary_term_even": "stationary.term_calls",
    "expansion.stationary_term_odd": "stationary.term_calls",
    "Expansion.evaluate": "expansion.evaluate_calls",
    "cli.maclaurin_table": "oracle.table_calls",
}

VERDICTS = {
    "strictly-minimal": "geometry.verdict_strict",
    "minimal": "geometry.verdict_minimal",
    "not-minimal": "geometry.verdict_not_minimal",
    "unknown": "geometry.verdict_unknown",
}

LAYER_METRICS = (
    ["cli.self_s", "cli.requests", "cli.exit_0", "cli.exit_2", "cli.exit_3",
     "cli.tracebacks",
     "geometry.solve_s", "geometry.solve_calls", "geometry.points",
     "geometry.classify_s", "geometry.smooth_s", "geometry.minimality_s"]
    + list(VERDICTS.values())
    + ["geometry.decided_frac",
       "localframe.frame_s", "localframe.frame_calls", "localframe.implicit_s",
       "localframe.phase_s", "localframe.amplitude_s", "localframe.hessian_s",
       "localframe.validate_s", "localframe.max_order",
       "series.jet_mul_calls", "series.jet_mul_s", "series.jet_reciprocal_s",
       "series.jet_log_s", "series.jet_pow_int_s", "series.jet_substitute_s",
       "series.circle_substitute_s",
       "stationary.term_s", "stationary.term_calls",
       "expansion.expand_s", "expansion.self_s", "expansion.evaluate_s",
       "expansion.evaluate_calls",
       "oracle.table_s", "oracle.table_calls", "oracle.cells", "oracle.cells_per_s"]
)

# the layer each self-time metric belongs to, for layer shares of wall time
LAYER_OF = {m: m.split(".")[0] for m in set(SELF_TIME_METRICS.values())}


def layer_metrics(spans, passes):
    """Per-layer metrics per pass, from the spans of ``passes`` whole passes."""
    m = dict.fromkeys(LAYER_METRICS, 0)
    selfs = self_times(spans)
    for (name, start, end, _parent, _req, info), own in zip(spans, selfs):
        info = info or {}
        if name in SELF_TIME_METRICS:
            m[SELF_TIME_METRICS[name]] += own
        if name in CALL_METRICS:
            m[CALL_METRICS[name]] += 1
        if name in ("cli.expand_smooth", "cli.expand_degenerate"):
            m["expansion.expand_s"] += end - start
        if name == "cli.main":
            if "raised" in info:
                m["cli.tracebacks"] += 1
            elif f"cli.exit_{info['exit']}" in m:
                m[f"cli.exit_{info['exit']}"] += 1
        m["geometry.points"] += info.get("points", 0)
        m["oracle.cells"] += info.get("cells", 0)
        if "verdict" in info:
            m[VERDICTS.get(info["verdict"], "geometry.verdict_unknown")] += 1
        if "order" in info:
            m["localframe.max_order"] = max(m["localframe.max_order"], info["order"])
    classified = sum(m[v] for v in VERDICTS.values())
    decided = m["geometry.verdict_strict"] + m["geometry.verdict_not_minimal"]
    for key in m:
        if key != "localframe.max_order":
            m[key] /= passes
    m["geometry.decided_frac"] = decided / classified if classified else 0.0
    m["oracle.cells_per_s"] = m["oracle.cells"] / m["oracle.table_s"] if m["oracle.table_s"] else 0.0
    return m


def layer_shares(metrics, wall):
    """Self time of each layer as a share of traced wall time."""
    shares = defaultdict(float)
    for metric, layer in LAYER_OF.items():
        shares[layer] += metrics[metric]
    return {layer: t / wall for layer, t in sorted(shares.items())}
