#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for smoothasym.

    python3 perfbench/run.py --workload jets_high_order --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  One client sends requests in a closed loop: each request
is one in-process ``smoothasym.cli.main([...])`` call on a generated spec
file, writing its JSON and CSV to a scratch directory, and the next request
starts when it returns.  A pass is one run over the workload's requests;
passes repeat until ``--seconds`` have elapsed (the first pass always
completes).  Every output is checked (see ``checks.py``).  Reported times
are scaled to a fixed reference machine speed: request times by a
calibration kernel (see ``speed.py``), ``setup_s`` by a calibration start-up
(see ``measure_setup``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced
passes for half the time, then traced passes, and prints the per-layer
metrics (see ``spans.py``) and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  ``--write-reference`` regenerates ``reference.json`` from the
current program at the default seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
# The set-up calibration probe, and about its median time on the 2-CPU
# machine the seed numbers come from: setup_s is in seconds at that speed.
CALIBRATION = "import numpy, mpmath; print('ready', flush=True)"
REF_IMPORT_S = 0.2

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "requests_per_s": "1/s",
    "request_s_p50": "s",
    "peak_rss_mb": "MB",
}


def import_cli():
    """``smoothasym.cli`` from this checkout's ``src/``, never an installed copy."""
    pkg = ROOT / "src" / "smoothasym"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"perfbench: no smoothasym sources at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    from smoothasym import cli

    if Path(cli.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def prepare(workload, seed, workdir):
    """Import the program and write the workload's spec files: the set-up."""
    cli = import_cli()
    requests = gen.generate(workload, seed, gen.load_docs(ROOT))
    return cli, requests, gen.write_specs(requests, workdir)


def measure_setup(workload, seed):
    """Median time from a fresh interpreter to the first request being ready,
    in seconds at the reference speed.

    Each set-up probe is paired with a calibration probe: a fresh interpreter
    that imports only numpy and mpmath, which the program does not control.
    The set-up median is multiplied by ``REF_IMPORT_S`` over the calibration
    median.  Raw set-up times drifted by up to 40 % between half-hour windows
    on the shared host, and the calibration drifted with them: over ten runs
    of nine pairs, scaling cut the spread (quartile distance over median) of
    the reported value from 12 % to 5 %.  The speed probe's kernel tracks a
    start-up's file reads and module loading badly, and scaling by it made
    the spread worse (35 %).
    """
    setups, calibrations = [], []
    for i in range(SETUP_REPEATS):
        workdir = STATE / f"probe-{workload}-{seed}-{i}"
        setups.append(_seconds_to_ready(
            [str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)]))
        shutil.rmtree(workdir, ignore_errors=True)
        calibrations.append(_seconds_to_ready(["-c", CALIBRATION]))
    return statistics.median(setups) * REF_IMPORT_S / statistics.median(calibrations)


def _seconds_to_ready(args):
    """Time from starting ``python args`` until it prints ``ready``."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def call(cli, req, spec_path, workdir):
    """One closed-loop request: ``cli.main`` on the spec, outputs read back."""
    out_json = workdir / f"{req.rid}.out.json"
    out_csv = workdir / f"{req.rid}.out.csv"
    for path in (out_json, out_csv):
        path.unlink(missing_ok=True)
    argv = [req.command, "--input", str(spec_path),
            "--out-json", str(out_json), "--out-csv", str(out_csv)]
    err = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        seconds = time.perf_counter() - t0
    except SystemExit as exc:
        seconds = time.perf_counter() - t0
        code = exc.code
    except Exception:  # a traceback escaping cli.main is a failed request
        seconds = time.perf_counter() - t0
        code, error = None, traceback.format_exc()
    return checks.Outcome(req.rid, code, error, seconds, _read(out_json), _read(out_csv),
                          err.getvalue(), start=t0)


def _read(path):
    return path.read_text() if path.exists() else None


def run_passes(cli, requests, paths, workdir, until, tracer=None, whole=False):
    """Passes until ``until`` (perf_counter time); the first always completes.

    Returns (number of complete passes, every outcome).  Unless ``whole``, a
    pass stops before a request that would start after ``until``.
    """
    passes, outcomes = 0, []
    while True:
        for req in requests:
            if passes and not whole and time.perf_counter() >= until:
                return passes, outcomes
            if tracer is not None:
                tracer.request = f"{passes}:{req.rid}"
            outcomes.append(call(cli, req, paths[req.rid], workdir))
        passes += 1
        if time.perf_counter() >= until:
            return passes, outcomes


def request_medians(outcomes, raw=False):
    """Each request's median latency over every sample of the run, at the
    reference speed unless ``raw``.

    A partial last pass counts too, so these average over the whole measured
    interval, and each request counts once however many samples it has.
    """
    latencies = {}
    for out in outcomes:
        latencies.setdefault(out.rid, []).append(out.seconds if raw else out.scaled)
    return [statistics.median(v) for v in latencies.values()]


def pass_seconds(outcomes, raw=False):
    """Time of one pass: the sum of the requests' median latencies."""
    return sum(request_medians(outcomes, raw))


def judge(requests, outcomes, reference):
    """Check every outcome.

    Returns (failed outcomes, outcomes whose output was wrong, failed request
    ids, notes).  A request's first outcome is checked in full; later passes
    must reproduce it exactly.
    """
    by_rid = {req.rid: req for req in requests}
    first, problems_of = {}, {}
    failed = wrong = 0
    failed_rids, notes = set(), []
    for out in outcomes:
        req = by_rid[out.rid]
        f = first.setdefault(out.rid, out)
        if f is out:
            problems = problems_of[out.rid] = checks.check(req, out, reference)
        elif (out.code, out.error is None, out.json_text, out.csv_text) == (
                f.code, f.error is None, f.json_text, f.csv_text):
            problems = problems_of[out.rid]
        elif out.error is not None or out.code not in req.expect:
            problems = checks.check(req, out, reference)
        else:
            problems = ["output differs from an earlier pass of the same spec"]
        if problems:
            failed += 1
            wrong += out.error is None and out.code in req.expect
            if out.rid not in failed_rids:
                notes.append(f"{out.rid} [{req.label}] {req.command}: {problems[0]}")
            failed_rids.add(out.rid)
    return failed, wrong, failed_rids, notes


def load_reference():
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def end_to_end(requests, outcomes, failed_rids, setup_s, peak_rss_mb):
    medians = request_medians(outcomes)
    wall = sum(medians)
    ok = sum(1 for req in requests if req.rid not in failed_rids)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "requests_per_s": ok / wall,
        "request_s_p50": statistics.median(medians),
        "peak_rss_mb": peak_rss_mb,
    }


def report(title, rows):
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>14} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, default="batch_mixed")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args(argv)

    if args.setup_probe:
        prepare(args.workload, args.seed, Path(args.workdir))
        print("ready", flush=True)
        return 0
    if args.write_reference:
        return write_reference()

    STATE.mkdir(exist_ok=True)
    workdir = STATE / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = untraced = None
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    try:
        with speed.SpeedProbe() as probe:
            cli, requests, paths = prepare(args.workload, args.seed, workdir)
            start = time.perf_counter()
            if not args.trace:
                passes, outcomes = run_passes(cli, requests, paths, workdir,
                                              start + args.seconds)
            else:
                _, untraced = run_passes(cli, requests, paths, workdir,
                                         start + args.seconds / 2, whole=True)
                tracer, passes, outcomes = trace_run(cli, requests, paths, workdir,
                                                     start + args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured = (untraced or []) + outcomes
        for out in measured:
            out.scaled = probe.scaled(out.start, out.start + out.seconds)
        failed, wrong, failed_rids, notes = judge(requests, measured, load_reference())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # One operation is one request of the workload; its repeats in later
    # passes are samples of it, and it fails if any of them fails.  So
    # attempted and failed depend on the seed alone, not on how many passes
    # fitted into the time.
    attempted, samples = len(requests), len(measured)
    print(f"perfbench {args.workload} seed={args.seed} requests/pass={attempted} "
          f"{'traced ' if tracer else ''}passes={passes} samples={samples} "
          f"failed samples={failed} "
          "(closed loop, 1 client; times in seconds at the reference speed)")
    for note in notes:
        print("  FAILED", note)
    if tracer is None:
        metrics = end_to_end(requests, outcomes, failed_rids, setup_s, peak_rss_mb)
        rows = [(k, v, END_TO_END_UNITS[k]) for k, v in metrics.items()]
        rows.append(("wall_s, raw", pass_seconds(outcomes, raw=True), "s (unscaled)"))
        if samples >= 100:
            p90 = statistics.quantiles([o.scaled for o in outcomes], n=10)[8]
            rows.append(("request_s_p90", p90, f"s ({samples} samples)"))
        else:
            rows.append(("request_s_p90", "n/a", f"({samples} samples < 100)"))
        rows.append(("failed_frac", len(failed_rids) / attempted, "ratio"))
        report("end-to-end", rows)
        out = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        path = STATE / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        metrics = spans.layer_metrics(tracer.spans, passes)
        metrics["trace.wall_s"] = pass_seconds(outcomes)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - pass_seconds(untraced)
        report("per-layer (per traced pass; self times, unscaled)",
               [(k, v, unit_of(k)) for k, v in metrics.items()])
        report("layer share of traced wall time (unscaled)",
               [(k, v, "ratio")
                for k, v in spans.layer_shares(metrics, pass_seconds(outcomes, raw=True)).items()])
        print(f"  spans written to {path}")
        out = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": len(failed_rids),
                      "metrics": out}))
    return 0


def trace_run(cli, requests, paths, workdir, until):
    """Whole traced passes until ``until``: (tracer, passes, outcomes)."""
    from smoothasym import expansion, geometry, localframe, series

    tracer = spans.Tracer()
    tracer.install(spans.trace_points((cli, geometry, localframe, expansion, series)))
    try:
        passes, outcomes = run_passes(cli, requests, paths, workdir, until,
                                      tracer=tracer, whole=True)
    finally:
        tracer.uninstall()
    return tracer, passes, outcomes


def unit_of(metric):
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("max_order"):
        return "order"
    return "count"


def write_reference():
    """Run every expand request of the default seed, at every n its generator
    can pick, and store flattened coefficients and exact values."""
    cli = import_cli()
    docs = gen.load_docs(ROOT)
    wanted = {}  # reference key -> (request, n values)
    for workload in gen.WORKLOADS:
        for req in gen.generate(workload, DEFAULT_SEED, docs):
            if req.command == "expand":
                wanted.setdefault(req.key(), (req, set()))[1].update(req.n_pool)
    workdir = STATE / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    reference = {}
    try:
        for key, (req, n_values) in wanted.items():
            req.spec = dict(req.spec, n_values=sorted(n_values))
            paths = gen.write_specs([req], workdir)
            out = call(cli, req, paths[req.rid], workdir)
            problems = checks.check(req, out)
            if problems:
                raise SystemExit(f"perfbench: {req.rid} fails its checks: {problems}")
            reference[key] = checks.reference_entry(json.loads(out.json_text))
            print(f"{req.rid}: {out.seconds:.2f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
