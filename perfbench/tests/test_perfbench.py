"""Tests of the benchmark itself: generator, checker, client and self times.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

BITS = 212
COEF = "0.57735026918962576450914878050195745564760175127012687601860232648"


@pytest.fixture(scope="module")
def docs():
    return gen.load_docs(run.ROOT)


def _summary(requests):
    return [(r.rid, r.command, json.dumps(r.spec, sort_keys=True), r.expect) for r in requests]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(docs, workload):
    first = gen.generate(workload, 7, docs)
    assert _summary(first) == _summary(gen.generate(workload, 7, docs))
    assert _summary(first) != _summary(gen.generate(workload, 8, docs))


def test_batch_mix_is_fixed_by_construction(docs):
    for seed in (1, 2):
        reqs = gen.generate("batch_mixed", seed, docs)
        labels = [r.label for r in reqs]
        assert labels.count("expand-random") == sum(c for _, _, c in gen.EXPAND_SHAPES)
        assert labels.count("critical-random") == sum(c for _, _, c in gen.CRITICAL_SHAPES)
        assert sorted(set(labels) & set(gen.DOCS)) == sorted(gen.DOCS)


def _delannoy_request(docs):
    return gen.Request("t", "expand", dict(docs["delannoy"], N=1, n_values=[1, 2]), (0,),
                       "delannoy", "delannoy", [1, 2])


def _expand_outcome(coef=COEF, exact=("25.0", "1289.0")):
    result = {
        "expansion": {"flattened": {"terms": [
            {"exponent": "-1/2", "coef": {"re": coef, "im": "0.0"}}]}},
        "table": [{"n": n, "exact": e} for n, e in zip((1, 2), exact)],
    }
    csv = checks.CSV_HEADER + "\n1,25,1,1,0,0\n2,1289,1,1,0,0\n"
    return checks.Outcome("t", 0, None, 0.1, json.dumps(result), csv, "")


def _scaled(text, factor):
    with localcontext() as ctx:
        ctx.prec = 80
        value = Fraction(Decimal(text)) * factor
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def test_checker_accepts_matching_output(docs):
    req = _delannoy_request(docs)
    out = _expand_outcome()
    ref = {req.key(): checks.reference_entry(json.loads(out.json_text))}
    assert checks.check(req, out, ref) == []
    below_tol = _expand_outcome(coef=_scaled(COEF, 1 + Fraction(1, 2**BITS)))
    assert checks.check(req, below_tol, ref) == []


def test_checker_flags_perturbed_flattened_coefficient(docs):
    req = _delannoy_request(docs)
    ref = {req.key(): checks.reference_entry(json.loads(_expand_outcome().json_text))}
    perturbed = _expand_outcome(coef=_scaled(COEF, 1 + Fraction(1, 2 ** (BITS - 30))))
    problems = checks.check(req, perturbed, ref)
    assert problems and "flattened" in problems[0]


def test_checker_flags_changed_exact_value(docs):
    req = _delannoy_request(docs)
    ref = {req.key(): checks.reference_entry(json.loads(_expand_outcome().json_text))}
    changed = _expand_outcome(exact=("25.0", "1290.0"))
    assert len(checks.check(req, changed, ref)) == 2  # reference and closed form
    assert len(checks.check(req, changed, None)) == 1  # closed form alone


def test_checker_flags_raised_exception_and_bad_exit(docs):
    req = _delannoy_request(docs)
    raised = checks.Outcome("t", None, "Traceback ...\nTypeError: boom\n", 0.1)
    assert checks.check(req, raised) == ["exception escaped cli.main: TypeError: boom"]
    exit1 = checks.Outcome("t", 1, None, 0.1, stderr='{"error": "x"}\n')
    assert checks.check(req, exit1)


def test_client_counts_an_escaping_exception(docs, tmp_path):
    class RaisingCli:
        @staticmethod
        def main(argv):
            raise TypeError("boom")

    req = _delannoy_request(docs)
    paths = gen.write_specs([req], tmp_path)
    out = run.call(RaisingCli, req, paths["t"], tmp_path)
    assert out.code is None and "TypeError: boom" in out.error
    failed, wrong, failed_rids, _ = run.judge([req], [out], {})
    assert (failed, wrong, failed_rids) == (1, 0, {"t"})


def test_checker_critical_witness_must_be_inside():
    spec = {"variables": ["x", "y"], "H": [
        {"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "-1"},
        {"exp": [0, 1], "coef": "-1"}], "alpha": ["1", "1"]}
    req = gen.Request("c", "critical", spec, (0, 2), "critical-random")

    def outcome(witness):
        half = {"re": "0.5", "im": "0.0"}
        rep = {"point": [half, half], "residual_H": "0.0", "residual_critical": "0.0",
               "minimality": {"kind": "not-minimal", "witness": witness}}
        return checks.Outcome("c", 0, None, 0.1, json.dumps({"critical_points": [rep]}))

    inside = [{"re": "0.25", "im": "0.0"}, {"re": "0.75", "im": "0.0"}]
    assert checks.check(req, outcome(inside)) == ["point 0: witness moduli not strictly inside"]
    off_variety = [{"re": "0.25", "im": "0.0"}, {"re": "0.25", "im": "0.0"}]
    assert checks.check(req, outcome(off_variety)) == ["point 0: witness is not on the variety"]


def test_series_coefficient_matches_closed_forms():
    delannoy = {"G": [{"exp": [0, 0], "coef": "1"}], "p": 1, "H": [
        {"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "-1"},
        {"exp": [0, 1], "coef": "-1"}, {"exp": [1, 1], "coef": "-1"}]}
    assert checks.series_coefficient(delannoy, (6, 4)) == 1289
    squared = dict(delannoy, p=2, H=delannoy["H"][:2])  # 1/(1-x)^2
    assert checks.series_coefficient(squared, (5, 0)) == 6


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    tree = [
        ["root", 0.0, 10.0, -1, "r", None],
        ["a", 1.0, 4.0, 0, "r", None],
        ["c", 2.0, 3.0, 1, "r", None],
        ["b", 5.0, 9.0, 0, "r", None],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_sum_self_times_and_counts():
    tree = [
        ["cli.main", 0.0, 10.0, -1, "r", {"exit": 0}],
        ["cli.build_frame", 1.0, 6.0, 0, "r", {"order": 12}],
        ["Jet.__mul__", 2.0, 3.0, 1, "r", None],
        ["Jet.__mul__", 3.0, 5.0, 1, "r", None],
        ["cli.maclaurin_table", 7.0, 9.0, 0, "r", {"cells": 100}],
    ]
    m = spans.layer_metrics(tree, passes=1)
    assert m["cli.self_s"] == 3.0 and m["localframe.frame_s"] == 2.0
    assert m["series.jet_mul_s"] == 3.0 and m["series.jet_mul_calls"] == 2
    assert m["cli.exit_0"] == 1 and m["localframe.max_order"] == 12
    assert m["oracle.cells_per_s"] == 50.0


def test_reference_covers_the_default_seed(docs):
    reference = run.load_reference()
    for workload in gen.WORKLOADS:
        for req in gen.generate(workload, run.DEFAULT_SEED, docs):
            if req.command == "expand":
                assert set(map(str, req.spec["n_values"])) <= set(reference[req.key()]["exact"])


def test_speed_probe_scales_to_the_reference_kernel_time():
    probe = speed.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 9.0]
    probe.durations = [2 * speed.REF_KERNEL_S] * 3 + [100.0]
    # one sample inside [0.5, 1.5]; two within WINDOW of it, both twice as slow
    assert probe.scaled(0.5, 1.5) == pytest.approx((1.0 - 2 * speed.REF_KERNEL_S) / 2)
    with pytest.raises(RuntimeError):
        probe.scaled(5.0, 6.0)
