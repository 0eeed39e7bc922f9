"""The benchmark's accuracy gate, run on the requests a rounding change breaks.

Delannoy at N=8, Smirnov words at N=4, the quantum walk at N=8 (the
degenerate odd route) and Smirnov snaps at N=3 (pole order 2 in three
variables) go through ``cli.main`` and are judged by ``perfbench/checks.py``
against ``perfbench/reference.json``: flattened coefficients must agree to
``2^-(prec-20)`` relative and exact values must match the stored strings.
These are the highest term orders the benchmark runs, on every expansion
route it takes, so a change that reorders the rounding of the term calculus
shows here first.  The benchmark's own modules are imported
read-only, as ``perfbench/tests`` does.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from smoothasym import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import gen  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("label, N", [("delannoy", 8), ("smirnov_words", 4),
                                      ("quantum_walk", 8), ("smirnov_snaps", 3)])
def test_matches_reference(tmp_path, reference, label, N):
    docs = gen.load_docs(PERFBENCH.parent)
    (req,) = [r for r in gen.generate("jets_high_order", 1, docs) if r.label == label]
    assert req.spec["N"] == N
    assert req.key() in reference  # the gate is not vacuous
    spec_path = gen.write_specs([req], tmp_path)[req.rid]
    out_json, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["expand", "--input", str(spec_path),
                         "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert code == 0, err.getvalue()
    outcome = checks.Outcome(req.rid, code, None, 0.0, out_json.read_text(),
                             out_csv.read_text(), err.getvalue())
    assert checks.check(req, outcome, reference) == []
