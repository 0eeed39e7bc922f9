"""``tools/output_digest.py``: the dust mask, and the ``ROUTES`` requests
through ``cli.main``."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from smoothasym import cli

ROOT = Path(__file__).resolve().parents[1]


def _output_digest():
    """``tools/output_digest.py``, imported by path."""
    path = ROOT / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DOC = {
    "point": [
        {"re": "0.5", "im": "1.0e-70"},
        {"re": "-2.0e-80", "im": "0.25"},
        {"re": "0.0", "im": "0.0"},
    ],
    "coef": {"re": "1.5", "im": "-1.0e-50"},
    "meta": {"det": "(1.98 + 4.39e-86j)", "a": "(0.5 - 2.0e-10j)", "v": "3"},
    "residual_H": "1.9e-62",
}


def test_mask_dust_at_212_bits():
    # the dust bound is 2^-192 = 1.6e-58 times the pair's larger part
    doc = copy.deepcopy(DOC)
    masked = _output_digest().mask_dust(doc, 212)
    assert doc == DOC
    assert masked == {
        "point": [
            {"re": "0.5", "im": "dust"},
            {"re": "dust", "im": "0.25"},
            {"re": "dust", "im": "dust"},
        ],
        "coef": {"re": "1.5", "im": "-1.0e-50"},
        "meta": {"det": "(1.98 + dustj)", "a": "(0.5 - 2.0e-10j)", "v": "3"},
        "residual_H": "1.9e-62",
    }


def test_mask_dust_follows_the_precision():
    # at 53 bits the bound is 2^-33 = 1.2e-10, which 1e-50 falls below and
    # 2e-10 of 0.5 does not
    masked = _output_digest().mask_dust(DOC, 53)
    assert masked["coef"] == {"re": "1.5", "im": "dust"}
    assert masked["meta"] == {"det": "(1.98 + dustj)", "a": "(0.5 - 2.0e-10j)", "v": "3"}


# the exit code each ``ROUTES`` request documents (``cli`` module docstring):
# every one runs its route to the end
ROUTE_EXIT_CODES = {
    "delannoy-degenerate-even": 0,
    "quantum-walk-whole-phase": 0,
    "quantum-walk-one-frame": 0,
    "univariate-pole-2": 0,
    "symmetric-3-critical": 0,
    "symmetric-3-sampled": 0,
    "delannoy-oracle": 0,
    "smirnov-words-oracle": 0,
    "gaussian-3-seeded": 0,
    "delannoy-gaussian-g": 0,
    "tiny-critical-points": 0,
    "scaled-delannoy": 0,
    "cubic-in-y": 0,
}


def _routes():
    module = _output_digest()
    docs = {path.stem: json.loads(path.read_text())
            for path in (ROOT / "docs" / "problems").glob("*.json")}
    return module.route_specs(docs)


def test_every_route_has_an_exit_code():
    assert [rid for rid, _, _ in _routes()] == list(ROUTE_EXIT_CODES)


@pytest.mark.parametrize("rid, command, spec",
                         [pytest.param(*route, id=route[0]) for route in _routes()])
def test_route_runs(tmp_path, capsys, rid, command, spec):
    # no exception escapes ``cli.main``; ``expand`` writes both outputs
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out_json, out_csv = tmp_path / "out.json", tmp_path / "out.csv"
    code = cli.main([command, "--input", str(path),
                     "--out-json", str(out_json), "--out-csv", str(out_csv)])
    _, err = capsys.readouterr()
    assert code == ROUTE_EXIT_CODES[rid], err
    if command == "expand":
        assert json.loads(out_json.read_text())
        assert out_csv.read_text().strip()
