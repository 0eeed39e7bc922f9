"""``tools/output_digest.py``: the dust mask."""

from __future__ import annotations

import copy
import importlib.util
from pathlib import Path


def _output_digest():
    """``tools/output_digest.py``, imported by path."""
    path = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
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
