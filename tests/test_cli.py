"""CLI: spec parsing, pipeline commands, exit codes, determinism."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mpc, mpf

from smoothasym import Jet, PhaseData, cli, expansion, geometry, localframe, series
from smoothasym.cli import (
    EXIT_DEGENERATE_HIGH_DIM,
    EXIT_MINIMALITY_UNKNOWN,
    EXIT_NO_CRITICAL,
    PipelineExit,
    ProblemSpec,
    main,
    run_critical,
    run_expand,
    run_oracle,
)
from smoothasym.geometry import solve_critical

from oracles import (
    poly_to_json,
    reference_log,
    reference_powers,
    reference_reciprocal,
    reference_substitute,
)

DELANNOY_SPEC = {
    "variables": ["x", "y"],
    "G": [{"exp": [0, 0], "coef": "1"}],
    "H": [
        {"exp": [0, 0], "coef": "1"},
        {"exp": [1, 0], "coef": "-1"},
        {"exp": [0, 1], "coef": "-1"},
        {"exp": [1, 1], "coef": "-1"},
    ],
    "p": 1,
    "alpha": ["3", "2"],
    "N": 2,
    "n_values": [1, 2, 4],
}

def _with_term(terms, i, **fields):
    """A copy of the polynomial ``terms`` with term ``i`` changed."""
    return [dict(t, **fields) if j == i else t for j, t in enumerate(terms)]


QWALK_SPEC = {
    "variables": ["x", "y"],
    "G": [{"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "-1/2"}],
    "H": [
        {"exp": [0, 0], "coef": "1"},
        {"exp": [1, 0], "coef": "-1/2"},
        {"exp": [1, 1], "coef": "1/2"},
        {"exp": [2, 1], "coef": "-1"},
    ],
    "p": 1,
    "alpha": ["2", "1/2"],
    "N": 5,
    "n_values": [2, 4],
}

# symmetric cubic tuned so the diagonal critical point has singular phase
# Hessian (q = 0): exercises the more-than-two-variables degenerate exit
DEGENERATE_3D_SPEC = {
    "variables": ["x", "y", "z"],
    "G": [{"exp": [0, 0, 0], "coef": "1"}],
    "H": [
        {"exp": [0, 0, 0], "coef": "1"},
        {"exp": [1, 0, 0], "coef": "-1"},
        {"exp": [0, 1, 0], "coef": "-1"},
        {"exp": [0, 0, 1], "coef": "-1"},
        {"exp": [2, 0, 0], "coef": "9/16"},
        {"exp": [0, 2, 0], "coef": "9/16"},
        {"exp": [0, 0, 2], "coef": "9/16"},
    ],
    "p": 1,
    "alpha": ["1", "1", "1"],
    "N": 1,
    "n_values": [1, 2],
}


class TestSpecParsing:
    def test_full_round(self):
        spec = ProblemSpec.from_json(DELANNOY_SPEC)
        assert spec.d == 2 and spec.p == 1 and spec.N == 2
        assert spec.alpha.alpha == (Fraction(3), Fraction(2))
        assert spec.precision_bits == 212

    def test_rational_g(self):
        obj = dict(DELANNOY_SPEC)
        obj["G"] = {
            "numer": [{"exp": [0, 0], "coef": "1"}],
            "denom": [{"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "1"}],
        }
        spec = ProblemSpec.from_json(obj)
        assert spec.G_den is not None

    def test_seeds(self):
        obj = dict(QWALK_SPEC)
        obj["seeds"] = [[["1", "0"], [1.0, 0.0]]]
        spec = ProblemSpec.from_json(obj)
        assert len(spec.seeds) == 1 and len(spec.seeds[0]) == 2

    def test_bad_p_rejected(self):
        obj = dict(DELANNOY_SPEC)
        obj["p"] = 0
        with pytest.raises(Exception):
            ProblemSpec.from_json(obj)


class TestRunExpand:
    def test_delannoy_result_shape(self):
        spec = ProblemSpec.from_json(DELANNOY_SPEC)
        result, csv_text = run_expand(spec)
        assert set(result) >= {"provenance", "critical_points", "expansion", "table"}
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,exact,approx_1,approx_N,rel_err_1,rel_err_N"
        assert len(lines) == 1 + len(spec.n_values)
        row1 = lines[1].split(",")
        assert row1[0] == "1" and row1[1] == "25.0"
        assert abs(float(row1[4]) - (-0.05052565800)) < 1e-8

    def test_determinism(self):
        spec = ProblemSpec.from_json(DELANNOY_SPEC)
        out1 = run_expand(spec)
        out2 = run_expand(spec)
        assert json.dumps(out1[0], sort_keys=True) == json.dumps(out2[0], sort_keys=True)
        assert out1[1] == out2[1]

    def test_minimality_gate(self):
        spec = ProblemSpec.from_json(QWALK_SPEC)
        with pytest.raises(PipelineExit) as err:
            run_expand(spec)
        assert err.value.code == EXIT_MINIMALITY_UNKNOWN

    def test_override_allows_quantum_walk(self):
        obj = dict(QWALK_SPEC)
        obj["overrides"] = {"assume_strictly_minimal": True}
        result, csv_text = run_expand(ProblemSpec.from_json(obj))
        assert result["expansion"]["kind"] == "degenerate-odd"
        row = csv_text.strip().split("\n")[1].split(",")
        assert abs(float(row[2]) - 0.1953794677) < 1e-8

    def test_origin_on_variety(self):
        obj = dict(DELANNOY_SPEC)
        obj["H"] = [{"exp": [1, 0], "coef": "1"}, {"exp": [0, 1], "coef": "1"}]
        with pytest.raises(PipelineExit) as err:
            run_expand(ProblemSpec.from_json(obj))
        assert err.value.code == EXIT_NO_CRITICAL
        assert "origin" in err.value.diagnostic["error"]

    def test_degenerate_beyond_two_vars(self):
        obj = dict(DEGENERATE_3D_SPEC)
        obj["overrides"] = {"assume_strictly_minimal": True}
        with pytest.raises(PipelineExit) as err:
            run_expand(ProblemSpec.from_json(obj))
        assert err.value.code == EXIT_DEGENERATE_HIGH_DIM

    def test_no_critical_point_without_seeds(self):
        obj = {
            "variables": ["x", "y", "z"],
            "G": [{"exp": [0, 0, 0], "coef": "1"}],
            "H": [
                {"exp": [0, 0, 0], "coef": "1"},
                {"exp": [1, 0, 0], "coef": "-1"},
                {"exp": [0, 1, 0], "coef": "-2"},
                {"exp": [0, 0, 1], "coef": "-3"},
            ],
            "p": 1,
            "alpha": ["1", "1", "1"],
            "N": 1,
            "n_values": [1],
        }
        with pytest.raises(PipelineExit) as err:
            run_expand(ProblemSpec.from_json(obj))
        assert err.value.code == EXIT_NO_CRITICAL

    def test_univariate_route(self):
        obj = {
            "variables": ["x"],
            "G": [{"exp": [0], "coef": "1"}],
            "H": [{"exp": [0], "coef": "1"}, {"exp": [1], "coef": "-2"}],
            "p": 1,
            "alpha": ["1"],
            "N": 1,
            "n_values": [1, 2, 3, 10],
        }
        result, csv_text = run_expand(ProblemSpec.from_json(obj))
        rows = csv_text.strip().split("\n")[1:]
        for row in rows:
            cells = row.split(",")
            assert abs(float(cells[1]) - 2 ** int(cells[0])) < 1e-9
            assert abs(float(cells[5])) < 1e-40

    def test_univariate_frame_error_exits_2(self):
        # within the on-variety gate, but off the variety at working
        # precision: the residue's pole division refuses the point
        spec = ProblemSpec.from_json(univariate_spec("1", "-1"))
        with pytest.raises(PipelineExit) as err:
            cli._expand_at_point(spec, SimpleNamespace(point=(mpc(1) + mpf("1e-20"),)))
        assert err.value.code == EXIT_NO_CRITICAL
        assert "pole division failed" in err.value.diagnostic["error"]


class TestRunCriticalAndOracle:
    def test_critical_reports(self):
        spec = ProblemSpec.from_json(DELANNOY_SPEC)
        out = run_critical(spec)
        assert len(out["critical_points"]) == 2
        kinds = sorted(r["minimality"]["kind"] for r in out["critical_points"])
        assert kinds == ["not-minimal", "strictly-minimal"]

    @pytest.mark.parametrize("h2, flag", [("0", "yes"), ("1", "isolated-unverified")])
    def test_univariate_isolation_flag(self, h2, flag):
        # 1 - 2x + h2 x^2: a simple root, or the double root x = 1
        obj = {
            "variables": ["x"],
            "G": [{"exp": [0], "coef": "1"}],
            "H": [{"exp": [0], "coef": "1"}, {"exp": [1], "coef": "-2"},
                  {"exp": [2], "coef": h2}],
            "p": 1,
            "alpha": ["1"],
            "n_values": [1],
        }
        out = run_critical(ProblemSpec.from_json(obj))
        assert [r["isolated"] for r in out["critical_points"]] == [flag]

    def test_oracle_rows(self):
        spec = ProblemSpec.from_json(DELANNOY_SPEC)
        csv_text = run_oracle(spec)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "beta_x,beta_y,exact_rational,decimal"
        assert lines[1].split(",") == ["3", "2", "25", "25.0"]

    def test_oracle_quantum_walk_value(self):
        obj = dict(QWALK_SPEC)
        obj["n_values"] = [2, 32]
        csv_text = run_oracle(ProblemSpec.from_json(obj))
        rows = [line.split(",") for line in csv_text.strip().split("\n")[1:]]
        assert rows[0][:2] == ["4", "1"] and rows[0][3] == "0.1875"
        assert rows[1][:2] == ["64", "16"] and rows[1][3].startswith("0.0774425381")


def univariate_spec(*coefs):
    """One-variable spec with G = 1 and H = sum coefs[e] x^e."""
    return {
        "variables": ["x"],
        "G": [{"exp": [0], "coef": "1"}],
        "H": [{"exp": [e], "coef": c} for e, c in enumerate(coefs) if c != "0"],
        "alpha": ["1"],
        "n_values": [1, 2, 3, 4],
    }


class TestMainEntry:
    def _write(self, tmp_path, obj, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def _expand(self, tmp_path, capsys, obj):
        """``(exit code, result JSON, CSV text, stderr)`` of ``expand``."""
        out_json = str(tmp_path / "out.json")
        out_csv = str(tmp_path / "out.csv")
        code = main(["expand", "--input", self._write(tmp_path, obj),
                     "--out-json", out_json, "--out-csv", out_csv])
        err = capsys.readouterr().err
        if code:
            return code, None, None, err
        return code, json.loads(open(out_json).read()), open(out_csv).read(), err

    def test_expand_writes_files(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, DELANNOY_SPEC)
        out_json = str(tmp_path / "out.json")
        out_csv = str(tmp_path / "out.csv")
        code = main(
            ["expand", "--input", spec_path, "--out-json", out_json,
             "--out-csv", out_csv]
        )
        assert code == 0
        data = json.loads(open(out_json).read())
        assert data["provenance"]["precision_bits"] == 212
        assert open(out_csv).read().startswith("n,exact,")

    def test_flag_overrides(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, DELANNOY_SPEC)
        code = main(["expand", "--input", spec_path, "--N", "1",
                     "--n-values", "1,2", "--precision-bits", "128"])
        assert code == 0
        out = capsys.readouterr().out
        # JSON then CSV on stdout; CSV has exactly two data rows
        assert out.count("\n25.0") == 0  # csv cells are comma separated
        assert len([l for l in out.splitlines() if l.startswith("1,") or l.startswith("2,")]) == 2

    @staticmethod
    def _forbid_expansion(monkeypatch):
        # unusable n_values must be rejected before anything is solved
        def unexpected(spec):
            raise AssertionError("build_expansion ran on unusable n_values")

        monkeypatch.setattr(cli, "build_expansion", unexpected)

    @pytest.mark.parametrize("command", ["expand", "oracle"])
    @pytest.mark.parametrize("given", ["spec", "flag"])
    def test_empty_n_values(self, tmp_path, capsys, monkeypatch, command, given):
        # an empty list is reported as such, not as a direction whose
        # indices are never integral
        self._forbid_expansion(monkeypatch)
        obj = dict(DELANNOY_SPEC, n_values=[] if given == "spec" else [1, 2])
        argv = [command, "--input", self._write(tmp_path, obj)]
        if given == "flag":
            argv += ["--n-values", ""]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "n_values is empty"}

    @pytest.mark.parametrize("command", ["expand", "oracle"])
    def test_no_integral_n_values(self, tmp_path, capsys, monkeypatch, command):
        self._forbid_expansion(monkeypatch)
        obj = dict(DELANNOY_SPEC, alpha=["3/2", "1"], n_values=[1, 3])
        assert main([command, "--input", self._write(tmp_path, obj)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "no requested n gives integral coefficient indices for this direction",
            "skipped": [1, 3],
        }

    def test_critical_reads_no_n_values(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, dict(DELANNOY_SPEC, n_values=[]))
        assert main(["critical", "--input", spec_path]) == 0
        assert main(["critical", "--input", spec_path, "--n-values", ""]) == 0

    def test_exit_code_minimality(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, QWALK_SPEC)
        code = main(["expand", "--input", spec_path])
        assert code == EXIT_MINIMALITY_UNKNOWN
        err = capsys.readouterr().err
        assert "strictly minimal" in err

    def test_exit_code_with_override_flag(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, QWALK_SPEC)
        code = main(["expand", "--input", spec_path, "--assume-strictly-minimal"])
        assert code == 0

    def test_exit_origin(self, tmp_path, capsys):
        obj = dict(DELANNOY_SPEC)
        obj["H"] = [{"exp": [1, 0], "coef": "1"}]
        spec_path = self._write(tmp_path, obj)
        code = main(["expand", "--input", spec_path])
        assert code == EXIT_NO_CRITICAL
        assert "origin" in capsys.readouterr().err

    def test_exit_univariate_double_root(self, tmp_path, capsys):
        # H = (1 - x)^2: the only variety point is a double zero
        obj = {
            "variables": ["x"],
            "G": [{"exp": [0], "coef": "1"}],
            "H": [{"exp": [0], "coef": "1"}, {"exp": [1], "coef": "-2"},
                  {"exp": [2], "coef": "1"}],
            "alpha": ["1"],
        }
        code = main(["expand", "--input", self._write(tmp_path, obj)])
        assert code == EXIT_NO_CRITICAL
        assert json.loads(capsys.readouterr().err) == {
            "error": "no smooth critical point found"
        }

    def test_exit_univariate_double_root_on_the_minimal_ring(self, tmp_path, capsys):
        # H = (1 - x)^2 (1 + x): the simple root -1 shares its modulus with
        # the double root 1, whose pole an expansion at -1 alone would miss
        code, _, _, err = self._expand(
            tmp_path, capsys, univariate_spec("1", "-1", "-1", "1"))
        assert code == EXIT_NO_CRITICAL
        assert json.loads(err) == {
            "error": "a critical point of minimal modulus is not smooth"
        }

    def test_univariate_critical_origin_on_variety(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, univariate_spec("0", "1", "-1"))
        assert main(["critical", "--input", spec_path]) == EXIT_NO_CRITICAL
        assert json.loads(capsys.readouterr().err) == {
            "error": "origin on variety: H(0) = 0"
        }

    def test_univariate_expand_strictly_minimal(self, tmp_path, capsys):
        # H = 1 - 2x: F_n = 2^n exactly
        code, result, csv_text, _ = self._expand(
            tmp_path, capsys, univariate_spec("1", "-2"))
        assert code == 0
        kinds = [r["minimality"]["kind"] for r in result["critical_points"]]
        assert kinds == ["strictly-minimal"]
        assert result["expansion"]["kind"] == "univariate"
        assert csv_text == (
            "n,exact,approx_1,approx_N,rel_err_1,rel_err_N\n"
            "1,2.0,2.0,2.0,0.0,0.0\n"
            "2,4.0,4.0,4.0,0.0,0.0\n"
            "3,8.0,8.0,8.0,0.0,0.0\n"
            "4,16.0,16.0,16.0,0.0,0.0\n"
        )

    def test_univariate_roots_solved_once(self, tmp_path, capsys, monkeypatch):
        # H = 1 - x^4: the minimality check of each root takes the other
        # roots from the one solve instead of solving H again
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_critical(*args, **kwargs)

        monkeypatch.setattr(geometry, "solve_critical", counting)
        monkeypatch.setattr(cli, "solve_critical", counting)
        code, result, _, _ = self._expand(
            tmp_path, capsys, univariate_spec("1", "0", "0", "0", "-1"))
        assert code == 0
        assert len(calls) == 1
        verdicts = [r["minimality"] for r in result["critical_points"]]
        assert [v["kind"] for v in verdicts] == ["finitely-minimal"] * 4

    def test_exit_univariate_without_roots(self, tmp_path, capsys):
        # H = 1: no seeds can help one variable, so none are suggested
        code, _, _, err = self._expand(tmp_path, capsys, univariate_spec("1"))
        assert code == EXIT_NO_CRITICAL
        assert json.loads(err) == {"error": "no critical point converged"}

    def test_univariate_expand_finitely_minimal(self, tmp_path, capsys):
        # H = 1 - x^2: the roots 1 and -1 share the minimal modulus, and the
        # sum of their expansions is the exact coefficient (1 + (-1)^n)/2
        code, result, csv_text, _ = self._expand(
            tmp_path, capsys, univariate_spec("1", "0", "-1"))
        assert code == 0
        kinds = [r["minimality"]["kind"] for r in result["critical_points"]]
        assert kinds == ["finitely-minimal", "finitely-minimal"]
        assert result["expansion"]["kind"] == "combined"
        assert len(result["expansion"]["children"]) == 2
        assert csv_text == (
            "n,exact,approx_1,approx_N,rel_err_1,rel_err_N\n"
            "1,0.0,0.0,0.0,nan+0.0j,nan+0.0j\n"
            "2,1.0,1.0,1.0,0.0,0.0\n"
            "3,0.0,0.0,0.0,nan+0.0j,nan+0.0j\n"
            "4,1.0,1.0,1.0,0.0,0.0\n"
        )

    def test_exit_degenerate_high_dim(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, DEGENERATE_3D_SPEC)
        code = main(["expand", "--input", spec_path, "--assume-strictly-minimal"])
        assert code == EXIT_DEGENERATE_HIGH_DIM

    def test_malformed_spec(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, {"variables": ["x"]})
        code = main(["expand", "--input", spec_path])
        assert code == 1
        missing = str(tmp_path / "missing.json")
        assert main(["expand", "--input", missing]) == 1
        diagnostic = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert diagnostic["error"].startswith("malformed spec: ")

    @pytest.mark.parametrize("field, value", [
        ("H", [5]),
        ("seeds", [1]),
        ("alpha", 3),
        ("variables", 2),
        ("overrides", [1]),
        (None, [1, 2]),  # a top-level list instead of an object
        ("H", [{"exp": None, "coef": "1"}]),
        ("n_values", "12"),
        ("n_values", [1.5, 2.9]),  # int() truncated each of these
        ("N", 2.7),
        ("p", True),
        ("precision_bits", 212.5),
        ("n_values", [4, False]),
        ("n_values", [0, 2]),  # these three failed only after the expansion ran
        ("n_values", [-2, 4]),
        ("precision_bits", 20),
        ("alpha", ["1/0", "2"]),  # these four raised ZeroDivisionError
        ("H", _with_term(DELANNOY_SPEC["H"], 1, coef="1/0")),
        ("G", [{"exp": [0, 0], "coef": {"re": "1", "im": "1/0"}}]),
        ("seeds", [[["1/0", "0"], ["1/2", "0"]]]),
        ("H", _with_term(DELANNOY_SPEC["H"], 1, exp=[1.5, 0])),  # read as x
        ("H", _with_term(DELANNOY_SPEC["H"], 1, exp=[True, 0])),  # read as x
        ("H", _with_term(DELANNOY_SPEC["H"], 1, coef=True)),  # read as 1
        ("variables", "xy"),  # split into letters
        ("overrides", {"assume_strictly_minimal": "false"}),  # read as true
        ("overrides", {"force_degenerate": 0}),  # read as false
        ("alpha", [True, "1"]),  # read as 1
        ("seeds", [[[True, "0"], ["1/2", "0"]]]),  # read as 1
        ("alpha", [0.1, 1]),  # read as its binary expansion
        ("alpha", [1.5, "1"]),  # read as 3/2
    ])
    def test_malformed_spec_field(self, tmp_path, capsys, field, value):
        obj = value if field is None else dict(DELANNOY_SPEC, **{field: value})
        code = main(["expand", "--input", self._write(tmp_path, obj)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert json.loads(captured.err)["error"].startswith("malformed spec: ")

    def test_critical_command(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, DELANNOY_SPEC)
        assert main(["critical", "--input", spec_path]) == 0
        out = capsys.readouterr().out
        assert '"critical_points"' in out

    def test_critical_command_vanishing_jacobian_column(self, tmp_path, capsys):
        obj = dict(DELANNOY_SPEC, alpha=["2", "1"])
        obj["H"] = [
            {"exp": [0, 0], "coef": "1"},
            {"exp": [0, 1], "coef": "2"},
            {"exp": [2, 0], "coef": "3"},
            {"exp": [2, 2], "coef": "-1"},
        ]
        spec_path = self._write(tmp_path, obj)
        assert main(["critical", "--input", spec_path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["critical_points"]
        assert "Traceback" not in captured.err

    def _run_quietly(self, tmp_path, capsys, command, obj):
        """``(exit code, stdout, stderr)`` of one command, asserting that it
        raised no warning (numpy's floating-point warnings among them)."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--input", self._write(tmp_path, obj)])
        captured = capsys.readouterr()
        assert not caught and "Traceback" not in captured.err
        return code, captured.out, captured.err

    @pytest.mark.parametrize("spec, point, expand_code", [
        # H = 1 - x - y + 10^-k x^3 y^2 along (1, 1): the eliminant's
        # coefficients span more than the double range.  At k = 250 and 305
        # its far roots overflow a complex128 evaluation, at k = 310 its
        # leading coefficient rounds to a subnormal double, and at k = 330
        # to 0; expand then stops at the minimality gate, as at k = 200
        *[(dict(DELANNOY_SPEC, alpha=["1", "1"], H=[
            {"exp": [0, 0], "coef": "1"}, {"exp": [1, 0], "coef": "-1"},
            {"exp": [0, 1], "coef": "-1"}, {"exp": [3, 2], "coef": f"1/{10**k}"}]),
           (Fraction(1, 2), Fraction(1, 2)), 3) for k in (250, 305, 310, 330)],
        # 1 - x + 10^-310 x^3, whose leading coefficient is subnormal too
        (univariate_spec("1", "-1", "0", f"1/{10**310}"), (1,), 0),
    ], ids=["k250", "k305", "k310", "k330", "univariate-k310"])
    def test_coefficients_beyond_the_double_range(self, tmp_path, capsys, spec, point,
                                                  expand_code):
        code, out, _ = self._run_quietly(tmp_path, capsys, "critical", spec)
        assert code == 0
        (report,) = json.loads(out)["critical_points"]
        assert len(report["point"]) == len(point)
        for z, want in zip(report["point"], point):
            assert abs(mpc(mpf(z["re"]), mpf(z["im"])) - want) < mpf("1e-50")
        code, _, err = self._run_quietly(tmp_path, capsys, "expand", spec)
        assert code == expand_code
        if code:
            assert "no strictly minimal critical point" in json.loads(err)["error"]

    def test_oracle_command(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, DELANNOY_SPEC)
        assert main(["oracle", "--input", spec_path]) == 0
        assert "beta_x" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["oracle", "expand", "critical"])
    def test_vanishing_G_denominator(self, tmp_path, capsys, command):
        obj = dict(DELANNOY_SPEC, G={"numer": DELANNOY_SPEC["G"],
                                     "denom": [{"exp": [1, 0], "coef": "1"}]})
        assert main([command, "--input", self._write(tmp_path, obj)]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == "G denominator vanishes at the origin"

    def test_oracle_command_delannoy_at_scale(self, capsys):
        spec_path = str(PROBLEMS / "delannoy.json")
        assert main(["oracle", "--input", spec_path, "--n-values", "64,192"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")]
        assert [row[:2] for row in rows[1:]] == [["192", "128"], ["576", "384"]]
        for a, b, exact, decimal in rows[1:]:
            a, b = int(a), int(b)
            want = sum(math.comb(a, k) * math.comb(b, k) * 2**k for k in range(b + 1))
            assert exact == str(want)
            # rounded to 10 significant digits: within half a unit of the 10th
            assert abs(Fraction(decimal) - want) <= 5 * 10 ** (len(exact) - 11)

    def test_oracle_command_smirnov_words(self, capsys):
        spec_path = str(PROBLEMS / "smirnov_words.json")
        assert main(["oracle", "--input", spec_path, "--n-values", "1,2,4,8,16"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")]
        assert rows[0] == ["beta_x", "beta_y", "beta_z", "exact_rational", "decimal"]
        for n, row in zip((1, 2, 4, 8, 16), rows[1:]):
            assert row[:3] == [str(n)] * 3
            assert row[3] == str(math.factorial(3 * n) // math.factorial(n) ** 3)

    def test_oracle_command_gaussian(self, tmp_path, capsys):
        # H = 1 + (-1/2 + i/3) x - y/2: the xy coefficient is 1/2 - i/3
        obj = dict(DELANNOY_SPEC, alpha=["1", "1"], n_values=[1, 2])
        obj["H"] = [
            {"exp": [0, 0], "coef": "1"},
            {"exp": [1, 0], "coef": {"re": "-1/2", "im": "1/3"}},
            {"exp": [0, 1], "coef": "-1/2"},
        ]
        spec_path = self._write(tmp_path, obj)
        assert main(["oracle", "--input", spec_path]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")]
        assert all(len(row) == 4 for row in rows)
        assert rows[1][:3] == ["1", "1", "1/2-1/3i"]
        assert rows[2][:3] == ["2", "2", "5/24-1/2i"]

    def test_precision_below_minimum(self, tmp_path, capsys):
        spec_path = self._write(tmp_path, DELANNOY_SPEC)
        code = main(["expand", "--input", spec_path, "--precision-bits", "40"])
        assert code == 1
        diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "53 bits" in diagnostic["error"]


PROBLEMS = Path(__file__).resolve().parents[1] / "docs" / "problems"


@pytest.mark.parametrize("body, loads_numpy", [
    ("import smoothasym", False),
    ("import smoothasym.cli", False),
    ("from smoothasym import cli; assert cli.main(['oracle', '--input', SPEC]) == 0", False),
    ("from smoothasym import cli; assert cli.main(['expand', '--input', SPEC, '--N', '1']) == 0",
     True),
], ids=["import-package", "import-cli", "oracle", "expand"])
def test_numpy_loaded_only_by_a_solve(body, loads_numpy):
    # numpy is most of the start-up cost, so only the seed-root and
    # minimality-scan helpers import it; the expand case shows that a solve
    # still gets it there.  This pytest process has numpy loaded already, so
    # each case runs in a fresh interpreter.
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys\nSPEC = {str(PROBLEMS / 'delannoy.json')!r}\n{body}\n"
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(loads_numpy)


def _docs_spec(name, **fields):
    return dict(json.loads((PROBLEMS / f"{name}.json").read_text()), **fields)


def _scaled_x(spec, factor, **fields):
    """``spec`` with ``x`` replaced by ``factor * x`` in ``G`` and ``H``,
    expanded at its uncertified minimal point."""
    G, H = ([dict(t, coef=str(Fraction(t["coef"]) * factor ** t["exp"][0])) for t in spec[f]]
            for f in "GH")
    return dict(spec, G=G, H=H, overrides={"assume_strictly_minimal": True}, **fields)


def _full_remainder_power(phase, l):
    return reference_powers(phase.remainder, l + 1)[l]


_windowed_implicit_root, _windowed_phase = localframe.implicit_root_jet, localframe.phase_jet


def _whole_implicit_root(H, point, order, window=None):
    return _windowed_implicit_root(H, point, order)


def _whole_phase(h_jet, direction, order=None, window=None):
    return _windowed_phase(h_jet, direction, order)


def _patch_full_order_chains(monkeypatch):
    """Patch in the full-order chains of ``oracles``, and build the implicit
    root and the phase whole."""
    monkeypatch.setattr(Jet, "reciprocal", reference_reciprocal)
    monkeypatch.setattr(Jet, "log", reference_log)
    monkeypatch.setattr(Jet, "substitute", reference_substitute)
    monkeypatch.setattr(PhaseData, "remainder_power", _full_remainder_power)
    monkeypatch.setattr(localframe, "implicit_root_jet", _whole_implicit_root)
    monkeypatch.setattr(localframe, "phase_jet", _whole_phase)


class TestRoutesMatchFullOrderChains:
    """The routes no benchmark workload runs, through ``cli.main``: the
    windowed Horner chains give byte-identical JSON and CSV to the full-order
    chains of ``oracles`` patched in their place, with the implicit root and
    the phase built whole."""

    @pytest.mark.parametrize("command, spec", [
        ("expand", dict(_docs_spec("delannoy", N=4, n_values=[2, 4]),
                        overrides={"force_degenerate": True})),  # degenerate even, v = 2
        ("expand", dict(QWALK_SPEC, overrides={"assume_strictly_minimal": True})),  # odd, v = 3
        ("expand", dict(univariate_spec("1", "-1", "-1"), p=2)),  # d = 1, p = 2
        ("expand", _docs_spec("smirnov_words", N=3, n_values=[1, 2])),  # three variables
        ("expand", _docs_spec("smirnov_snaps", N=2, n_values=[1, 2])),  # p = 2, three variables
        ("oracle", DELANNOY_SPEC),
        # odd, v = 3 beyond one term's phase window: the whole phase is searched
        ("expand", dict(QWALK_SPEC, N=1, overrides={"assume_strictly_minimal": True})),
        # the same at the inexact critical point (3/7, 1), where the gradient
        # and the t^2 coefficient are rounding noise: all one term's window
        # holds at N = 1, below t^3 at N = 2
        ("expand", _scaled_x(QWALK_SPEC, Fraction(7, 3), N=1)),
        ("expand", _scaled_x(QWALK_SPEC, Fraction(7, 3), N=2)),
    ])
    def test_byte_identical(self, tmp_path, capsys, monkeypatch, command, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))

        def run(tag):
            out_json, out_csv = tmp_path / f"{tag}.json", tmp_path / f"{tag}.csv"
            code = main([command, "--input", str(path),
                         "--out-json", str(out_json), "--out-csv", str(out_csv)])
            out, err = capsys.readouterr()
            files = [p.read_text() if p.exists() else None for p in (out_json, out_csv)]
            return code, out, err, files

        windowed = run("windowed")
        _patch_full_order_chains(monkeypatch)
        assert windowed == run("full")
        assert windowed[0] == 0

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_even_route_beyond_the_window(self, monkeypatch, quartic_phase, N):
        # v = 4: one term's window (degree 2) misses v, and for more terms the
        # route reads the phase past 2N, so the frame is rebuilt.  The point
        # is not minimal, so the route is run below ``cli.main``.
        G, H, alpha, point = quartic_phase
        spec = ProblemSpec.from_json({
            "variables": ["x", "y"], "G": poly_to_json(G), "H": poly_to_json(H), "p": 1,
            "alpha": [str(a) for a in alpha.alpha], "N": N, "n_values": [2, 4],
        })
        report = SimpleNamespace(point=point, reordering=(0, 1))

        def run():
            e = cli._expand_at_point(spec, report)
            assert e.kind == "degenerate-even" and e.meta["v"] == 4
            return [(x, c._mpc_) for x, c in e.flattened.terms + e.dropped.terms]

        windowed = run()
        _patch_full_order_chains(monkeypatch)
        assert windowed == run()


def _perfbench_spans():
    """``perfbench/spans.py``, imported by path: the benchmark's tracer."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_points_resolve(tmp_path, capsys):
    # the benchmark's tracer wraps program functions by name; a rename breaks
    # ``perfbench/run.py --trace 1``
    spans = _perfbench_spans()
    points = spans.trace_points((cli, geometry, localframe, expansion, series))

    def attributes():
        return [owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                for owner, attr, *_ in points]

    originals = attributes()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(DELANNOY_SPEC, N=1)))

    def run():
        code = cli.main(["expand", "--input", str(path)])
        return code, capsys.readouterr()

    untraced = run()
    tracer = spans.Tracer()
    tracer.install(points)
    try:
        traced = run()
    finally:
        tracer.uninstall()
    assert all(now is was for now, was in zip(attributes(), originals))
    assert traced == untraced and traced[0] == 0
    assert {"cli.main", "cli.build_frame", "Jet.pow_int"} <= {rec[0] for rec in tracer.spans}
