"""Hash everything ``cli.main`` prints for every benchmark request.

    python3 tools/output_digest.py CHECKOUT [--seeds 1 2 ...] [--mask-witnesses]
                                   [--mask-dust]

Runs every request of the benchmark workloads (``perfbench/gen.py``) at the
given seeds (1 and 2 by default) through the ``cli.main`` of the checkout at
``CHECKOUT``, in this one process, one request after another, as the
benchmark's closed loop does.
Then, whatever the seeds, it runs ``ROUTES``: thirteen fixed requests on
routes that no workload reaches (the degenerate even route, the degenerate
route's whole-phase search and its reuse of the first frame, the
one-variable route, torus sampling in three variables, the ``oracle``
command in two and in three variables, a three-variable Gaussian system
from seeds, a Gaussian ``G``, critical points far smaller than the
eliminant's coefficients, a Delannoy ``H`` scaled by ``2^-40`` and an ``H``
of degree 3 in its distinguished variable).
For each request it hashes the exit code, stdout, stderr and the JSON and
CSV files the request writes (an exception escaping ``cli.main`` is hashed
as its type and message), and prints one line
``<workload> <seed> <request id> <sha256>`` (``routes - <request id>
<sha256>`` for ``ROUTES``); the last line is ``overall <sha256>`` over all
of them.

A change meant to keep the output bit for bit runs this on a checkout of
the parent and of the change and diffs the two outputs (``PARENT`` is the
parent's commit: ``HEAD`` for uncommitted changes)::

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    python3 tools/output_digest.py /tmp/parent > parent.txt
    python3 tools/output_digest.py . > change.txt
    diff parent.txt change.txt

``--mask-witnesses`` hashes each JSON output with every
``minimality.witness`` that is set replaced by ``"masked"``.  A witness is a
point of the variety inside the polydisc, found by a double-precision search,
so a change to that search can move its digits and nothing else; with the
flag, such a change shows every other byte unchanged, and the unmasked run
names the requests whose witnesses moved.

``--mask-dust`` hashes each JSON output with its dust replaced by
``"dust"``: each part of a ``{"re", "im"}`` pair whose modulus is at most
``2^-(p-20)`` times the pair's larger part, and the imaginary part of each
``meta`` value printed as ``(a + bj)`` under the same rule, where ``p`` is
the request's ``precision_bits``.  Dust is rounding noise on an exact zero,
such as the imaginary part of a real point, so a change to the solver's
rounding can move it and nothing else; with the flag, a change that moves
only dust hashes unchanged.  A part above dust that moves still shows, even
by less than the bound: the rule masks small parts, not small moves.

Seeds whose random draws make Newton crawl into singular critical points
(7, 41, 51 and 52) exercise the solver far more than seeds 1 and 2; a
change to the geometry passes ``--seeds 1 2 7 41 51 52``.

Specs and outputs are written under a temporary directory and named by
relative paths, so nothing of the machine enters the hashes.  The benchmark's
``gen`` module is imported read-only from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SEEDS = (1, 2)


def _terms(*pairs):
    """Spec terms from ``(exponent, coefficient)`` pairs."""
    return [{"exp": list(e), "coef": c} for e, c in pairs]


def _gauss(re, im):
    return {"re": re, "im": im}


# one symmetric H in three variables whose xyz term has the sign opposite to
# the linear ones, so 1 - H has a negative coefficient and minimality falls
# to torus sampling
_SYMMETRIC_3 = {
    "variables": ["x", "y", "z"],
    "G": _terms(((0, 0, 0), 1)),
    "H": _terms(((0, 0, 0), 1), ((1, 0, 0), -1), ((0, 1, 0), -1), ((0, 0, 1), -1),
                ((1, 1, 1), "1/2")),
    "p": 1, "alpha": ["1", "1", "1"], "N": 2, "n_values": [1, 2, 4],
}

# ``(request id, command, docs spec or None, spec fields)``: the request's
# spec is the docs spec (``docs/problems/<name>.json``) updated by the fields
ROUTES = (
    ("delannoy-degenerate-even", "expand", "delannoy",
     {"overrides": {"force_degenerate": True}}),
    ("quantum-walk-whole-phase", "expand", "quantum_walk", {"N": 1}),
    ("quantum-walk-one-frame", "expand", "quantum_walk", {"N": 2}),
    ("univariate-pole-2", "expand", None, {
        "variables": ["x"], "G": _terms(((0,), 1)),
        "H": _terms(((0,), 1), ((1,), -1), ((2,), -1)),
        "p": 2, "alpha": ["1"], "N": 2, "n_values": [1, 2, 4, 8, 16]}),
    ("symmetric-3-critical", "critical", None, _SYMMETRIC_3),
    ("symmetric-3-sampled", "expand", None,
     dict(_SYMMETRIC_3, overrides={"assume_strictly_minimal": True})),
    ("delannoy-oracle", "oracle", "delannoy", {}),
    ("smirnov-words-oracle", "oracle", "smirnov_words", {"n_values": [48, 96]}),
    ("gaussian-3-seeded", "critical", None, {
        "variables": ["x", "y", "z"],
        "G": _terms(((0, 0, 0), 1)),
        "H": _terms(((0, 0, 0), 1), ((1, 0, 0), -1), ((0, 1, 0), -1),
                    ((0, 0, 1), _gauss(1, "1/2")), ((1, 1, 0), _gauss(0, "1/3"))),
        "p": 1, "alpha": ["1", "1", "1"], "N": 1,
        "seeds": [[["1/3", "0"], ["1/3", "0"], ["-4/15", "2/15"]]]}),
    ("delannoy-gaussian-g", "expand", "delannoy",
     {"G": _terms(((0, 0), 1), ((1, 0), _gauss("1/2", "-1/3")))}),
    # 1 - x - y + 10^310 xy along (1, 1): two critical points near +-i 1e-155,
    # whose eliminant's coefficient ratios fall below the double range
    ("tiny-critical-points", "critical", None, {
        "variables": ["x", "y"], "G": _terms(((0, 0), 1)),
        "H": _terms(((0, 0), 1), ((1, 0), -1), ((0, 1), -1),
                    ((1, 1), str(10**310))),
        "p": 1, "alpha": ["1", "1"], "N": 1}),
    # Delannoy's H times 2^-40: the same variety, judged relative to the
    # scaled coefficients
    ("scaled-delannoy", "expand", "delannoy", {
        "H": _terms(((0, 0), f"1/{2**40}"), ((1, 0), f"-1/{2**40}"),
                    ((0, 1), f"-1/{2**40}"), ((1, 1), f"-1/{2**40}"))}),
    # 1 - x - y - x y^3: the implicit root reads the powers of its
    # displacement up to the cube, which no docs spec's linear H reaches
    ("cubic-in-y", "expand", None, {
        "variables": ["x", "y"], "G": _terms(((0, 0), 1)),
        "H": _terms(((0, 0), 1), ((1, 0), -1), ((0, 1), -1), ((1, 3), -1)),
        "p": 2, "alpha": ["1", "1"], "N": 6, "n_values": [1, 2, 4, 8]}),
)


def route_specs(docs):
    """``(request id, command, spec)`` for each of ``ROUTES``."""
    return [(rid, command, dict(docs[name] if name else {}, **fields))
            for rid, command, name, fields in ROUTES]


def mask_witnesses(node):
    """A copy of the JSON value ``node`` with every ``minimality.witness``
    that is set replaced by ``"masked"``."""
    if isinstance(node, list):
        return [mask_witnesses(v) for v in node]
    if not isinstance(node, dict):
        return node
    out = {k: mask_witnesses(v) for k, v in node.items()}
    minimality = out.get("minimality")
    if isinstance(minimality, dict) and minimality.get("witness") is not None:
        minimality["witness"] = "masked"
    return out


# a complex ``meta`` value as ``str`` prints it: ``(a + bj)`` or ``(a - bj)``
_META_COMPLEX = re.compile(r"\((\S+) [+-] (\S+)j\)")


def mask_dust(node, bits):
    """A copy of the JSON value ``node`` with its dust at ``bits`` of
    precision replaced by ``"dust"``: each part of a ``{"re", "im"}`` pair
    whose modulus is at most ``2^-(bits-20)`` times the pair's larger part,
    and the imaginary part of each ``meta`` value printed as ``(a + bj)``
    under the same rule."""
    tol = Fraction(1, 2 ** (bits - 20))

    def is_dust(part, other):
        part, other = abs(Fraction(part)), abs(Fraction(other))
        return part <= tol * max(part, other)

    def walk(node, key=None):
        if isinstance(node, list):
            return [walk(v) for v in node]
        if not isinstance(node, dict):
            return node
        if set(node) == {"re", "im"}:
            re_, im = node["re"], node["im"]
            return {"re": "dust" if is_dust(re_, im) else re_,
                    "im": "dust" if is_dust(im, re_) else im}
        out = {k: walk(v, k) for k, v in node.items()}
        if key == "meta":
            for k, v in out.items():
                m = isinstance(v, str) and _META_COMPLEX.fullmatch(v)
                if m and is_dust(m[2], m[1]):
                    out[k] = f"({m[1]} + dustj)"
        return out

    return walk(node)


def request_digest(cli, command, spec_name, transform=None):
    """sha256 over the exit code, stdout, stderr and written files of one
    ``cli.main`` call on the spec file ``spec_name`` (cwd-relative); with
    ``transform``, the JSON file is hashed as ``transform`` of its value."""
    for name in ("out.json", "out.csv"):
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--input", spec_name,
                             "--out-json", "out.json", "--out-csv", "out.csv"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # hashed as what escaped, without file paths
        code = f"{type(exc).__name__}: {exc}"
    files = [Path(n).read_text() if Path(n).exists() else "<none>"
             for n in ("out.json", "out.csv")]
    if transform and files[0] != "<none>":
        files[0] = json.dumps(transform(json.loads(files[0])), indent=2,
                              sort_keys=True) + "\n"
    h = hashlib.sha256()
    for part in (repr(code), out.getvalue(), err.getvalue(), *files):
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=SEEDS,
                    help="workload seeds to run (default: 1 2)")
    ap.add_argument("--mask-witnesses", action="store_true",
                    help="hash JSON outputs with every minimality witness masked")
    ap.add_argument("--mask-dust", action="store_true",
                    help="hash JSON outputs with rounding noise on exact zeros masked")
    args = ap.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import gen
    from smoothasym import cli

    docs = gen.load_docs(root)
    overall = hashlib.sha256()

    def emit(label, command, spec):
        Path("spec.json").write_text(json.dumps(spec, sort_keys=True))
        bits = spec.get("precision_bits", cli.DEFAULT_BITS)

        def transform(node):
            if args.mask_witnesses:
                node = mask_witnesses(node)
            return mask_dust(node, bits) if args.mask_dust else node

        masked = args.mask_witnesses or args.mask_dust
        digest = request_digest(cli, command, "spec.json", transform if masked else None)
        line = f"{label} {digest}"
        print(line, flush=True)
        overall.update(line.encode() + b"\n")

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for workload in gen.WORKLOADS:
                for seed in args.seeds:
                    for req in gen.generate(workload, seed, docs):
                        emit(f"{workload} {seed} {req.rid}", req.command, req.spec)
            for rid, command, spec in route_specs(docs):
                emit(f"routes - {rid}", command, spec)
        finally:
            os.chdir(here)
    print("overall", overall.hexdigest())


if __name__ == "__main__":
    main()
