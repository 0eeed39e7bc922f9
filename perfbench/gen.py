"""Workload generators: a seed in, a list of CLI requests out.

Each request is one ``smoothasym`` command (``expand`` or ``critical``) on a
spec dict.  The same seed always gives the same requests.  The docs specs are
read from ``docs/problems`` of the checkout under test; everything else is
drawn from the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("jets_high_order", "oracle_large_n", "batch_mixed")

DOCS = ("delannoy", "smirnov_words", "smirnov_snaps", "quantum_walk")

# Closed forms the checker knows for a docs spec (see checks.independent_exact).
CLOSED_FORMS = {"delannoy": "delannoy", "smirnov_words": "multinomial"}

# jets_high_order: the largest N each docs spec runs at (Delannoy N=8 is jet
# order 44); the oracle stays at the spec's own n_values.
HIGH_N = {"delannoy": 8, "smirnov_words": 4, "smirnov_snaps": 3, "quantum_walk": 8}

# oracle_large_n: the largest n sets the oracle box (Delannoy n=192 is the
# 577x385 box); the seed picks three smaller n from each pool.
LARGE_N_MAX = {"delannoy": 192, "smirnov_words": 48, "smirnov_snaps": 24}
LARGE_N_POOL = {
    "delannoy": [8, 16, 24, 32, 48, 64, 96, 128, 160],
    "smirnov_words": [2, 4, 8, 12, 16, 24, 32, 40],
    "smirnov_snaps": [2, 4, 6, 8, 12, 16, 20],
}

# batch_mixed draw shapes: (support, direction, draws per pass).  For
# `expand` the support is that of the nonnegative P (beyond x and y) in
# H = 1 - P; for `critical` it is that of the mixed-sign H beyond 1.  The seed
# draws coefficients, signs and n_values, and deals each expand shape's draws
# the (p, N) pairs of p in {1, 2}, N in {1, 2, 3} as evenly as its count
# allows; support, direction and count are fixed.  So every pass holds the
# same mix of cheap and expensive shapes and its cost moves little from seed
# to seed.  About a third of the requests
# are cheap, so the median latency sits inside the expensive cluster rather
# than between the two.  The last critical shape reaches the known
# `newton_polish` crash on every draw seen so far.
EXPAND_SHAPES = (
    (((1, 1),), (1, 1), 3),
    (((1, 1), (2, 0)), (2, 1), 3),
    (((1, 2),), (1, 1), 6),
    (((2, 2),), (1, 2), 6),
)
CRITICAL_SHAPES = (
    (((1, 0), (0, 1), (2, 2)), (1, 1), 6),
    (((0, 1), (2, 0), (2, 2)), (2, 1), 3),
)
BATCH_N_POOL = list(range(1, 11))
PN_PAIRS = [(p, N) for p in (1, 2) for N in (1, 2, 3)]


@dataclass
class Request:
    """One CLI call: command, spec, and what a correct run looks like."""

    rid: str
    command: str
    spec: dict
    expect: tuple  # exit codes a correct run may return
    label: str  # docs spec name or draw family, for reports
    closed_form: str = None  # "delannoy" | "multinomial" | None
    n_pool: list = None  # every n the generator could pick for this spec

    def key(self):
        """Reference key: the command and the spec without n_values."""
        core = {k: v for k, v in self.spec.items() if k != "n_values"}
        return self.command + ":" + json.dumps(core, sort_keys=True, separators=(",", ":"))


def load_docs(root):
    return {
        name: json.loads((Path(root) / "docs" / "problems" / f"{name}.json").read_text())
        for name in DOCS
    }


def _docs_request(docs, name, rid, N, n_values, n_pool):
    spec = dict(docs[name], N=N, n_values=list(n_values))
    return Request(rid, "expand", spec, (0,), name, CLOSED_FORMS.get(name), list(n_pool))


def jets_high_order(docs, rng):
    names = list(DOCS)
    rng.shuffle(names)
    return [
        _docs_request(docs, name, f"j{i}-{name}", HIGH_N[name],
                      docs[name]["n_values"], docs[name]["n_values"])
        for i, name in enumerate(names)
    ]


def oracle_large_n(docs, rng):
    names = list(LARGE_N_MAX)
    rng.shuffle(names)
    out = []
    for i, name in enumerate(names):
        top = LARGE_N_MAX[name]
        pool = LARGE_N_POOL[name]
        n_values = sorted(rng.sample(pool, 3)) + [top]
        out.append(_docs_request(docs, name, f"o{i}-{name}", 2, n_values, pool + [top]))
    return out


def _terms(pairs):
    return [{"exp": list(e), "coef": str(c)} for e, c in pairs]


def _expand_draw(rng, support, alpha, pn, rid):
    """H = 1 - P with P >= 0 holding x and y: aperiodic, certified at a
    positive point, so the expected exit code is 0."""
    P = [((1, 0), rng.randint(1, 4)), ((0, 1), rng.randint(1, 4))]
    P += [(m, rng.randint(1, 4)) for m in support]
    H = [((0, 0), 1)] + [(m, -c) for m, c in P]
    spec = {
        "variables": ["x", "y"],
        "G": _terms([((0, 0), 1)]),
        "H": _terms(H),
        "p": pn[0],
        "alpha": [str(a) for a in alpha],
        "N": pn[1],
        "n_values": sorted(rng.sample(BATCH_N_POOL, 3)),
    }
    return Request(rid, "expand", spec, (0,), "expand-random", None, BATCH_N_POOL)


def _critical_draw(rng, support, alpha, rid):
    """Mixed-sign H = 1 + sum c_m x^m: at least one coefficient of each sign.

    Exit 2 (no valid critical point) is a documented outcome for these."""
    signs = [rng.choice((-1, 1)) for _ in support]
    if len(set(signs)) == 1:
        signs[rng.randrange(len(signs))] *= -1
    H = [((0, 0), 1)] + [(m, s * rng.randint(1, 3)) for m, s in zip(support, signs)]
    spec = {
        "variables": ["x", "y"],
        "G": _terms([((0, 0), 1)]),
        "H": _terms(H),
        "alpha": [str(a) for a in alpha],
    }
    return Request(rid, "critical", spec, (0, 2), "critical-random")


def batch_mixed(docs, rng):
    reqs = [
        _docs_request(docs, name, f"b-{name}", 2, docs[name]["n_values"],
                      docs[name]["n_values"])
        for name in DOCS
    ]
    for s, (support, alpha, count) in enumerate(EXPAND_SHAPES):
        pairs = []
        while len(pairs) < count:
            pairs += rng.sample(PN_PAIRS, min(len(PN_PAIRS), count - len(pairs)))
        reqs += [_expand_draw(rng, support, alpha, pn, f"be{s}.{k}")
                 for k, pn in enumerate(pairs)]
    for s, (support, alpha, count) in enumerate(CRITICAL_SHAPES):
        reqs += [_critical_draw(rng, support, alpha, f"bc{s}.{k}") for k in range(count)]
    rng.shuffle(reqs)
    return reqs


def generate(workload, seed, docs):
    """The requests of one pass of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return globals()[workload](docs, rng)


def write_specs(requests, workdir):
    """Write each request's spec to ``workdir/<rid>.json``; return the paths."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for req in requests:
        path = workdir / f"{req.rid}.json"
        path.write_text(json.dumps(req.spec, sort_keys=True))
        paths[req.rid] = path
    return paths
