"""Seeded inputs and job lists for the three benchmark workloads.

Every input is made here, from the workload seed, before any timing starts;
the program under test only ever reads the files written by ``build``.  The
generators never call the program except in ``decompose``, which asks it for
the indecomposables it then scrambles and sums: the dimension vectors chosen
there depend only on the graph, so the job sizes do not depend on the code
being measured.

A job is a dict with ``id``, ``kind`` (``cli`` or ``decompose``), ``argv`` or
``rep``, the exit code it must return (``rc``) and ``check``, the facts the
independent output checks need.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("indecs", "decompose", "classes")
DEFAULT_SEED = 0

# --- finite-type graphs -----------------------------------------------------
# Undirected labelled edges on vertices 1..n.  E_n hangs vertex n off vertex 3
# of the path 1..n-1, D_n hangs vertex n off vertex n-2.


def _path(labels):
    return [(k + 1, k + 2, lab) for k, lab in enumerate(labels)]


def family_edges(name: str):
    fam, rest = name[0], name[1:]
    if fam == "I":
        return _path([int(rest[2:-1])])
    n = int(rest)
    if fam == "A":
        return _path([3] * (n - 1))
    if fam == "B":
        return _path([4] + [3] * (n - 2))
    if fam == "D":
        return _path([3] * (n - 2)) + [(n - 2, n, 3)]
    if fam == "E":
        return _path([3] * (n - 2)) + [(3, n, 3)]
    if fam == "F":
        return _path([3, 4, 3])
    if fam == "G":
        return _path([6])
    if fam == "H":
        return _path([5] + [3] * (n - 2))
    raise ValueError(f"unknown family {name!r}")


_ROOTS = {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6, "H3": 15, "H4": 60}


def positive_root_count(name: str) -> int:
    """Size of the classical positive root system of a Coxeter type."""
    if name in _ROOTS:
        return _ROOTS[name]
    if name.startswith("I2("):
        return int(name[3:-1])
    n = int(name[1:])
    return {"A": n * (n + 1) // 2, "B": n * n, "D": n * (n - 1)}[name[0]]


def _vertex_count(edges):
    return max(max(s, t) for s, t, _ in edges)


def orient(edges, rng, relabel=True):
    """A random orientation, with the vertex ids randomly renumbered."""
    n = _vertex_count(edges)
    ids = list(range(1, n + 1))
    if relabel:
        rng.shuffle(ids)
    name = {v: ids[v - 1] for v in range(1, n + 1)}
    arrows = []
    for s, t, lab in edges:
        s, t = name[s], name[t]
        if rng.random() < 0.5:
            s, t = t, s
        arrows.append((s, t, lab))
    return n, arrows


def quiver_text(n, arrows) -> str:
    lines = [f"vertex {v}" for v in range(1, n + 1)]
    lines += [f"arrow {s} {t} {lab}" for s, t, lab in arrows]
    return "\n".join(lines) + "\n"


# --- indecs -----------------------------------------------------------------
# Every finite family, small to large, so the job times spread from ~10 ms
# (A2) to ~1.3 s (E8).
#
# Pass sizes: every job runs once per pass, so each job contributes one
# sample per pass and the sorted job times come in groups of equal jobs.  A
# pass of N = 10k + 5 jobs puts the median and p90 in the middle of a group,
# not on the edge between two jobs of different size, where the percentile
# would jump between them from run to run.  All workloads keep N = 5 mod 10.
INDECS_TYPES = (
    "A2", "A3", "A4", "A5", "A6", "A7", "A8",
    "B2", "B3", "B4", "B5",
    "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8",
    "F4", "G2", "H3", "H4",
    "I2(5)", "I2(7)", "I2(8)", "I2(10)",
)


INDECS_FIDELITY = ("A3", "H3")


def _indecs(rng, put, tiny):
    jobs = []
    text = "A3" if tiny else "H3"  # the one job in text format
    for name in ("A2", "A3", "I2(5)") if tiny else INDECS_TYPES:
        n, arrows = orient(family_edges(name), rng)
        path = put(f"{name}.txt", quiver_text(n, arrows))
        check = {"type": name, "quiver": [n, arrows]}
        fid = name in INDECS_FIDELITY
        jobs.append(_cli(f"indecs:{name}", ["indecs", path, "--full", "--json"], check, fidelity=fid))
        jobs.append(_cli(f"roots:{name}", ["roots", path, "--extended", "--json"], check, fidelity=fid))
        if name == text:
            jobs.append(_cli(f"indecs-text:{name}", ["indecs", path, "--full"], check, fidelity=fid))
    return jobs


def _cli(job_id, argv, check, rc=0, fidelity=False):
    return {"id": job_id, "kind": "cli", "argv": argv, "rc": rc, "check": check, "fidelity": fidelity}


# --- decompose --------------------------------------------------------------
# (type, ((rank, multiplicity), ...)): rank indexes the indecomposables of the
# type sorted by (total dimension, dimension vector), which is the same list in
# every orientation because the vertex numbering is kept.  Repeated summands
# (multiplicity 2 or 3) are what make the End algebra, and the splitting, big.
DECOMPOSE_TEMPLATES = (
    ("A3", ((5, 1), (4, 1), (3, 1), (0, 1))),
    ("A3", ((5, 2), (3, 1))),
    ("A3", ((5, 2), (4, 2), (1, 1))),
    ("A3", ((5, 3), (3, 2), (0, 3))),
    ("D4", ((11, 1), (7, 1))),
    ("D4", ((11, 1), (10, 1), (4, 1))),
    ("D4", ((10, 2), (8, 1))),
    ("D4", ((11, 2), (9, 1), (5, 2))),
    ("D4", ((11, 3), (10, 1), (0, 3))),
    ("B3", ((26, 1), (20, 1))),
    ("B3", ((26, 1), (23, 1), (14, 1), (3, 1))),
    ("B3", ((25, 2), (18, 1))),
    ("B3", ((26, 2), (22, 2), (10, 2))),
    ("I2(5)", ((9, 1), (7, 1))),
    ("I2(5)", ((9, 1), (8, 1), (5, 1), (0, 1))),
    ("I2(5)", ((9, 2), (6, 1))),
    ("I2(5)", ((9, 3), (8, 2), (1, 2))),
    ("H3", ((29, 1),)),
    ("H3", ((28, 1), (20, 1))),
    ("H3", ((29, 1), (26, 1), (15, 1))),
    ("H3", ((27, 2), (18, 1))),
    ("H3", ((29, 2), (24, 1))),
    ("D4", ((9, 1), (8, 1), (7, 1))),
    ("B3", ((24, 1), (21, 1), (16, 1))),
    ("H3", ((28, 1), (25, 1), (21, 1), (11, 1))),
)


DECOMPOSE_FIDELITY = (0, 13)


def _unimodular(d, rng):
    lower = [[1 if i == j else (rng.randint(-1, 1) if j < i else 0) for j in range(d)] for i in range(d)]
    upper = [[1 if i == j else (rng.randint(-1, 1) if j > i else 0) for j in range(d)] for i in range(d)]
    return _matmul(lower, upper)


def _matmul(a, b):
    cols = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _inverse(m):
    d = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(m)]
    for c in range(d):
        p = next(r for r in range(c, d) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]


def _scrambled_sum(summands, rng):
    """Rep JSON of the direct sum of the summands after a random unimodular
    change of basis at every unfolded vertex."""
    uq = summands[0].quiver
    dims = {u: sum(W.dims[u] for W in summands) for u in uq.vertices}
    change = {u: _unimodular(d, rng) for u, d in dims.items() if d}
    inverse = {u: _inverse(p) for u, p in change.items()}
    maps = {}
    for a in uq.arrows:
        rows, cols = dims[a.target], dims[a.source]
        if not rows or not cols:
            continue
        block = [[0] * cols for _ in range(rows)]
        r0 = c0 = 0
        for W in summands:
            m = W.maps[a.id]
            for i, row in enumerate(m.data):
                block[r0 + i][c0 : c0 + m.cols] = row
            r0 += W.dims[a.target]
            c0 += W.dims[a.source]
        m = _matmul(_matmul(change[a.target], block), inverse[a.source])
        if any(x for row in m for x in row):
            maps[a.id] = [[str(x) for x in row] for row in m]
    return {
        "quiver": uq.source.to_json(),
        "dims": {u: d for u, d in dims.items() if d},
        "maps": maps,
    }


def leaf_key(dims) -> str:
    """Canonical form of an unfolded dimension vector."""
    return json.dumps({u: d for u, d in sorted(dims.items()) if d}, sort_keys=True)


def _decompose(rng, put, tiny):
    from coxrep import CoxeterQuiver, dim_vector, enumerate_indecomposables

    templates = DECOMPOSE_TEMPLATES[:2] if tiny else DECOMPOSE_TEMPLATES
    indecs = {}
    for name in sorted({name for name, _ in templates}):
        n, arrows = orient(family_edges(name), rng, relabel=False)
        Q = CoxeterQuiver(range(1, n + 1), [(f"a{k}", s, t, lab) for k, (s, t, lab) in enumerate(arrows)])
        found = enumerate_indecomposables(Q)
        found.sort(key=lambda W: (W.total_dim(), dim_vector(W).serialize()))
        indecs[name] = found
    jobs = []
    for k, (name, spec) in enumerate(templates):
        summands = [indecs[name][rank] for rank, mult in spec for _ in range(mult)]
        doc = _scrambled_sum(summands, rng)
        path = put(f"rep{k}.json", json.dumps(doc, sort_keys=True))
        leaves = sorted(leaf_key(W.dims) for W in summands)
        jobs.append(
            {"id": f"decompose:{k}:{name}", "kind": "decompose", "rep": path, "rc": 0,
             "check": {"leaves": leaves}, "fidelity": k in DECOMPOSE_FIDELITY}
        )
    return jobs


# --- classes ----------------------------------------------------------------
# (vertices, label pool, arrow probability, fusion products).  The work of a
# job is about one fusion product per arrow of every path, so rejection
# sampling holds the total length of all paths within 5% of the target, and
# every label of the pool must occur, since the labels fix the fusion ring.
DAG_TEMPLATES = (
    (8, (3, 4, 5), 0.4, 140),
    (8, (3, 4, 5, 6, 7, 8), 0.4, 140),
    (9, (4, 5, 6), 0.4, 350),
    (9, (3, 5, 7), 0.4, 340),
    (10, (3, 4, 5, 6, 7, 8), 0.4, 540),
    (10, (4, 6, 8), 0.4, 540),
    (11, (3, 4, 5), 0.4, 1090),
    (11, (5, 6, 7, 8), 0.4, 1040),
    (12, (3, 4, 5, 6, 7, 8), 0.4, 1730),
    (12, (4, 5, 6), 0.4, 1610),
    (13, (3, 4, 5, 6, 7, 8), 0.4, 2460),
    (13, (3, 5, 7), 0.4, 2490),
    (8, (6, 7, 8), 0.4, 140),
    (9, (3, 4), 0.4, 320),
    (10, (5, 7), 0.4, 570),
    (11, (3, 4, 5, 6, 7, 8), 0.4, 1020),
    (12, (3, 8), 0.4, 1670),
    (13, (4, 5, 6, 7), 0.4, 2430),
)
MULTI_LABELS = ((5, 6, 7), (6, 7, 8), (8, 9, 10), (10, 11, 12))
DIHEDRAL = tuple(range(8, 25))


def path_length_total(n, arrows) -> int:
    """Total length of all paths of length >= 1 in a DAG on 1..n."""
    out = {v: [] for v in range(1, n + 1)}
    indeg = {v: 0 for v in range(1, n + 1)}
    for s, t, _ in arrows:
        out[s].append(t)
        indeg[t] += 1
    order = [v for v in out if not indeg[v]]
    for v in order:
        for t in out[v]:
            indeg[t] -= 1
            if not indeg[t]:
                order.append(t)
    # paths[v], length[v]: number and total length of the paths leaving v
    paths, length = {}, {}
    for v in reversed(order):
        paths[v] = sum(1 + paths[t] for t in out[v])
        length[v] = sum(1 + paths[t] + length[t] for t in out[v])
    return sum(length.values())


def random_dag(n, labels, p, target, rng):
    band = (0.95 * target, 1.05 * target)
    for _ in range(100_000):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        arrows = [
            (order[i], order[j], rng.choice(labels))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        if len({lab for _, _, lab in arrows}) == len(labels) and (
            band[0] <= path_length_total(n, arrows) <= band[1]
        ):
            return arrows
    raise RuntimeError(f"no DAG on {n} vertices with about {target} fusion products")


def _classes(rng, put, tiny):
    jobs = []
    dags = DAG_TEMPLATES[:2] if tiny else DAG_TEMPLATES
    for k, (n, labels, p, target) in enumerate(dags):
        arrows = random_dag(n, labels, p, target, rng)
        path = put(f"dag{k}.txt", quiver_text(n, arrows))
        jobs.append(_cli(f"path-algebra:{k}", ["path-algebra", path, "--json"], {"quiver": [n, arrows]}, fidelity=k == 0))
    for k, labels in enumerate(MULTI_LABELS[:1] if tiny else MULTI_LABELS):
        labels = list(labels)
        rng.shuffle(labels)
        n, arrows = orient(_path(labels), rng)
        name = "-".join(map(str, sorted(labels)))
        path = put(f"multi{name}.txt", quiver_text(n, arrows))
        check = {"quiver": [n, arrows]}
        jobs.append(_cli(f"unfold:{name}", ["unfold", path, "--components", "--json"], check))
        jobs.append(_cli(f"classify:{name}", ["classify", path, "--json"], check, fidelity=k == 0))
    for m in DIHEDRAL[:2] if tiny else DIHEDRAL:
        n, arrows = orient(_path([m]), rng)
        path = put(f"I2_{m}.txt", quiver_text(n, arrows))
        check = {"type": f"I2({m})", "quiver": [n, arrows]}
        jobs.append(_cli(f"roots:I2({m})", ["roots", path, "--extended", "--json"], check, fidelity=m == DIHEDRAL[0]))
    # Expected failures: the affine D~4 star is infinite type (exit 2) and its
    # root orbit is infinite, so any budget is exceeded (exit 3).
    n, arrows = orient([(1, 2, 3), (1, 3, 3), (1, 4, 3), (1, 5, 3)], rng)
    path = put("affine_D4.txt", quiver_text(n, arrows))
    jobs.append(_cli("indecs:affine", ["indecs", path], {}, rc=2, fidelity=True))
    jobs.append(_cli("roots:affine-budget", ["roots", path, "--budget", "200"], {}, rc=3, fidelity=True))
    return jobs


# --- entry points -----------------------------------------------------------
_BUILDERS = {"indecs": _indecs, "decompose": _decompose, "classes": _classes}


def _warmup(workload, put):
    """One tiny job of each command the workload uses (part of set-up)."""
    a2 = put("warm_A2.txt", quiver_text(2, [(1, 2, 3)]))
    if workload == "decompose":
        # The sum of the three indecomposables of A2: End has dimension 5,
        # so the splitter (and its lazy sympy import) really runs.
        doc = {
            "quiver": {"vertices": ["1", "2"], "arrows": [{"id": "a0", "source": "1", "target": "2", "label": 3}]},
            "dims": {"3:0@1": 2, "3:0@2": 2},
            "maps": {"a0:3:0@1>3:0@2": [["1", "0"], ["0", "0"]]},
        }
        return [{"id": "warm:decompose", "kind": "decompose", "rep": put("warm_rep.json", json.dumps(doc)), "rc": 0}]
    commands = {
        "indecs": [["indecs", a2, "--full", "--json"], ["roots", a2, "--extended", "--json"]],
        "classes": [
            ["path-algebra", a2, "--json"],
            ["unfold", a2, "--components", "--json"],
            ["classify", a2, "--json"],
            ["roots", a2, "--extended", "--json"],
            ["indecs", a2],
        ],
    }[workload]
    return [_cli(f"warm:{argv[0]}", argv, {}) for argv in commands]


def build(workload: str, seed: int, directory: str, tiny: bool = False) -> dict:
    """Write the workload's inputs under ``directory`` and return its job file
    contents: the warm-up jobs and the measured jobs, in pass order."""
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(directory, exist_ok=True)

    def put(name, text):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    return {"warmup": _warmup(workload, put), "jobs": _BUILDERS[workload](rng, put, tiny)}
