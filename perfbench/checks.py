"""Independent checks of job outputs, run after the timed region.

Nothing here imports coxrep.  The unfolded quiver, the classical positive
roots of its components and the Perron-Frobenius values of fusion classes
are recomputed from the quiver with plain integers and floats, so a check
does not share code with what it checks.

``check(job, rc, out)`` returns None when the output is right, otherwise a
one-line reason.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import product

from workloads import leaf_key, positive_root_count


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# --- fusion ring and unfolding, from the definitions --------------------------


def simples(n: int) -> list[int]:
    return list(range(n - 1)) if n % 2 == 0 else list(range(0, n - 2, 2))


def tensor(n: int, a: int, b: int) -> range:
    hi = a + b if a + b <= n - 2 else 2 * (n - 2) - (a + b)
    return range(abs(a - b), hi + 1, 2)


def simple_key(simple) -> str:
    return "|".join(f"{n}:{a}" for n, a in simple)


def unfolded(n, arrows):
    """Vertices and (provenance, source, target) arrows of the unfolding of a
    quiver on 1..n whose k-th arrow (in file order) is named a<k>."""
    labels = sorted({lab for _, _, lab in arrows})
    irr = list(product(*[[(m, a) for a in simples(m)] for m in labels]))
    vertices = [f"{simple_key(B)}@{v}" for B in irr for v in range(1, n + 1)]
    edges = []
    for k, (s, t, lab) in enumerate(arrows):
        pos = labels.index(lab)
        for B in irr:
            for c in tensor(lab, lab - 3, B[pos][1]):
                C = B[:pos] + ((lab, c),) + B[pos + 1 :]
                edges.append((f"a{k}", f"{simple_key(B)}@{s}", f"{simple_key(C)}@{t}"))
    return irr, vertices, edges


def components(vertices, edges) -> list[list[str]]:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, s, t in edges:
        parent[find(s)] = find(t)
    groups: dict[str, list[str]] = {}
    for v in vertices:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def classical_positive_roots(vertices, edges) -> list[dict[str, int]]:
    """Positive roots of every component: closure of the simple roots under
    the integer reflections s_i(v)_i = sum of v over the neighbours - v_i."""
    roots = []
    for comp in components(vertices, edges):
        idx = {v: i for i, v in enumerate(comp)}
        nbr = [[] for _ in comp]
        for _, s, t in edges:
            if s in idx:
                nbr[idx[s]].append(idx[t])
                nbr[idx[t]].append(idx[s])
        seen = {tuple(int(i == j) for j in range(len(comp))) for i in range(len(comp))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(len(comp)):
                    w = list(v)
                    w[i] = sum(v[j] for j in nbr[i]) - v[i]
                    w = tuple(w)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
            if len(seen) > 100_000:
                raise ValueError("classical root closure is infinite")
        roots += [
            {comp[i]: d for i, d in enumerate(v) if d}
            for v in seen
            if min(v) >= 0
        ]
    return roots


def fold(dims) -> dict:
    """Unfolded dimensions to one fusion class per vertex, as coxrep prints."""
    out: dict[str, dict[str, int]] = {}
    for name, d in dims.items():
        if d:
            key, v = name.rsplit("@", 1)
            out.setdefault(v, {})[key] = d
    return out


def _extended_roots(quiver) -> set[str]:
    _, vertices, edges = unfolded(*quiver)
    return {_canon(fold(r)) for r in classical_positive_roots(vertices, edges)}


# --- Perron-Frobenius channel -------------------------------------------------


def _chebyshev(k: int, x: float) -> float:
    prev, cur = 1.0, x
    if k == 0:
        return 1.0
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def pf_value(elem: dict[str, int]) -> float:
    total = 0.0
    for key, c in elem.items():
        val = 1.0
        for part in filter(None, key.split("|")):
            n, a = map(int, part.split(":"))
            val *= _chebyshev(a, 2.0 * math.cos(math.pi / n))
        total += c * val
    return total


def weighted_walks(n, arrows) -> list[float]:
    """1^T W^k 1 for k = 0, 1, ... while non-zero, where W carries the
    dimension 2cos(pi/label) of each arrow's generating simple."""
    out = {v: [] for v in range(1, n + 1)}
    for s, t, lab in arrows:
        out[s].append((t, 2.0 * math.cos(math.pi / lab)))
    y = {v: 1.0 for v in out}
    count = {v: 1 for v in out}
    sums = [float(n)]
    while True:
        y = {s: sum(w * y[t] for t, w in out[s]) for s in out}
        count = {s: sum(count[t] for t, _ in out[s]) for s in out}
        if not any(count.values()):
            return sums
        sums.append(sum(y.values()))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


# --- per command ------------------------------------------------------------------


def _check_indecs(doc, info):
    expected = _extended_roots(info["quiver"])
    found = [_canon(e["dim_vector"]) for e in doc["indecomposables"]]
    if doc["count"] != len(found) or len(set(found)) != len(found):
        return "count or duplicate dimension vectors"
    if set(found) != expected:
        return f"dimension vectors differ from the {len(expected)} folded classical roots"
    for e in doc["indecomposables"]:
        rep = e["rep"]
        if _canon(fold(rep["dims"])) != _canon(e["dim_vector"]):
            return "representation dims do not fold to its dimension vector"
        for arrow, rows in rep["maps"].items():
            src, tgt = arrow.split(":", 1)[1].split(">")
            if len(rows) != rep["dims"].get(tgt, 0) or any(len(r) != rep["dims"].get(src, 0) for r in rows):
                return f"matrix of {arrow} has the wrong shape"
    return None


def _check_indecs_text(out, info):
    """``indecs --full`` text: a count line, then per indecomposable its
    dimension vector, its non-zero dims and its non-zero maps."""
    lines = out.splitlines()
    entries = []
    for line in lines[1:]:
        if line.startswith("    dim "):
            name, d = line[8:].split(" = ")
            entries[-1][1][name] = int(d)
        elif line.startswith("  {"):
            entries.append((json.loads(line), {}))
    expected = _extended_roots(info["quiver"])
    found = [_canon(dv) for dv, _ in entries]
    if lines[0] != f"indecomposables ({len(expected)}):" or len(set(found)) != len(found):
        return "count line or duplicate dimension vectors"
    if set(found) != expected:
        return "dimension vectors differ from the folded classical roots"
    if any(_canon(fold(dims)) != _canon(dv) for dv, dims in entries):
        return "representation dims do not fold to its dimension vector"
    return None


def _check_roots(doc, info):
    expected = _extended_roots(info["quiver"])
    irr, _, _ = unfolded(*info["quiver"])
    base = positive_root_count(info["type"])
    positive = {_canon(r) for r in doc["positive_roots"]}
    extended = {_canon(r) for r in doc["extended_positive_roots"]}
    if doc["count"] != base or len(positive) != base:
        return f"{doc['count']} positive roots, expected {base}"
    if doc["extended_count"] != len(irr) * base or len(extended) != len(irr) * base:
        return f"{doc['extended_count']} extended roots, expected |Irr|*{base}"
    if extended != expected or not positive <= extended:
        return "extended roots differ from the folded classical roots"
    return None


def _check_path_algebra(doc, info):
    walks = weighted_walks(*info["quiver"])
    grades = doc["grades"]
    if [g["length"] for g in grades] != list(range(len(walks))):
        return f"grades {[g['length'] for g in grades]}, expected 0..{len(walks) - 1}"
    for g, want in zip(grades, walks):
        if not _close(pf_value(g["class"]), want):
            return f"grade {g['length']}: pf {pf_value(g['class'])} != {want}"
    if not _close(pf_value(doc["total"]), sum(walks)):
        return "total class does not match the sum of the walks"
    return None


def _check_unfold(doc, info):
    _, vertices, edges = unfolded(*info["quiver"])
    if sorted(doc["vertices"]) != sorted(vertices):
        return "unfolded vertices differ"
    got = Counter((a["provenance"], a["source"], a["target"]) for a in doc["arrows"])
    if got != Counter(edges) or any(a["label"] != 3 for a in doc["arrows"]):
        return "unfolded arrows differ"
    parts = sorted(sorted(c["vertices"]) for c in doc["components"])
    if parts != sorted(sorted(c) for c in components(vertices, edges)):
        return "components differ"
    return None


def _check_classify(doc, info):
    n, _ = info["quiver"]
    # a path with two or more labels > 3 is no Coxeter-Dynkin diagram
    want = {
        "components": [{"vertices": [str(v) for v in range(1, n + 1)], "type": "NotDynkin"}],
        "finite_type": False,
    }
    return None if doc == want else "classification differs"


def _check_decompose(leaves, info):
    if sorted(leaf_key(leaf["dims"]) for leaf in leaves) != info["leaves"]:
        return "leaf dimension vectors differ from the summands"
    if any(leaf["end_dim"] != 1 for leaf in leaves):
        return "a leaf has end_dim != 1"
    return None


_CHECKS = {
    "indecs": _check_indecs,
    "roots": _check_roots,
    "path-algebra": _check_path_algebra,
    "unfold": _check_unfold,
    "classify": _check_classify,
}


def check(job, rc, out) -> str | None:
    if rc != job["rc"]:
        return f"exit code {rc}, expected {job['rc']}"
    if job["rc"]:
        return None if out == "" else "a failing command printed to stdout"
    try:
        if job["kind"] == "cli" and "--json" not in job["argv"]:
            return _check_indecs_text(out, job["check"])
        doc = json.loads(out)
        if job["kind"] == "decompose":
            return _check_decompose(doc, job["check"])
        return _CHECKS[job["argv"][0]](doc, job["check"])
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
