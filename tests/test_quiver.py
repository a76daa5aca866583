import itertools
import random

import pytest

from coxrep import (
    Arrow,
    CoxeterQuiver,
    CyclicQuiver,
    InvalidLabel,
    LoopArrow,
    QuiverParseError,
    UnknownVertex,
    admissible_sink_ordering,
    classify_graph,
    is_finite_type,
    parse_quiver,
    reverse_at,
    validate,
)
from coxrep.quiver import QuiverError, vertex_key
from families import all_orientations, family_quiver, path_quiver


def test_validate_path():
    Q = validate(["1", "2", "3"], [Arrow("a", "1", "2"), Arrow("b", "2", "3")])
    assert Q.vertices == ("1", "2", "3")
    assert all(a.label == 3 for a in Q.arrows)


def test_validate_rejects_cycle():
    with pytest.raises(CyclicQuiver):
        validate(["1", "2"], [Arrow("a", "1", "2"), Arrow("b", "2", "1")])


def test_validate_rejects_low_label():
    with pytest.raises(InvalidLabel):
        validate(["1", "2"], [Arrow("a", "1", "2", 2)])


def test_validate_rejects_loop():
    with pytest.raises(LoopArrow):
        validate(["1"], [Arrow("a", "1", "1")])


def test_validate_rejects_unknown_endpoint():
    with pytest.raises(UnknownVertex):
        validate(["1"], [Arrow("a", "1", "2")])


def test_parse_text_and_json_round_trip():
    text = "vertex 1\nvertex 2\n# comment\narrow 1 2 5\n"
    Q = parse_quiver(text)
    assert Q.label_set == (5,)
    import json

    Q2 = parse_quiver(json.dumps(Q.to_json()))
    assert Q2 == Q


def test_each_arrow_is_built_once(monkeypatch):
    # the quiver keeps an Arrow it is given when its ids are strings, and
    # rebuilds one that is a tuple or has ids of another type
    built = []
    init = Arrow.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Arrow, "__init__", counted)
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow 1 2\narrow 2 3 5\narrow 4 3\narrow 1 4 4\n")
    assert len(Q.arrows) == 4 and len(built) == 4
    a = Arrow("x", "1", "2", 5)
    assert CoxeterQuiver(["1", "2"], [a]).arrows[0] is a
    assert CoxeterQuiver([1, 2], [Arrow(0, 1, 2)]).arrows == (Arrow("0", "1", "2"),)
    assert CoxeterQuiver([1, 2], [("0", 1, 2, 5)]).arrows == (Arrow("0", "1", "2", 5),)


def test_parse_rejects_garbage():
    with pytest.raises(QuiverParseError):
        parse_quiver("vertex 1\nnonsense 2\n")
    with pytest.raises(QuiverParseError):
        parse_quiver("arrow 1 2\n")  # undeclared vertices


def test_reverse_at_golden():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2\n")
    R = reverse_at(Q, "1")
    assert R.arrows[0].source == "2" and R.arrows[0].target == "1"
    assert reverse_at(R, "1") == Q


def test_reverse_preserves_labels():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2 5\n")
    R = reverse_at(Q, "2")
    assert R.arrows[0].label == 5
    assert R.arrows[0].source == "2"


def test_reverse_unknown_vertex():
    Q = parse_quiver("vertex 1\nvertex 2\narrow 1 2\n")
    with pytest.raises(UnknownVertex):
        reverse_at(Q, "9")


def test_admissible_ordering_golden():
    Q = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 3 2\narrow 2 1\n")
    assert admissible_sink_ordering(Q) == ("1", "2", "3")
    Q2 = parse_quiver("vertex 1\nvertex 2\nvertex 3\narrow 2 1\narrow 2 3\n")
    assert admissible_sink_ordering(Q2) == ("1", "3", "2")
    single = parse_quiver("vertex 1\n")
    assert admissible_sink_ordering(single) == ("1",)


def random_tree_quiver(rng, n, max_label=8):
    vertices = [str(i) for i in range(1, n + 1)]
    arrows = []
    for k in range(2, n + 1):
        other = str(rng.randint(1, k - 1))
        src, tgt = (str(k), other) if rng.random() < 0.5 else (other, str(k))
        arrows.append(Arrow(f"a{k}", src, tgt, rng.choice([3, 3, 4, 5, max_label])))
    return CoxeterQuiver(vertices, arrows)


def test_admissible_ordering_simulated():
    # every prefix of the ordering makes the next vertex a literal sink
    rng = random.Random(2)
    for _ in range(25):
        Q = random_tree_quiver(rng, rng.randint(1, 7))
        ordering = admissible_sink_ordering(Q)
        cur = Q
        for v in ordering:
            assert cur.is_sink(v)
            cur = reverse_at(cur, v)
        assert cur == Q


@pytest.mark.parametrize(
    "name,expected",
    [
        ("A1", "A1"),
        ("A5", "A5"),
        ("B2", "B2"),
        ("B6", "B6"),
        ("D4", "D4"),
        ("D7", "D7"),
        ("E6", "E6"),
        ("E7", "E7"),
        ("E8", "E8"),
        ("F4", "F4"),
        ("G2", "G2"),
        ("H3", "H3"),
        ("H4", "H4"),
        ("I2(5)", "I2(5)"),
        ("I2(12)", "I2(12)"),
    ],
)
def test_classify_families(name, expected):
    Q = family_quiver(name)
    comps = classify_graph(Q)
    assert len(comps) == 1
    assert comps[0][1].name == expected
    assert is_finite_type(Q)


def test_classify_h3_vertices():
    Q = family_quiver("H3")
    comps = classify_graph(Q)
    assert comps[0][0] == ("1", "2", "3")


def test_i2_3_reported_as_a2():
    Q = path_quiver([3])
    assert classify_graph(Q)[0][1].name == "A2"


def test_classify_double_arrow_not_dynkin():
    Q = CoxeterQuiver(
        ["1", "2"], [Arrow("a", "1", "2", 3), Arrow("b", "1", "2", 3)]
    )
    assert classify_graph(Q)[0][1].name == "NotDynkin"
    assert not is_finite_type(Q)


def test_classify_star_d4():
    Q = family_quiver("D4")
    assert classify_graph(Q)[0][1].name == "D4"


def test_classify_cycle_not_dynkin():
    Q = CoxeterQuiver(
        ["1", "2", "3"],
        [Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "1", "3")],
    )
    assert classify_graph(Q)[0][1].name == "NotDynkin"
    assert not is_finite_type(Q)


def test_classify_not_dynkin_shapes():
    # two labelled edges on a path
    assert classify_graph(path_quiver([5, 5]))[0][1].name == "NotDynkin"
    # labelled edge in the middle of a 3-chain
    assert classify_graph(path_quiver([3, 4, 3, 3]))[0][1].name == "NotDynkin"
    # H5 does not exist
    assert classify_graph(path_quiver([5, 3, 3, 3]))[0][1].name == "NotDynkin"
    # labelled edge at a branch
    from families import star_quiver

    star = star_quiver([1, 1, 1])
    relabeled = CoxeterQuiver(
        star.vertices,
        [Arrow(a.id, a.source, a.target, 4 if a.id == "a0" else 3) for a in star.arrows],
    )
    assert classify_graph(relabeled)[0][1].name == "NotDynkin"
    # degree four star
    assert classify_graph(star_quiver([1, 1, 1, 1]))[0][1].name == "NotDynkin"


def test_classify_orientation_invariant():
    rng = random.Random(4)
    for _ in range(15):
        Q = random_tree_quiver(rng, rng.randint(2, 6))
        expected = [t.name for _, t in classify_graph(Q)]
        for v in Q.vertices:
            assert [t.name for _, t in classify_graph(reverse_at(Q, v))] == expected


def test_classify_all_orientations_agree():
    for name in ["B3", "F4", "H4", "D4"]:
        Q = family_quiver(name)
        for orient in all_orientations(Q):
            assert classify_graph(orient)[0][1].name == name


def test_disconnected_components():
    Q = CoxeterQuiver(["1", "2", "3", "4"], [Arrow("a", "1", "2", 5)])
    comps = classify_graph(Q)
    names = sorted(t.name for _, t in comps)
    assert names == ["A1", "A1", "I2(5)"]


def test_vertex_key_is_total_and_injective():
    # "01" and "1", and "-0" and "0", had one key, so the order the ids were
    # given in decided the vertex and arrow order, and with it ==
    for ids in (["01", "1"], ["-0", "0"]):
        assert CoxeterQuiver(ids[::-1], []).vertices == tuple(ids)
        assert CoxeterQuiver(ids[::-1], []) == CoxeterQuiver(ids, [])
        Q = CoxeterQuiver(["a", "b", "c"], [Arrow(ids[1], "b", "c"), Arrow(ids[0], "a", "b")])
        assert [a.id for a in Q.arrows] == ids
    # "²" passes str.isdigit and "--1" passed lstrip("-"); int() rejects both
    ids = ["²", "--1", "-1", "1", "1²", "-", "01", "-0", "0", "a"]
    expected = ("-1", "-0", "0", "01", "1", "-", "--1", "1²", "a", "²")
    assert CoxeterQuiver(ids, []).vertices == expected
    assert len({vertex_key(v) for v in ids}) == len(ids)


# The previous implementation of the graph questions, kept as the reference
# for the single-walk versions: a separate acyclicity check, a rescanning
# sink ordering, a separate component search and a path/star classifier with
# its own multi-edge check.


def reference_is_acyclic(vertices, arrows) -> bool:
    out = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for a in arrows:
        out[a.source].append(a)
        indeg[a.target] += 1
    queue = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for a in out[v]:
            indeg[a.target] -= 1
            if indeg[a.target] == 0:
                queue.append(a.target)
    return seen == len(vertices)


def reference_ordering(Q):
    placed, placed_set, remaining = [], set(), set(Q.vertices)
    while remaining:
        ready = [v for v in remaining if all(a.target in placed_set for a in Q.out_arrows(v))]
        if not ready:
            raise CyclicQuiver("no admissible ordering: directed cycle")
        v = min(ready, key=vertex_key)
        placed.append(v)
        placed_set.add(v)
        remaining.discard(v)
    return tuple(placed)


def reference_components(Q):
    adj = {v: set() for v in Q.vertices}
    for a in Q.arrows:
        adj[a.source].add(a.target)
        adj[a.target].add(a.source)
    seen, comps = set(), []
    for v in sorted(Q.vertices, key=vertex_key):
        if v in seen:
            continue
        comp, stack = [], [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            comp.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp, key=vertex_key)))
    return comps


def reference_classify_component(vertices, edges):
    n = len(vertices)
    if n == 1:
        return "A1"
    pairs = [frozenset((u, v)) for u, v, _ in edges]
    if len(set(pairs)) != len(pairs) or len(edges) != n - 1:
        return "NotDynkin"
    deg = {v: 0 for v in vertices}
    adj = {v: [] for v in vertices}
    for u, v, lab in edges:
        deg[u] += 1
        deg[v] += 1
        adj[u].append((v, lab))
        adj[v].append((u, lab))
    high = [lab for _, _, lab in edges if lab > 3]
    maxdeg = max(deg.values())
    if high:
        if maxdeg > 2 or len(high) > 1:
            return "NotDynkin"
        start = min((v for v in vertices if deg[v] == 1), key=vertex_key)
        labels, prev, cur = [], None, start
        while True:
            nxt = [(w, lab) for w, lab in adj[cur] if w != prev]
            if not nxt:
                break
            w, lab = nxt[0]
            labels.append(lab)
            prev, cur = cur, w
        m = high[0]
        idx = labels.index(m)
        at_end = idx in (0, len(labels) - 1)
        if n == 2:
            return {4: "B2", 6: "G2"}.get(m, f"I2({m})")
        if m == 4 and at_end:
            return f"B{n}"
        if m == 4 and n == 4 and idx == 1:
            return "F4"
        if m == 5 and at_end and n in (3, 4):
            return f"H{n}"
        return "NotDynkin"
    if maxdeg <= 2:
        return f"A{n}"
    if maxdeg > 3 or sum(1 for v in vertices if deg[v] == 3) > 1:
        return "NotDynkin"
    branch = next(v for v in vertices if deg[v] == 3)
    arms = []
    for w, _ in adj[branch]:
        length, prev, cur = 1, branch, w
        while True:
            nxt = [x for x, _ in adj[cur] if x != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{n}"
    return {(1, 2, 2): "E6", (1, 2, 3): "E7", (1, 2, 4): "E8"}.get(tuple(arms), "NotDynkin")


def reference_classify_graph(Q):
    out = []
    for comp in reference_components(Q):
        cset = set(comp)
        edges = [(a.source, a.target, a.label) for a in Q.arrows if a.source in cset]
        out.append((comp, reference_classify_component(comp, edges)))
    return out


# ids with pairwise distinct vertex_key, numeric and not, so the reference's
# ties are never decided by set order
ID_POOL = ["1", "2", "3", "10", "-4", "07", "b", "a", "zz", "x1", "100", "-12"]


def assert_matches_reference(vertices, arrows):
    """The quiver layer and the reference agree on (vertices, arrows): the
    same exception class for a directed cycle, otherwise the same ordering
    and the same components with the same type names."""
    if not reference_is_acyclic(vertices, arrows):
        with pytest.raises(QuiverError) as info:
            CoxeterQuiver(vertices, arrows)
        assert type(info.value) is CyclicQuiver
        return
    Q = CoxeterQuiver(vertices, arrows)
    assert admissible_sink_ordering(Q) == reference_ordering(Q)
    assert [(c, t.name) for c, t in classify_graph(Q)] == reference_classify_graph(Q)
    assert is_finite_type(Q) == all(t != "NotDynkin" for _, t in reference_classify_graph(Q))


def labelled_trees(n):
    """Every tree on range(n), as edge lists, by Pruefer sequence."""
    if n == 1:
        yield []
        return
    for code in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in code:
            degree[x] += 1
        edges = []
        for x in code:
            leaf = min(v for v in range(n) if degree[v] == 1)
            edges.append((leaf, x))
            degree[leaf] -= 1
            degree[x] -= 1
        edges.append(tuple(v for v in range(n) if degree[v] == 1))
        yield edges


@pytest.mark.parametrize(
    "max_n, pool",
    [(5, (3,)), (5, (3, 4)), (5, (3, 5)), (4, (3, 4, 5, 6, 7))],
    ids=["3", "3-4", "3-5", "3-to-7"],
)
def test_trees_match_reference(max_n, pool):
    rng = random.Random(max_n * 100 + len(pool) + sum(pool))
    for n in range(1, max_n + 1):
        for edges in labelled_trees(n):
            for labels in itertools.product(pool, repeat=len(edges)):
                ids = rng.sample(ID_POOL, n)
                arrows = [
                    Arrow(f"a{k}", ids[u], ids[v], lab) if rng.random() < 0.5 else Arrow(f"a{k}", ids[v], ids[u], lab)
                    for k, ((u, v), lab) in enumerate(zip(edges, labels))
                ]
                assert_matches_reference(ids, arrows)


def test_random_multigraphs_match_reference():
    # cycles, directed cycles, parallel and antiparallel arrows, several
    # components and non-numeric ids; every third graph is a random tree,
    # mostly simply laced, so the D and E shapes occur
    rng = random.Random(8)
    for trial in range(3000):
        n = rng.randint(1, 11)
        ids = rng.sample(ID_POOL, n)
        if trial % 3 == 0:
            edges = [(v, rng.choice(ids[:k]), rng.choice([3] * 8 + [4, 5])) for k, v in enumerate(ids) if k]
        else:
            edges = []
            for _ in range(rng.randint(0, n + 2) if n > 1 else 0):
                u, v = rng.choice(edges)[:2] if edges and rng.random() < 0.4 else rng.sample(ids, 2)
                edges.append((u, v, rng.choice([3, 3, 3, 4, 5, 6, 8])))
        rank = {v: rng.random() for v in ids}
        acyclic = rng.random() < 0.6  # orient every arrow from higher to lower rank
        arrows = [
            Arrow(f"a{k}", v, u, lab) if (rank[u] < rank[v] if acyclic else rng.random() < 0.5) else Arrow(f"a{k}", u, v, lab)
            for k, (u, v, lab) in enumerate(edges)
        ]
        assert_matches_reference(ids, arrows)
