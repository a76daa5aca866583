import hashlib
import importlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from coxrep.cli import _Part, main
from families import family_quiver

H3_TEXT = "vertex 1\nvertex 2\nvertex 3\narrow 1 2 5\narrow 2 3\n"
I25_TEXT = "vertex 1\nvertex 2\narrow 1 2 5\n"
H4_TEXT = "vertex 1\nvertex 2\nvertex 3\nvertex 4\narrow 1 2 5\narrow 2 3\narrow 3 4\n"
DOUBLE_TEXT = "vertex 1\nvertex 2\narrow 1 2 4\narrow 1 2 4\n"


@pytest.fixture
def qfile(tmp_path):
    def write(text, name="q.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_h3(capsys, qfile):
    code, out, _ = run(capsys, "classify", qfile(H3_TEXT))
    assert code == 0
    assert "H3" in out
    assert "finite type" in out


def test_main_builds_no_parser(capsys, qfile, monkeypatch):
    import coxrep.cli

    def rebuilt():
        raise RuntimeError("main built a parser")

    monkeypatch.setattr(coxrep.cli, "build_parser", rebuilt)
    code, out, _ = run(capsys, "classify", qfile(H3_TEXT))
    assert code == 0
    assert "H3" in out


@pytest.mark.parametrize("vid", ["\u00b2", "--1"])
def test_classify_ids_that_int_rejects(capsys, tmp_path, vid):
    # "\u00b2" passes str.isdigit and "--1" passed lstrip("-"); the sort key
    # called int() on both and classify exited 4
    p = tmp_path / "q.txt"
    p.write_text(f"vertex {vid}\nvertex 1\narrow 1 {vid}\n", encoding="utf-8")
    assert run(capsys, "classify", str(p)) == (0, f"component [1, {vid}]: A2\nfinite type\n", "")


def test_classify_json_round_trips(capsys, qfile):
    code, out, _ = run(capsys, "classify", qfile(H3_TEXT), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["finite_type"] is True
    assert doc["components"][0]["type"] == "H3"


def test_unfold_components_h4(capsys, qfile):
    code, out, _ = run(capsys, "unfold", qfile(H4_TEXT), "--components")
    assert code == 0
    assert "components: E8" in out


def test_unfold_json_parses_as_quiver(capsys, qfile):
    from coxrep import CoxeterQuiver, classify_graph

    code, out, _ = run(capsys, "unfold", qfile(H3_TEXT), "--json")
    assert code == 0
    doc = json.loads(out)
    Q = CoxeterQuiver.from_json(doc)
    assert [t.name for _, t in classify_graph(Q)] == ["D6"]


def test_roots_extended_count(capsys, qfile):
    code, out, _ = run(capsys, "roots", qfile(I25_TEXT), "--extended", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    assert doc["extended_count"] == 10
    from coxrep import RootVector

    parsed = [RootVector.from_json(r, (5,)) for r in doc["positive_roots"]]
    assert len(set(parsed)) == 5


def test_indecs_count_and_full(capsys, qfile):
    code, out, _ = run(capsys, "indecs", qfile(I25_TEXT), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 10
    code, out, _ = run(capsys, "indecs", qfile(I25_TEXT), "--full", "--json")
    doc = json.loads(out)
    assert all("rep" in entry for entry in doc["indecomposables"])


def test_path_algebra_output(capsys, qfile):
    code, out, _ = run(capsys, "path-algebra", qfile(I25_TEXT))
    assert code == 0
    assert 'total: {"5:0": 2, "5:2": 1}' in out


def test_path_algebra_empty_quiver(capsys, qfile):
    code, out, _ = run(capsys, "path-algebra", qfile(""))
    assert code == 0
    assert out == "grade 0: {}\ntotal: {}\n"


# an 8-vertex DAG with labels 3-6 and a doubled arrow: 304 paths, longest 7
DAG_TEXT = "".join(f"vertex {v}\n" for v in range(1, 9)) + "".join(
    f"arrow {a}\n"
    for a in (
        "1 2 5", "1 3", "1 4 4", "1 5 6", "1 7", "1 8 4", "2 3", "2 4 5", "2 5",
        "2 6 4", "2 8 5", "3 4 6", "3 5 5", "3 6", "3 7 4", "4 5 4", "4 6",
        "4 7 5", "4 8", "5 6 4", "5 7 6", "5 8 5", "6 7", "6 8 4", "7 8", "1 2 5",
    )
)

# sha256 of `path-algebra` stdout, text then --json, recorded before the
# grades came from the per-vertex sweep
PATH_ALGEBRA_SHA256 = {
    "": (
        "55461bd494ef22ca518c32879a9438779c06d642dea4ede9a955ad954422a60b",
        "bb120cdd4a3bf2c30eb2231aa117b21a8cd67f5bbbca962e4f617c4e7b98ddb0",
    ),
    DAG_TEXT: (
        "476c60cb2fe314395b0acd5209d35ebcc8e710c14cb060adbe085dd2994c02f7",
        "1f08d633ab98c6bed4239152f91af27350e2453d3ec722700e5e5213950722cc",
    ),
}


@pytest.mark.parametrize("text", list(PATH_ALGEBRA_SHA256), ids=["empty", "dag"])
def test_path_algebra_bytes_are_recorded(capsys, qfile, text):
    p = qfile(text)
    digests = []
    for flags in ([], ["--json"]):
        code, out, _ = run(capsys, "path-algebra", p, *flags)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == PATH_ALGEBRA_SHA256[text]


def test_fusion_mul(capsys):
    code, out, _ = run(
        capsys, "fusion", "--labels", "5", "--mul", '{"5:2": 1}', '{"5:2": 1}'
    )
    assert code == 0
    assert json.loads(out.strip()) == {"5:0": 1, "5:2": 1}


def test_reflect_round_trip(capsys, qfile, tmp_path):
    from coxrep import RootVector, dim_vector, indecomposable_for, parse_quiver
    from coxrep.reps import UnfoldedRep

    Q = parse_quiver("vertex 1\nvertex 2\narrow 2 1\n")
    v = RootVector.basis(Q, "1") + RootVector.basis(Q, "2")
    V = indecomposable_for(Q, v)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(V.to_json()))
    code, out, _ = run(capsys, "reflect", str(rep_path), "--vertex", "1", "--sign", "+", "--json")
    assert code == 0
    W = UnfoldedRep.from_json(json.loads(out))
    assert sum(W.dims.values()) == 1


# sha256 of `reflect --json` at the first sink of H3 on its largest
# indecomposable with arrow k scaled by (2k + 1) / 3, whose output has
# non-integer entries; recorded before `Mat` held integer numerators over a
# shared denominator
REFLECT_RATIONAL_SHA256 = "9f576b3e69a15b66b584909d0ccd27a59fd48abfd4707e4348102a0617a9a11e"


def test_reflect_rational_bytes_are_recorded(capsys, qfile):
    from fractions import Fraction

    from coxrep import enumerate_indecomposables

    Q = family_quiver("H3")
    V = max(enumerate_indecomposables(Q), key=lambda W: W.total_dim())
    doc = V.to_json()
    for k, (a, rows) in enumerate(sorted(doc["maps"].items())):
        doc["maps"][a] = [[str(Fraction(x) * Fraction(2 * k + 1, 3)) for x in row] for row in rows]
    rep_path = qfile(json.dumps(doc), "rep.json")
    code, out, _ = run(capsys, "reflect", rep_path, "--vertex", Q.sinks()[0], "--sign", "+", "--json")
    assert code == 0
    assert "/" in out
    assert hashlib.sha256(out.encode()).hexdigest() == REFLECT_RATIONAL_SHA256


def test_reflect_wrong_side_is_precondition_error(capsys, qfile, tmp_path):
    from coxrep import RootVector, indecomposable_for, parse_quiver

    Q = parse_quiver("vertex 1\nvertex 2\narrow 2 1\n")
    v = RootVector.basis(Q, "1") + RootVector.basis(Q, "2")
    V = indecomposable_for(Q, v)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(V.to_json()))
    code, _, err = run(capsys, "reflect", str(rep_path), "--vertex", "1", "--sign", "-")
    assert code == 2
    assert "source" in err


def test_parse_error_exit_code(capsys, qfile):
    code, _, err = run(capsys, "classify", qfile("vertex 1\nbogus line\n"))
    assert code == 1
    code, _, err = run(capsys, "classify", qfile("vertex 1\nvertex 2\narrow 1 2 2\n"))
    assert code == 1
    # a label is a JSON integer: no float, string or bool is converted
    for label in (4.9, "4", True):
        arrow = {"source": "1", "target": "2", "label": label}
        code, out, err = run(capsys, "classify", qfile(json.dumps({"vertices": ["1", "2"], "arrows": [arrow]})))
        assert (code, out) == (1, "")
        assert err.startswith("error: bad quiver JSON")
    # vertices and arrows are JSON arrays, ids strings or integers (no bool)
    arrow = {"source": "1", "target": "2"}
    for doc in (
        {"vertices": "12"},
        {"vertices": {"1": 0, "2": 0}},
        {"vertices": ["1", 2, None]},
        {"vertices": ["1", 2, True]},
        {"vertices": ["1", "2"], "arrows": {"a": arrow}},
        {"vertices": ["1", "2"], "arrows": [{**arrow, "id": None}]},
        {"vertices": ["1", "2"], "arrows": [{**arrow, "id": 1.5}]},
        {"vertices": ["1", "2"], "arrows": [{**arrow, "source": True}]},
        {"vertices": ["1", "2"], "arrows": [{**arrow, "target": ["2"]}]},
    ):
        code, out, err = run(capsys, "classify", qfile(json.dumps(doc)))
        assert (code, out) == (1, ""), doc
        assert err.startswith("error: bad quiver JSON"), doc
    # an integer id is read as its decimal text
    doc = {"vertices": [1, "2"], "arrows": [{"id": 7, "source": 2, "target": "1"}]}
    code, out, _ = run(capsys, "classify", qfile(json.dumps(doc)))
    assert (code, out) == (0, "component [1, 2]: A2\nfinite type\n")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/quiver.txt")
    assert code == 1


def test_indecs_infinite_type_exit_code(capsys, qfile):
    code, _, err = run(capsys, "indecs", qfile(DOUBLE_TEXT))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["roots", "{q}", "--budget", "x"], ["roots", "{q}", "--budget", "-1"], ["roots"]],
)
def test_malformed_command_line_exits_1(capsys, qfile, argv):
    # exit 2 is a precondition violation, so argparse's own 2 is not used
    q = qfile(I25_TEXT)
    with pytest.raises(SystemExit) as exc:
        main([a.format(q=q) for a in argv])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (1, "")
    assert out.err.startswith("usage: coxrep")


def test_budget_zero_and_help_are_legal(capsys, qfile):
    # a budget of 0 is read, and the orbit exceeds it
    assert run(capsys, "roots", qfile(I25_TEXT), "--budget", "0")[:2] == (3, "")
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: coxrep roots")


def test_budget_exit_code(capsys, qfile):
    code, _, err = run(capsys, "roots", qfile(DOUBLE_TEXT), "--budget", "30")
    assert code == 3
    code, out, _ = run(capsys, "indecs", qfile(H3_TEXT), "--budget", "5")
    assert code == 3
    assert out == ""


BIG_LABEL_TEXT = f"vertex 1\nvertex 2\narrow 1 2 {2**70}\n"


@pytest.mark.parametrize("command", ["unfold", "roots", "indecs", "reflect"])
def test_a_label_too_large_to_unfold_exits_3(capsys, qfile, command):
    # 2^70 - 1 simples: the unfolding is refused before they are listed,
    # where range() used to end in an OverflowError traceback
    if command == "reflect":
        doc = {"quiver": {"vertices": ["1", "2"], "arrows": [{"source": "1", "target": "2", "label": 2**70}]}}
        argv = ["reflect", qfile(json.dumps(doc), "rep.json"), "--vertex", "2", "--sign", "+"]
    else:
        argv = [command, qfile(BIG_LABEL_TEXT)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: the unfolded quiver would have ") and err.count("\n") == 1


def test_path_algebra_reads_a_label_too_large_to_unfold(capsys, qfile):
    code, out, _ = run(capsys, "path-algebra", qfile(BIG_LABEL_TEXT))
    assert code == 0
    assert f"{2**70}:{2**70 - 3}" in out


@pytest.mark.parametrize("sign", ["+", "-"])
def test_a_dimension_too_large_for_a_matrix_exits_3(capsys, qfile, sign):
    # 2^70 rows fit in no list: the representation is refused before any
    # matrix is built, where Mat.zeros used to end in an OverflowError
    doc = {
        "quiver": {"vertices": ["1", "2"], "arrows": [{"id": "a", "source": "1", "target": "2"}]},
        "dims": {"3:0@1": 2**70},
    }
    vertex = "2" if sign == "+" else "1"
    code, out, err = run(capsys, "reflect", qfile(json.dumps(doc), "rep.json"), "--vertex", vertex, "--sign", sign)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: dimension {2**70} at 3:0@1 is more than ") and err.count("\n") == 1


def test_internal_fault_exit_code(capsys, qfile, monkeypatch):
    from coxrep import reps

    def broken(Q, budget):
        raise AssertionError("knitted dimension vectors differ from the extended roots")

    monkeypatch.setattr(reps, "_indecomposables_with_dims", broken)
    code, out, err = run(capsys, "indecs", qfile(H3_TEXT))
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal: knitted")


@pytest.mark.parametrize("fault", ["drop", "repeat", "replace"])
def test_cross_check_catches_a_corrupted_chain(capsys, qfile, monkeypatch, fault):
    # the real comparison of the knitted dimensions with the extended roots:
    # one member dropped or repeated changes the count, one member replaced
    # by another keeps the count and changes the set
    from coxrep import enumerate_indecomposables, parse_quiver, reps

    knit = reps._knit

    def corrupted(walk, n_roots):
        members = list(knit(walk, n_roots))
        if fault == "drop":
            del members[3]
        elif fault == "repeat":
            members.insert(3, members[3])
        else:
            members[3] = members[4]
        return iter(members)

    monkeypatch.setattr(reps, "_knit", corrupted)
    with pytest.raises(AssertionError, match="^knitted dimension vectors differ"):
        enumerate_indecomposables(parse_quiver(H3_TEXT))
    code, out, err = run(capsys, "indecs", qfile(H3_TEXT))
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal: knitted dimension vectors differ")


def test_escaped_value_error_is_an_internal_fault(capsys, qfile, monkeypatch):
    from coxrep import reps

    def broken(Q, budget):
        raise ValueError("shape mismatch in product")

    monkeypatch.setattr(reps, "_indecomposables_with_dims", broken)
    code, out, err = run(capsys, "indecs", qfile(H3_TEXT))
    assert code == 4
    assert out == ""
    assert err.startswith("error: internal: shape mismatch")


@pytest.mark.parametrize(
    "labels, x",
    [
        ("5", '{"5:7": 1}'),  # index out of range
        ("5", '{"5:1": 1}'),  # odd index at an odd label
        ("5", '{"5": 1}'),  # not label:index
        ("5", "[1]"),  # not an object
        ("2", "{}"),  # label below 3
        ("5", '{"5:0": 1.5}'),  # float coefficient
        ("5", '{"5:0": true}'),  # bool coefficient
        ("5", '{"5:0": "1"}'),  # string coefficient
        ("5", '{"4:0": 1}'),  # simple over another label set
        ("5", '{"5:0": 1, "5:00": 1}'),  # two spellings of one simple
        ("5", '{" 5:+0": 1}'),  # space and sign, read by int()
        ("5", '{"5:0_0": 1}'),  # digit separator, read by int()
        ("4,5", '{"5:0|4:1": 1}'),  # labels not ascending
    ],
)
def test_bad_fusion_element_is_unreadable_input(capsys, labels, x):
    code, out, err = run(capsys, "fusion", "--labels", labels, "--mul", x, "{}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: bad ")


def _rep_doc():
    from coxrep import RootVector, indecomposable_for, parse_quiver

    Q = parse_quiver("vertex 1\nvertex 2\narrow 2 1\n")
    return indecomposable_for(Q, RootVector.basis(Q, "1") + RootVector.basis(Q, "2")).to_json()


def _with_matrix(matrix):
    doc = _rep_doc()
    (arrow,) = doc["maps"]
    doc["maps"][arrow] = matrix
    return doc


def _with_entry(entry):
    return _with_matrix([[entry]])


@pytest.mark.parametrize(
    "doc",
    [
        {**_rep_doc(), "maps": []},
        {**_rep_doc(), "dims": [1]},
        _with_entry("1/0"),
        _with_entry(1.5),
        _with_entry(0.1),
        _with_entry(True),
        [1],
        {**_rep_doc(), "quiver": {"vertices": ["1", "2"], "arrows": [["2", "1"]]}},
        {**_rep_doc(), "dims": {"3:0@1": 1.7, "3:0@2": 1}},
        {**_rep_doc(), "dims": {"3:0@1": True, "3:0@2": 1}},
        {**_rep_doc(), "quiver": {"vertices": ["1", "2"], "arrows": [{"id": "a0", "source": "2", "target": "1", "label": 3.5}]}},
        # each of these iterates to the entries of the 1x1 matrix [["1"]]
        _with_matrix("1"),
        _with_matrix(["1"]),
        _with_matrix([{"1": 1}]),
    ],
    ids=[
        "maps-list",
        "dims-list",
        "zero-denominator",
        "float",
        "float-0.1",
        "bool",
        "not-an-object",
        "arrow-list",
        "float-dim",
        "bool-dim",
        "float-label",
        "matrix-string",
        "rows-strings",
        "row-object",
    ],
)
def test_malformed_representation_is_unreadable_input(capsys, qfile, doc):
    code, out, err = run(capsys, "reflect", qfile(json.dumps(doc), "rep.json"), "--vertex", "1", "--sign", "+")
    assert code == 1
    assert out == ""
    assert err.startswith(("error: bad representation JSON", "error: bad quiver JSON"))


@pytest.mark.parametrize("fault", ["digits", "depth"])
@pytest.mark.parametrize("command", ["quiver", "reflect", "fusion"])
def test_json_past_the_parser_limits_is_unreadable_input(capsys, qfile, command, fault):
    # json raises ValueError on an integer literal over the interpreter's
    # digit limit (4300 by default), and RecursionError on nesting this deep;
    # each is bad input, not an internal fault and not a traceback
    value = "1" * 5001 if fault == "digits" else "[" * 100_000 + "]" * 100_000
    if command == "quiver":
        argv = ["classify", qfile('{"vertices": ["1"], "arrows": [], "x": %s}' % value, "q.json")]
    elif command == "reflect":
        rep = '{"quiver": {"vertices": ["1"], "arrows": []}, "dims": {}, "maps": {}, "x": %s}' % value
        argv = ["reflect", qfile(rep, "rep.json"), "--vertex", "1", "--sign", "+"]
    else:
        argv = ["fusion", "--labels", "5", "--mul", value, "{}"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def digits_rep(qfile, text, maps, dims):
    """A representation file over the quiver text, with every unfolded
    dimension in dims and each map given as rows of entry strings."""
    from coxrep import parse_quiver

    doc = {"quiver": parse_quiver(text).to_json(), "dims": dims, "maps": maps}
    return qfile(json.dumps(doc), "rep.json")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_matrix_entries_past_the_digit_limit(capsys, qfile, as_json):
    # an entry whose numerator or denominator has more than 4300 digits, the
    # interpreter's limit on str(), is refused as input; one computed past it
    # is a cap, with one error line and nothing on stdout
    path = "vertex 1\nvertex 2\nvertex 3\narrow 3 2\narrow 2 1\n"
    dims = {"3:0@1": 1, "3:0@2": 1, "3:0@3": 1}
    flags = ["--json"] if as_json else []
    for entry, accepted in [("1e4300", False), ("99e4299", False), ("1e-4300", False), ("1e4299", True)]:
        rep = digits_rep(qfile, path, {"a0:3:0@3>3:0@2": [[entry]]}, dims)
        code, out, err = run(capsys, "reflect", rep, "--vertex", "1", "--sign", "+", *flags)
        if accepted:
            assert (code, err) == (0, "")
            assert json.dumps(str(10**4299)) in out
        else:
            assert (code, out) == (1, "")
            assert err.startswith("error: bad representation JSON") and err.count("\n") == 1
    # the kernel at the sink 1 of 2 -> 1 has the 2x2 minors of 4300-digit
    # entries, of about 8600 digits
    P = 10**4299
    rows = [[str(P + 1), str(P + 3), "1"], [str(7), str(P + 11), str(P + 13)]]
    dims = {"3:0@1": 2, "3:0@2": 3}
    rep = digits_rep(qfile, "vertex 1\nvertex 2\narrow 2 1\n", {"a0:3:0@2>3:0@1": rows}, dims)
    code, out, err = run(capsys, "reflect", rep, "--vertex", "1", "--sign", "+", *flags)
    assert (code, out) == (3, "")
    assert err.startswith("error: a matrix entry is too long to write") and err.count("\n") == 1


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_only_the_printed_form_is_built(capsys, qfile, monkeypatch, as_json):
    from coxrep import enumerate_indecomposables, parse_quiver, rootsys
    from coxrep.linalg import Mat

    # the non-zero maps of one knitting, and the distinct Mat objects among
    # them: the knitting builds one Mat per distinct map and shares it
    maps = [m for W in enumerate_indecomposables(parse_quiver(I25_TEXT)) for m in W.maps.values() if not m.is_zero()]
    n_maps, n_mats = len(maps), len({id(m) for m in maps})
    assert n_mats < n_maps
    calls = {"serialize": 0, "to_json": 0}
    # every serialized root, of an integer tuple or of a RootVector, is
    # written by rootsys._write
    serialize, to_json = rootsys._write, Mat.to_json

    def counted_serialize(blocks):
        calls["serialize"] += 1
        return serialize(blocks)

    def counted_to_json(self):
        calls["to_json"] += 1
        return to_json(self)

    monkeypatch.setattr(rootsys, "_write", counted_serialize)
    monkeypatch.setattr(Mat, "to_json", counted_to_json)
    p = qfile(I25_TEXT)
    flags = ["--json"] if as_json else []
    # I2(5) has no twist to choose: one serialization per extended root, the
    # sort key and, in text, the printed line; the positive listing is
    # filtered from the sorted extended one
    assert run(capsys, "roots", p, "--extended", *flags)[0] == 0
    assert calls == {"serialize": 10, "to_json": 0}
    calls.update(serialize=0)
    # one serialization per indecomposable, the sort key and, in text, the
    # printed line; in text one Mat.to_json per non-zero map, in JSON one per
    # distinct Mat, whose document every map that shares it holds
    assert run(capsys, "indecs", p, "--full", *flags)[0] == 0
    assert calls == {"serialize": 10, "to_json": n_mats if as_json else n_maps}


@pytest.mark.parametrize("name", ["I2(5)", "D4"])
def test_one_quiver_document_per_call(capsys, qfile, monkeypatch, name):
    # every representation of `indecs --full --json` holds the one source
    # quiver document, and the library still gives each caller its own
    from coxrep import CoxeterQuiver, enumerate_indecomposables

    Q = family_quiver(name)
    p = qfile(json.dumps(Q.to_json()))
    W1, W2 = enumerate_indecomposables(Q)[:2]
    docs = [W1.to_json()["quiver"], W2.to_json()["quiver"], W1.to_json()["quiver"]]
    assert all(type(d) is dict for d in docs) and len({id(d) for d in docs}) == 3
    calls = []
    to_json = CoxeterQuiver.to_json

    def counted(self):
        calls.append(self)
        return to_json(self)

    monkeypatch.setattr(CoxeterQuiver, "to_json", counted)
    code, out, _ = run(capsys, "indecs", p, "--full", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] > 2 and len(calls) == 1
    assert all(entry["rep"]["quiver"] == Q.to_json() for entry in doc["indecomposables"])


@pytest.mark.parametrize("name", ["H4", "I2(8)"])
def test_one_irr_enumeration_per_job(capsys, qfile, monkeypatch, name):
    # the invertible simples of the twist are read off the unfolding's Irr;
    # I2(8) has an even label, so a twist to choose
    from coxrep import fusion

    # the package exports the function `unfold` under the module's name
    unfold_mod = importlib.import_module("coxrep.unfold")
    p = qfile(json.dumps(family_quiver(name).to_json()))
    calls = []
    irr_enumerate = fusion.irr_enumerate

    def counted(labels):
        calls.append(labels)
        return irr_enumerate(labels)

    monkeypatch.setattr(fusion, "irr_enumerate", counted)
    monkeypatch.setattr(unfold_mod, "irr_enumerate", counted)
    for argv in (["roots", p, "--extended"], ["indecs", p], ["indecs", p, "--full", "--json"]):
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(calls) == 1, argv


@pytest.mark.parametrize("name", ["B2+I2(5)", "B2+I2(5) renamed", "B2+G2", "I2(8)", "G2"])
def test_roots_print_what_the_fusion_route_gives(capsys, qfile, name):
    # the integer tuples are canonicalized, extended, sorted and written
    # without fusion arithmetic; the reference closes the orbit with the
    # fusion-valued reflect, twists and extends with RootVector.scale and
    # serializes with json.dumps.  B2+I2(5) has six simples over two labels,
    # G2 and I2(8) an even label, so a twist to choose, and B2+G2 two even
    # labels, so three twists.  Renamed, the ids of each component sort one
    # way as vertices (by value) and the other way in the serialized form
    # (as text).
    from coxrep import Arrow, CoxeterQuiver
    from coxrep.cli import _dumps
    from test_rootsys import B2_I25, reference_extended_positive_roots, reference_positive_roots

    def key(r):
        return json.dumps(r.to_json(), sort_keys=True, separators=(",", ":"))

    B2_G2 = CoxeterQuiver(["1", "2", "3", "4"], [Arrow("a", "1", "2", 4), Arrow("b", "4", "3", 6)])
    renamed = CoxeterQuiver(["-2", "-1", "9", "10"], [Arrow("a", "9", "10", 4), Arrow("b", "-1", "-2", 5)])
    Q = {"B2+I2(5)": B2_I25, "B2+I2(5) renamed": renamed, "B2+G2": B2_G2}.get(name) or family_quiver(name)
    base = sorted(reference_positive_roots(Q).roots, key=key)
    ext = sorted(reference_extended_positive_roots(Q), key=key)
    assert all(r.serialize() == key(r) for r in ext)
    p = qfile(json.dumps(Q.to_json()))
    code, out, _ = run(capsys, "roots", p, "--extended")
    assert code == 0
    assert out.splitlines() == (
        [f"positive roots ({len(base)}):"]
        + [f"  {key(r)}" for r in base]
        + [f"extended positive roots ({len(ext)}):"]
        + [f"  {key(r)}" for r in ext]
    )
    code, out, _ = run(capsys, "roots", p, "--extended", "--json")
    assert code == 0
    doc = {
        "count": len(base),
        "positive_roots": [r.to_json() for r in base],
        "extended_count": len(ext),
        "extended_positive_roots": [r.to_json() for r in ext],
    }
    assert out == _dumps(doc) + "\n"


def test_json_writer_leaves_no_reference_cycle(capsys, qfile, monkeypatch):
    # the writer keeps a document's memo of rendered parts in no cycle, so
    # it is freed when the document is written, not by the cyclic collector;
    # the documents of every --json command are built first, and only the
    # writer runs with the collector off
    import gc

    from coxrep import cli, enumerate_indecomposables, parse_quiver

    text = "vertex 1\nvertex 2\nvertex 3\narrow 1 2 4\narrow 2 3\n"
    p = qfile(text)
    rep = qfile(json.dumps(enumerate_indecomposables(parse_quiver(text))[3].to_json()), "rep.json")
    commands = [
        ["roots", p, "--extended", "--json"],
        ["indecs", p, "--full", "--json"],
        ["unfold", p, "--components", "--json"],
        ["path-algebra", p, "--json"],
        ["classify", p, "--json"],
        ["reflect", rep, "--vertex", "3", "--sign", "+", "--json"],
        ["fusion", "--labels", "4", "--mul", '{"4:1": 1}', '{"4:1": 1}', "--json"],
    ]
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda as_json, doc, text_lines: docs.append(doc()))
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv
    assert len(docs) == len(commands)
    gc.collect()
    gc.disable()
    try:
        for argv, doc in zip(commands, docs):
            assert cli._dumps(doc), argv
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["I2(24)", "B3"])
def test_one_layout_per_roots_call(capsys, qfile, monkeypatch, name):
    # the orbit, the twist choice, the extension and the listing read the
    # roots through one walk, so each class text is computed once, and each
    # simple's product table is built at most once per call; B3 and I2(24)
    # have an even label, so the twist and the extension share a table
    from collections import Counter

    from coxrep import coxeter_order, extended_positive_roots, indecomposable_for, rootsys

    calls, products = [], Counter()
    init = rootsys._Walk.__init__
    simple_mul = rootsys._simple_mul

    def counted(self, uq):
        calls.append(uq)
        init(self, uq)

    def multiplied(X, B):
        products[X] += 1
        return simple_mul(X, B)

    monkeypatch.setattr(rootsys._Walk, "__init__", counted)
    monkeypatch.setattr(rootsys, "_simple_mul", multiplied)
    Q = family_quiver(name)
    p = qfile(json.dumps(Q.to_json()))
    top = extended_positive_roots(Q).sorted()[-1]
    for call in (
        lambda: run(capsys, "roots", p, "--extended", "--json")[0] == 0,
        lambda: run(capsys, "roots", p, "--extended")[0] == 0,
        lambda: run(capsys, "indecs", p, "--json")[0] == 0,
        lambda: coxeter_order(Q, Q.vertices) > 1,
        lambda: indecomposable_for(Q, top).quiver.source == Q,
    ):
        calls.clear()
        products.clear()
        assert call()
        assert len(calls) == 1
        n = len(calls[0].vertices)
        assert all(count == n for count in products.values())
    assert len(products) == len(calls[0].irr) - 1


ODD_ID_POOL = 'aZ09"\\{},@: \u00e9\u4e2d\u2028'


def odd_id_quivers(seed, count):
    """Finite-type quivers from the families, each vertex and arrow renamed
    to a random id with quotes, backslashes, braces, commas, "@", ":",
    non-ASCII characters and the line separator U+2028, and each arrow
    turned at random."""
    from coxrep import Arrow, CoxeterQuiver

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        Q = family_quiver(rng.choice(["A3", "B3", "D4", "G2", "H3", "I2(5)", "I2(8)"]))
        names = set()
        while len(names) < len(Q.vertices) + len(Q.arrows):
            names.add("".join(rng.choice(ODD_ID_POOL) for _ in range(rng.randint(1, 5))))
        names = rng.sample(sorted(names), len(names))
        rename = dict(zip(Q.vertices, names))
        arrows = []
        for a, arrow_id in zip(Q.arrows, names[len(Q.vertices):]):
            s, t = rename[a.source], rename[a.target]
            if rng.random() < 0.5:
                s, t = t, s
            arrows.append(Arrow(arrow_id, s, t, a.label))
        out.append(CoxeterQuiver(names[: len(Q.vertices)], arrows))
    return out


def stdlib_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


@pytest.mark.parametrize("seed", range(3))
def test_unfold_and_roots_parts_match_stdlib(capsys, qfile, seed):
    # the parts write the documents of the public to_json methods; the ids
    # reach the keys of the dims and maps that the indecs entries write
    from coxrep import dim_vector, enumerate_indecomposables, extended_positive_roots, positive_roots, unfold
    from coxrep.unfold import _classify_unfolded

    for Q in odd_id_quivers(seed, 4):
        p = qfile(json.dumps(Q.to_json()))
        code, out, _ = run(capsys, "unfold", p, "--components", "--json")
        assert code == 0
        uq = unfold(Q)
        doc = uq.to_json()
        doc["components"] = [{"vertices": list(vs), "type": t.name} for vs, t in _classify_unfolded(uq)]
        assert out == stdlib_json(doc)
        code, out, _ = run(capsys, "roots", p, "--extended", "--json")
        assert code == 0
        base, ext = positive_roots(Q).sorted(), extended_positive_roots(Q).sorted()
        doc = {
            "count": len(base),
            "positive_roots": [r.to_json() for r in base],
            "extended_count": len(ext),
            "extended_positive_roots": [r.to_json() for r in ext],
        }
        assert out == stdlib_json(doc)
        code, out, _ = run(capsys, "indecs", p, "--full", "--json")
        assert code == 0
        found = enumerate_indecomposables(Q)
        doc = {
            "count": len(found),
            "indecomposables": [{"dim_vector": dim_vector(W).to_json(), "rep": W.to_json()} for W in found],
        }
        assert out == stdlib_json(doc)
        code, out, _ = run(capsys, "indecs", p, "--json")
        assert code == 0
        doc = {"count": len(found), "indecomposables": [{"dim_vector": dim_vector(W).to_json()} for W in found]}
        assert out == stdlib_json(doc)


JSON_TEXT_POOL = 'aZ0 "\\/\n\t\x00\x1f\x7f\u00e9\u4e2d\u2028\u2029\U0001f600'


def as_part(doc):
    """doc as a `_Part` that the writer itself renders at each indent."""
    from coxrep.cli import _dumps

    return _Part(_dumps, doc)


def random_json_doc(rng, depth=0, pool=None):
    """A random document, and the same with every part replaced by the plain
    document it renders.  With a pool (part -> plain document), about half
    of its dicts and lists are parts and go into the pool, and some values
    are drawn again from the pool, so one part recurs at one depth and at
    others, inside another."""
    if pool and rng.random() < 0.15:
        return rng.choice(list(pool.items()))
    kind = rng.randrange(7 if depth < 4 else 4)
    if kind == 0:
        x = rng.choice([True, False, None])
    elif kind == 1:
        x = rng.randint(-1000, 1000)
    elif kind == 2:
        x = rng.choice([-1, 1]) * rng.randrange(10**49, 10**60)
    elif kind == 3:
        x = "".join(rng.choice(JSON_TEXT_POOL) for _ in range(rng.randrange(6)))
    elif kind == 4:
        keys = ("".join(rng.choice(JSON_TEXT_POOL) for _ in range(rng.randrange(4))) for _ in range(rng.randrange(5)))
        items = {k: random_json_doc(rng, depth + 1, pool) for k in keys}
        doc, plain = {k: d for k, (d, _) in items.items()}, {k: p for k, (_, p) in items.items()}
    else:
        items = [random_json_doc(rng, depth + 1, pool) for _ in range(rng.randrange(5))]
        doc, plain = [d for d, _ in items], [p for _, p in items]
        if kind == 6:
            doc, plain = tuple(doc), tuple(plain)
    if kind < 4:
        return x, x
    if pool is not None and rng.random() < 0.5:
        doc = as_part(doc)
        pool[doc] = plain
    return doc, plain


def test_json_writer_matches_stdlib_indent_encoder():
    from coxrep.cli import _dumps

    def stdlib(doc):
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2)

    fixed = {
        "": [],
        "\u2028\"\\\x01\u00e9": {"\t": {}, "b": [[], {}, [[]]], "a": ("x", -7)},
        "big": [10**50, -(10**55), 0, -1],
        "consts": [True, False, None, {"n": None}],
        "text": ["\u4e2d\U0001f600", "\u2028\u2029", "\x00\x1f\x7f", '"\\/'],
    }
    assert _dumps(fixed) == stdlib(fixed)
    rng = random.Random(11)
    for _ in range(500):
        doc, _ = random_json_doc(rng)
        assert _dumps(doc) == stdlib(doc)
    # a part is rendered once per indent and its text reused: the same part
    # several times at one depth and at other depths, a part inside another,
    # empty ones, and one that is the whole document; a part inside another
    # is rendered by the outer part's own call, so only the renders that the
    # checked call makes itself are counted
    renders, depth = [], [0]

    def counted(doc):
        def render(doc, pad):
            if not depth[0]:
                renders.append((id(part), pad))
            depth[0] += 1
            try:
                return _dumps(doc, pad)
            finally:
                depth[0] -= 1

        part = _Part(render, doc)
        return part

    plain_part = {"b": [1, {"c": None}], "a": "\u00e9"}
    part = counted(plain_part)
    plain_outer = {"part": plain_part, "parts": [plain_part, plain_part]}
    outer = counted({"part": part, "parts": [part, part]})
    empty, empty_list = counted({}), counted([])
    fixed = {
        "one": part,
        "two": part,
        "deep": [[part, {"k": part}], ("x", part)],
        "outer": [outer, {"o": outer}, outer],
        "empty": [empty, {"e": empty}, empty, empty_list],
    }
    plain_fixed = {
        "one": plain_part,
        "two": plain_part,
        "deep": [[plain_part, {"k": plain_part}], ("x", plain_part)],
        "outer": [plain_outer, {"o": plain_outer}, plain_outer],
        "empty": [{}, {"e": {}}, {}, []],
    }
    cases = [(fixed, plain_fixed), (part, plain_part), (outer, plain_outer), (empty, {}), (empty_list, [])]
    for doc, plain in cases + [([fixed, fixed], [plain_fixed, plain_fixed])]:
        renders.clear()
        assert _dumps(doc) == stdlib(plain)
        assert renders and len(renders) == len(set(renders))
    for _ in range(500):
        doc, plain = random_json_doc(rng, pool={})
        assert _dumps(doc) == stdlib(plain)
    for bad in (1.5, {"a": [0.0]}, {1: 2}, {"a": {b"b": 1}}, [object()], as_part({"a": 1.5})):
        with pytest.raises(TypeError):
            _dumps(bad)


@pytest.mark.parametrize("argv", [["indecs", "--full", "--json"], ["roots", "--extended", "--json"]])
def test_output_does_not_depend_on_the_hash_seed(capsys, qfile, argv):
    # H4 has several unfolded vertices over each vertex; a result that
    # followed set or dict iteration order would differ between hash seeds
    p = qfile(H4_TEXT)
    code, out, _ = run(capsys, argv[0], p, *argv[1:])
    assert code == 0
    src = Path(__file__).resolve().parent.parent / "src"
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "coxrep.cli", argv[0], p, *argv[1:]],
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == out.encode()


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # -S: what site and .pth files import differs between machines; the
    # source tree goes on sys.path by hand
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import coxrep.cli\n"
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"


def test_closed_output_pipe_exits_141_silently(capsys, qfile):
    # the document is larger than a pipe buffer (64 KiB), so the command is
    # still writing when the reader closes the pipe after one line
    p = qfile("vertex 1\nvertex 2\narrow 1 2 24\n")
    argv = ["roots", p, "--extended", "--json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(out) > 1 << 16
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "coxrep.cli", *argv],
        env={"PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""


def test_runs_are_byte_identical(capsys, qfile):
    p = qfile(H3_TEXT)
    _, out1, _ = run(capsys, "roots", p, "--extended", "--json")
    _, out2, _ = run(capsys, "roots", p, "--extended", "--json")
    assert out1 == out2
    _, out3, _ = run(capsys, "indecs", p, "--full", "--json")
    _, out4, _ = run(capsys, "indecs", p, "--full", "--json")
    assert out3 == out4


# sha256 of stdout on the representative orientation of each family, in the
# order of `_pinned_argvs`; the CLI output is part of the interface, so these
# change only on purpose.  The last two entries and the families F4, G2 and
# I2(8), whose even labels exercise the twist choice of `positive_roots`, were
# recorded before the root orbit was closed in unfolded integer coordinates;
# E8 and H4, whose knittings repeat most of their local steps, were recorded
# before the knitting solved each distinct step once
STDOUT_SHA256 = {
    "B3": (
        "5d1ab94158b155f5e1a79c40f8ba8b0b618773e889551e8066ce1c7225ca271c",
        "21c803d67f8decd33306005dd7247991bb6f0c04b34f838493c6e68d0a5f4641",
        "23ac0785d697c1784af3ef60772a85542dbc6dfd86660a3c331febed60480d28",
        "1a8996b00dcdf2a95c99659d99a840997097a79ee47d02f604fb217d2f4cfc37",
        "58420aa8820070bf62b2b6e5a741c9ecb3f22f1c47a7c6943f25341bdf9d9701",
        "c681c854496fcc2a5554f0b102269180b2bfb750d1f6915d02462e80163e09c2",
        "55c9ad2814ffdc045d5d240ea7d17639c08927e5bf2e6be86e29eae960a5208d",
    ),
    "D4": (
        "1ecd435e9bf11baf71b3d393246b3ea337a843aea63ca3b2b4c3d15f767ca397",
        "2d1db1f11cca28541394050ee2d7eee92222b2f0b888393213ba538dcac5904a",
        "1a35edacfcf73fe4d54dcc3680e26cfef321a1efaa26389bf95e6218c28d2ce5",
        "926961994ab1f91b008185b691d44e64410f52ebad251c5d30ed38a959435264",
        "0aa8aeb1eea94c354b89affd891cf8331c1a9297b5a82af8a894e692eb3acb97",
        "3def95c1c1f395b7e79e6bf8f0f7540c2bbd4cd4639f3270876d526c891993a5",
        "5d08ad923898e8f44a8a9baf55faa667b097df4df2b549a9efdf8995a464182a",
    ),
    "E8": (
        "87895dde0aad0c276ced7f4bffad94d01d68c0310822aad0c62e6f236e4512ba",
        "7b4a8b4b9a78836cf1e3ea4361886f62b08fc4afa3604e478356ce292b7fbb4b",
        "80be33721f4b7bab3318ef8bbb6c69700aef0cb3b22fd0271a3dfdf9e9bbaf5e",
        "27fb7a25ffbd8dd52e8cefe4b749393cdef9c10b6389e1093ec5d4bf49a02df7",
        "135dc31001b1029f5b6024d8431f2bc1562dc5da2b39d69c510bd94640fe9a76",
        "f3240c6386254e07eb31ab4138d05724d9e4d454c90675d73d0f29167b8e2120",
        "db48a50337dfde2d1ee1c330bc0d7a52f11cb6b0816c50b0352b6605c72ea1bb",
    ),
    "F4": (
        "9fe87e93fa2adaf2194daa9374e9e762e985d709e63018a50fcc748a4f01faec",
        "ad0db0033529a2eac6cfd0c7af66e7d8d99faadd9fd6b0e01b76556a8019154f",
        "854be3409a3b46a9f507b9c2055ed77fc8a4f7bec654942b6a347a9d5a2cee58",
        "4fb182b4af21b10d069c85eabcc8e037fa6d3ce490e9d8061a10ef5c36147aa5",
        "eafb8bf768010a220c3ec5da50a1fb236a2730127d0db6643c00b351ce2bb1de",
        "a85f68aecfc7914aacf9f65e0c9d24c050acf5b55baeb0251d8d710cb6aa376d",
        "a35ac90b68f89eca443b2937508d5b72255b0e1aa9895565003165c4d9312b8a",
    ),
    "G2": (
        "2c5f8aa7dda6d169c122857806c17b8792fdb51d1e6194ecec5b39b3b7031c4f",
        "48ed2f5543dcdc618b80ad3a6a4978046ee92d761cf496a16d261d4cbf9635c6",
        "39abfb1bc82e6c0fb9567ba20328bdc32c079303643dcc098366b7fff96f76de",
        "59976950e7d76a6283f54bdb61715a218c5ddd1420ef07c678ca997e67a1a5d3",
        "fffc4e0a3f7276cd67933b6c79b4307af805b36b6c06cee4eeec39b63c552770",
        "dd96117827b73ae77aa73e31de16f972a36982b621472e0dc915e5ddb12c8cf7",
        "1e69ccaf62e4dff5d91b337c6c6d5af410f73a1e69276496ee828d8b6f693796",
    ),
    "H3": (
        "a51e8f1552ad25e1d7f669afcdcfde5919b419fb97b71ab2823e8387cae93c57",
        "682bcd0d6f89c4f847ae442a7b059c64b42709bcdc703b5d8d0e1fa4b22146d3",
        "0110f0a48bf8e4bea90152f8831d9db23328da42f3604c0ed5785286500f8fe6",
        "9f9a4c031483f8cc0a6a0d5975c3cbd4c379e867fa8d3d55afd391658805d33d",
        "0f90243a89ec6a922e16fbe21fc9f829c9c31ead83dd8582980074d73a6b9efa",
        "b294b6cad8df9ce386c545cf359cc1cb99de54d8a4d0722ab08a9a0990ad57a2",
        "3e689d266c08114eeb134e07c05e24b08033b4482483d0db22e6ce7c90519260",
    ),
    "H4": (
        "e944b8ae77840cf626986fc7aa44179b566244c4ff7419a8d7b07e1011bb1c9d",
        "b5e98865bd3443b2f74656a680b853ca0010aebee0f5736f48176e18ef0672cc",
        "d6f206c03e3b61556dedbdbb7e4af7bf690e8d9e398fd7fe439b2780c2a9e75d",
        "4d7ad9199fad3cffbf11a11174de37c79bec1a0e8377aab4033227565c7b011b",
        "3e4a49708fb0b5ae81ab1cb8115c9145dade6c7b610905a427f984046b9bbfd6",
        "1ce818804685c33470af7d879769b3c395bb4b1f01481b116614dfd5cbf47612",
        "4b407ee8acf3bd73104de8b51c8d446723d86a45a898037e98e1f184d3411cb6",
    ),
    "I2(5)": (
        "f883cb7b96e18cc1fe34822f22ab3b078b7e6238649ba9b83f2ef0d2e808a482",
        "63168be95a27315296a4b5c23c0712345ee30846c1ab49deecc05baa432ec4c8",
        "83a41b96392412b47aa57cd812db0d843647af2b5f5d34a8c6452dd29320c7e7",
        "9dc840344599ca778432f1849f70e0aeb09f8e5420815abdf796d5571a051767",
        "768c1b00fcdbfe862da54a3c99cf8b2366d1161189d0fb985a07695500a6c75a",
        "aa6caf57dceb5ed5a670de0f85ea1623eb158add9f7cee19f84540230f850c55",
        "7a301ba066a13722abe5ac95c2e8842cc1928118d0ec2b4359ce55dacd3a3404",
    ),
    "I2(8)": (
        "ad5e21bd2f5d2941f49518ce356082103aa1b2dff82c1ce5a443168861f35cea",
        "326d14e3beee87ed0b2b697af40d4a7dd36d4ef7f2aa94c117afd12ee3e8a91d",
        "8f4e9a2f47990f61100af181a12411648f8ff3a54826267caa2334ef27ecd9fd",
        "ecb303e100ca98a5a60aa4cdc072f9b0534e00c8b643d18e242c3bfb459418f4",
        "f255cd69ea20f325dfa34962f7784ebbf168f837ba9ae9d5681158245ee9f1d1",
        "c2757a51d8793e0cf512e48146f0d05cac73c080624477cc96b9868d8e70488e",
        "53d6b094a7438c1deb82e84c5d5049821e8cb70c652d82e4bd383b0ee909f3c9",
    ),
}


# sha256 of `unfold --components --json` and `classify --json`, recorded
# before the unfolded vertex lists and arrows were written as parts; "5-6-7"
# is the path with labels 5, 6 and 7
UNFOLD_CLASSIFY_SHA256 = {
    "B3": (
        "005144f1a331972789771a8ec18f4634d1ac9b6dacce11a6c08a386180e03ad0",
        "9707ce3de0a41e4515b238b41a92a14745f2f9fb2a7c6572a705dc41633530e8",
    ),
    "D4": (
        "6d6128a49b3ddd5e8ea2aea33f7927f907eaacab7bc7e5113cf43c3efa7024c3",
        "0c857cfface9fc04da60c585ee7c1f3362107731f3d9200996f693f340126528",
    ),
    "E8": (
        "d36b23c2b07db1890fbfd8a63bc994acc1a0e43ca0235046295487db74a697ff",
        "5769831492003a64ef48d805717c5d84061b681a8c1c17510245ad70da9c1067",
    ),
    "F4": (
        "2751da37664465adc2c1e717ebf15f3811fd993a660e340cd34d4a4ac311e3bf",
        "04a8f4d6bddc97387390c55169cf3d15c65b1eac213d4255c9f778eb027a3f69",
    ),
    "G2": (
        "eabda91af575997f92cd4f1e23adb65dcae0d58d8dc3a6aa7b45f8ddac4706af",
        "39f4bc1afeecf599d2e2c93973cd353d11eebf8a11c2fc9bb293cd47a858ff39",
    ),
    "H3": (
        "7bbb49b7d702f013e66ffe102784cd3647eaacf73c7780d8dd2c1dce1b2db746",
        "a470a28b78e69a146f52d6a4bbd6e96188f3bed95b70a3aac8bd411ee500d65e",
    ),
    "H4": (
        "7bdbb5a4c944d3eedc291e097f001c7dc989f2c9971fd5471ea10ef9de4957e3",
        "08078d43175b20c89aed8a4cdeee3b8f03c60525aa4b95ac756ca58f207b0f08",
    ),
    "I2(5)": (
        "5c17be923319501224d315a0c23f8ba5613c23f5e5caf5957c9bf702b979e1e2",
        "a263376990db22e99ba052c6fd5985ae370db65b3605595a360913bdcb374f1d",
    ),
    "I2(8)": (
        "0e2a4403bab198d5360a513a7bdd382db426b65b527da9df21af12e2e84edb8e",
        "86a203ce3fc9c33799ebf317f3919e415ceedc5cedcb94a9b1465d5b992937c1",
    ),
    "5-6-7": (
        "2d653b3994011e44a96e2d23cf246120003289c11b3a3ec43898c0cea571d207",
        "b7f5dfe8f4790293079d9fbb810080dbc954af46b5b538423d97d4eb0c71edfa",
    ),
}


@pytest.mark.parametrize("name", sorted(UNFOLD_CLASSIFY_SHA256))
def test_unfold_and_classify_bytes_are_recorded(capsys, qfile, name):
    from families import path_quiver

    Q = path_quiver([5, 6, 7]) if name == "5-6-7" else family_quiver(name)
    p = qfile(json.dumps(Q.to_json()))
    digests = []
    for argv in (["unfold", p, "--components", "--json"], ["classify", p, "--json"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == UNFOLD_CLASSIFY_SHA256[name]


def _pinned_argvs(Q, qpath, rep_path):
    """The pinned commands: the full indecomposables, the extended roots, the
    path-algebra classes, both reflection functors (at the first source and
    the first sink) applied to the first indecomposable of largest total
    dimension, and the full indecomposables and extended roots as text."""
    return [
        ["indecs", qpath, "--full", "--json"],
        ["roots", qpath, "--extended", "--json"],
        ["path-algebra", qpath, "--json"],
        ["reflect", rep_path, "--vertex", Q.sources()[0], "--sign", "-"],
        ["reflect", rep_path, "--vertex", Q.sinks()[0], "--sign", "+"],
        ["indecs", qpath, "--full"],
        ["roots", qpath, "--extended"],
    ]


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout_is_byte_identical_to_recorded(capsys, qfile, name):
    from coxrep import enumerate_indecomposables

    Q = family_quiver(name)
    p = qfile(json.dumps(Q.to_json()))
    V = max(enumerate_indecomposables(Q), key=lambda W: W.total_dim())
    rep_path = qfile(json.dumps(V.to_json()), "rep.json")
    digests = []
    for argv in _pinned_argvs(Q, p, rep_path):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == STDOUT_SHA256[name]
