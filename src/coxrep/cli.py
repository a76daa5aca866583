"""Batch command line interface.

Deterministic given input and flags: every listing is canonically ordered and
repeated runs are byte identical.  A --json document is printed with sorted
keys, a 2-space indent, "," and ": " separators and ASCII escapes: the bytes
json.dumps gives with sort_keys=True, separators (",", ": ") and indent 2.
This module alone writes that text.  A value sits at an indent `pad`, a
newline and one `_INDENT` per level ("\\n" for the document itself), and its
items at pad + `_INDENT`; `_obj` and `_arr` hold every other rule of the
layout, each container in one join.  The regular parts of a document are
`_Part`s, which write their own text with them: each root (from the classes
of `rootsys._Walk`), each entry of `indecs --full`, and the vertex lists and
unfolded arrows of `unfold`.  The writer asks a part for its text once per
indent per document, so a part that recurs (a positive root among the
extended ones) is written once, with those same bytes; an `indecs --full`
entry writes each matrix and the source quiver that several representations
share once per call in the same way.
Exit codes: 0 success, 1 unreadable input (a malformed command line, or a
file, quiver, representation or fusion element that does not parse or
validate, JSON past the parser's digit or depth limit and a matrix entry of
more than 4300 digits included; argparse's usage message goes to stderr), 2
precondition violation (a named condition of the command, such as a sink, a
source or finite type), 3 budget or cap exceeded (an output entry past the
interpreter's digit limit included), 4 internal fault (a failed internal
cross-check, such as the knitted dimension vectors against the extended roots,
or any ValueError that escapes a command, such as a matrix shape mismatch;
reported as "error: internal: ..." with empty stdout), 141 (128 + SIGPIPE) the
reader of stdout closed it before the output was written, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import path_algebra as pa
from . import reps as reps_mod
from .fusion import FusionElem, MismatchedLabelSets
from .quiver import (
    CoxeterQuiver,
    QuiverError,
    QuiverParseError,
    classify_graph,
    parse_quiver,
)
from .rootsys import (
    DEFAULT_BUDGET,
    CapExceeded,
    InvalidOrdering,
    MismatchedQuiver,
    OrbitBudgetExceeded,
    _extend,
    _positive,
    _walk,
)
from .unfold import _classify_unfolded, unfold

PARSE_ERROR = 1
PRECONDITION_ERROR = 2
BUDGET_ERROR = 3
INTERNAL_ERROR = 4
BROKEN_PIPE = 141

_PRECONDITION_EXC = (
    QuiverError,
    MismatchedLabelSets,
    MismatchedQuiver,
    InvalidOrdering,
    reps_mod.NotASink,
    reps_mod.NotASource,
    reps_mod.NotAnExtendedRoot,
    reps_mod.NotFiniteType,
)
_BUDGET_EXC = (OrbitBudgetExceeded, CapExceeded, reps_mod.SplittingFailed)
_INDENT = "  "


class _Part:
    """A sub-document that writes itself: `render(doc, pad)` is the text of
    doc at the indent pad, asked for once per indent per document."""

    __slots__ = ("render", "doc")

    def __init__(self, render, doc):
        self.render = render
        self.doc = doc


def _obj(pad: str, items) -> str:
    """The object at the indent pad with the (key, value text) items in the
    order given, which the caller sorts by key; a key that is not a str
    raises TypeError.  One join copies each text once, so a large part
    inside is not copied again per term."""
    inner = pad + _INDENT
    out = []
    for k, text in items:
        out += (",", inner, _escape(k), ": ", text)
    if not out:
        return "{}"
    # no comma before the first item
    out[0] = "{"
    out += (pad, "}")
    return "".join(out)


def _arr(pad: str, texts) -> str:
    """The array at the indent pad with the item texts in the order given,
    in one join: the brackets go onto the first and the last item."""
    texts = list(texts)
    if not texts:
        return "[]"
    inner = pad + _INDENT
    texts[0] = f"[{inner}{texts[0]}"
    texts[-1] = f"{texts[-1]}{pad}]"
    return ("," + inner).join(texts)


def _load_quiver(path: str) -> CoxeterQuiver:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise QuiverParseError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_quiver(text)
    except QuiverError as exc:
        raise QuiverParseError(f"invalid quiver: {exc}") from exc


def _dumps(doc, pad: str = "\n") -> str:
    """The --json text of doc (see the module docstring) at the indent pad,
    the document itself by default, for a document of dicts with str keys,
    lists, tuples, str, int, True, False, None and `_Part`s; any other type
    raises TypeError.  The stdlib encodes an indented document in pure
    Python; here strings go through its C escaper and each container is one
    join, laid out by `_obj` and `_arr`.  A part is rendered once per indent
    per call and its text reused wherever it recurs."""
    return _text(doc, pad, {})


def _text(x, pad: str, rendered: dict[tuple[_Part, str], str]) -> str:
    """`_dumps` of x, each part's text by indent kept in `rendered`, not in
    a closure's cell, which would hold it in a reference cycle."""
    if type(x) is _Part:
        key = (x, pad)
        found = rendered.get(key)
        if found is None:
            found = rendered[key] = x.render(x.doc, pad)
        return found
    if isinstance(x, str):
        return _escape(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, dict):
        inner = pad + _INDENT
        return _obj(pad, [(k, _text(x[k], inner, rendered)) for k in sorted(x)])
    if isinstance(x, (list, tuple)):
        inner = pad + _INDENT
        return _arr(pad, [_text(item, inner, rendered) for item in x])
    raise TypeError(f"{type(x).__name__} is not JSON serializable here")


def _strings(items, pad: str) -> str:
    """A list of strings, such as the vertex ids of a quiver, in one join."""
    return _arr(pad, map(_escape, items))


def _components(comps) -> list:
    return [{"type": t.name, "vertices": _Part(_strings, vs)} for vs, t in comps]


def _root_json(classes, pad: str) -> str:
    """The text at the indent pad of a root from its non-zero `_Walk`
    classes (`_Walk.keyed`), each class written once per indent per walk."""
    inner = pad + _INDENT
    return _obj(pad, [(v, cls[2].get(inner) or _class_json(cls, inner)) for v, cls in classes])


def _class_json(cls, pad: str) -> str:
    """The text of a `_Walk` class at the indent pad, kept in the class."""
    _, pairs, texts = cls
    text = texts[pad] = _obj(pad, [(k, str(c)) for k, c in pairs])
    return text


def _matrix(rows, pad: str) -> str:
    """The rows of `Mat.to_json`, in one join per row."""
    inner = pad + _INDENT
    return _arr(pad, [_arr(inner, map(_escape, row)) for row in rows])


def _unfolded_arrows(arrows, pad: str) -> str:
    """The "arrows" of `UnfoldedQuiver.to_json`, each through one template
    of its keys in sorted order; every unfolded arrow is labelled 3."""
    holes = [("id", "%s"), ("label", "3"), ("provenance", "%s"), ("source", "%s"), ("target", "%s")]
    template = _obj(pad + _INDENT, holes)
    e = _escape
    return _arr(pad, [template % (e(a.id), e(a.provenance), e(a.source), e(a.target)) for a in arrows])


def _indecs_entry(doc, pad: str) -> str:
    """An entry of `indecs --full --json`, {"dim_vector": root, "rep":
    W.to_json()}, at the indent pad.  doc is (the root's classes, W, shared),
    shared built once per call: the source quiver's document, and by indent
    the quiver's text and each block's text by its id, "" for a zero block,
    which the document leaves out (the members keep every `Mat` alive, so
    an id is a sound key).  W's support and blocks are all that is read."""
    classes, W, (quiver, by_pad) = doc
    inner = pad + _INDENT
    rep_pad = inner + _INDENT
    memo = by_pad.get(pad)
    if memo is None:
        memo = by_pad[pad] = (_dumps(quiver, rep_pad), {})
    quiver_text, texts = memo
    maps = []
    for a, m in sorted(W.blocks.items()):
        text = texts.get(id(m))
        if text is None:
            text = texts[id(m)] = "" if m.is_zero() else _matrix(m.to_json(), rep_pad + _INDENT)
        if text:
            maps.append((a, text))
    rep = [
        ("dims", _obj(rep_pad, [(u, str(d)) for u, d in sorted(W.support.items())])),
        ("maps", _obj(rep_pad, maps)),
        ("quiver", quiver_text),
    ]
    return _obj(pad, [("dim_vector", _root_json(classes, inner)), ("rep", _obj(inner, rep))])


def _emit(as_json: bool, doc, text_lines):
    """Print the JSON document (as_json) or the text lines.  Both are
    zero-argument callables, and only the printed form is built, in full
    before anything is printed."""
    if as_json:
        print(_dumps(doc()))
    else:
        for line in list(text_lines()):
            print(line)


def _cmd_classify(args) -> int:
    Q = _load_quiver(args.quiver)
    comps = classify_graph(Q)
    finite = all(t.is_dynkin for _, t in comps)
    _emit(
        args.json,
        lambda: {"components": _components(comps), "finite_type": finite},
        lambda: [f"component [{', '.join(vs)}]: {t.name}" for vs, t in comps]
        + ["finite type" if finite else "infinite type"],
    )
    return 0


def _cmd_unfold(args) -> int:
    Q = _load_quiver(args.quiver)
    uq = unfold(Q)
    comps = _classify_unfolded(uq) if args.components else None

    def doc():
        # the document of uq.to_json(), its two lists written as parts
        out = {"vertices": _Part(_strings, uq.vertices), "arrows": _Part(_unfolded_arrows, uq.arrows)}
        if comps is not None:
            out["components"] = _components(comps)
        return out

    def lines():
        yield f"unfolded vertices ({len(uq.vertices)}):"
        yield from (f"  {v}" for v in uq.vertices)
        yield f"unfolded arrows ({len(uq.arrows)}):"
        yield from (f"  {a.source} -> {a.target}  [{a.provenance}]" for a in uq.arrows)
        if comps is not None:
            yield "components: " + " ".join(sorted(t.name for _, t in comps))

    _emit(args.json, doc, lines)
    return 0


def _cmd_roots(args) -> int:
    Q = _load_quiver(args.quiver)
    walk = _walk(Q)
    base = _positive(walk, args.budget)
    ext = _extend(walk, base) if args.extended else None

    def listings(read):
        # each root is read once, by walk.serialize or `part`, whose
        # serialized form is both the sort key and the printed line; the
        # positive roots are among the extended ones, so their listing is
        # filtered from the one sorted list
        rows = sorted((read(x), x) for x in (base if ext is None else ext))
        return [r for r, x in rows if x in base], [r for r, _ in rows]

    def part(x):
        key, classes = walk.keyed(x)
        return key, _Part(_root_json, classes)

    def doc():
        # one part per root: a positive root recurs among the extended ones
        positive, extended = listings(part)
        out = {"count": len(base), "positive_roots": [d for _, d in positive]}
        if ext is not None:
            out["extended_count"] = len(ext)
            out["extended_positive_roots"] = [d for _, d in extended]
        return out

    def lines():
        positive, extended = listings(walk.serialize)
        yield f"positive roots ({len(base)}):"
        yield from (f"  {s}" for s in positive)
        if ext is not None:
            yield f"extended positive roots ({len(ext)}):"
            yield from (f"  {s}" for s in extended)

    _emit(args.json, doc, lines)
    return 0


def _cmd_indecs(args) -> int:
    Q = _load_quiver(args.quiver)
    found = reps_mod._indecomposables_with_dims(Q, args.budget)

    def doc():
        if not args.full:
            roots = [{"dim_vector": _Part(_root_json, classes)} for _, classes, _ in found]
            return {"count": len(found), "indecomposables": roots}
        # every member lives over one unfolding and the knitting shares each
        # distinct map among them: one quiver document serves all
        shared = (Q.to_json(), {})
        entries = [_Part(_indecs_entry, (classes, W, shared)) for _, classes, W in found]
        return {"count": len(found), "indecomposables": entries}

    def lines():
        yield f"indecomposables ({len(found)}):"
        for key, _, W in found:
            yield f"  {key}"
            if args.full:
                yield from (f"    dim {name} = {d}" for name, d in sorted(W.support.items()))
                yield from (f"    map {k} = {m.to_json()}" for k, m in sorted(W.blocks.items()) if not m.is_zero())

    _emit(args.json, doc, lines)
    return 0


def _cmd_path_algebra(args) -> int:
    Q = _load_quiver(args.quiver)
    classes = list(pa._grades(Q))
    grades = [c.to_json() for c in classes]
    total = sum(classes[1:], classes[0]).to_json()
    _emit(
        args.json,
        lambda: {"grades": [{"length": k, "class": g} for k, g in enumerate(grades)], "total": total},
        lambda: [f"grade {k}: {json.dumps(g, sort_keys=True)}" for k, g in enumerate(grades)]
        + [f"total: {json.dumps(total, sort_keys=True)}"],
    )
    return 0


def _cmd_reflect(args) -> int:
    try:
        with open(args.rep, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise QuiverParseError(f"cannot read representation: {exc}") from exc
    try:
        V = reps_mod.UnfoldedRep.from_json(obj)
    except (KeyError, TypeError, ValueError, QuiverError) as exc:
        raise QuiverParseError(f"bad representation JSON: {exc}") from exc
    Q = V.quiver.source
    W = (reps_mod.reflect_plus if args.sign == "+" else reps_mod.reflect_minus)(Q, args.vertex, V)

    def lines():
        yield f"dim_vector: {reps_mod.dim_vector(W).serialize()}"
        yield _dumps(W.to_json())

    _emit(args.json, W.to_json, lines)
    return 0


def _cmd_fusion(args) -> int:
    try:
        labels = tuple(int(x) for x in args.labels.split(",") if x)
    except ValueError as exc:
        raise QuiverParseError(f"bad label list {args.labels!r}") from exc
    if any(n < 3 for n in labels):
        raise QuiverParseError(f"bad label list {args.labels!r}: labels are integers >= 3")
    try:
        operands = [json.loads(s) for s in args.mul]
    except (ValueError, RecursionError) as exc:
        raise QuiverParseError(f"bad fusion element JSON: {exc}") from exc
    try:
        x, y = (FusionElem.from_json(obj, labels) for obj in operands)
    except (TypeError, ValueError, MismatchedLabelSets) as exc:
        raise QuiverParseError(f"bad fusion element: {exc}") from exc
    product = (x * y).to_json()
    _emit(args.json, lambda: {"product": product}, lambda: [json.dumps(product, sort_keys=True)])
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse with a malformed command line exiting 1, not 2: 2 is a
    precondition violation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(PARSE_ERROR, f"{self.prog}: error: {message}\n")


def _budget(text: str) -> int:
    """A --budget value: a decimal integer >= 0 (0 is legal)."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coxrep", description="exact computations with Coxeter quivers"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Coxeter-Dynkin type per component")
    p.add_argument("quiver")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("unfold", help="unfolded classical quiver")
    p.add_argument("quiver")
    p.add_argument("--components", action="store_true", help="classify the unfolding")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("roots", help="positive roots over the fusion ring")
    p.add_argument("quiver")
    p.add_argument("--extended", action="store_true")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("indecs", help="all indecomposable representations")
    p.add_argument("quiver")
    p.add_argument("--full", action="store_true", help="include matrices")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_indecs)

    p = sub.add_parser("path-algebra", help="graded path algebra classes")
    p.add_argument("quiver")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_path_algebra)

    p = sub.add_parser("reflect", help="apply a reflection functor to a representation")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--vertex", required=True)
    p.add_argument("--sign", required=True, choices=["+", "-"])
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reflect)

    p = sub.add_parser("fusion", help="fusion ring arithmetic")
    p.add_argument("--labels", required=True, help="comma separated labels, e.g. 4,5")
    p.add_argument("--mul", nargs=2, required=True, metavar=("X", "Y"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fusion)

    return parser


# built once per process: parsing leaves the parser unchanged
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # point stdout at the null device, so that the interpreter's final
        # flush of what is still buffered writes nowhere and stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE
    except QuiverParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except _BUDGET_EXC as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except _PRECONDITION_EXC as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PRECONDITION_ERROR
    except (AssertionError, ValueError) as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
