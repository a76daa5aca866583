"""Batch command line interface.

Deterministic given input and flags: every listing is canonically ordered and
repeated runs are byte identical.  A --json document is printed with sorted
keys, a 2-space indent, "," and ": " separators and ASCII escapes: the bytes
json.dumps gives with sort_keys=True, separators (",", ": ") and indent 2.
The regular parts of a document are `_jsontext._Part`s, which write their
own text in one join: each root (through `rootsys._Walk`, whose class
texts recur), each matrix and the source quiver of `indecs --full`, and the
vertex lists and unfolded arrows of `unfold`.  The writer asks a part for
its text once per indent per document, so a part that recurs (a positive
root among the extended ones, a matrix or the quiver that several
representations share) is written once, with those same bytes.
Exit codes: 0 success, 1 unreadable input (a malformed command line, or a
file, quiver, representation or fusion element that does not parse or
validate; argparse's usage message goes to stderr), 2 precondition violation (a
named condition of the command, such as a sink, a source or finite type), 3
budget or cap exceeded, 4 internal fault (a failed internal cross-check, such
as the knitted dimension vectors against the extended roots, or any
ValueError that escapes a command, such as a matrix shape mismatch; reported
as "error: internal: ..." with empty stdout), 141 (128 + SIGPIPE) the reader
of stdout closed it before the output was written, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _escape

from . import path_algebra as pa
from . import reps as reps_mod
from ._jsontext import _INDENT, _arr, _obj, _Part
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
        # each root is read once, by walk.serialize or walk.keyed, whose
        # serialized form is both the sort key and the printed line; the
        # positive roots are among the extended ones, so their listing is
        # filtered from the one sorted list
        rows = sorted((read(x), x) for x in (base if ext is None else ext))
        return [r for r, x in rows if x in base], [r for r, _ in rows]

    def doc():
        # one part per root: a positive root recurs among the extended ones
        positive, extended = listings(walk.keyed)
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
    walk, found = reps_mod._indecomposables_with_dims(Q, args.budget)

    def doc():
        # every representation is over Q: one quiver part serves them all;
        # the knitting shares each distinct map among its members, and one
        # part serves each (`found` keeps the matrices alive, so an id is a
        # sound key)
        quiver = _Part(_dumps, Q.to_json()) if args.full else None
        mats: dict[int, _Part] = {}

        def mat_doc(m):
            part = mats.get(id(m))
            if part is None:
                part = mats[id(m)] = _Part(_matrix, m.to_json())
            return part

        entries = []
        for _, x, W in found:
            entry = {"dim_vector": walk.part(x)}
            if args.full:
                entry["rep"] = W._json(quiver, mat_doc)
            entries.append(entry)
        return {"count": len(found), "indecomposables": entries}

    def lines():
        yield f"indecomposables ({len(found)}):"
        for key, _, W in found:
            yield f"  {key}"
            if args.full:
                for name, d in sorted(W.dims.items()):
                    if d:
                        yield f"    dim {name} = {d}"
                for k, m in sorted(W.maps.items()):
                    if not m.is_zero():
                        yield f"    map {k} = {m.to_json()}"

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
    except (OSError, json.JSONDecodeError) as exc:
        raise QuiverParseError(f"cannot read representation: {exc}") from exc
    try:
        V = reps_mod.UnfoldedRep.from_json(obj)
    except (KeyError, TypeError, ValueError, QuiverError) as exc:
        raise QuiverParseError(f"bad representation JSON: {exc}") from exc
    Q = V.quiver.source
    if args.sign == "+":
        W = reps_mod.reflect_plus(Q, args.vertex, V)
    else:
        W = reps_mod.reflect_minus(Q, args.vertex, V)

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
    except json.JSONDecodeError as exc:
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
