"""The layout of the --json documents, and the sub-documents that write
themselves in it.

A document is laid out with a 2-space indent, "," and ": " separators and
ASCII escapes: the bytes of json.dumps with sort_keys=True, separators
(",", ": ") and indent 2.  A value sits at an indent `pad`, a newline and
one `_INDENT` per level ("\\n" for the document itself), and its items at
pad + `_INDENT`; `_obj` and `_arr` hold every other rule of that layout.  A
`_Part` writes its own text with them, so a regular sub-document (a root, a
matrix, a list of ids) is written with one join and not node by node.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _escape

_INDENT = "  "


class _Part:
    """A sub-document that writes itself: `render(doc, pad)` is the text of
    doc at the indent pad, laid out by `_obj` and `_arr`.  The CLI writer
    asks for it once per indent per document and reuses the text wherever
    the part recurs at that indent."""

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
