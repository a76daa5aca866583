"""Exact arithmetic in Temperley-Lieb-Jones fusion rings and their products.

The ring attached to a label set ``L`` is the tensor product over all
``n in L`` of the Grothendieck ring of the rank-``(n-1)`` Temperley-Lieb-Jones
category (its even part when ``n`` is odd).  A basis is given by tuples of
simple objects, one per label; the empty label set gives the integers with a
single unit simple.  All values are immutable, pickle, copy and deep-copy,
and all operations are pure.  Each simple object exists once per process
(unpickling looks it up), so `is` and `==` agree; the simple objects and the
products of two simples are process-wide caches, filled with
`dict.setdefault` and `lru_cache`, which are safe under the GIL.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from ._values import Frozen, Value


class MismatchedLabelSets(Exception):
    """Combining fusion elements that live over different label sets."""


def _check_label(n: int) -> None:
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"label must be an integer >= 3, got {n!r}")


def chebyshev(k: int) -> list[int]:
    """Coefficients (ascending degree) of the k-th normalized Chebyshev polynomial.

    D_0 = 1, D_1 = d, D_{k+1} = d*D_k - D_{k-1}.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(k - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def chebyshev_eval(k: int, x: float) -> float:
    """Numeric value D_k(x) by the recurrence."""
    if k == 0:
        return 1.0
    prev, cur = 1.0, x
    for _ in range(k - 1):
        prev, cur = cur, x * cur - prev
    return cur


def tlj_simples(n: int) -> list[int]:
    """Ordered simple indices of the label-n component ring.

    All of 0..n-2 for even n; the even indices 0, 2, ..., n-3 for odd n.
    """
    _check_label(n)
    if n % 2:
        return list(range(0, n - 2, 2))
    return list(range(n - 1))


def tlj_tensor(n: int, a: int, b: int) -> tuple[int, ...]:
    """Summand indices of the product of the a-th and b-th simples at label n.

    The result is multiplicity free: indices |a-b|, |a-b|+2, ... up to a+b,
    truncated to 2(n-2)-(a+b) past the middle.  Indices from the full ring are
    accepted; parity restrictions are enforced by :class:`SimpleObject`, not
    here.
    """
    _check_label(n)
    for x in (a, b):
        if not 0 <= x <= n - 2:
            raise ValueError(f"index {x} out of range for label {n}")
    lo = abs(a - b)
    hi = a + b if a + b <= n - 2 else 2 * (n - 2) - (a + b)
    return tuple(range(lo, hi + 1, 2))


_SIMPLES: dict[tuple[tuple[int, int], ...], "SimpleObject"] = {}


class SimpleObject(Frozen):
    """A basis element: one simple index per label, labels ascending.

    For odd labels only even indices are allowed (even-part convention).
    One object per components tuple: the first construction validates and
    stores it in `_SIMPLES`, later ones return it; `==` and `hash` are `is`.
    """

    __slots__ = ("components", "_key")

    def __new__(cls, components):
        comps = tuple(sorted((n, a) for n, a in components))
        if not all(type(n) is int and type(a) is int for n, a in comps):
            raise TypeError(f"labels and indices must be integers, got {comps!r}")
        obj = _SIMPLES.get(comps)
        if obj is not None:
            return obj
        labels = [n for n, _ in comps]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate label in simple object")
        for n, a in comps:
            _check_label(n)
            if not 0 <= a <= n - 2:
                raise ValueError(f"index {a} out of range for label {n}")
            if n % 2 and a % 2:
                raise ValueError(f"odd label {n} only carries even indices, got {a}")
        obj = object.__new__(cls)
        object.__setattr__(obj, "components", comps)
        object.__setattr__(obj, "_key", "|".join(f"{n}:{a}" for n, a in comps))
        return _SIMPLES.setdefault(comps, obj)

    def __reduce__(self):
        return SimpleObject, (self.components,)

    @property
    def key(self) -> str:
        return self._key

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.components)

    def index(self, n: int) -> int:
        for m, a in self.components:
            if m == n:
                return a
        raise KeyError(n)

    def replace(self, n: int, a: int) -> "SimpleObject":
        self.index(n)  # KeyError for a label it does not carry
        return SimpleObject(tuple((m, a if m == n else x) for m, x in self.components))

    def is_unit(self) -> bool:
        return all(a == 0 for _, a in self.components)

    @classmethod
    def unit(cls, labels) -> "SimpleObject":
        return cls(tuple((n, 0) for n in labels))

    @classmethod
    def from_key(cls, key: str, labels=None) -> "SimpleObject":
        if key == "":
            comps = ()
        else:
            parts = (part.split(":") for part in key.split("|"))
            try:
                comps = tuple((int(n), int(a)) for n, a in parts)
            except ValueError as exc:
                raise ValueError(f"bad simple key {key!r}: expected label:index parts joined by '|'") from exc
        obj = cls(comps)
        if obj.key != key:
            raise ValueError(f"bad simple key {key!r}: the canonical form is {obj.key!r}")
        if labels is not None and obj.labels != tuple(sorted(labels)):
            raise MismatchedLabelSets(
                f"key {key!r} does not match label set {tuple(sorted(labels))}"
            )
        return obj

    def __lt__(self, other):
        return self.components < other.components

    def __repr__(self):
        return f"SimpleObject({self._key!r})"


def irr_enumerate(labels) -> list[SimpleObject]:
    """All simple objects over the label set, lexicographic by (label, index).

    The empty label set yields the single empty-component unit.
    """
    labels = tuple(sorted(set(labels)))
    pools = [[(n, a) for a in tlj_simples(n)] for n in labels]
    return [SimpleObject(combo) for combo in product(*pools)]


def invertible_simples(labels) -> list[SimpleObject]:
    """Simple objects whose self-product is the unit alone.

    These form a group: the top simple of each even label is an involution,
    odd labels contribute none.
    """
    labels = tuple(sorted(set(labels)))
    unit = (SimpleObject.unit(labels),)
    return [s for s in irr_enumerate(labels) if _simple_mul(s, s) == unit]


@lru_cache(maxsize=None)
def _simple_mul(x: SimpleObject, y: SimpleObject) -> tuple[SimpleObject, ...]:
    # component-wise product of simples; multiplicity free in each component
    per_label = [
        [(n, c) for c in tlj_tensor(n, a, y.index(n))] for n, a in x.components
    ]
    return tuple(SimpleObject(combo) for combo in product(*per_label))


class FusionElem(Value):
    """Integer combination of simple objects over a fixed label set."""

    __slots__ = ("labels", "coeffs", "_key")

    def __init__(self, labels, coeffs=None):
        object.__setattr__(self, "labels", tuple(sorted(set(labels))))
        clean: dict[SimpleObject, int] = {}
        for simple, c in (coeffs or {}).items():
            if not isinstance(simple, SimpleObject):
                simple = SimpleObject.from_key(simple)
            if simple.labels != self.labels:
                raise MismatchedLabelSets(
                    f"simple {simple.key!r} not over label set {self.labels}"
                )
            if type(c) is not int:
                raise TypeError(f"coefficients must be integers, got {c!r}")
            if c:
                clean[simple] = clean.get(simple, 0) + c
                if not clean[simple]:
                    del clean[simple]
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_key", None)

    @classmethod
    def _trusted(cls, labels: tuple[int, ...], coeffs: dict[SimpleObject, int]) -> "FusionElem":
        # the result of an operation: labels sorted, every key a simple over
        # them and every coefficient a non-zero int, so no check is repeated
        x = object.__new__(cls)
        object.__setattr__(x, "labels", labels)
        object.__setattr__(x, "coeffs", coeffs)
        object.__setattr__(x, "_key", None)
        return x

    @classmethod
    def zero(cls, labels) -> "FusionElem":
        return cls(labels)

    @classmethod
    def unit(cls, labels) -> "FusionElem":
        labels = tuple(sorted(set(labels)))
        return cls(labels, {SimpleObject.unit(labels): 1})

    @classmethod
    def simple(cls, labels, simple: SimpleObject) -> "FusionElem":
        return cls(labels, {simple: 1})

    def _check(self, other: "FusionElem") -> None:
        if self.labels != other.labels:
            raise MismatchedLabelSets(f"{self.labels} vs {other.labels}")

    def __add__(self, other: "FusionElem") -> "FusionElem":
        self._check(other)
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            c += out.get(s, 0)
            if c:
                out[s] = c
            else:
                del out[s]
        return FusionElem._trusted(self.labels, out)

    def __sub__(self, other: "FusionElem") -> "FusionElem":
        return self + (-other)

    def __neg__(self) -> "FusionElem":
        return FusionElem._trusted(self.labels, {s: -c for s, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            coeffs = {s: c * other for s, c in self.coeffs.items()} if other else {}
            return FusionElem._trusted(self.labels, coeffs)
        self._check(other)
        out: dict[SimpleObject, int] = {}
        for sx, cx in self.coeffs.items():
            for sy, cy in other.coeffs.items():
                c = cx * cy
                for s in _simple_mul(sx, sy):
                    out[s] = out.get(s, 0) + c
        return FusionElem._trusted(self.labels, {s: c for s, c in out.items() if c})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.coeffs)

    def _state(self):
        return self.labels, self.key()

    def key(self) -> tuple:
        """Canonical sortable form."""
        if self._key is None:
            object.__setattr__(
                self, "_key", tuple(sorted((s.key, c) for s, c in self.coeffs.items()))
            )
        return self._key

    def to_json(self) -> dict[str, int]:
        return {s.key: c for s, c in self.coeffs.items()}

    @classmethod
    def from_json(cls, obj, labels) -> "FusionElem":
        if not isinstance(obj, dict):
            raise TypeError(f"a fusion element is an object of simple keys to coefficients, got {obj!r}")
        bad = [c for c in obj.values() if type(c) is not int]
        if bad:
            raise TypeError(f"coefficients must be integers, got {bad[0]!r}")
        labels = tuple(sorted(set(labels)))
        return cls(labels, {SimpleObject.from_key(k, labels): c for k, c in obj.items()})

    def __repr__(self):
        if not self.coeffs:
            return "FusionElem(0)"
        terms = " + ".join(
            f"{c}*[{s.key or '1'}]" for s, c in sorted(self.coeffs.items())
        )
        return f"FusionElem({terms})"


def arrow_label_class(labels, n: int) -> FusionElem:
    """The fusion class of an arrow labelled n: the label-n simple of index n-3."""
    return FusionElem.simple(labels, SimpleObject.unit(labels).replace(n, n - 3))


def fusion_mul(x: FusionElem, y: FusionElem) -> FusionElem:
    """Product in the fusion ring (bilinear extension of the tensor rule)."""
    return x * y


def is_positive_elem(x: FusionElem) -> bool:
    """True iff x is the class of a non-zero object: coefficients >= 0, not all 0."""
    return bool(x.coeffs) and all(c > 0 for c in x.coeffs.values())


def pf_eval(x: FusionElem) -> float:
    """Perron-Frobenius evaluation: each label-n index a maps to D_a(2cos(pi/n)).

    Numeric sanity channel only; the ring itself is exact.
    """
    total = 0.0
    for simple, c in x.coeffs.items():
        val = 1.0
        for n, a in simple.components:
            val *= chebyshev_eval(a, 2.0 * math.cos(math.pi / n))
        total += c * val
    return total
