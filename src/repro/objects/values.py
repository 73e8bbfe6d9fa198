"""Complex object values.

Values of the complex object types of :mod:`repro.objects.types`:

* base values (``D``) are Python integers or strings;
* booleans (``B``) are ``True``/``False``;
* the unit value is the empty tuple;
* pairs are values of product types;
* finite sets are values of set types.

All values are immutable and hashable.  Sets are kept in a *canonical form* --
duplicates removed and elements sorted by the lifted linear order -- so that
structural equality of values coincides with semantic equality of the complex
objects they denote, and so that the lifted order of
:mod:`repro.objects.order` is well defined.

The module also provides conversions to and from plain Python data
(:func:`from_python` / :func:`to_python`), type inference and checking, the
size measure used in the complexity experiments, and the atom-renaming
operation used to test genericity of queries (Chandra-Harel, Section 5 of the
paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Union

from .types import (
    BASE,
    BOOL,
    UNIT,
    BaseType,
    BoolType,
    ProdType,
    SetType,
    Type,
    UnitType,
)

#: Python types allowed as base (atomic) values.
Atom = Union[int, str]


class Value:
    """Base class of all complex object values."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - delegated to subclasses
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class BaseVal(Value):
    """A value of the base type ``D``: an integer or a string atom."""

    value: Atom

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, str)) or isinstance(self.value, bool):
            raise TypeError(f"base values must be int or str, got {self.value!r}")

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True, slots=True)
class BoolVal(Value):
    """A value of the boolean type ``B``."""

    value: bool

    def __post_init__(self) -> None:
        if not isinstance(self.value, bool):
            raise TypeError(f"boolean values must be bool, got {self.value!r}")

    def __repr__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True, slots=True)
class UnitVal(Value):
    """The unique value ``()`` of type ``unit``."""

    def __repr__(self) -> str:
        return "()"


class PairVal(Value):
    """A pair ``(fst, snd)`` of complex object values.

    A plain frozen class rather than a dataclass so the structural hash can
    be cached: pairs key compile-time caches, intern lookups, and the catalog's
    per-commit membership filters, and the recursive re-hash was a measurable
    slice of delta maintenance.
    """

    __slots__ = ("fst", "snd", "_hash")

    fst: Value
    snd: Value

    def __init__(self, fst: Value, snd: Value) -> None:
        if not isinstance(fst, Value) or not isinstance(snd, Value):
            raise TypeError("pair components must be complex object values")
        object.__setattr__(self, "fst", fst)
        object.__setattr__(self, "snd", snd)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("PairVal is immutable")

    def __reduce__(self) -> tuple:
        # Mirror SetVal: the immutability guard breaks pickle's default slot
        # restoration, so rebuild through the constructor.
        return (PairVal, (self.fst, self.snd))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PairVal)
                and self.fst == other.fst and self.snd == other.snd)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("PairVal", self.fst, self.snd))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"({self.fst!r}, {self.snd!r})"


class SetVal(Value):
    """A finite set of complex object values, in canonical form.

    The constructor accepts any iterable of :class:`Value`; duplicates are
    removed and the elements are stored sorted by :func:`sort_key`, so two
    ``SetVal`` instances are equal exactly when they denote the same set.
    """

    __slots__ = ("elements", "_hash")

    elements: tuple[Value, ...]

    def __init__(self, elements: Iterable[Value] = ()) -> None:
        elems = list(elements)
        for e in elems:
            if not isinstance(e, Value):
                raise TypeError(f"set elements must be complex object values, got {e!r}")
        unique = {sort_key(e): e for e in elems}
        canonical = tuple(unique[k] for k in sorted(unique))
        object.__setattr__(self, "elements", canonical)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("SetVal is immutable")

    def __reduce__(self) -> tuple:
        # The immutability guard breaks pickle's default slot restoration;
        # rebuild through the constructor instead (re-canonicalizing a
        # canonical tuple is the identity).  Process-pool shard workers ship
        # values this way.
        return (SetVal, (self.elements,))

    # -- container protocol -------------------------------------------------------
    def __iter__(self) -> Iterator[Value]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, item: object) -> bool:
        return isinstance(item, Value) and item in self.elements

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetVal) and self.elements == other.elements

    def __hash__(self) -> int:
        # Hashing a deep set re-hashes every element; nested sets make that
        # quadratic in the value's size.  Sets are immutable, so the hash is
        # computed once and cached (cache keys and intern lookups hit this).
        h = self._hash
        if h is None:
            h = hash(("SetVal", self.elements))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self.elements)
        return "{" + inner + "}"

    # -- set algebra ---------------------------------------------------------------
    def union(self, other: "SetVal") -> "SetVal":
        return SetVal(self.elements + other.elements)

    def intersection(self, other: "SetVal") -> "SetVal":
        other_keys = {sort_key(e) for e in other.elements}
        return SetVal(e for e in self.elements if sort_key(e) in other_keys)

    def difference(self, other: "SetVal") -> "SetVal":
        other_keys = {sort_key(e) for e in other.elements}
        return SetVal(e for e in self.elements if sort_key(e) not in other_keys)

    def is_subset(self, other: "SetVal") -> bool:
        other_keys = {sort_key(e) for e in other.elements}
        return all(sort_key(e) in other_keys for e in self.elements)


def canonical_set(elements: tuple["Value", ...]) -> "SetVal":
    """Build a SetVal from an already-canonical element tuple, skipping the sort.

    Only sound when ``elements`` is deduplicated and sorted by
    :func:`sort_key` -- a subsequence of a canonical tuple qualifies, as does
    a sorted merge of two of them.  The intern table and the catalog's
    incremental commit path maintain that invariant; everything else should
    go through the constructor.
    """
    s = SetVal.__new__(SetVal)
    object.__setattr__(s, "elements", elements)
    object.__setattr__(s, "_hash", None)
    return s


#: The empty set value (usable at any set type).
EMPTY_SET = SetVal()
#: The unit value.
UNIT_VAL = UnitVal()
#: Boolean constants.
TRUE = BoolVal(True)
FALSE = BoolVal(False)


# ---------------------------------------------------------------------------
# Ordering key
# ---------------------------------------------------------------------------

def sort_key(v: Value) -> tuple:
    """A total-order key on complex object values.

    This realises the lifting of the linear order on the base type to all
    complex object types (the paper cites Libkin-Wong [24] for this).  The
    order is:

    * across kinds, ``unit < booleans < base values < pairs < sets`` (any
      fixed convention works; queries only ever compare values of the same
      type, where the kind tag is constant);
    * booleans: ``false < true``;
    * base values: integers before strings, each with their natural order;
    * pairs: lexicographically;
    * sets: by length-then-lexicographic comparison of the sorted element
      sequences.  Comparing cardinalities first keeps the key cheap and is a
      legitimate linear order on canonical sets.
    """
    if isinstance(v, UnitVal):
        return (0,)
    if isinstance(v, BoolVal):
        return (1, v.value)
    if isinstance(v, BaseVal):
        if isinstance(v.value, int):
            return (2, 0, v.value)
        return (2, 1, v.value)
    if isinstance(v, PairVal):
        return (3, sort_key(v.fst), sort_key(v.snd))
    if isinstance(v, SetVal):
        return (4, len(v.elements), tuple(sort_key(e) for e in v.elements))
    raise TypeError(f"not a complex object value: {v!r}")


# ---------------------------------------------------------------------------
# Constructors and conversions
# ---------------------------------------------------------------------------

def base(value: Atom) -> BaseVal:
    """Construct a base value from an integer or string."""
    return BaseVal(value)


def boolean(value: bool) -> BoolVal:
    """Construct a boolean value."""
    return TRUE if value else FALSE


def pair(fst: Value, snd: Value) -> PairVal:
    """Construct a pair value."""
    return PairVal(fst, snd)


def mkset(elements: Iterable[Value] = ()) -> SetVal:
    """Construct a canonical set value from an iterable of values."""
    return SetVal(elements)


def singleton(v: Value) -> SetVal:
    """Construct the singleton set ``{v}``."""
    return SetVal((v,))


def tup(*components: Value) -> Value:
    """Right-nested tuple of one or more values, mirroring ``types.prod``.

    ``tup(a, b, c)`` is ``(a, (b, c))``; ``tup()`` is the unit value.
    """
    if not components:
        return UNIT_VAL
    if len(components) == 1:
        return components[0]
    return PairVal(components[0], tup(*components[1:]))


def untup(v: Value, arity: int) -> tuple[Value, ...]:
    """Flatten a right-nested tuple built by :func:`tup` back into components."""
    if arity < 1:
        raise ValueError("arity must be >= 1")
    if arity == 1:
        return (v,)
    if not isinstance(v, PairVal):
        raise TypeError(f"expected a pair while unnesting, got {v!r}")
    return (v.fst,) + untup(v.snd, arity - 1)


def from_python(obj: Any) -> Value:
    """Convert plain Python data into a complex object value.

    Conversion rules: ``bool`` -> boolean, ``int``/``str`` -> base value,
    ``tuple`` -> right-nested pairs (empty tuple -> unit), ``set`` /
    ``frozenset`` / ``list`` -> set value, and :class:`Value` instances pass
    through unchanged.
    """
    if isinstance(obj, Value):
        return obj
    if isinstance(obj, bool):
        return boolean(obj)
    if isinstance(obj, (int, str)):
        return base(obj)
    if isinstance(obj, tuple):
        if not obj:
            return UNIT_VAL
        return tup(*(from_python(x) for x in obj))
    if isinstance(obj, (set, frozenset, list)):
        return SetVal(from_python(x) for x in obj)
    raise TypeError(f"cannot convert {obj!r} to a complex object value")


def to_python(v: Value) -> Any:
    """Convert a complex object value back into plain Python data.

    Pairs become 2-tuples, sets become ``frozenset`` (elements converted
    recursively; unhashable results cannot occur because everything converts
    to hashable Python data), unit becomes the empty tuple.
    """
    cls = type(v)  # the value classes are final: one dispatch, no isinstance chain
    if cls is BaseVal or cls is BoolVal:
        return v.value
    if cls is PairVal:
        return (to_python(v.fst), to_python(v.snd))
    if cls is SetVal:
        return frozenset([to_python(e) for e in v.elements])
    if cls is UnitVal:
        return ()
    raise TypeError(f"not a complex object value: {v!r}")


# ---------------------------------------------------------------------------
# Types of values
# ---------------------------------------------------------------------------

def infer_type(v: Value, empty_set_elem: Type = UNIT) -> Type:
    """Infer the type of a value.

    The empty set is a value of every set type; ``empty_set_elem`` supplies
    the element type to report in that case (defaulting to ``unit``).  For
    non-empty sets the element types must all agree; otherwise a
    ``TypeError`` is raised.
    """
    if isinstance(v, BaseVal):
        return BASE
    if isinstance(v, BoolVal):
        return BOOL
    if isinstance(v, UnitVal):
        return UNIT
    if isinstance(v, PairVal):
        return ProdType(infer_type(v.fst, empty_set_elem), infer_type(v.snd, empty_set_elem))
    if isinstance(v, SetVal):
        if not v.elements:
            return SetType(empty_set_elem)
        elem_types = {infer_type(e, empty_set_elem) for e in v.elements}
        if len(elem_types) != 1:
            raise TypeError(f"heterogeneous set value: element types {elem_types}")
        return SetType(next(iter(elem_types)))
    raise TypeError(f"not a complex object value: {v!r}")


def check_type(v: Value, t: Type) -> bool:
    """True iff value ``v`` inhabits type ``t``.

    The empty set inhabits every set type; otherwise the check is structural.
    """
    if isinstance(t, BaseType):
        return isinstance(v, BaseVal)
    if isinstance(t, BoolType):
        return isinstance(v, BoolVal)
    if isinstance(t, UnitType):
        return isinstance(v, UnitVal)
    if isinstance(t, ProdType):
        return (
            isinstance(v, PairVal)
            and check_type(v.fst, t.fst)
            and check_type(v.snd, t.snd)
        )
    if isinstance(t, SetType):
        return isinstance(v, SetVal) and all(check_type(e, t.elem) for e in v.elements)
    raise TypeError(f"not a complex object type: {t!r}")


def require_type(v: Value, t: Type, context: str = "value") -> None:
    """Raise ``TypeError`` unless ``v`` inhabits ``t``."""
    if not check_type(v, t):
        raise TypeError(f"{context}: {v!r} does not have type {t!r}")


# ---------------------------------------------------------------------------
# Measures and generic renaming
# ---------------------------------------------------------------------------

def value_size(v: Value) -> int:
    """Number of nodes in the value (atoms, pairs, set braces and elements).

    This is the measure used in the complexity experiments (e.g. the
    exponential blow-up of Proposition 6.3): it is within a constant factor of
    the length of any reasonable string encoding of the value.
    """
    if isinstance(v, (BaseVal, BoolVal, UnitVal)):
        return 1
    if isinstance(v, PairVal):
        return 1 + value_size(v.fst) + value_size(v.snd)
    if isinstance(v, SetVal):
        return 1 + sum(value_size(e) for e in v.elements)
    raise TypeError(f"not a complex object value: {v!r}")


def set_cardinality(v: Value) -> int:
    """Cardinality of a set value; raises ``TypeError`` on non-sets."""
    if not isinstance(v, SetVal):
        raise TypeError(f"expected a set value, got {v!r}")
    return len(v.elements)


def active_domain(v: Value) -> frozenset[Atom]:
    """The set of base atoms occurring anywhere inside the value."""
    atoms: set[Atom] = set()
    _collect_atoms(v, atoms)
    return frozenset(atoms)


def _collect_atoms(v: Value, out: set[Atom]) -> None:
    if isinstance(v, BaseVal):
        out.add(v.value)
    elif isinstance(v, PairVal):
        _collect_atoms(v.fst, out)
        _collect_atoms(v.snd, out)
    elif isinstance(v, SetVal):
        for e in v.elements:
            _collect_atoms(e, out)


def rename_atoms(v: Value, mapping: dict[Atom, Atom]) -> Value:
    """Apply an atom renaming to every base value inside ``v``.

    Atoms missing from the mapping are left unchanged.  When the mapping is an
    order-preserving injection this realises a *morphism* of base-type
    interpretations in the sense of Section 5; queries must commute with such
    renamings (genericity), which is what the property tests check.
    """
    if isinstance(v, BaseVal):
        return BaseVal(mapping.get(v.value, v.value))
    if isinstance(v, (BoolVal, UnitVal)):
        return v
    if isinstance(v, PairVal):
        return PairVal(rename_atoms(v.fst, mapping), rename_atoms(v.snd, mapping))
    if isinstance(v, SetVal):
        return SetVal(rename_atoms(e, mapping) for e in v.elements)
    raise TypeError(f"not a complex object value: {v!r}")
