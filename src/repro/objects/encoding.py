"""String encodings of complex objects (Section 5 of the paper).

The paper encodes complex objects as strings over the eight-symbol alphabet::

    A = { 0, 1, {, }, (, ), comma, blank }

with the rules:

* base values (first mapped to natural numbers, order-preservingly) are
  written in binary;
* ``true`` and ``false`` are written ``1`` and ``0``;
* the unit value is written ``()``;
* a pair is written ``(X1,X2)``;
* a set is written ``{X1,...,Xm}`` with **no duplicates** among the element
  encodings;
* blanks may be scattered arbitrarily inside an encoding, except inside the
  binary numbers.

Because blanks make the encoding non-unique the paper works with an *encoding
relation* ``x ~ X``; the **minimal encoding** is the one without blanks and
with the atoms of ``x`` renumbered ``0 .. m-1``.  Encodings are ultimately
strings of bits, three bits per symbol.

Besides the paper's string alphabet, this module carries the **JSON value
encoding** the network query service (:mod:`repro.service`) speaks on the
wire: :func:`to_jsonable` / :func:`from_jsonable` map complex object values
to plain JSON data and back, and :func:`dumps_value` / :func:`loads_value`
produce the *canonical* JSON text -- because set values are stored in
canonical form (deduplicated, sorted by the lifted order) and pairs encode
positionally, two equal values always serialize to byte-identical JSON, so
encodings can key caches and cross process boundaries deterministically.

This module also implements the encoding and decoding functions, the minimal
encoding, the bit-level view, and the string manipulations the circuit
construction of Section 7.2 relies on:

* :func:`match_parentheses` -- Lemma 7.4 (identify matching bracket pairs;
  possible in constant depth because the nesting depth is bounded by the
  type);
* :func:`element_starts` -- Lemma 7.5 (mark the first position of every
  top-level element of a set or pair encoding);
* :func:`remove_duplicates` -- duplicate elimination by overwriting with
  blanks (a single "parallel" comparison pass, AC^0 in the paper);
* :func:`compact_blanks` -- moving blanks to the end (needs counting, AC^1 in
  the paper).

The pure-Python versions here are the *reference semantics*; the circuit
substrate in :mod:`repro.circuits.string_ops` builds actual bounded fan-in
circuit families for the same operations and is tested against these
functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from .order import co_sorted
from .types import BaseType, BoolType, ProdType, SetType, Type, UnitType
from .values import (
    Atom,
    BaseVal,
    BoolVal,
    PairVal,
    SetVal,
    UnitVal,
    Value,
    active_domain,
    from_python,
)

#: The blank symbol.  The paper writes "blank"; we use an underscore so that
#: encodings remain printable single-character strings.
BLANK = "_"
#: The comma symbol.
COMMA = ","

#: The eight-symbol alphabet, in the fixed order used for the 3-bit codes.
ALPHABET: tuple[str, ...] = ("0", "1", "{", "}", "(", ")", COMMA, BLANK)

#: Three-bit code of each symbol (Section 5: "representing each of the eight
#: symbols in A with three bits").
SYMBOL_TO_BITS: dict[str, str] = {sym: format(i, "03b") for i, sym in enumerate(ALPHABET)}
BITS_TO_SYMBOL: dict[str, str] = {bits: sym for sym, bits in SYMBOL_TO_BITS.items()}


class EncodingError(ValueError):
    """Raised when a string is not a valid encoding of the expected type."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def atom_codes_for(v: Value) -> dict[Atom, int]:
    """The order-preserving renumbering of the atoms of ``v`` to ``0..m-1``.

    This is the map used by *minimal* encodings: the active domain of the
    value, sorted by the base order, is assigned consecutive natural numbers.
    """
    atoms = active_domain(v)
    ordered = co_sorted(BaseVal(a) for a in atoms)
    return {bv.value: i for i, bv in enumerate(ordered)}  # type: ignore[union-attr]


def encode(v: Value, atom_codes: dict[Atom, int] | None = None) -> str:
    """Encode a complex object as a string over the eight-symbol alphabet.

    ``atom_codes`` maps base atoms to natural numbers; when omitted, integer
    atoms must be non-negative and are used as their own codes (string atoms
    then require an explicit map).  The result contains no blanks; arbitrary
    blanks may be inserted afterwards (see :func:`scatter_blanks`) and the
    result still encodes the same object.
    """
    if isinstance(v, BaseVal):
        code = _atom_code(v.value, atom_codes)
        return format(code, "b")
    if isinstance(v, BoolVal):
        return "1" if v.value else "0"
    if isinstance(v, UnitVal):
        return "()"
    if isinstance(v, PairVal):
        return f"({encode(v.fst, atom_codes)},{encode(v.snd, atom_codes)})"
    if isinstance(v, SetVal):
        parts = [encode(e, atom_codes) for e in v.elements]
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"not a complex object value: {v!r}")


def minimal_encoding(v: Value) -> str:
    """The minimal encoding of ``v``: no blanks, atoms renumbered ``0..m-1``."""
    return encode(v, atom_codes_for(v))


def _atom_code(atom: Atom, atom_codes: dict[Atom, int] | None) -> int:
    if atom_codes is not None:
        if atom not in atom_codes:
            raise EncodingError(f"atom {atom!r} missing from the atom code map")
        code = atom_codes[atom]
    elif isinstance(atom, int):
        code = atom
    else:
        raise EncodingError(
            f"string atom {atom!r} requires an explicit atom code map"
        )
    if code < 0:
        raise EncodingError(f"atom code for {atom!r} is negative: {code}")
    return code


def scatter_blanks(encoding: str, positions: Iterable[int]) -> str:
    """Insert blanks at the given gap positions of an encoding.

    ``positions`` are indices into the gaps of the string (0 = before the
    first symbol, ``len`` = after the last); the same gap may be listed
    multiple times to insert several blanks.  Blanks are never inserted in the
    middle of a binary number -- positions falling inside a number are shifted
    to its end, matching the paper's restriction.
    """
    gaps = sorted(positions)
    out: list[str] = []
    gap_iter = iter(gaps)
    next_gap = next(gap_iter, None)
    for i, ch in enumerate(encoding + "\0"):
        while next_gap is not None and next_gap <= i:
            if not (out and out[-1] in "01" and i < len(encoding) and encoding[i] in "01"):
                out.append(BLANK)
                next_gap = next(gap_iter, None)
            else:
                # Inside a binary number: postpone this blank to the next gap.
                next_gap = i + 1
                break
        if ch != "\0":
            out.append(ch)
    return "".join(out)


def to_bits(encoding: str) -> str:
    """Translate a symbol string into its bit-level form, three bits per symbol."""
    try:
        return "".join(SYMBOL_TO_BITS[ch] for ch in encoding)
    except KeyError as exc:  # pragma: no cover - defensive
        raise EncodingError(f"symbol {exc.args[0]!r} is not in the alphabet") from exc


def from_bits(bits: str) -> str:
    """Inverse of :func:`to_bits`; raises on length not divisible by 3."""
    if len(bits) % 3 != 0:
        raise EncodingError("bit string length must be a multiple of 3")
    out = []
    for i in range(0, len(bits), 3):
        chunk = bits[i : i + 3]
        if chunk not in BITS_TO_SYMBOL:
            raise EncodingError(f"invalid 3-bit code {chunk!r}")
        out.append(BITS_TO_SYMBOL[chunk])
    return "".join(out)


def encoded_length_bits(v: Value) -> int:
    """Length in bits of the minimal encoding of ``v``."""
    return 3 * len(minimal_encoding(v))


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def decode(encoding: str, t: Type, atom_decode: dict[int, Atom] | None = None) -> Value:
    """Decode a string over the alphabet into a value of type ``t``.

    Blanks scattered through the encoding are ignored (as the encoding
    relation allows).  ``atom_decode`` optionally maps the natural-number
    codes back to original atoms; without it the decoded atoms are the codes
    themselves.  Raises :class:`EncodingError` on malformed input.
    """
    stripped = encoding.replace(BLANK, "")
    value, rest = _decode_at(stripped, 0, t, atom_decode)
    if rest != len(stripped):
        raise EncodingError(f"trailing symbols after decoding: {stripped[rest:]!r}")
    return value


def _decode_at(
    s: str, pos: int, t: Type, atom_decode: dict[int, Atom] | None
) -> tuple[Value, int]:
    if isinstance(t, BaseType):
        end = pos
        while end < len(s) and s[end] in "01":
            end += 1
        if end == pos:
            raise EncodingError(f"expected a binary number at position {pos} of {s!r}")
        code = int(s[pos:end], 2)
        atom: Atom = atom_decode.get(code, code) if atom_decode else code
        return BaseVal(atom), end
    if isinstance(t, BoolType):
        if pos >= len(s) or s[pos] not in "01":
            raise EncodingError(f"expected a boolean at position {pos} of {s!r}")
        return BoolVal(s[pos] == "1"), pos + 1
    if isinstance(t, UnitType):
        if s[pos : pos + 2] != "()":
            raise EncodingError(f"expected '()' at position {pos} of {s!r}")
        return UnitVal(), pos + 2
    if isinstance(t, ProdType):
        if pos >= len(s) or s[pos] != "(":
            raise EncodingError(f"expected '(' at position {pos} of {s!r}")
        fst, pos = _decode_at(s, pos + 1, t.fst, atom_decode)
        if pos >= len(s) or s[pos] != COMMA:
            raise EncodingError(f"expected ',' at position {pos} of {s!r}")
        snd, pos = _decode_at(s, pos + 1, t.snd, atom_decode)
        if pos >= len(s) or s[pos] != ")":
            raise EncodingError(f"expected ')' at position {pos} of {s!r}")
        return PairVal(fst, snd), pos + 1
    if isinstance(t, SetType):
        if pos >= len(s) or s[pos] != "{":
            raise EncodingError(f"expected '{{' at position {pos} of {s!r}")
        pos += 1
        elems: list[Value] = []
        if pos < len(s) and s[pos] == "}":
            return SetVal(), pos + 1
        while True:
            elem, pos = _decode_at(s, pos, t.elem, atom_decode)
            elems.append(elem)
            if pos >= len(s):
                raise EncodingError("unterminated set encoding")
            if s[pos] == COMMA:
                pos += 1
                continue
            if s[pos] == "}":
                if len({repr(e) for e in elems}) != len(elems):
                    raise EncodingError("duplicate elements in set encoding")
                return SetVal(elems), pos + 1
            raise EncodingError(f"expected ',' or '}}' at position {pos} of {s!r}")
    raise TypeError(f"not a complex object type: {t!r}")


def is_valid_encoding(encoding: str, t: Type) -> bool:
    """True iff the string is a valid encoding of some value of type ``t``."""
    try:
        decode(encoding, t)
    except EncodingError:
        return False
    return True


# ---------------------------------------------------------------------------
# String manipulations used by the circuit construction (Lemmas 7.4 - 7.6)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParenMatching:
    """Result of :func:`match_parentheses`.

    ``partner[i]`` is the index of the symbol matching the bracket or
    parenthesis at position ``i`` (and ``-1`` for non-bracket positions);
    ``depth[i]`` is the nesting depth of position ``i`` (number of enclosing
    open brackets, counting an opening symbol itself).
    """

    partner: tuple[int, ...]
    depth: tuple[int, ...]


def match_parentheses(encoding: str) -> ParenMatching:
    """Identify matching pairs of ``{}``/``()`` in an encoding (Lemma 7.4).

    The nesting depth of any valid encoding is bounded by a constant depending
    only on the type, which is why the paper can do this with circuits of
    constant depth; here we simply scan with a stack and also report the depth
    profile, which the circuit construction uses to select "outermost" commas.
    Raises :class:`EncodingError` on unbalanced brackets.
    """
    partner = [-1] * len(encoding)
    depth = [0] * len(encoding)
    stack: list[int] = []
    current = 0
    for i, ch in enumerate(encoding):
        if ch in "{(":
            stack.append(i)
            current += 1
            depth[i] = current
        elif ch in "})":
            if not stack:
                raise EncodingError(f"unmatched {ch!r} at position {i}")
            j = stack.pop()
            expected = "}" if encoding[j] == "{" else ")"
            if ch != expected:
                raise EncodingError(f"mismatched bracket at positions {j} and {i}")
            partner[i] = j
            partner[j] = i
            depth[i] = current
            current -= 1
        else:
            depth[i] = current
    if stack:
        raise EncodingError(f"unmatched {encoding[stack[-1]]!r} at position {stack[-1]}")
    return ParenMatching(tuple(partner), tuple(depth))


def element_starts(encoding: str) -> tuple[int, ...]:
    """Mark the start positions of the top-level elements of a set or pair.

    Lemma 7.5: for an encoding ``{X1,...,Xm}`` (or ``(X1,X2)``), return a
    0/1 vector with a ``1`` exactly at the first non-blank position of each
    ``Xi``.  The marks are computed from the outermost commas, i.e. the commas
    at nesting depth 1.
    """
    if not encoding:
        return ()
    matching = match_parentheses(encoding)
    marks = [0] * len(encoding)
    first = encoding[0]
    if first not in "{(":
        return tuple(marks)
    boundaries = [0]
    boundaries.extend(
        i for i, ch in enumerate(encoding) if ch == COMMA and matching.depth[i] == 1
    )
    closing = matching.partner[0]
    for b in boundaries:
        j = b + 1
        while j < closing and encoding[j] == BLANK:
            j += 1
        if j < closing:
            marks[j] = 1
    return tuple(marks)


def top_level_elements(encoding: str) -> list[str]:
    """Split a set/pair encoding into the encodings of its top-level elements."""
    if not encoding or encoding[0] not in "{(":
        raise EncodingError("expected a set or pair encoding")
    matching = match_parentheses(encoding)
    closing = matching.partner[0]
    parts: list[str] = []
    start = 1
    for i in range(1, closing):
        if encoding[i] == COMMA and matching.depth[i] == 1:
            parts.append(encoding[start:i])
            start = i + 1
    last = encoding[start:closing]
    if last.strip(BLANK) or parts:
        parts.append(last)
    return [p for p in parts if p.strip(BLANK)]


def remove_duplicates(encoding: str) -> str:
    """Blank out duplicate elements of a top-level set encoding.

    This is the paper's duplicate elimination: each element compares itself
    with every earlier element (all comparisons are independent, hence a
    single parallel step / constant-depth circuit) and is overwritten with
    blanks when an equal earlier element exists.  Commas adjacent to removed
    elements are blanked as well to keep the result a valid encoding.
    """
    if not encoding or encoding[0] != "{":
        return encoding
    matching = match_parentheses(encoding)
    closing = matching.partner[0]
    spans: list[tuple[int, int]] = []  # [start, end) spans of elements, incl. leading comma
    start = 1
    for i in range(1, closing):
        if encoding[i] == COMMA and matching.depth[i] == 1:
            spans.append((start, i))
            start = i
    spans.append((start, closing))

    def body(span: tuple[int, int]) -> str:
        s, e = span
        text = encoding[s:e]
        return text.lstrip(COMMA).replace(BLANK, "")

    chars = list(encoding)
    seen: list[str] = []
    for span in spans:
        b = body(span)
        if not b:
            continue
        if b in seen:
            for i in range(span[0], span[1]):
                chars[i] = BLANK
        else:
            seen.append(b)
    return "".join(chars)


def compact_blanks(encoding: str) -> str:
    """Move every blank to the end of the string, preserving other symbols.

    The paper notes that blank removal (really: compaction) needs counting and
    is therefore an AC^1 operation, in contrast to duplicate elimination which
    is AC^0.  The reference semantics is just a stable partition.
    """
    kept = [ch for ch in encoding if ch != BLANK]
    blanks = len(encoding) - len(kept)
    return "".join(kept) + BLANK * blanks


def strip_blanks(encoding: str) -> str:
    """Drop all blanks (shrinking the string)."""
    return encoding.replace(BLANK, "")


def encodings_equal(a: str, b: str, t: Type) -> bool:
    """Equality of the objects denoted by two encodings of type ``t`` (Lemma 7.6)."""
    return decode(a, t) == decode(b, t)


def roundtrip(v: Value, t: Type) -> Value:
    """Encode minimally and decode again; used as a sanity check in tests."""
    codes = atom_codes_for(v)
    reverse = {code: atom for atom, code in codes.items()}
    return decode(encode(v, codes), t, reverse)


# ---------------------------------------------------------------------------
# JSON value encoding (the wire format of repro.service)
# ---------------------------------------------------------------------------
#
# The mapping is chosen so every JSON shape decodes unambiguously:
#
# * integer atoms     -> JSON numbers
# * string atoms      -> JSON strings
# * booleans          -> JSON booleans
# * the unit value    -> JSON null
# * pairs             -> two-element JSON arrays ``[fst, snd]``
# * sets              -> one-key JSON objects ``{"s": [e1, ..., en]}``
#
# Canonicity comes for free from the value representation: ``SetVal`` stores
# its elements deduplicated and sorted by the lifted order (sort_key), the
# encoder emits them in that order, and pairs are positional -- so equal
# values produce byte-identical text under ``dumps_value``, with no
# set/pair ordering left to the whims of construction order.

#: The tag key of the set encoding (a one-key object keeps sets distinct
#: from the two-element arrays that encode pairs).
_JSON_SET_KEY = "s"


def to_jsonable(v: Value) -> Any:
    """Map a complex object value to plain JSON-serializable python data."""
    if isinstance(v, BoolVal):
        return v.value
    if isinstance(v, BaseVal):
        return v.value
    if isinstance(v, UnitVal):
        return None
    if isinstance(v, PairVal):
        return [to_jsonable(v.fst), to_jsonable(v.snd)]
    if isinstance(v, SetVal):
        return {_JSON_SET_KEY: [to_jsonable(e) for e in v.elements]}
    raise TypeError(f"not a complex object value: {v!r}")


def from_jsonable(obj: Any) -> Value:
    """Inverse of :func:`to_jsonable`; raises :class:`EncodingError` on junk."""
    if isinstance(obj, bool):
        return BoolVal(obj)
    if isinstance(obj, int):
        return BaseVal(obj)
    if isinstance(obj, str):
        return BaseVal(obj)
    if obj is None:
        return UnitVal()
    if isinstance(obj, list) and len(obj) == 2:
        return PairVal(from_jsonable(obj[0]), from_jsonable(obj[1]))
    if _is_set_encoding(obj):
        return SetVal(from_jsonable(e) for e in obj[_JSON_SET_KEY])
    raise _junk(obj)


def _is_set_encoding(obj: Any) -> bool:
    return (isinstance(obj, dict) and len(obj) == 1
            and isinstance(obj.get(_JSON_SET_KEY), list))


def _junk(obj: Any) -> EncodingError:
    """The error for a JSON shape no value encodes to."""
    if isinstance(obj, list):
        return EncodingError(
            f"pair encodings are two-element arrays, got {len(obj)} elements"
        )
    if isinstance(obj, dict):
        return EncodingError(
            f"set encodings are {{{_JSON_SET_KEY!r}: [...]}} objects, got {obj!r}"
        )
    return EncodingError(f"not a JSON value encoding: {obj!r}")


def dumps_value(v: Value) -> str:
    """The canonical JSON text of a value (compact, deterministic)."""
    return json.dumps(to_jsonable(v), separators=(",", ":"), sort_keys=True)


def loads_value(text: str) -> Value:
    """Parse canonical (or any :func:`to_jsonable`-shaped) JSON text."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EncodingError(f"invalid JSON value encoding: {exc}") from exc
    return from_jsonable(obj)


def row_to_jsonable(row: Any) -> Any:
    """JSON-encode one cursor row (plain python data, e.g. tuples/frozensets)."""
    return to_jsonable(from_python(row))


def row_from_jsonable(obj: Any) -> Any:
    """Decode a JSON row back to the plain python shape cursors yield.

    Equal to ``to_python(from_jsonable(obj))``, raising the same
    :class:`EncodingError` on junk, but builds no value tree per row.
    """
    if isinstance(obj, list) and len(obj) == 2:
        return (row_from_jsonable(obj[0]), row_from_jsonable(obj[1]))
    if isinstance(obj, (int, str)):  # bool included
        return obj
    if obj is None:
        return ()
    if _is_set_encoding(obj):
        return frozenset([row_from_jsonable(e) for e in obj[_JSON_SET_KEY]])
    raise _junk(obj)
