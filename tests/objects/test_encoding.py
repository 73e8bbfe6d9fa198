"""Tests for the Section 5 string encodings of complex objects."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.objects.encoding import (
    ALPHABET,
    BLANK,
    EncodingError,
    atom_codes_for,
    compact_blanks,
    decode,
    element_starts,
    encode,
    encoded_length_bits,
    encodings_equal,
    from_bits,
    match_parentheses,
    minimal_encoding,
    remove_duplicates,
    roundtrip,
    scatter_blanks,
    strip_blanks,
    to_bits,
    top_level_elements,
    dumps_value,
    from_jsonable,
    loads_value,
    row_from_jsonable,
    row_to_jsonable,
    to_jsonable,
)
from repro.objects.types import parse_type
from repro.objects.values import (
    FALSE,
    TRUE,
    BoolVal,
    UnitVal,
    base,
    from_python,
    mkset,
    pair,
    to_python,
)

#: Nested complex object values: every kind, sets of any element kind.
VALUES = st.recursive(
    st.integers(-3, 40).map(base) | st.text(max_size=2).map(base)
    | st.booleans().map(BoolVal) | st.just(UnitVal()),
    lambda kids: st.tuples(kids, kids).map(lambda p: pair(*p))
    | st.lists(kids, max_size=4).map(mkset),
    max_leaves=16,
)

#: JSON data of the wire's shapes plus junk: floats, wrong arities, bad set objects.
JSONISH = st.recursive(
    st.integers(-3, 9) | st.booleans() | st.none() | st.just("a") | st.floats(0, 1),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["s", "x"]), kids | st.lists(kids), max_size=2),
    max_leaves=12,
)


class TestEncode:
    def test_alphabet_has_eight_symbols(self):
        assert len(ALPHABET) == 8
        assert len(set(ALPHABET)) == 8

    def test_base_value_binary(self):
        assert encode(base(5)) == "101"
        assert encode(base(0)) == "0"

    def test_booleans(self):
        assert encode(TRUE) == "1"
        assert encode(FALSE) == "0"

    def test_unit(self):
        assert encode(UnitVal()) == "()"

    def test_pair(self):
        assert encode(pair(base(1), base(2))) == "(1,10)"

    def test_set_no_duplicates_in_encoding(self):
        enc = encode(from_python({1, 2, 3}))
        inner = enc[1:-1].split(",")
        assert len(inner) == len(set(inner))

    def test_string_atom_requires_codes(self):
        with pytest.raises(EncodingError):
            encode(base("x"))

    def test_negative_code_rejected(self):
        with pytest.raises(EncodingError):
            encode(base(1), {1: -1})

    def test_minimal_encoding_renumbers_atoms(self):
        v = from_python({100, 200})
        assert minimal_encoding(v) == "{0,1}"

    def test_atom_codes_preserve_order(self):
        codes = atom_codes_for(from_python({30, 10, 20}))
        assert codes == {10: 0, 20: 1, 30: 2}


class TestBits:
    def test_three_bits_per_symbol(self):
        assert len(to_bits("{}")) == 6

    def test_bits_roundtrip(self):
        s = "{(0,1),(1,10)}"
        assert from_bits(to_bits(s)) == s

    def test_from_bits_rejects_bad_length(self):
        with pytest.raises(EncodingError):
            from_bits("01")

    def test_encoded_length_bits(self):
        v = from_python({1})
        assert encoded_length_bits(v) == 3 * len(minimal_encoding(v))


class TestDecode:
    @pytest.mark.parametrize(
        "data,type_text",
        [
            (frozenset({1, 2, 3}), "{D}"),
            (frozenset({(1, 2), (3, 4)}), "{D x D}"),
            (frozenset({(1, frozenset({2, 3}))}), "{D x {D}}"),
            ((1, True), "D x B"),
            (frozenset(), "{D}"),
        ],
    )
    def test_roundtrip(self, data, type_text):
        v = from_python(data)
        t = parse_type(type_text)
        assert roundtrip(v, t) == v

    def test_decode_ignores_blanks(self):
        t = parse_type("{D}")
        assert decode("{_0_,_1_}", t) == from_python({0, 1})

    def test_decode_rejects_duplicates(self):
        with pytest.raises(EncodingError):
            decode("{1,1}", parse_type("{D}"))

    def test_decode_rejects_truncated(self):
        with pytest.raises(EncodingError):
            decode("{1,10", parse_type("{D}"))

    def test_decode_rejects_trailing(self):
        with pytest.raises(EncodingError):
            decode("{1}1", parse_type("{D}"))

    def test_decode_with_atom_map(self):
        t = parse_type("{D}")
        assert decode("{0,1}", t, {0: 100, 1: 200}) == from_python({100, 200})

    def test_encodings_equal(self):
        t = parse_type("{D}")
        assert encodings_equal("{0,1}", "{_1_,0}", t)
        assert not encodings_equal("{0,1}", "{0}", t)


class TestBlanks:
    def test_scatter_then_strip(self):
        enc = "{10,11}"
        blanked = scatter_blanks(enc, [0, 3, 7])
        assert strip_blanks(blanked) == enc

    def test_scatter_never_splits_numbers(self):
        enc = "{10,11}"
        blanked = scatter_blanks(enc, [2])
        # position 2 falls inside "10"; the blank must not split the digits
        assert "1_0" not in blanked and "1_1" not in blanked

    def test_compact_blanks_moves_to_end(self):
        assert compact_blanks("{_1_,_0_}") == "{1,0}" + BLANK * 4

    def test_compact_preserves_length(self):
        s = "{_1_,_0_}"
        assert len(compact_blanks(s)) == len(s)


class TestStringOps:
    def test_match_parentheses_partners(self):
        m = match_parentheses("{(0,1)}")
        assert m.partner[0] == 6
        assert m.partner[1] == 5

    def test_match_parentheses_depth(self):
        m = match_parentheses("{(0,1)}")
        assert m.depth[0] == 1
        assert m.depth[1] == 2

    def test_match_rejects_unbalanced(self):
        with pytest.raises(EncodingError):
            match_parentheses("{(0,1)")
        with pytest.raises(EncodingError):
            match_parentheses("{0)}")

    def test_element_starts_flat_set(self):
        marks = element_starts("{0,1,10}")
        assert marks == (0, 1, 0, 1, 0, 1, 0, 0)

    def test_element_starts_with_blanks(self):
        marks = element_starts("{_0,1}")
        assert marks[2] == 1 and marks[4] == 1

    def test_top_level_elements(self):
        assert top_level_elements("{(0,1),(1,10)}") == ["(0,1)", "(1,10)"]

    def test_top_level_elements_empty_set(self):
        assert top_level_elements("{}") == []

    def test_remove_duplicates_blanks_out_copies(self):
        result = remove_duplicates("{10,10,11}")
        assert strip_blanks(result) in ("{10,11}", "{10,11}")
        assert len(result) == len("{10,10,11}")

    def test_remove_duplicates_keeps_valid_decoding(self):
        t = parse_type("{D}")
        assert decode(remove_duplicates("{10,10,11}"), t) == from_python({2, 3})

    def test_remove_duplicates_no_op_when_distinct(self):
        assert remove_duplicates("{0,1}") == "{0,1}"


class TestJsonWireEncoding:
    """The JSON value codec the network service frames rows with."""

    CASES = [
        TRUE,
        FALSE,
        UnitVal(),
        base(0),
        base(41),
        base("atom"),
        pair(base(1), base(2)),
        pair(pair(base(1), TRUE), UnitVal()),
        mkset(),
        from_python({1, 2, 3}),
        from_python({(1, 2), (3, 4)}),
        from_python({frozenset({1}), frozenset({2, 3})}),
        from_python((frozenset({("a", 1)}), "b")),
    ]

    def test_round_trip(self):
        for v in self.CASES:
            assert from_jsonable(to_jsonable(v)) == v
            assert loads_value(dumps_value(v)) == v

    def test_jsonable_is_pure_json(self):
        import json as _json

        for v in self.CASES:
            _json.dumps(to_jsonable(v))  # must not raise

    def test_bool_int_disambiguation(self):
        # True/1 and False/0 are distinct values and must stay distinct on
        # the wire even though python bools are ints.
        assert to_jsonable(TRUE) is True
        assert to_jsonable(base(1)) == 1 and to_jsonable(base(1)) is not True
        assert from_jsonable(True) == TRUE != from_jsonable(1)
        assert from_jsonable(False) == FALSE != from_jsonable(0)

    def test_canonical_text_is_order_free(self):
        a = from_python({(3, 4), (1, 2)})
        b = from_python({(1, 2), (3, 4)})
        assert dumps_value(a) == dumps_value(b)

    def test_noncanonical_set_text_still_decodes(self):
        assert loads_value('{"s":[3,1,2,2]}') == from_python({1, 2, 3})

    def test_row_round_trip(self):
        # () is unit's python shape (to_python(UnitVal()) == ()).
        rows = [(1, 2), "x", True, (), frozenset({(1, 2)}), ((1, "a"), False)]
        for row in rows:
            assert row_from_jsonable(row_to_jsonable(row)) == row

    def test_junk_rejected(self):
        for junk in (
            [1, 2, 3],          # not a pair
            [1],                # not a pair either
            {"t": []},          # wrong set key
            {"s": [], "x": 1},  # extra key
            {"s": 7},           # set body must be a list
            1.5,                # no float atoms in the model
            [1, {"s": [2.5]}],  # junk nested in a pair
        ):
            with pytest.raises(EncodingError):
                from_jsonable(junk)
            with pytest.raises(EncodingError):
                row_from_jsonable(junk)

    @pytest.mark.service
    @given(VALUES)
    def test_row_decode_matches_the_value_path(self, v):
        assert row_from_jsonable(to_jsonable(v)) == to_python(v)

    @pytest.mark.service
    @given(JSONISH)
    def test_row_decode_rejects_exactly_what_from_jsonable_rejects(self, obj):
        try:
            want = to_python(from_jsonable(obj))
        except EncodingError:
            with pytest.raises(EncodingError):
                row_from_jsonable(obj)
        else:
            assert row_from_jsonable(obj) == want

    def test_bad_json_text_rejected(self):
        with pytest.raises(EncodingError):
            loads_value("{not json")
