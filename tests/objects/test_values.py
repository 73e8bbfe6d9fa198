"""Tests for complex object values: canonicity, conversions, typing, measures."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects.types import BASE, BOOL, ProdType, SetType, parse_type
from repro.objects.values import (
    EMPTY_SET,
    FALSE,
    TRUE,
    BaseVal,
    BoolVal,
    PairVal,
    SetVal,
    UnitVal,
    active_domain,
    base,
    boolean,
    check_type,
    from_python,
    infer_type,
    mkset,
    pair,
    rename_atoms,
    rows_of,
    singleton,
    to_python,
    tup,
    untup,
    value_size,
)


class TestConstruction:
    def test_base_accepts_int_and_str(self):
        assert base(3).value == 3
        assert base("a").value == "a"

    def test_base_rejects_bool(self):
        with pytest.raises(TypeError):
            BaseVal(True)

    def test_base_rejects_float(self):
        with pytest.raises(TypeError):
            BaseVal(1.5)

    def test_bool_constants(self):
        assert boolean(True) is TRUE
        assert boolean(False) is FALSE

    def test_pair_requires_values(self):
        with pytest.raises(TypeError):
            PairVal(1, base(2))  # type: ignore[arg-type]

    def test_set_rejects_non_values(self):
        with pytest.raises(TypeError):
            SetVal([1, 2])  # type: ignore[list-item]


class TestCanonicalSets:
    def test_duplicates_removed(self):
        s = mkset([base(1), base(1), base(2)])
        assert len(s) == 2

    def test_order_insensitive_equality(self):
        assert mkset([base(2), base(1)]) == mkset([base(1), base(2)])

    def test_hash_consistency(self):
        assert hash(mkset([base(2), base(1)])) == hash(mkset([base(1), base(2)]))

    def test_elements_are_sorted(self):
        s = mkset([base(3), base(1), base(2)])
        assert [e.value for e in s] == [1, 2, 3]

    def test_membership(self):
        s = mkset([base(1), base(2)])
        assert base(1) in s
        assert base(5) not in s

    def test_union_intersection_difference(self):
        a = mkset([base(1), base(2)])
        b = mkset([base(2), base(3)])
        assert a.union(b) == mkset([base(1), base(2), base(3)])
        assert a.intersection(b) == singleton(base(2))
        assert a.difference(b) == singleton(base(1))

    def test_subset(self):
        assert singleton(base(1)).is_subset(mkset([base(1), base(2)]))
        assert not mkset([base(1), base(3)]).is_subset(mkset([base(1), base(2)]))

    def test_nested_sets_deduplicate(self):
        s = mkset([mkset([base(1), base(2)]), mkset([base(2), base(1)])])
        assert len(s) == 1


class TestConversions:
    def test_from_python_scalars(self):
        assert from_python(5) == base(5)
        assert from_python(True) == TRUE
        assert from_python("x") == base("x")

    def test_from_python_tuple_nesting(self):
        assert from_python((1, 2, 3)) == tup(base(1), base(2), base(3))

    def test_from_python_empty_tuple_is_unit(self):
        assert from_python(()) == UnitVal()

    def test_from_python_set(self):
        v = from_python({1, 2})
        assert isinstance(v, SetVal)
        assert len(v) == 2

    def test_roundtrip(self):
        data = frozenset({(1, True), (2, False)})
        assert to_python(from_python(data)) == data

    def test_from_python_rejects_dict(self):
        with pytest.raises(TypeError):
            from_python({"a": 1})

    def test_tup_untup(self):
        v = tup(base(1), base(2), base(3))
        assert untup(v, 3) == (base(1), base(2), base(3))

    def test_untup_wrong_arity(self):
        with pytest.raises(TypeError):
            untup(base(1), 2)


ATOMS = st.one_of(st.integers(-3, 3).map(base), st.sampled_from("ab").map(base))
SCALARS = st.one_of(ATOMS, st.booleans().map(boolean), st.just(UnitVal()))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: pair(*t)),
        st.lists(inner, max_size=3).map(SetVal),
    ),
    max_leaves=8,
)
#: Chunks of each shape ``rows_of`` has a getter for, and of any shape.
CHUNKS = st.one_of(
    st.lists(st.tuples(ATOMS, ATOMS).map(lambda t: pair(*t)), max_size=6),
    st.lists(st.tuples(ATOMS, st.lists(ATOMS, max_size=3).map(SetVal))
             .map(lambda t: pair(*t)), max_size=6),
    st.lists(st.one_of(ATOMS, st.booleans().map(boolean)), max_size=6),
    st.lists(VALUES, max_size=6),
)


class TestRowsOf:
    @settings(max_examples=300, deadline=None)
    @given(CHUNKS)
    def test_rows_of_is_to_python_per_element(self, chunk):
        s = SetVal(chunk)
        assert rows_of(s.elements) == [to_python(e) for e in s.elements]

    def test_each_shape_and_a_mixed_chunk(self):
        for data in ({(1, 2), (3, 4)}, {(1, frozenset({2, 3})), (4, frozenset())},
                     {1, "a"}, {True, False}, {(), (1, 2)}, {1, (2, frozenset({(3, 4)}))}):
            s = from_python(data)
            assert rows_of(s.elements) == [to_python(e) for e in s.elements]
            assert frozenset(rows_of(s.elements)) == data


class TestTyping:
    def test_infer_scalars(self):
        assert infer_type(base(1)) == BASE
        assert infer_type(TRUE) == BOOL

    def test_infer_pair(self):
        assert infer_type(pair(base(1), TRUE)) == ProdType(BASE, BOOL)

    def test_infer_set(self):
        assert infer_type(from_python({(1, 2)})) == parse_type("{D x D}")

    def test_infer_heterogeneous_set_fails(self):
        with pytest.raises(TypeError):
            infer_type(mkset([base(1), TRUE]))

    def test_check_empty_set_at_any_set_type(self):
        assert check_type(EMPTY_SET, parse_type("{D x D}"))
        assert check_type(EMPTY_SET, parse_type("{{D}}"))

    def test_check_type_positive(self):
        assert check_type(from_python({(1, True)}), parse_type("{D x B}"))

    def test_check_type_negative(self):
        assert not check_type(from_python({(1, 2)}), parse_type("{D x B}"))
        assert not check_type(base(1), BOOL)


class TestMeasures:
    def test_value_size_scalar(self):
        assert value_size(base(7)) == 1

    def test_value_size_nested(self):
        v = from_python({(1, 2), (3, 4)})
        assert value_size(v) == 1 + 2 * 3

    def test_active_domain(self):
        v = from_python({(1, 2), ("a", 3)})
        assert active_domain(v) == frozenset({1, 2, 3, "a"})

    def test_rename_atoms(self):
        v = from_python({(1, 2)})
        renamed = rename_atoms(v, {1: 10, 2: 20})
        assert to_python(renamed) == frozenset({(10, 20)})

    def test_rename_missing_atoms_unchanged(self):
        v = from_python({(1, 2)})
        assert rename_atoms(v, {}) == v
