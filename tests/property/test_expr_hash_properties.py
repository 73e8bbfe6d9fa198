"""The hash contract of ``Expr``, whose structural hash each node keeps.

``a == b`` must imply ``hash(a) == hash(b)`` however the two were made:
built twice, deep-copied, pickled, or rebuilt by ``dataclasses.replace`` --
with the hash already cached on one side and computed afresh on the other.
The cached value lives in a slot, never in a field, so ``==``, ``fields()``,
``repr``, ``pretty`` and the pickled state do not see it.
"""

import copy
import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from test_template_properties import _term

from repro.api import canonical_template
from repro.nra.ast import Expr, subexpressions
from repro.nra.parser import parse
from repro.nra.pretty import pretty

SEEDS = st.integers(min_value=0, max_value=10**6)


def _copies(e):
    """Independently made ``==`` copies of ``e``."""
    fields = dataclasses.fields(e)
    same = {f.name: getattr(e, f.name) for f in fields[:1]}
    return [
        copy.deepcopy(e),
        pickle.loads(pickle.dumps(e)),
        dataclasses.replace(e, **same),
        parse(pretty(e)),
    ]


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_equal_terms_hash_equal_however_they_were_made(seed):
    # Two builds of one seed differ in their fresh binders; their templates
    # are built independently and are ``==``.
    a, b = canonical_template(_term(seed))[0], canonical_template(_term(seed))[0]
    assert a == b and a is not b
    for x, y in zip(subexpressions(a), subexpressions(b)):
        assert hash(x) == hash(y)
    for node in subexpressions(a):  # hashed, so each node's hash is cached
        for other in _copies(node):
            assert other == node
            assert hash(other) == hash(node)


@settings(max_examples=50, deadline=None)
@given(SEEDS)
def test_the_cached_hash_is_invisible(seed):
    fresh = canonical_template(_term(seed))[0]
    hashed = copy.deepcopy(fresh)
    text = pretty(hashed)
    assert not hasattr(hashed, "_hash")  # a copy computes its own
    hash(hashed)
    assert hasattr(hashed, "_hash")
    assert hashed == fresh and fresh == hashed
    assert "_hash" not in {f.name for f in dataclasses.fields(hashed)}
    assert "_hash" not in repr(hashed)
    assert pretty(hashed) == text
    assert hashed.__getstate__() == fresh.__getstate__()
    assert pickle.dumps(hashed) == pickle.dumps(fresh)


def test_every_node_class_hashes_once():
    classes = {type(x) for seed in range(40) for x in subexpressions(_term(seed))}
    assert len(classes) > 8
    assert all(cls.__hash__ is Expr.__hash__ for cls in classes)
