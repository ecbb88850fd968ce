"""Property-based tests: the wire format round-trips everything."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           decode, encode, standard_registry)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(string.ascii_lowercase, max_size=8),
                        children, max_size=5)),
    max_leaves=25)


@given(values)
@settings(max_examples=300, deadline=None)
def test_scalar_and_container_roundtrip(value):
    reg = standard_registry()
    assert decode(encode(value), reg) == value


@given(values)
@settings(max_examples=150, deadline=None)
def test_encoding_is_deterministic(value):
    assert encode(value) == encode(value)


attr_values = st.fixed_dictionaries({}, optional={
    "title": st.text(max_size=30),
    "count": st.integers(-10**9, 10**9),
    "ratio": st.floats(allow_nan=False, allow_infinity=False),
    "flag": st.booleans(),
    "blob": st.binary(max_size=30),
    "tags": st.lists(st.text(max_size=8), max_size=5),
    "attrs": st.dictionaries(st.text(string.ascii_lowercase, min_size=1,
                                     max_size=6),
                             st.text(max_size=8), max_size=4),
    "extra": values,
})


def doc_registry():
    reg = standard_registry()
    reg.register(TypeDescriptor("doc", attributes=[
        AttributeSpec("title", "string", required=False),
        AttributeSpec("count", "int", required=False),
        AttributeSpec("ratio", "float", required=False),
        AttributeSpec("flag", "bool", required=False),
        AttributeSpec("blob", "bytes", required=False),
        AttributeSpec("tags", "list<string>", required=False),
        AttributeSpec("attrs", "map<string>", required=False),
        AttributeSpec("extra", "any", required=False),
    ]))
    return reg


@given(attr_values)
@settings(max_examples=200, deadline=None)
def test_object_roundtrip_preserves_structure_and_oid(attrs):
    reg = doc_registry()
    obj = DataObject(reg, "doc", attrs)
    back = decode(encode(obj), reg)
    assert back == obj
    assert back.oid == obj.oid
    for name, value in attrs.items():
        assert back.get(name) == value


@given(attr_values)
@settings(max_examples=100, deadline=None)
def test_inline_types_roundtrip_to_a_blank_registry(attrs):
    """Any valid object can teach a completely fresh process its type."""
    reg = doc_registry()
    obj = DataObject(reg, "doc", attrs)
    wire = encode(obj, reg, inline_types=True)
    fresh = standard_registry()
    back = decode(wire, fresh)
    assert back == obj
    assert fresh.has("doc")
    assert [a.name for a in fresh.all_attributes("doc")] == \
        [a.name for a in reg.all_attributes("doc")]


@given(values)
@settings(max_examples=150, deadline=None)
def test_truncation_never_decodes_silently(value):
    """Any strict prefix of an encoding must raise, never return junk."""
    import pytest
    reg = standard_registry()
    wire = encode(value)
    for cut in {1, 3, len(wire) // 2, len(wire) - 1} - {len(wire)}:
        if 0 < cut < len(wire):
            with pytest.raises(Exception):
                decode(wire[:cut], reg)


# ----------------------------------------------------------------------
# the session type plane (O-tag encoding)
# ----------------------------------------------------------------------

@given(attr_values)
@settings(max_examples=150, deadline=None)
def test_typed_roundtrip_through_a_type_table(attrs):
    """``encode_typed`` + a resolver must round-trip anything the inline
    path round-trips, teaching a blank registry the same shape."""
    from repro.core import PeerTypeView, TypeTable
    from repro.objects import encode_typed
    reg = doc_registry()
    obj = DataObject(reg, "doc", attrs)
    table = TypeTable()
    payload, refs = encode_typed(obj, reg, table)
    assert refs                                   # a DataObject has refs
    fresh = standard_registry()
    back = decode(payload, fresh,
                  type_resolver=PeerTypeView(table.table.entries))
    assert back == obj
    assert back.oid == obj.oid
    assert fresh.has("doc")
    assert [a.name for a in fresh.all_attributes("doc")] == \
        [a.name for a in reg.all_attributes("doc")]


@given(attr_values, st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_typedef_reregistration_is_idempotent(attrs, repeats):
    """Decoding N payloads of the same session leaves one registered
    descriptor; the table interns one id per shape no matter how often
    the type is used."""
    from repro.core import PeerTypeView, TypeTable
    from repro.objects import encode_typed
    reg = doc_registry()
    table = TypeTable()
    fresh = standard_registry()
    payloads = [encode_typed(DataObject(reg, "doc", attrs), reg, table)[0]
                for _ in range(repeats)]
    for payload in payloads:
        decode(payload, fresh,
               type_resolver=PeerTypeView(table.table.entries))
    assert fresh.get("doc") is fresh.get("doc")   # single stable object
    assert len(table) == len(set(
        encode_typed(DataObject(reg, "doc", attrs), reg, table)[1]))


@given(values, values)
@settings(max_examples=100, deadline=None)
def test_bare_values_ignore_the_type_table(a, b):
    """Values without DataObjects encode identically with and without a
    table, and intern nothing."""
    from repro.core import TypeTable
    from repro.objects import encode_typed
    reg = doc_registry()
    table = TypeTable()
    for value in (a, b, [a, b], {"x": a}):
        payload, refs = encode_typed(value, reg, table)
        assert refs == ()
        assert payload == encode(value)
    assert len(table) == 0


@given(st.lists(st.sampled_from(["string", "int", "float", "bool"]),
                min_size=1, max_size=4, unique=False),
       st.lists(st.sampled_from(["string", "int", "float", "bool"]),
                min_size=1, max_size=4, unique=False))
@settings(max_examples=100, deadline=None)
def test_fingerprint_equality_is_shape_equality(types_a, types_b):
    """Two descriptors fingerprint equal iff their shapes (names, types,
    order) match — redefinition detection rests on this."""
    def make(type_names):
        return TypeDescriptor("t", attributes=[
            AttributeSpec(f"a{i}", tn, required=False)
            for i, tn in enumerate(type_names)])
    a, b = make(types_a), make(types_b)
    assert (a.fingerprint() == b.fingerprint()) == (types_a == types_b)
    assert a.same_shape(b) == (types_a == types_b)


@given(attr_values)
@settings(max_examples=60, deadline=None)
def test_conflicting_fingerprint_redefinition_raises(attrs):
    """A session whose typedef conflicts with a receiver's registered
    shape is a per-message decode failure, exactly like inline mode."""
    import pytest
    from repro.core import PeerTypeView, TypeTable
    from repro.objects import TypeError_, encode_typed
    reg = doc_registry()
    table = TypeTable()
    payload, _ = encode_typed(DataObject(reg, "doc", attrs), reg, table)
    conflicted = standard_registry()
    conflicted.register(TypeDescriptor("doc", attributes=[
        AttributeSpec("other", "bytes", required=False)]))
    with pytest.raises(TypeError_):
        decode(payload, conflicted,
               type_resolver=PeerTypeView(table.table.entries))
    # inline mode fails the same way on the same conflict
    wire = encode(DataObject(reg, "doc", attrs), reg, inline_types=True)
    conflicted2 = standard_registry()
    conflicted2.register(TypeDescriptor("doc", attributes=[
        AttributeSpec("other", "bytes", required=False)]))
    with pytest.raises(TypeError_):
        decode(wire, conflicted2)
