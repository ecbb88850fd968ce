"""Unit tests for the session type plane: fingerprints, TypeTable,
PeerTypeView, and the typed (``O``-tag) marshal path."""

import pytest

from repro.core import (Envelope, Packet, PacketKind, PeerTypeView,
                        SessionTable, TypeTable, decode_packet,
                        encode_packet, wire)
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           UnknownTypeError, decode, encode, encode_typed,
                           encoded_size, standard_registry)


@pytest.fixture
def reg():
    registry = standard_registry()
    registry.register(TypeDescriptor(
        "source", attributes=[AttributeSpec("name", "string")]))
    registry.register(TypeDescriptor(
        "story",
        attributes=[AttributeSpec("headline", "string"),
                    AttributeSpec("source", "source", required=False)]))
    return registry


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_is_stable_across_instances():
    a = TypeDescriptor("t", attributes=[AttributeSpec("x", "string")])
    b = TypeDescriptor("t", attributes=[AttributeSpec("x", "string")])
    assert a is not b
    assert a.fingerprint() == b.fingerprint()
    assert a.same_shape(b)


def test_fingerprint_changes_with_shape():
    a = TypeDescriptor("t", attributes=[AttributeSpec("x", "string")])
    b = TypeDescriptor("t", attributes=[AttributeSpec("x", "int")])
    c = TypeDescriptor("t", attributes=[AttributeSpec("y", "string")])
    assert a.fingerprint() != b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert not a.same_shape(b)


def test_fingerprint_sees_declaration_order():
    a = TypeDescriptor("t", attributes=[AttributeSpec("x", "string"),
                                        AttributeSpec("y", "string")])
    b = TypeDescriptor("t", attributes=[AttributeSpec("y", "string"),
                                        AttributeSpec("x", "string")])
    assert a.fingerprint() != b.fingerprint()


# ----------------------------------------------------------------------
# TypeTable
# ----------------------------------------------------------------------
def test_intern_assigns_dense_first_use_ids(reg):
    table = TypeTable()
    assert table.intern(reg.get("source")) == 0
    assert table.intern(reg.get("story")) == 1
    assert table.intern(reg.get("source")) == 0   # idempotent
    assert len(table) == 2


def test_redefined_shape_takes_a_fresh_id(reg):
    table = TypeTable()
    old = table.intern(reg.get("story"))
    redefined = TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string"),
                             AttributeSpec("byline", "string")])
    new = table.intern(redefined)
    assert new != old
    # name lookup resolves to the latest shape
    view = PeerTypeView(table.table.entries)
    assert view.named("story")["attributes"][1]["name"] == "byline"


def test_types_share_the_session_dictionary(reg):
    session = SessionTable()
    assert session.intern("news.x") == 0          # a header string
    table = TypeTable(session)
    assert table.intern(reg.get("source")) == 1   # the next dense id
    assert len(table) == 1 and len(session) == 2


def test_data_frames_define_each_type_id_once(reg):
    session = SessionTable()
    table = TypeTable(session)
    refs = (table.intern(reg.get("source")), table.intern(reg.get("story")))

    def typed_frame(seq, kind=PacketKind.DATA):
        envelope = Envelope(subject="news.x", sender="a", session="h#0",
                            seq=seq, payload=b"p", type_refs=refs)
        return encode_packet(Packet(kind, "h#0", [envelope]), session)

    defined = wire.wire_metrics().counter("wire.typedef.defined")
    before = defined.value
    typed_frame(1)
    assert defined.value - before == 2            # first DATA frame
    assert session.wire_defined >= set(refs)
    typed_frame(2)
    assert defined.value - before == 2            # already on the wire
    repair = typed_frame(2, PacketKind.RETRANS)   # repairs define all
    assert defined.value - before == 4
    assert decode_packet(repair).envelopes[0].type_refs == refs


def test_blob_round_trips_description(reg):
    table = TypeTable()
    tid = table.intern(reg.get("story"))
    assert decode(table.table.entries[tid], None) == \
        reg.get("story").describe()


def test_view_over_own_entries_resolves(reg):
    """The publishing daemon resolves loop-back deliveries through the
    same view receivers use, over its own dictionary entries."""
    session = SessionTable()
    session.intern("news.x")                      # a header string
    table = TypeTable(session)
    tid = table.intern(reg.get("source"))
    view = PeerTypeView(session.entries)
    assert view.description(tid)["name"] == "source"
    assert view.description(0) is None            # skips header strings
    assert view.description(99) is None
    assert view.named("source")["name"] == "source"
    assert view.named("nope") is None


# ----------------------------------------------------------------------
# PeerTypeView
# ----------------------------------------------------------------------
def make_view(reg, *names):
    table = TypeTable()
    raw = {}
    for name in names:
        tid = table.intern(reg.get(name))
        raw[tid] = table.table.entries[tid]
    return raw, PeerTypeView(raw)


def test_peer_view_decodes_lazily(reg):
    raw, view = make_view(reg, "source", "story")
    assert view._described == {}          # nothing parsed yet
    assert view.description(0)["name"] == "source"
    assert set(view._described) == {0}    # only the asked-for id
    assert view.description(7) is None


def test_peer_view_sees_raw_map_mutations(reg):
    raw, view = make_view(reg, "source")
    assert view.named("story") is None
    table = TypeTable()
    table.intern(reg.get("source"))
    tid = table.intern(reg.get("story"))
    raw[tid] = table.table.entries[tid]   # wire layer learns a new def
    assert view.named("story")["name"] == "story"


def test_peer_view_named_prefers_latest_redefinition(reg):
    table = TypeTable()
    old = table.intern(reg.get("story"))
    redefined = TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "string"),
                             AttributeSpec("byline", "string")])
    new = table.intern(redefined)
    raw = {old: table.table.entries[old], new: table.table.entries[new]}
    view = PeerTypeView(raw)
    names = [a["name"] for a in view.named("story")["attributes"]]
    assert "byline" in names


# ----------------------------------------------------------------------
# encode_typed / O-tag decode
# ----------------------------------------------------------------------
def test_typed_round_trip_through_resolver(reg):
    table = TypeTable()
    src = DataObject(reg, "source", name="Reuters")
    story = DataObject(reg, "story", headline="Chips up", source=src)
    payload, refs = encode_typed(story, reg, table)
    assert len(refs) == 3                 # closure: root + source + story
    fresh = standard_registry()           # knows neither type
    back = decode(payload, fresh,
                  type_resolver=PeerTypeView(table.table.entries))
    assert back == story
    assert back.get("source").get("name") == "Reuters"
    assert fresh.has("story") and fresh.has("source")


def test_typed_payload_smaller_than_inline(reg):
    story = DataObject(reg, "story", headline="Chips up")
    table = TypeTable()
    payload, _ = encode_typed(story, reg, table)
    inline = encode(story, reg, inline_types=True)
    assert len(payload) < len(inline) * 0.6


def test_typed_encoding_of_bare_values_is_unchanged(reg):
    table = TypeTable()
    for value in (None, 42, "hello", [1, 2], {"k": b"v"}):
        payload, refs = encode_typed(value, reg, table)
        assert refs == ()
        assert payload == encode(value)
    assert len(table) == 0


def test_unknown_type_id_raises_without_crashing(reg):
    table = TypeTable()
    story = DataObject(reg, "story", headline="X")
    payload, refs = encode_typed(story, reg, table)
    fresh = standard_registry()
    with pytest.raises(UnknownTypeError):
        decode(payload, fresh)                        # no resolver at all
    with pytest.raises(UnknownTypeError):
        decode(payload, fresh, type_resolver=PeerTypeView({}))  # empty map


def test_conflicting_learned_shape_raises(reg):
    """A typed payload whose definition conflicts with an already-
    registered name fails decode (parity with inline-metadata mode)."""
    from repro.objects import TypeError_
    table = TypeTable()
    story = DataObject(reg, "story", headline="X")
    payload, _ = encode_typed(story, reg, table)
    other = standard_registry()
    other.register(TypeDescriptor(
        "story", attributes=[AttributeSpec("headline", "int")]))
    with pytest.raises(TypeError_):
        decode(payload, other,
               type_resolver=PeerTypeView(table.table.entries))


def test_relearning_same_shape_is_idempotent(reg):
    table = TypeTable()
    story = DataObject(reg, "story", headline="X")
    payload, _ = encode_typed(story, reg, table)
    fresh = standard_registry()
    view = PeerTypeView(table.table.entries)
    decode(payload, fresh, type_resolver=view)
    before = fresh.get("story")
    decode(payload, fresh, type_resolver=view)
    assert fresh.get("story") is before   # same descriptor object kept


def test_unknown_o_tag_fails_before_attribute_decode(reg):
    """Satellite: the string-named ``o`` tag rejects unknown types
    before paying to decode the attribute tree."""
    src = DataObject(reg, "source", name="DJ")
    wire = encode(src)                    # bare: no metadata block
    with pytest.raises(UnknownTypeError):
        decode(wire, standard_registry())
    with pytest.raises(UnknownTypeError):
        decode(wire, None)


# ----------------------------------------------------------------------
# encoded_size counting sink (satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("inline", [False, True])
def test_encoded_size_matches_encode(reg, inline):
    src = DataObject(reg, "source", name="Reuters")
    story = DataObject(reg, "story", headline="h" * 100, source=src)
    for value in (story, {"stories": [story, story]}, "plain", 12345):
        assert encoded_size(value, reg, inline_types=inline) == \
            len(encode(value, reg, inline_types=inline))
