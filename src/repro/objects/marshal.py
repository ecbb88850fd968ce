"""Metadata-driven marshalling: objects to bytes and back.

Data objects "can be easily copied, marshalled, and transmitted" (Section
3); crucially, the wire format can carry the *type metadata itself* inline
(``inline_types=True``), so a receiver that has never seen a type can
decode the object, register the type dynamically, and operate on it through
the meta-object protocol — the mechanism behind the paper's dynamic system
evolution scenarios (Section 5.2).

The format is a compact tagged binary encoding:

=====  =============================================================
tag    meaning
=====  =============================================================
``N``  None
``T``  / ``F``  booleans
``i``  64-bit signed integer
``d``  64-bit float
``s``  UTF-8 string (varint length prefix)
``b``  raw bytes (varint length prefix)
``l``  list (varint count, then items)
``m``  map (varint count, then string-key/value pairs)
``o``  object: type name, oid, set-attribute count, name/value pairs
``O``  object by session type id: varint id into the publisher's
       :class:`~repro.core.typeplane.TypeTable`, oid, set-attribute
       count, name/value pairs (:func:`encode_typed`)
``M``  metadata block: varint count of inline type descriptions,
       each encoded with the generic value encoder, then the value
=====  =============================================================

``M``-block payloads (``inline_types=True``) are *self-contained*:
anyone holding the bytes can decode them.  ``O``-tag payloads
(:func:`encode_typed`) instead reference the publishing session's type
table and need a ``type_resolver`` at decode time — the definitions
ride once per session on the wire frames themselves (see
``docs/PROTOCOLS.md``, "Session dictionary").
"""

from __future__ import annotations

import struct
from io import BytesIO
from typing import Any, Dict, List, Optional, Set, Tuple

from .data_object import DataObject
from .registry import TypeRegistry
from .types import FUNDAMENTAL_TYPES, TypeDescriptor, TypeError_, parse_type_name

__all__ = ["encode", "encode_typed", "decode", "encoded_size",
           "MarshalError", "UnknownTypeError", "type_closure"]

_MAGIC = b"IB\x01"


class MarshalError(TypeError_):
    """Malformed wire data or unencodable value."""


class UnknownTypeError(MarshalError):
    """Decoded an object of a type this process does not know.

    Publish with ``inline_types=True`` (the default for bus messages) to
    let receivers learn types dynamically.
    """


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------

def _write_varint(out: BytesIO, value: int) -> None:
    if value < 0:
        raise MarshalError(f"varint must be non-negative: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes([byte | 0x80]))
        else:
            out.write(bytes([byte]))
            return


def _read_varint(data: memoryview, pos: int):
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise MarshalError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise MarshalError("varint too long")


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

def _write_str(out: BytesIO, text: str) -> None:
    raw = text.encode("utf-8")
    _write_varint(out, len(raw))
    out.write(raw)


def _encode_value(out, value: Any,
                  type_ids: Optional[Dict[str, int]] = None) -> None:
    if value is None:
        out.write(b"N")
    elif value is True:
        out.write(b"T")
    elif value is False:
        out.write(b"F")
    elif isinstance(value, int):
        out.write(b"i")
        out.write(struct.pack(">q", value))
    elif isinstance(value, float):
        out.write(b"d")
        out.write(struct.pack(">d", value))
    elif isinstance(value, str):
        out.write(b"s")
        _write_str(out, value)
    elif isinstance(value, bytes):
        out.write(b"b")
        _write_varint(out, len(value))
        out.write(value)
    elif isinstance(value, list):
        out.write(b"l")
        _write_varint(out, len(value))
        for item in value:
            _encode_value(out, item, type_ids)
    elif isinstance(value, dict):
        out.write(b"m")
        _write_varint(out, len(value))
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshalError(f"map keys must be strings: {key!r}")
            _write_str(out, key)
            _encode_value(out, item, type_ids)
    elif isinstance(value, DataObject):
        if type_ids is not None:
            out.write(b"O")
            _write_varint(out, type_ids[value.type_name])
        else:
            out.write(b"o")
            _write_str(out, value.type_name)
        _write_str(out, value.oid)
        attrs = value.as_dict()
        _write_varint(out, len(attrs))
        for name, item in attrs.items():
            _write_str(out, name)
            _encode_value(out, item, type_ids)
    else:
        raise MarshalError(f"cannot marshal value of type {type(value)!r}")


def type_closure(registry: TypeRegistry, type_names: Set[str]) -> List[str]:
    """Every non-fundamental type reachable from ``type_names``.

    Reachability covers supertype chains plus every type referenced by an
    attribute or operation signature — the full set a receiver needs to
    register the types without dangling references.  Returned in
    dependency order (supertypes before subtypes).
    """
    needed: Set[str] = set()
    stack = [n for n in type_names if n not in FUNDAMENTAL_TYPES]
    while stack:
        name = stack.pop()
        if name in needed or name in FUNDAMENTAL_TYPES:
            continue
        needed.add(name)
        descriptor = registry.get(name)
        refs: List[str] = []
        if descriptor.supertype is not None:
            refs.append(descriptor.supertype)
        for attr in descriptor.own_attributes():
            refs.append(attr.type_name)
        for op in descriptor.own_operations():
            refs.append(op.result_type)
            refs.extend(p.type_name for p in op.params)
        for ref in refs:
            outer, inner = parse_type_name(ref)
            for piece in filter(None, (outer if outer not in ("list", "map", "void") else None, inner)):
                # unwrap nested parameterizations like list<list<story>>
                while True:
                    o, i = parse_type_name(piece)
                    if i is None:
                        if o not in FUNDAMENTAL_TYPES and o != "void":
                            stack.append(o)
                        break
                    piece = i
    # dependency order: every type a descriptor references (supertype,
    # attribute types, operation signature types) precedes it
    ordered: List[str] = []
    seen: Set[str] = set()

    def base_names(type_name: str) -> List[str]:
        outer, inner = parse_type_name(type_name)
        if inner is not None:
            return base_names(inner)
        if outer in FUNDAMENTAL_TYPES or outer == "void":
            return []
        return [outer]

    def visit(name: str) -> None:
        if name in seen or name not in needed:
            return
        seen.add(name)
        descriptor = registry.get(name)
        deps: List[str] = []
        if descriptor.supertype is not None:
            deps.append(descriptor.supertype)
        for attr in descriptor.own_attributes():
            deps.extend(base_names(attr.type_name))
        for op in descriptor.own_operations():
            if op.result_type != "void":
                deps.extend(base_names(op.result_type))
            for param in op.params:
                deps.extend(base_names(param.type_name))
        for dep in deps:
            if dep != name:   # self-referential types are fine
                visit(dep)
        ordered.append(name)

    for name in sorted(needed):
        visit(name)
    return ordered


def _collect_instance_types(value: Any, acc: Set[str]) -> None:
    if isinstance(value, DataObject):
        acc.add(value.type_name)
        for item in value.as_dict().values():
            _collect_instance_types(item, acc)
    elif isinstance(value, list):
        for item in value:
            _collect_instance_types(item, acc)
    elif isinstance(value, dict):
        for item in value.values():
            _collect_instance_types(item, acc)


def _encode_payload(out, value: Any, registry: TypeRegistry,
                    inline_types: bool) -> None:
    out.write(_MAGIC)
    if inline_types:
        if registry is None:
            raise MarshalError("inline_types requires a registry")
        used: Set[str] = set()
        _collect_instance_types(value, used)
        closure = type_closure(registry, used)
        out.write(b"M")
        _write_varint(out, len(closure))
        for name in closure:
            _encode_value(out, registry.get(name).describe())
    _encode_value(out, value)


def encode(value: Any, registry: TypeRegistry = None,
           inline_types: bool = False) -> bytes:
    """Marshal ``value`` to bytes.

    With ``inline_types=True`` (requires ``registry``), full descriptions
    of every type used by the value are prepended so any receiver can
    decode it (P2: objects are self-describing on the wire).
    """
    out = BytesIO()
    _encode_payload(out, value, registry, inline_types)
    return out.getvalue()


def encode_typed(value: Any, registry: TypeRegistry,
                 type_table) -> Tuple[bytes, Tuple[int, ...]]:
    """Marshal ``value`` against a session :class:`TypeTable`.

    DataObjects are written with the ``O`` tag — a dense varint id
    assigned by ``type_table`` (:class:`repro.core.typeplane.TypeTable`)
    in place of the type-name string — and *no* ``M`` metadata block.
    Returns ``(payload, type_refs)`` where ``type_refs`` is the id of
    every type in the dependency closure of the value's instance types;
    the caller stamps the refs onto the envelope so the wire layer can
    ride the matching typedef definitions in-band (first use on DATA,
    all of them on RETRANS).

    A value with no DataObjects encodes byte-identically to
    ``encode(value)`` and returns empty refs — untyped traffic pays
    nothing for the type plane.
    """
    if registry is None:
        raise MarshalError("encode_typed requires a registry")
    used: Set[str] = set()
    _collect_instance_types(value, used)
    type_ids: Optional[Dict[str, int]] = None
    refs: Tuple[int, ...] = ()
    if used:
        closure = type_closure(registry, used)
        type_ids = {}
        for name in closure:
            type_ids[name] = type_table.intern(registry.get(name))
        refs = tuple(type_ids[name] for name in closure)
    out = BytesIO()
    out.write(_MAGIC)
    _encode_value(out, value, type_ids)
    return out.getvalue(), refs


class _CountingSink:
    """Write-counting stand-in for BytesIO: measures without materializing."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def write(self, data: bytes) -> None:
        self.count += len(data)


def encoded_size(value: Any, registry: TypeRegistry = None,
                 inline_types: bool = False) -> int:
    """Size in bytes of the encoding (what the bus charges to the wire).

    Runs the encoder against a counting sink, so the answer costs the
    traversal but never builds the byte string.
    """
    sink = _CountingSink()
    _encode_payload(sink, value, registry, inline_types)
    return sink.count


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------

def _read_str(data: memoryview, pos: int):
    length, pos = _read_varint(data, pos)
    if pos + length > len(data):
        raise MarshalError("truncated string")
    return bytes(data[pos:pos + length]).decode("utf-8"), pos + length


def _description_deps(desc: Dict) -> List[str]:
    """Non-fundamental type names a description references directly."""

    def base_names(type_name: str) -> List[str]:
        outer, inner = parse_type_name(type_name)
        if inner is not None:
            return base_names(inner)
        if outer in FUNDAMENTAL_TYPES or outer == "void":
            return []
        return [outer]

    deps: List[str] = []
    if desc.get("supertype") is not None:
        deps.append(desc["supertype"])
    for attr in desc.get("attributes", []):
        deps.extend(base_names(attr["type"]))
    for op in desc.get("operations", []):
        if op.get("result", "void") != "void":
            deps.extend(base_names(op["result"]))
        for param in op.get("params", []):
            deps.extend(base_names(param["type"]))
    return deps


def _register_learned(registry: TypeRegistry, desc: Dict, resolver,
                      pending: Set[str]) -> None:
    """Register a type learned from the session type plane, dependencies
    first (the wire carries descriptions individually, not in closure
    order, so the receiver re-derives the order here)."""
    name = desc["name"]
    if name in pending:
        return   # self/mutually-referential types; registry validates
    pending.add(name)
    for dep in _description_deps(desc):
        if dep == name or registry.has(dep):
            continue
        dep_desc = resolver.named(dep)
        if dep_desc is None:
            raise UnknownTypeError(
                f"type {name!r} references {dep!r}, which this session's "
                f"type table has not defined")
        _register_learned(registry, dep_desc, resolver, pending)
    registry.register(TypeDescriptor.from_description(desc))


def _resolve_typed(registry: TypeRegistry, tid: int, resolver) -> str:
    """Map a session type id to a registered type name, learning it (and
    its dependencies) from the resolver on first sight.  A conflicting
    shape for an already-registered name raises the registry's
    ``TypeError_`` — the same failure inline metadata produces."""
    if resolver is None:
        raise UnknownTypeError(
            f"typed payload references session type id {tid} but no "
            f"type_resolver was supplied")
    desc = resolver.description(tid)
    if desc is None:
        raise UnknownTypeError(
            f"session type id {tid} is not defined in this session's "
            f"type table")
    name = desc["name"]
    if registry is not None and registry.has(name):
        # idempotent when shapes match; conflicting shape raises
        registry.register(TypeDescriptor.from_description(desc))
    elif registry is not None:
        _register_learned(registry, desc, resolver, set())
    else:
        raise UnknownTypeError(
            f"received object of unknown type {name!r}; "
            f"publish with inline_types=True")
    return name


def _decode_value(data: memoryview, pos: int, registry: TypeRegistry,
                  resolver=None):
    if pos >= len(data):
        raise MarshalError("truncated value")
    tag = chr(data[pos])
    pos += 1
    if tag == "N":
        return None, pos
    if tag == "T":
        return True, pos
    if tag == "F":
        return False, pos
    if tag == "i":
        if pos + 8 > len(data):
            raise MarshalError("truncated int")
        return struct.unpack(">q", data[pos:pos + 8])[0], pos + 8
    if tag == "d":
        if pos + 8 > len(data):
            raise MarshalError("truncated float")
        return struct.unpack(">d", data[pos:pos + 8])[0], pos + 8
    if tag == "s":
        return _read_str(data, pos)
    if tag == "b":
        length, pos = _read_varint(data, pos)
        if pos + length > len(data):
            raise MarshalError("truncated bytes")
        return bytes(data[pos:pos + length]), pos + length
    if tag == "l":
        count, pos = _read_varint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, registry, resolver)
            items.append(item)
        return items, pos
    if tag == "m":
        count, pos = _read_varint(data, pos)
        mapping = {}
        for _ in range(count):
            key, pos = _read_str(data, pos)
            item, pos = _decode_value(data, pos, registry, resolver)
            mapping[key] = item
        return mapping, pos
    if tag == "o" or tag == "O":
        if tag == "O":
            tid, pos = _read_varint(data, pos)
            type_name = _resolve_typed(registry, tid, resolver)
        else:
            type_name, pos = _read_str(data, pos)
            # fail fast before decoding attributes: a bad frame should
            # not pay for (or allocate) a value tree it cannot use
            if registry is None or not registry.has(type_name):
                raise UnknownTypeError(
                    f"received object of unknown type {type_name!r}; "
                    f"publish with inline_types=True")
        oid, pos = _read_str(data, pos)
        count, pos = _read_varint(data, pos)
        attrs = {}
        for _ in range(count):
            name, pos = _read_str(data, pos)
            item, pos = _decode_value(data, pos, registry, resolver)
            attrs[name] = item
        return DataObject(registry, type_name, attrs, oid=oid), pos
    raise MarshalError(f"unknown tag {tag!r} at offset {pos - 1}")


def decode(data: bytes, registry: TypeRegistry, type_resolver=None) -> Any:
    """Unmarshal bytes produced by :func:`encode` or :func:`encode_typed`.

    Inline type metadata, if present, is registered into ``registry``
    before the value is decoded (idempotently — identical re-registration
    is a no-op).  ``O``-tagged objects resolve their session type ids
    through ``type_resolver`` (``description(tid)`` / ``named(name)``,
    see :mod:`repro.core.typeplane`), registering learned types the same
    way; without a resolver they raise :class:`UnknownTypeError`.
    """
    view = memoryview(data)
    if bytes(view[:3]) != _MAGIC:
        raise MarshalError("bad magic: not an Information Bus encoding")
    pos = 3
    if pos < len(view) and chr(view[pos]) == "M":
        pos += 1
        count, pos = _read_varint(view, pos)
        for _ in range(count):
            desc, pos = _decode_value(view, pos, registry)
            registry.register(TypeDescriptor.from_description(desc))
    value, pos = _decode_value(view, pos, registry, type_resolver)
    if pos != len(view):
        raise MarshalError(f"{len(view) - pos} trailing bytes after value")
    return value
