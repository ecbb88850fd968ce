"""The session type plane: define-once-per-session type metadata.

The paper's P2 makes objects self-describing on the wire; the naive
rendering (``marshal.encode(..., inline_types=True)``) prepends the full
type-description closure to *every* payload, so a million news stories
carry a million identical copies of the ``story`` schema.  This module
puts type metadata into the session dictionary the wire layer already
keeps for header strings (:class:`repro.core.wire.SessionTable`, see
"The session dictionary" in :mod:`repro.core.wire`):

* The publishing daemon keeps one :class:`TypeTable` per session over
  its session dictionary.  The marshaller
  (:func:`repro.objects.marshal.encode_typed`) interns every type in the
  payload's dependency closure and writes objects with the ``O`` tag — a
  dense varint id instead of a type-name string and no ``M`` metadata
  block.
* The wire layer rides the matching definitions in-band under the
  dictionary rules: a DATA frame defines ids on their first wire
  appearance; a RETRANS frame re-defines *all* ids its envelopes
  reference, so repairs and late joiners decode with zero receiver
  state.
* Receivers accumulate learned ``{id: entry}`` maps per session;
  :class:`PeerTypeView` wraps one such map as the ``type_resolver`` the
  marshaller uses to register types on first sight.  An unknown id is a
  decode failure → drop + NACK arming via
  :class:`repro.core.wire.UnresolvedIds` — never a crash.  The
  publishing daemon resolves its own loop-back deliveries through the
  same view, built over its own dictionary entries.

Ids are assigned to descriptor *fingerprints*
(:meth:`TypeDescriptor.fingerprint`), not names: a TDL ``defclass``
that changes a type's shape mid-session hashes differently, takes a
fresh id, and is re-defined in-band on next use — the paper's dynamic
evolution (Section 5.2) with none of the per-message freight.

Definitions travel as opaque marshalled ``describe()`` dicts (plain
containers — no object tags), so the wire layer never interprets them
and the decode memo can validate them by byte equality.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from ..objects.marshal import decode as _marshal_decode
from ..objects.marshal import encode as _marshal_encode
from ..objects.types import TypeDescriptor
from .wire import SessionTable

__all__ = ["TypeTable", "PeerTypeView"]


class TypeTable:
    """Sender-side session type ids: fingerprint → id in ``table``.

    ``table`` is the session dictionary the ids live in (a fresh one
    when omitted); each type's entry is its marshalled ``describe()``
    dict.
    """

    __slots__ = ("table", "_ids")

    def __init__(self, table: Optional[SessionTable] = None) -> None:
        self.table = SessionTable() if table is None else table
        self._ids: Dict[str, int] = {}          # fingerprint -> id

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, descriptor: TypeDescriptor) -> int:
        """Id for ``descriptor``, assigning the next dense id on first use."""
        fp = descriptor.fingerprint()
        tid = self._ids.get(fp)
        if tid is None:
            tid = self.table.intern(_marshal_encode(descriptor.describe()))
            self._ids[fp] = tid
        return tid


class PeerTypeView:
    """Resolver over one session's dictionary entries.

    Wraps the ``{id: entry}`` map the wire layer accumulates (and keeps
    mutating) for a peer session — or a publishing daemon's own
    :attr:`SessionTable.entries <repro.core.wire.SessionTable>` — and
    decodes typedef entries lazily: a definition is parsed only when a
    payload first references it, never merely because its frame carried
    it.  Header-string entries are skipped.
    """

    def __init__(self, raw: Mapping[int, object]) -> None:
        self._raw = raw
        self._described: Dict[int, Dict] = {}

    def description(self, tid: int) -> Optional[Dict]:
        desc = self._described.get(tid)
        if desc is not None:
            return desc
        blob = self._raw.get(tid)
        if type(blob) is not bytes:         # unknown id or header string
            return None
        desc = _marshal_decode(blob, None)
        self._described[tid] = desc
        return desc

    def named(self, name: str) -> Optional[Dict]:
        """Latest-defined description carrying ``name`` (highest id wins:
        under mid-session redefinition the newest shape is the one a
        dependency reference means)."""
        best: Optional[Tuple[int, Dict]] = None
        for tid in self._raw:
            desc = self.description(tid)
            if desc is not None and desc.get("name") == name:
                if best is None or tid > best[0]:
                    best = (tid, desc)
        return None if best is None else best[1]
