"""The session type plane: define-once-per-session type metadata.

The paper's P2 makes objects self-describing on the wire; the naive
rendering (``marshal.encode(..., inline_types=True)``) prepends the full
type-description closure to *every* payload, so a million news stories
carry a million identical copies of the ``story`` schema.  This module
applies the same discipline the string table (PR 6) applies to header
strings one layer up, to type metadata:

* The publishing daemon keeps one :class:`TypeTable` per session.  The
  marshaller (:func:`repro.objects.marshal.encode_typed`) interns every
  type in the payload's dependency closure and writes objects with the
  ``O`` tag — a dense varint id instead of a type-name string and no
  ``M`` metadata block.
* The wire layer rides the matching definitions in-band, in a typedef
  region on the frames themselves: a DATA frame defines ids on their
  first wire appearance; a RETRANS frame re-defines *all* ids its
  envelopes reference, so repairs and late joiners decode with zero
  receiver state (exactly the string-table rules).
* Receivers accumulate learned ``{id: description-bytes}`` maps per
  session; :class:`PeerTypeView` wraps one such map as the
  ``type_resolver`` the marshaller uses to register types on first
  sight.  An unknown id is a decode failure → drop + NACK arming via
  :class:`repro.core.wire.UnresolvedTypeId` — never a crash.

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

from typing import Dict, List, Optional, Tuple

from ..objects.marshal import decode as _marshal_decode
from ..objects.marshal import encode as _marshal_encode
from ..objects.types import TypeDescriptor

__all__ = ["TypeTable", "PeerTypeView"]


class TypeTable:
    """Sender-side session type table: fingerprint → dense varint id.

    ``intern`` assigns ids in first-use order at marshal time;
    ``pending_defs`` is consulted later, at *packet encode* time, so an
    envelope shed by outbound admission can never consume a first-use
    definition that then never reaches the wire.

    Also implements the resolver protocol (``description``/``named``)
    for deliveries that loop back to clients on the publishing daemon
    itself.
    """

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {}          # fingerprint -> id
        self._descriptions: List[Dict] = []     # id -> describe() dict
        self._blobs: List[bytes] = []           # id -> marshalled dict
        self._names: Dict[str, int] = {}        # name -> latest id
        #: ids whose definition has been written into a DATA frame
        self.wire_defined: set = set()

    def __len__(self) -> int:
        return len(self._blobs)

    def intern(self, descriptor: TypeDescriptor) -> int:
        """Id for ``descriptor``, assigning the next dense id on first use."""
        fp = descriptor.fingerprint()
        tid = self._ids.get(fp)
        if tid is not None:
            return tid
        tid = len(self._blobs)
        desc = descriptor.describe()
        self._ids[fp] = tid
        self._descriptions.append(desc)
        self._blobs.append(_marshal_encode(desc))
        self._names[desc["name"]] = tid
        return tid

    def blob(self, tid: int) -> bytes:
        """Wire bytes of the definition for ``tid``."""
        return self._blobs[tid]

    def pending_defs(self, refs) -> List[int]:
        """The subset of ``refs`` not yet defined on the wire, marking
        them defined.  Called exactly once per DATA frame encode."""
        fresh = [tid for tid in refs if tid not in self.wire_defined]
        self.wire_defined.update(fresh)
        return fresh

    # -- resolver protocol (local loop-back deliveries) -----------------
    def description(self, tid: int) -> Optional[Dict]:
        if 0 <= tid < len(self._descriptions):
            return self._descriptions[tid]
        return None

    def named(self, name: str) -> Optional[Dict]:
        tid = self._names.get(name)
        return None if tid is None else self._descriptions[tid]


class PeerTypeView:
    """Receiver-side resolver over one session's learned typedef blobs.

    Wraps the ``{id: definition-bytes}`` map the wire layer accumulates
    (and keeps mutating) for a peer session, decoding definitions
    lazily: a definition is parsed only when a payload first references
    it, never merely because its frame carried it.
    """

    def __init__(self, raw: Dict[int, bytes]) -> None:
        self._raw = raw
        self._described: Dict[int, Dict] = {}

    def description(self, tid: int) -> Optional[Dict]:
        desc = self._described.get(tid)
        if desc is not None:
            return desc
        blob = self._raw.get(tid)
        if blob is None:
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
