"""Logical write-ahead-log records shipped to replicas."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: (kind, relation name, old row, new row); kind in insert/update/delete.
#: The rows are the heap versions' own payload dicts, not copies: a
#: payload is never mutated after its version is stored, and readers of
#: the log must not mutate it either.
Change = Tuple[str, str, Optional[Dict[str, Any]], Optional[Dict[str, Any]]]


@dataclass(slots=True)
class CommitRecord:
    """One committed transaction's changes, in commit order.

    ``safe_snapshot_marker`` is the paper's proposed log-stream
    annotation (section 7.2): True when a snapshot taken just after
    this commit is safe (no read/write serializable transaction was
    active on the master), so a replica may serve SERIALIZABLE reads
    from it.
    """

    xid: int
    changes: List[Change] = field(default_factory=list)
    safe_snapshot_marker: bool = False
    #: Byte offset of this commit's frame in the physical WAL
    #: (repro.storage.durable); None when the engine runs in-memory.
    #: Monotonic in commit order, so replicas can use it as a
    #: resume/acknowledge cursor.
    lsn: Optional[int] = None

    def to_event(self) -> Dict[str, Any]:
        """Payload shape shared with the ``wal.ship`` trace event
        (repro.obs.trace), so log-stream dumps and traces line up."""
        return {"xid": self.xid, "changes": len(self.changes),
                "safe_snapshot_marker": self.safe_snapshot_marker}
