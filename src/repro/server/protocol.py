"""Wire protocol: line-delimited JSON frames.

One request or response per line (UTF-8 JSON, ``\\n`` terminated) --
trivially debuggable with ``nc``/``telnet`` and language-neutral.

Requests::

    {"id": 1, "op": "hello", "token": "...", "isolation": "serializable"}
    {"id": 2, "op": "sql", "sql": "SELECT * FROM t WHERE k = 1"}
    {"id": 3, "op": "ping"}
    {"id": 4, "op": "close"}

Responses echo ``id`` and carry either a result or a structured error::

    {"id": 2, "ok": true, "result": [...], "txn": "idle"}
    {"id": 2, "ok": false, "txn": "failed",
     "error": {"type": "SerializationFailure", "sqlstate": "40001",
               "message": "...", "retryable": true, ...}}

``txn`` reports the connection's transaction state after the request
(``idle`` / ``open`` / ``failed``), so clients know when a ROLLBACK is
required without parsing messages. The ``error`` object always carries
``sqlstate`` and ``retryable`` (satellite: SQLSTATE as a structured
field); SerializationFailure additionally ships its dangerous-structure
fields (cause, pivot/T1/T3 xids, confirming rule) so a remote client
sees the same post-mortem detail a local caller gets from the
exception object.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import ProtocolError, ReproError
from repro.storage.tuple import HeapTuple, VersionRows

#: Protocol revision, reported in the hello response.
WIRE_VERSION = 1

#: Maximum frame size in bytes; longer lines are a protocol error
#: (bounds per-connection memory against hostile or broken clients).
MAX_FRAME_BYTES = 1 << 20

#: Request operations a connection may carry.
OPS = ("hello", "sql", "ping", "close")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One JSON object, newline-terminated.

    A ``result`` that is a :class:`VersionRows` (a single-table
    ``SELECT *``) is written as its versions' cached texts joined into
    one array (:func:`version_text`); the bytes are the same as
    encoding the row dicts.
    """
    result = payload.get("result")
    if isinstance(result, VersionRows):
        # Encode the frame with a marker string in place of the rows,
        # then put the array where the marker is. A marker that occurs
        # twice (a client may send it as its request id) cannot be
        # told apart, so that frame is encoded whole.
        marked = payload.copy()
        marked["result"] = _ROWS
        head, _, tail = _dumps(marked).partition(_ROWS_JSON)
        if _ROWS_JSON not in tail:
            rows = b",".join([version_text(t) for t in result.versions])
            return (head.encode("utf-8") + b"[" + rows + b"]"
                    + tail.encode("utf-8") + b"\n")
    return (_dumps(payload) + "\n").encode("utf-8")


def decode_frame(line: bytes,
                 max_bytes: Optional[int] = MAX_FRAME_BYTES
                 ) -> Dict[str, Any]:
    """Parse one received line; raises ProtocolError on garbage.

    ``max_bytes`` caps what a server accepts from a client; the client
    reads responses of any length and passes None.
    """
    if max_bytes is not None and len(line) > max_bytes:
        raise ProtocolError(f"frame exceeds {max_bytes} bytes")
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"invalid JSON frame: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame must be a JSON object")
    return payload


def request_op(payload: Dict[str, Any]) -> Tuple[Any, str]:
    """Validate a request frame; returns (id, op)."""
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    return payload.get("id"), op


# ----------------------------------------------------------------------
# result serialization: the one JSON configuration for frames and rows
# ----------------------------------------------------------------------
def _fallback(value: Any) -> Any:
    """json.dumps fallback for engine objects that cross the wire
    (e.g. RelationStats from ANALYZE): dataclasses become dicts,
    anything else its repr. Row values themselves are plain scalars."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, tuple):
        return list(value)
    return repr(value)


#: ``json.dumps(value, separators=(",", ":"), default=_fallback)``,
#: without building an encoder per call.
_dumps = json.JSONEncoder(separators=(",", ":"), default=_fallback).encode


#: Stands in for a VersionRows result while the rest of its frame is
#: encoded (see encode_frame).
_ROWS = "\x00rows"
_ROWS_JSON = _dumps(_ROWS)


def version_text(tup: HeapTuple) -> bytes:
    """A row version's compact JSON, encoded on its first send and
    cached on the tuple (its payload never changes). Runs outside the
    engine latch: two threads may both fill it, with equal bytes."""
    text = tup.text
    if text is None:
        text = tup.text = _dumps(tup.data).encode("utf-8")
    return text


# ----------------------------------------------------------------------
# responses
# ----------------------------------------------------------------------
def ok_response(request_id: Any, result: Any,
                txn: Optional[str] = None, **extra: Any) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"id": request_id, "ok": True,
                               "result": result}
    if txn is not None:
        payload["txn"] = txn
    payload.update(extra)
    return payload


def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The structured error object for one exception."""
    payload: Dict[str, Any] = {
        "type": type(exc).__name__,
        "sqlstate": getattr(exc, "sqlstate", "XX000"),
        "message": str(exc),
        "retryable": bool(getattr(exc, "retryable", False)),
    }
    # SerializationFailure post-mortem fields (PR 1's abort taxonomy).
    cause = getattr(exc, "cause", None)
    if cause is not None:
        payload["cause"] = getattr(cause, "value", str(cause))
    for attr in ("pivot_xid", "t1_xid", "t3_xid", "rule"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload[attr] = value
    return payload


def error_response(request_id: Any, exc: BaseException,
                   txn: Optional[str] = None) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"id": request_id, "ok": False,
                               "error": error_payload(exc)}
    if txn is not None:
        payload["txn"] = txn
    return payload


def raise_for_error(payload: Dict[str, Any]) -> None:
    """Client side: raise the engine exception class matching a
    response's error object (so remote callers catch the very same
    classes -- SerializationFailure, DeadlockDetected, ... -- local
    callers do)."""
    if payload.get("ok", False):
        return
    error = payload.get("error") or {}
    sqlstate = error.get("sqlstate", "XX000")
    message = error.get("message", "server error")
    cls = _CLASS_BY_SQLSTATE.get(sqlstate)
    if cls is not None:
        raise cls(message)
    if error.get("retryable", False):
        from repro.errors import RetryableError
        raise RetryableError(message)
    raise ReproError(message)


def _classes_by_sqlstate() -> Dict[str, type]:
    """Map every ReproError subclass's SQLSTATE to the most derived
    class claiming it (walked once at import)."""
    out: Dict[str, type] = {}
    stack = [ReproError]
    while stack:
        cls = stack.pop()
        stack.extend(cls.__subclasses__())
        state = cls.__dict__.get("sqlstate")
        if state is not None:
            out[state] = cls
    return out


_CLASS_BY_SQLSTATE = _classes_by_sqlstate()
