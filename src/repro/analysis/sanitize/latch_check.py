"""Dynamic lockset sanitizer: runtime check of ``guarded-by`` facts.

The static analyzer (:mod:`repro.analysis.concurrency`) proves
``# repro: guarded-by(LATCH)`` declarations along every call path it
can resolve -- but the engine's statement dispatch is a ``getattr``
call, so facts on deep-engine classes (SSIManager, the SIREAD and
heavyweight lock tables, the visibility map, the stats catalog) are
statically *vacuous*: no reachable access site exists to check. This
module closes that gap at runtime, the Eraser way:

* the declared facts are recovered by running the static collector
  over the installed ``repro`` source tree (one parse per process,
  cached), so the runtime checker can never drift from the
  annotations;
* each declared attribute is replaced by a checking descriptor -- a
  wrapper around the slot member descriptor for ``__slots__`` classes,
  an instance-``__dict__``-backed data descriptor otherwise -- that
  verifies, on every read *and* write, that the accessing thread holds
  a latch of the declared rank (:func:`repro.engine.latches.holds_rank`);
* a violation raises :class:`SanitizerViolation` (sanitizer
  ``"latchset"``, invariant ``"guarded-by-violation"``) -- an engine
  bug surfacing immediately at the racy access, not a corrupted
  result three transactions later.

Checks are skipped when any of these hold:

* the sanitizer is not **armed** (``arm()`` is refcounted; the
  ThreadSafeEngine arms it when its Database carries sanitizers, i.e.
  under ``REPRO_SANITIZE=1`` or ``EngineConfig.sanitize.enabled``);
* the accessing thread is the **main thread** -- the deterministic
  single-threaded engine and test assertions legitimately touch
  engine state with no latches, and single-threaded access cannot
  race;
* the access happens **under construction** (any ``__init__`` of an
  instrumented class on this thread's stack): objects are built
  before they are published to other threads, and the publishing
  latch provides the happens-before edge.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
from typing import Any, Dict, Optional, Tuple

from repro.analysis.sanitize.violations import SanitizerViolation
from repro.engine.latches import holds_rank

#: rank-name -> numeric rank (kept in sync with repro.engine.latches).
_RANK_BY_NAME = {"ENGINE": 10, "CONNECTIONS": 20, "METRICS": 40}

_tls = threading.local()

#: (class name, attr) -> installed descriptor; module-global so a
#: second engine in the same process reuses the instrumentation.
_installed: Dict[Tuple[str, str], "_GuardedAttribute"] = {}
#: classes whose __init__ has been wrapped: cls -> original __init__.
_wrapped_inits: Dict[type, Any] = {}
#: refcount of armed engines; checks fire only when > 0.
_armed = 0
#: diagnostic counters (approximate: unlocked increments).
_counters = {"checks": 0, "violations": 0}

_facts_cache: Optional[Dict[Tuple[str, str], Tuple[str, str]]] = None


def static_guard_facts() -> Dict[Tuple[str, str], Tuple[str, str]]:
    """(class name, attr) -> (guard rank name, defining module), from
    the static analyzer run over the installed ``repro`` tree. Cached
    per process; fails open to an empty fact set when the source is
    unavailable."""
    global _facts_cache
    if _facts_cache is not None:
        return _facts_cache
    facts: Dict[Tuple[str, str], Tuple[str, str]] = {}
    try:
        import repro
        from repro.analysis.concurrency.callgraph import build_graph
        from repro.analysis.concurrency.lockset import collect_guarded_facts
        from repro.analysis.lint.core import build_contexts
        root = os.path.dirname(os.path.abspath(repro.__file__))
        contexts, _errors = build_contexts([root])
        graph = build_graph(contexts)
        for (cls, attr), guard in collect_guarded_facts(graph).items():
            if guard in _RANK_BY_NAME and cls in graph.classes:
                facts[(cls, attr)] = (guard, graph.classes[cls].module)
    except Exception:
        facts = {}
    _facts_cache = facts
    return facts


def _under_construction() -> bool:
    return getattr(_tls, "depth", 0) > 0


def _check(cls_name: str, attr: str, guard: str, is_write: bool) -> None:
    if _armed <= 0 or _under_construction():
        return
    if threading.current_thread() is threading.main_thread():
        return
    _counters["checks"] += 1
    if holds_rank(_RANK_BY_NAME[guard]):
        return
    _counters["violations"] += 1
    kind = "write to" if is_write else "read of"
    raise SanitizerViolation(
        "latchset", "guarded-by-violation",
        f"{kind} {cls_name}.{attr} (declared guarded-by({guard})) from "
        f"thread {threading.current_thread().name!r} without holding a "
        f"rank-{_RANK_BY_NAME[guard]} latch",
        subject={"class": cls_name, "attr": attr, "guard": guard,
                 "write": is_write,
                 "thread": threading.current_thread().name})


class _GuardedAttribute:
    """Data descriptor enforcing one guarded-by fact.

    Wraps the original slot member descriptor when the class declares
    ``__slots__``; otherwise stores through the instance ``__dict__``
    (a data descriptor shadows the instance dict on lookup, so reads
    funnel through :meth:`__get__` either way)."""

    __slots__ = ("cls_name", "attr", "guard", "base")

    def __init__(self, cls_name: str, attr: str, guard: str,
                 base: Optional[Any]) -> None:
        self.cls_name = cls_name
        self.attr = attr
        self.guard = guard
        self.base = base

    def __get__(self, obj: Any, objtype: Optional[type] = None) -> Any:
        if obj is None:
            return self
        _check(self.cls_name, self.attr, self.guard, is_write=False)
        if self.base is not None:
            return self.base.__get__(obj, objtype)
        try:
            return obj.__dict__[self.attr]
        except KeyError:
            raise AttributeError(
                f"{type(obj).__name__!r} object has no attribute "
                f"{self.attr!r}") from None

    def __set__(self, obj: Any, value: Any) -> None:
        _check(self.cls_name, self.attr, self.guard, is_write=True)
        if self.base is not None:
            self.base.__set__(obj, value)
        else:
            obj.__dict__[self.attr] = value

    def __delete__(self, obj: Any) -> None:
        _check(self.cls_name, self.attr, self.guard, is_write=True)
        if self.base is not None:
            self.base.__delete__(obj)
        else:
            del obj.__dict__[self.attr]


def _wrap_init(cls: type) -> None:
    if cls in _wrapped_inits:
        return
    orig = cls.__init__

    @functools.wraps(orig)
    def init(self: Any, *args: Any, **kw: Any) -> None:
        _tls.depth = getattr(_tls, "depth", 0) + 1
        try:
            orig(self, *args, **kw)
        finally:
            _tls.depth -= 1

    _wrapped_inits[cls] = orig
    cls.__init__ = init  # type: ignore[method-assign]


def install(facts: Optional[Dict[Tuple[str, str],
                                 Tuple[str, str]]] = None) -> int:
    """Instrument every declared attribute; idempotent. Returns the
    number of attributes instrumented (including previously)."""
    if facts is None:
        facts = static_guard_facts()
    for (cls_name, attr), (guard, module) in sorted(facts.items()):
        if (cls_name, attr) in _installed:
            continue
        try:
            mod = importlib.import_module(module)
            cls = getattr(mod, cls_name, None)
        except Exception:
            cls = None
        if not isinstance(cls, type):
            continue
        base = cls.__dict__.get(attr)  # slot member descriptor, or None
        if isinstance(base, _GuardedAttribute):  # pragma: no cover
            continue
        guard_desc = _GuardedAttribute(cls_name, attr, guard, base)
        setattr(cls, attr, guard_desc)
        _installed[(cls_name, attr)] = guard_desc
        _wrap_init(cls)
    return len(_installed)


def uninstall_all() -> None:
    """Remove every descriptor and restore wrapped constructors (test
    isolation; instrumented-but-disarmed classes are harmless but this
    returns the process to a pristine state)."""
    for (cls_name, attr), desc in list(_installed.items()):
        for cls, orig in list(_wrapped_inits.items()):
            if cls.__name__ != cls_name:
                continue
            if cls.__dict__.get(attr) is desc:
                if desc.base is not None:
                    setattr(cls, attr, desc.base)
                else:
                    delattr(cls, attr)
        del _installed[(cls_name, attr)]
    for cls, orig in list(_wrapped_inits.items()):
        cls.__init__ = orig  # type: ignore[method-assign]
        del _wrapped_inits[cls]


def stats() -> Dict[str, int]:
    return {"instrumented": len(_installed), "armed": _armed,
            **_counters}


class LocksetSanitizer:
    """Arm/disarm handle for one engine.

    Instrumentation is installed process-wide on first arm and stays
    in place (disarmed descriptors only cost an attribute indirection);
    the armed refcount scopes *enforcement* to the lifetime of engines
    that requested it."""

    def __init__(self) -> None:
        self._armed = False

    def arm(self) -> "LocksetSanitizer":
        global _armed
        if not self._armed:
            install()
            _armed += 1
            self._armed = True
        return self

    def disarm(self) -> None:
        global _armed
        if self._armed:
            _armed -= 1
            self._armed = False

    @property
    def armed(self) -> bool:
        return self._armed

    def stats(self) -> Dict[str, int]:
        return stats()
