"""Repo-specific lint rules.

Catalog
-------

========  ===========================================================
CLOG001   CLOG status reads outside the visibility layer
DET001    wall-clock / PRNG use inside the deterministic engine
DUR001    page-file writes outside the durability layer
SLOT001   attribute assigned on a slotted class but not declared
LOCK001   private lock-manager state touched from another package
LOCK002   lock acquired with no release path in the same function
MUT001    mutable default argument
EXC001    bare ``except:``
NOQA001   ``# repro: noqa`` that suppresses nothing (rotted escape)
========  ===========================================================

The interprocedural concurrency rules (LATCH001/LATCH002 latch-rank
proof, RACE001/RACE002 lockset races) live in
:mod:`repro.analysis.concurrency` and run under
``python -m repro.analysis concurrency``; they honour the same noqa
convention but need the whole-project call graph, so they are not part
of the per-file catalog here.

Every rule carries a fix-it hint and honours the
``# repro: noqa(RULE)`` escape hatch (see
:mod:`repro.analysis.lint.core`). Rules that guard engine invariants
(everything except MUT001/EXC001 hygiene) only fire on ``repro.*``
modules -- tests and benchmarks may legitimately poke internals.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.core import FileContext, Finding, Rule


def _terminal_name(node: ast.AST) -> Optional[str]:
    """Rightmost identifier of a Name/Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ClogDisciplineRule(Rule):
    """CLOG verdicts must flow through the visibility layer.

    PR 2's hint bits cache the CLOG's *final* verdict on a tuple; they
    are sound only if every status read that can stamp or trust a hint
    goes through ``repro.mvcc.visibility``. A raw ``did_commit`` /
    ``did_abort`` / ``in_progress`` / ``clog.status`` call elsewhere
    bypasses hint maintenance and can disagree with a stamped hint.
    """

    id = "CLOG001"
    name = "clog-discipline"
    description = ("CommitLog status read (did_commit/did_abort/in_progress/"
                   "clog.status) outside the visibility layer")
    hint = ("route the check through repro.mvcc.visibility (tuple_visibility/"
            "tuple_is_dead) or add '# repro: noqa(CLOG001)' with a rationale "
            "for why raw status is required (e.g. in-progress waits)")

    #: Modules allowed to read raw CLOG status: the CLOG itself, the
    #: visibility layer, snapshot construction (xip tracking), and the
    #: S2PL baseline's own visibility routine.
    ALLOWED = {"repro.mvcc.clog", "repro.mvcc.visibility",
               "repro.mvcc.snapshot", "repro.s2pl.locking"}
    #: The sanitizers compare hint bits against raw CLOG ground truth;
    #: routing them through the visibility layer would let the code
    #: under test answer for itself.
    ALLOWED_PREFIXES = ("repro.analysis",)

    STATUS_METHODS = {"did_commit", "did_abort", "in_progress"}

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.in_engine and ctx.module not in self.ALLOWED
                and not ctx.module.startswith(self.ALLOWED_PREFIXES))

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in self.STATUS_METHODS:
                yield self.finding(
                    ctx, node,
                    f"raw CLOG status read '{attr}()' outside the "
                    f"visibility layer (module {ctx.module})")
            elif (attr == "status"
                    and _terminal_name(node.func.value) == "clog"):
                yield self.finding(
                    ctx, node,
                    f"raw 'clog.status()' read outside the visibility "
                    f"layer (module {ctx.module})")


class DeterminismRule(Rule):
    """The engine must be deterministic: same seed, same history.

    ``time``/``random`` inside ``src/repro`` breaks replayability of
    recorded histories and the verify-layer's serializability checks.
    Only explicitly allowlisted modules may import them.
    """

    id = "DET001"
    name = "nondeterminism"
    description = "time/random import inside the deterministic engine core"
    hint = ("thread a seeded random.Random or the simulated clock through "
            "instead; if wall-clock/PRNG use is genuinely required, add "
            "'# repro: noqa(DET001)' with a rationale")

    #: module -> why it is allowed to import time/random.
    ALLOWED: Dict[str, str] = {
        "repro.obs.trace": "tracer timestamps are observability-only "
                           "metadata, never fed back into scheduling",
        "repro.locks.manager": "deadlock-detection timers mirror "
                               "PostgreSQL's deadlock_timeout and do not "
                               "affect the logical history",
    }
    #: module prefixes allowed wholesale (the discrete-event simulator
    #: owns all randomness, seeded per run; the schedule explorer's
    #: random walks use seeded Randoms and record every choice).
    ALLOWED_PREFIXES: Tuple[str, ...] = ("repro.sim", "repro.explore")

    BANNED = {"time", "random"}

    #: Modules whose output must be a pure function of schema +
    #: statistics + predicate: besides the time/random import ban,
    #: they may not let object identity (``id()``) or raw dict-view
    #: iteration order drive a choice (plans must replay identically).
    #: (operators: hash-join/hash-agg bucket iteration must not leak
    #: set/dict-view or id() order into result order either.)
    PURE_CHOICE_MODULES: Tuple[str, ...] = ("repro.engine.planner",
                                            "repro.engine.operators",
                                            "repro.engine.batch")

    def applies_to(self, ctx: FileContext) -> bool:
        if not ctx.in_engine or ctx.module in self.ALLOWED:
            return False
        return not ctx.module.startswith(self.ALLOWED_PREFIXES)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module in self.PURE_CHOICE_MODULES:
            yield from self._check_pure_choice(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in self.BANNED:
                        yield self.finding(
                            ctx, node,
                            f"'import {alias.name}' in engine module "
                            f"{ctx.module} (not on the determinism "
                            f"allowlist)")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                root = (node.module or "").split(".")[0]
                if root in self.BANNED:
                    yield self.finding(
                        ctx, node,
                        f"'from {node.module} import ...' in engine module "
                        f"{ctx.module} (not on the determinism allowlist)")

    # -- planner purity: no id()- or dict-order-dependent choice ---------
    def _check_pure_choice(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id == "id":
                    yield self.finding(
                        ctx, node,
                        f"id() in pure-choice module {ctx.module}: plan "
                        f"choice must not depend on object identity")
                elif (isinstance(func, ast.Name)
                        and func.id in ("sorted", "min", "max")
                        and node.args and self._dict_view(node.args[0])):
                    yield self.finding(
                        ctx, node.args[0],
                        f"{func.id}() over a dict view in pure-choice "
                        f"module {ctx.module}: order the candidates by an "
                        f"explicit total-order key instead")
            elif isinstance(node, ast.For) and self._dict_view(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    f"iteration over a dict view in pure-choice module "
                    f"{ctx.module}: plan choice must not depend on dict "
                    f"insertion order")
            elif isinstance(node, ast.comprehension) \
                    and self._dict_view(node.iter):
                yield self.finding(
                    ctx, node.iter,
                    f"comprehension over a dict view in pure-choice module "
                    f"{ctx.module}: plan choice must not depend on dict "
                    f"insertion order")

    @staticmethod
    def _dict_view(expr: ast.expr) -> bool:
        return (isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("values", "items", "keys"))


class DurabilityDisciplineRule(Rule):
    """Page-file writes are owned by the durability layer.

    The WAL-before-data rule is enforced at exactly one choke point:
    ``DurabilityManager._write_back`` flushes WAL through a page's
    recLSN before handing it to ``PageStore.write_page``. A
    ``write_page`` (or raw positioned ``pwrite``) call anywhere else in
    the engine can put a page image on disk whose WAL is not durable --
    the one state ARIES REDO cannot repair. The runtime counterpart is
    the ``durable`` sanitizer's wal-before-data check.
    """

    id = "DUR001"
    name = "durability-discipline"
    description = ("page-file write (write_page/pwrite) outside "
                   "repro.storage.durable")
    hint = ("route the write through DurabilityManager (mark the page "
            "dirty and let writeback/checkpoint persist it), or add "
            "'# repro: noqa(DUR001)' with a rationale for why the "
            "pageLSN rule cannot be violated at this site")

    #: The durability layer owns both entry points.
    ALLOWED_PREFIXES = ("repro.storage.durable",)

    WRITE_METHODS = {"write_page", "pwrite"}

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.in_engine
                and not ctx.module.startswith(self.ALLOWED_PREFIXES))

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr in self.WRITE_METHODS:
                yield self.finding(
                    ctx, node,
                    f"page-file write '{node.func.attr}()' outside the "
                    f"durability layer (module {ctx.module})")


class SlotsConsistencyRule(Rule):
    """No attribute may be assigned on a slotted class undeclared.

    With ``__slots__`` a stray ``self.typo = ...`` raises
    ``AttributeError`` at runtime -- but only on the code path that
    executes it. This catches it statically, resolving inherited slots
    across the project index (including ``@dataclass(slots=True)``).
    """

    id = "SLOT001"
    name = "slots-consistency"
    description = "attribute assigned on a slotted class but not in __slots__"
    hint = ("declare the attribute in the class's __slots__ tuple (or the "
            "dataclass field list), or drop the assignment")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_engine

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for cls in ast.walk(ctx.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            allowed = ctx.project.slots_closure(cls.name)
            if allowed is None:
                continue  # un-slotted somewhere on the MRO: __dict__ exists
            for func in cls.body:
                if not isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                for finding in self._check_method(ctx, cls.name, func,
                                                  allowed):
                    yield finding

    def _check_method(self, ctx: FileContext, cls_name: str,
                      func: ast.AST, allowed: Set[str]) -> Iterable[Finding]:
        for node in ast.walk(func):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                elts = target.elts if isinstance(
                    target, (ast.Tuple, ast.List)) else [target]
                for elt in elts:
                    if (isinstance(elt, ast.Attribute)
                            and isinstance(elt.value, ast.Name)
                            and elt.value.id == "self"
                            and not elt.attr.startswith("__")
                            and elt.attr not in allowed):
                        yield self.finding(
                            ctx, elt,
                            f"'self.{elt.attr}' assigned on slotted class "
                            f"{cls_name} but not declared in its __slots__")


class LockEncapsulationRule(Rule):
    """Lock-table internals are owned by their managers.

    The SIREAD cleanup protocol (paper section 4.7) and the
    heavyweight-lock release protocol are only correct if every
    mutation goes through the manager's public methods -- a direct
    ``lockmgr._table[...]`` / ``lockmgr._add(...)`` from another
    package can desynchronize the per-holder indexes the cleanup
    relies on.

    The same discipline covers the server-era latches
    (:mod:`repro.engine.latches`): a latch's condition variable and
    held-stack bookkeeping (``latch._cond``, ``latch._lock``, ...) are
    owned by the latch module -- outside code must go through
    acquire/release/park/bow/notify_all or the rank-order enforcement
    can be bypassed.
    """

    id = "LOCK001"
    name = "lock-encapsulation"
    description = ("private lock-manager or latch state accessed from "
                   "another package")
    hint = ("use the manager's public API (acquire/release_all/iter_locks/"
            "locks_held/... -- for latches: acquire/release/park/bow/"
            "notify_all), or add the operation to the manager as a "
            "public method")

    #: Receiver spellings that denote a lock manager or latch in this
    #: codebase (repro.server names its latches by guarded resource).
    RECEIVERS = {"lockmgr", "lock_manager", "lockmanager",
                 "latch", "latches", "engine_latch",
                 "conn_latch", "metrics_latch"}
    #: Packages that own lock-manager / latch internals.
    OWNER_PREFIXES = ("repro.locks", "repro.ssi", "repro.engine.latches")

    def applies_to(self, ctx: FileContext) -> bool:
        return (ctx.in_engine
                and not ctx.module.startswith(self.OWNER_PREFIXES))

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Attribute):
                continue
            if (node.attr.startswith("_") and not node.attr.startswith("__")
                    and _terminal_name(node.value) in self.RECEIVERS):
                yield self.finding(
                    ctx, node,
                    f"private lock-manager member "
                    f"'{_terminal_name(node.value)}.{node.attr}' touched "
                    f"from {ctx.module}")


class LockReleasePathRule(Rule):
    """Every in-function ``acquire`` needs a release path.

    A function that acquires a heavyweight lock and never mentions a
    release leaks the lock unless some other protocol (transaction-end
    ``release_all``) covers it -- in which case the site takes a noqa
    stating that protocol.

    Latch acquisitions (repro.engine.latches receivers, including the
    server's wire/conn/metrics latches) are held to the same standard:
    a bare ``latch.acquire()`` with no release in the function is a
    hang waiting for an exception -- use ``with latch:`` instead.
    """

    id = "LOCK002"
    name = "lock-release-path"
    description = ("lock/latch acquire without a release path in the "
                   "same function")
    hint = ("pair the acquire with release/release_all in this function "
            "(try/finally; for latches prefer 'with latch:'), or add "
            "'# repro: noqa(LOCK002)' naming the protocol that releases "
            "it (e.g. held to transaction end, released by release_all "
            "at commit/abort)")

    RECEIVERS = LockEncapsulationRule.RECEIVERS

    def applies_to(self, ctx: FileContext) -> bool:
        # The managers themselves implement acquire; the rule is about
        # call sites in the rest of the engine (including repro.server).
        return (ctx.in_engine
                and not ctx.module.startswith(("repro.locks",
                                               "repro.engine.latches")))

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            acquires = []
            has_release = False
            for node in ast.walk(func):
                if isinstance(node, ast.Attribute):
                    if node.attr.startswith("release"):
                        has_release = True
                    elif (node.attr == "acquire"
                            and _terminal_name(node.value) in self.RECEIVERS):
                        acquires.append(node)
            if has_release:
                continue
            for node in acquires:
                yield self.finding(
                    ctx, node,
                    f"'{func.name}' acquires a lock but has no "
                    f"release/release_all path")


class MutableDefaultRule(Rule):
    """Mutable default arguments are shared across calls."""

    id = "MUT001"
    name = "mutable-default"
    description = "mutable default argument"
    hint = "default to None and construct the list/dict/set in the body"

    MUTABLE_CALLS = {"list", "dict", "set"}

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in '{func.name}'")

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self.MUTABLE_CALLS
                and not node.args and not node.keywords)


class BareExceptRule(Rule):
    """``except:`` swallows SanitizerViolation, KeyboardInterrupt, ..."""

    id = "EXC001"
    name = "bare-except"
    description = "bare except clause"
    hint = ("catch a specific exception type; at minimum 'except Exception' "
            "so sanitizer violations and interrupts propagate")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(ctx, node, "bare 'except:' clause")


class UnusedNoqaRule(Rule):
    """A ``# repro: noqa(RULE)`` that suppresses nothing has rotted.

    Suppressions are contracts ("this site is exempt *because* ...");
    when the code they excused is gone the stale comment keeps the
    escape hatch open for whatever lands on that line next. This runs
    as a whole-run post pass over the used-noqa map: a named rule that
    was checked on this run but suppressed nothing is a finding. Rules
    not in the active run set (e.g. RACE001 during a plain lint, which
    only the concurrency analyzer evaluates) are left alone -- another
    command owns them.
    """

    id = "NOQA001"
    name = "unused-noqa"
    description = "noqa annotation that no longer suppresses any finding"
    hint = ("delete the stale '# repro: noqa(...)' comment (or the stale "
            "rule name from its list); if the suppression is owned by "
            "another analysis command, name that command's rule ids only")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def post_check(self, contexts: Sequence[FileContext],
                   active_ids: Set[str]) -> Iterable[Finding]:
        for ctx in contexts:
            for line, named in sorted(ctx.noqa.items()):
                used = ctx.used_noqa.get(line, set())
                if "*" in named:
                    if not used:
                        yield Finding(
                            rule=self.id, path=ctx.path, line=line, col=0,
                            message="bare '# repro: noqa' suppresses "
                                    "nothing on this line",
                            hint=self.hint)
                    continue
                for rule_id in sorted((named & active_ids) - {self.id}
                                      - used):
                    yield Finding(
                        rule=self.id, path=ctx.path, line=line, col=0,
                        message=f"'# repro: noqa({rule_id})' suppresses "
                                f"nothing on this line",
                        hint=self.hint)


def all_rules() -> Sequence[Rule]:
    """The full rule catalog, in catalog order."""
    return (ClogDisciplineRule(), DeterminismRule(),
            DurabilityDisciplineRule(), SlotsConsistencyRule(),
            LockEncapsulationRule(), LockReleasePathRule(),
            MutableDefaultRule(), BareExceptRule(), UnusedNoqaRule())
