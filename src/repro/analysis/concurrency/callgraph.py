"""Project-wide call-graph builder over the lint framework.

Reuses the two-pass stdlib-``ast`` machinery of
:mod:`repro.analysis.lint.core` (one :class:`FileContext` per file plus
a shared cross-file index) and adds what interprocedural analysis
needs:

* a **function index**: every ``def`` (including methods and nested
  closures) under a dotted qualified name;
* a **class index** with per-class method tables, base lists, and
  **attribute types** inferred from annotations
  (``x: ClassName`` / ``x: "ClassName"`` / ``Optional[ClassName]``)
  and from constructor assignments (``self.x = ClassName(...)``);
* **latch identification**: attributes or locals bound to
  ``Latch(name, RANK_X)`` / ``EngineLatch()`` carry their rank, so
  ``with self.conn_latch:`` resolves to an acquisition of a known rank;
* per-function **event lists** -- calls, latch acquisitions,
  park/bow/notify sites, and shared-attribute accesses -- each
  annotated with the set of latch ranks held *locally* at that point
  (tracked through ``with`` nesting);
* a **reachability propagator** that pushes entry-point hold-sets
  through the graph and keeps one example call path per (function,
  hold-set) state for violation traces.

Everything here fails **open**: a call whose callee cannot be resolved
becomes an explicit :class:`UnresolvedEdge` in the report rather than a
guessed edge, so the analyses downstream can under-approximate but
never fabricate a path.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.lint.core import FileContext

#: Canonical rank spellings (mirrors repro.engine.latches constants).
RANK_BY_NAME = {"ENGINE": 10, "CONNECTIONS": 20, "METRICS": 40}
NAME_BY_RANK = {v: k for k, v in RANK_BY_NAME.items()}

#: Class names recognised as latches even when their definition is not
#: among the analyzed files (fixtures import them from the engine).
LATCH_CLASS_DEFAULTS = {"Latch": None, "EngineLatch": "ENGINE"}

#: Blocking / must-hold latch methods modelled specially: ``park`` and
#: ``bow`` release the latch and re-acquire it (a re-acquisition edge);
#: ``notify_all`` merely requires the latch held.
BLOCKING_LATCH_METHODS = {"park", "bow"}
MUSTHOLD_LATCH_METHODS = {"notify_all"}

#: Container methods that mutate their receiver: a call like
#: ``self.fatal_errors.append(x)`` is a *write* to ``fatal_errors``
#: for lockset purposes, exactly like ``self._connections[k] = v``.
MUTATOR_METHODS = {
    "append", "appendleft", "add", "clear", "discard", "extend",
    "insert", "pop", "popleft", "popitem", "remove", "reverse",
    "setdefault", "sort", "update",
}


@dataclass(frozen=True)
class LatchRef:
    """One latch identity, named by its rank."""

    name: str           #: rank name ("ENGINE", ...; "?" when unknown)
    rank: Optional[int]  #: numeric rank, None when unresolvable

    def known(self) -> bool:
        return self.rank is not None


# ----------------------------------------------------------------------
# events
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CallEvent:
    line: int
    held: "frozenset[str]"      #: rank names held locally at the site
    callees: Tuple[str, ...]    #: resolved callee qnames
    label: str


@dataclass(frozen=True)
class AcquireEvent:
    line: int
    held: "frozenset[str]"
    latch: LatchRef


@dataclass(frozen=True)
class BlockEvent:
    """park/bow: releases ``latch`` while blocked, then re-acquires."""

    line: int
    held: "frozenset[str]"
    latch: LatchRef
    kind: str                   #: "park" | "bow" | "notify_all"


@dataclass(frozen=True)
class AccessEvent:
    line: int
    held: "frozenset[str]"
    cls: str
    attr: str
    is_write: bool
    in_init: bool               #: self-access inside the class's __init__


@dataclass(frozen=True)
class UnresolvedEdge:
    caller: str
    path: str
    line: int
    text: str
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {"caller": self.caller, "path": self.path, "line": self.line,
                "callee": self.text, "reason": self.reason}


# ----------------------------------------------------------------------
# index nodes
# ----------------------------------------------------------------------
@dataclass
class FunctionInfo:
    qname: str
    module: str
    cls: Optional[str]
    name: str
    node: ast.AST
    path: str
    lineno: int
    #: param name -> class name (from annotations).
    param_types: Dict[str, str] = field(default_factory=dict)
    #: class bound to ``self`` (methods, and closures inheriting it).
    self_class: Optional[str] = None
    events: List[object] = field(default_factory=list)


@dataclass
class ClassNode:
    name: str
    module: str
    path: str
    lineno: int
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    attr_latches: Dict[str, LatchRef] = field(default_factory=dict)
    #: attr -> declared guard rank name (# repro: guarded-by(X)).
    guarded: Dict[str, str] = field(default_factory=dict)
    #: attr -> confinement rationale (# repro: confined(...)).
    confined: Dict[str, str] = field(default_factory=dict)
    #: attr -> (path, line) of its (first) declaration site.
    decl_lines: Dict[str, Tuple[str, int]] = field(default_factory=dict)


class CallGraph:
    """The assembled project index plus per-function event lists."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts = list(contexts)
        self.ctx_by_path: Dict[str, FileContext] = {
            ctx.path: ctx for ctx in contexts}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassNode] = {}
        #: bare class names defined more than once (resolution fails
        #: open: lookups on an ambiguous name return None).
        self.ambiguous_classes: Set[str] = set()
        #: bare function name -> qnames (for the unique-name fallback
        #: that resolves stored callbacks like ``self.wait_hook(...)``).
        self.by_bare_name: Dict[str, List[str]] = {}
        #: entry points auto-detected from Thread(target=...) /
        #: run_in_executor(executor, fn, ...) sites.
        self.auto_entries: List[str] = []
        self.unresolved: List[UnresolvedEdge] = []
        self.edge_count = 0
        self._subclasses: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------------
    # class index lookups (all fail open on unknown/ambiguous names)
    # ------------------------------------------------------------------
    def class_node(self, name: Optional[str]) -> Optional[ClassNode]:
        if name is None or name in self.ambiguous_classes:
            return None
        return self.classes.get(name)

    def mro(self, name: str) -> List[ClassNode]:
        out: List[ClassNode] = []
        seen: Set[str] = set()
        stack = [name]
        while stack:
            cur = stack.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            node = self.class_node(cur)
            if node is None:
                continue
            out.append(node)
            stack.extend(node.bases)
        return out

    def attr_type(self, cls: str, attr: str) -> Optional[str]:
        for node in self.mro(cls):
            if attr in node.attr_types:
                return node.attr_types[attr]
        return None

    def attr_latch(self, cls: str, attr: str) -> Optional[LatchRef]:
        for node in self.mro(cls):
            if attr in node.attr_latches:
                return node.attr_latches[attr]
        return None

    def resolve_method(self, cls: str, attr: str) -> List[str]:
        """Method qnames ``cls.attr`` may dispatch to: the MRO match
        plus any override in a known subclass of ``cls``."""
        out: List[str] = []
        for node in self.mro(cls):
            if attr in node.methods:
                out.append(node.methods[attr])
                break
        for sub in sorted(self._subclasses.get(cls, ())):
            sub_node = self.class_node(sub)
            if sub_node is not None and attr in sub_node.methods:
                if sub_node.methods[attr] not in out:
                    out.append(sub_node.methods[attr])
        return out

    def is_latch_class(self, name: Optional[str]) -> bool:
        if name is None:
            return False
        if name in LATCH_CLASS_DEFAULTS:
            return True
        return any(node.name in LATCH_CLASS_DEFAULTS or
                   any(base in LATCH_CLASS_DEFAULTS for base in node.bases)
                   for node in self.mro(name))

    def class_method_names(self) -> Set[str]:
        names: Set[str] = set()
        for node in self.classes.values():
            names.update(node.methods)
        return names

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------
    def propagate(self, entries: Sequence[object]) -> "Reachability":
        """Push hold-sets from ``entries`` through the call events.

        Each entry is a function qname (entered holding nothing) or a
        ``(qname, (rank_name, ...))`` pair for callbacks invoked with
        latches already held (the engine wait hook). Returns the
        visited ``(function, held)`` states with one example call path
        each. Unknown entry names are ignored (the caller reports
        them)."""
        reach = Reachability()
        queue: "deque[Tuple[str, frozenset]]" = deque()
        for entry in entries:
            if isinstance(entry, tuple):
                qname, initial = entry[0], frozenset(entry[1])
            else:
                qname, initial = entry, frozenset()
            if qname in self.functions:
                state = (qname, initial)
                if state not in reach.parents:
                    reach.parents[state] = None
                    reach.entry_of[state] = qname
                    queue.append(state)
        while queue:
            state = queue.popleft()
            qname, held = state
            fn = self.functions[qname]
            reach.states.setdefault(qname, set()).add(held)
            for ev in fn.events:
                if not isinstance(ev, CallEvent):
                    continue
                eff = held | ev.held
                for callee in ev.callees:
                    if callee not in self.functions:
                        continue
                    nxt = (callee, eff)
                    if nxt in reach.parents:
                        continue
                    reach.parents[nxt] = (state, ev.line)
                    reach.entry_of[nxt] = reach.entry_of[state]
                    queue.append(nxt)
        return reach


@dataclass
class Reachability:
    """(function, held-set) states reachable from the entry points."""

    #: state -> (parent state, call line) or None for entry states.
    parents: Dict[Tuple[str, frozenset], Optional[Tuple]] = \
        field(default_factory=dict)
    entry_of: Dict[Tuple[str, frozenset], str] = field(default_factory=dict)
    states: Dict[str, Set[frozenset]] = field(default_factory=dict)

    def trace(self, state: Tuple[str, frozenset]) -> List[str]:
        """Render the example call path leading to ``state``."""
        hops: List[str] = []
        cur: Optional[Tuple[str, frozenset]] = state
        while cur is not None:
            parent = self.parents.get(cur)
            qname, held = cur
            held_txt = "{" + ",".join(sorted(held)) + "}"
            if parent is None:
                hops.append(f"{qname} [entry, held {held_txt}]")
                break
            hops.append(f"{qname} [held {held_txt}] "
                        f"(called at line {parent[1]})")
            cur = parent[0]
        return list(reversed(hops))


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
def build_graph(contexts: Sequence[FileContext]) -> CallGraph:
    graph = CallGraph(contexts)
    modmaps: Dict[str, "_ModuleMaps"] = {}
    for ctx in contexts:
        modmaps[ctx.path] = _index_file(graph, ctx)
    for name, node in graph.classes.items():
        for base in node.bases:
            graph._subclasses.setdefault(base, set()).add(name)
    # transitive subclass closure
    changed = True
    while changed:
        changed = False
        for base, subs in list(graph._subclasses.items()):
            for sub in list(subs):
                for subsub in graph._subclasses.get(sub, ()):
                    if subsub not in subs:
                        subs.add(subsub)
                        changed = True
    for ctx in contexts:
        _collect_class_facts(graph, ctx, modmaps[ctx.path])
    for fn in graph.functions.values():
        _EventBuilder(graph, fn, modmaps[fn.path]).build()
    return graph


@dataclass
class _ModuleMaps:
    """Per-module name environment from imports."""

    #: local alias -> imported module dotted path.
    module_alias: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, original name) from ``from m import n``.
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def _index_file(graph: CallGraph, ctx: FileContext) -> _ModuleMaps:
    maps = _ModuleMaps()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                maps.module_alias[alias.asname or
                                  alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                maps.from_imports[alias.asname or alias.name] = \
                    (node.module, alias.name)

    def visit(body: Iterable[ast.stmt], scope: List[str],
              cls: Optional[str], self_cls: Optional[str]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.ClassDef):
                cnode = ClassNode(name=stmt.name, module=ctx.module,
                                  path=ctx.path, lineno=stmt.lineno,
                                  bases=[_terminal(b) or "?"
                                         for b in stmt.bases])
                if stmt.name in graph.classes and \
                        graph.classes[stmt.name].path != ctx.path:
                    graph.ambiguous_classes.add(stmt.name)
                graph.classes.setdefault(stmt.name, cnode)
                if graph.classes[stmt.name] is not cnode and \
                        graph.classes[stmt.name].path == ctx.path:
                    pass  # redefinition in same file: keep first
                visit(stmt.body, scope + [stmt.name], stmt.name, stmt.name)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = ".".join([ctx.module] + scope + [stmt.name])
                args = stmt.args
                all_args = list(args.posonlyargs) + list(args.args) + \
                    list(args.kwonlyargs)
                fn_self = None
                if cls is not None and all_args and \
                        all_args[0].arg in ("self", "cls"):
                    fn_self = cls
                elif self_cls is not None and not any(
                        a.arg == "self" for a in all_args):
                    fn_self = self_cls  # closure: inherits enclosing self
                fn = FunctionInfo(qname=qname, module=ctx.module, cls=cls,
                                  name=stmt.name, node=stmt, path=ctx.path,
                                  lineno=stmt.lineno, self_class=fn_self)
                graph.functions[qname] = fn
                graph.by_bare_name.setdefault(stmt.name, []).append(qname)
                if cls is not None:
                    owner = graph.classes.get(cls)
                    if owner is not None and owner.path == ctx.path:
                        owner.methods.setdefault(stmt.name, qname)
                visit(stmt.body, scope + [stmt.name], None,
                      fn_self)
            # other statements carry no definitions we index
    visit(ctx.tree.body, [], None, None)
    return maps


def _terminal(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotation_class(expr: Optional[ast.expr]) -> Optional[str]:
    """Best-effort class name from an annotation expression, seeing
    through Optional[...] / quotes."""
    if expr is None:
        return None
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        name = expr.value.strip()
        return name.split("[")[0].split(".")[-1] if name else None
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return _terminal(expr)
    if isinstance(expr, ast.Subscript):
        head = _terminal(expr.value)
        if head == "Optional":
            return _annotation_class(expr.slice)
        return None
    return None


def _latch_from_call(graph: CallGraph, node: ast.expr) -> Optional[LatchRef]:
    """Recognise ``Latch("x", RANK_Y)`` / ``EngineLatch()`` values."""
    if not isinstance(node, ast.Call):
        return None
    callee = _terminal(node.func)
    if callee is None or not graph.is_latch_class(callee):
        return None
    default = LATCH_CLASS_DEFAULTS.get(callee)
    if default is None:
        cnode = graph.class_node(callee)
        if cnode is not None:
            for base in cnode.bases:
                if LATCH_CLASS_DEFAULTS.get(base):
                    default = LATCH_CLASS_DEFAULTS[base]
    rank_expr: Optional[ast.expr] = None
    if len(node.args) >= 2:
        rank_expr = node.args[1]
    for kw in node.keywords:
        if kw.arg == "rank":
            rank_expr = kw.value
    if rank_expr is None:
        if default is not None:
            return LatchRef(default, RANK_BY_NAME[default])
        return LatchRef("?", None)
    name = _terminal(rank_expr)
    if name is not None and name.startswith("RANK_"):
        short = name[len("RANK_"):]
        return LatchRef(short, RANK_BY_NAME.get(short))
    if isinstance(rank_expr, ast.Constant) and \
            isinstance(rank_expr.value, int):
        rank = rank_expr.value
        return LatchRef(NAME_BY_RANK.get(rank, str(rank)), rank)
    return LatchRef("?", None)


def _collect_class_facts(graph: CallGraph, ctx: FileContext,
                         maps: _ModuleMaps) -> None:
    """Second pass: attribute types/latches/guard facts per class."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cnode = graph.classes.get(node.name)
        if cnode is None or cnode.path != ctx.path:
            continue

        def record(attr: str, lineno: int, value: Optional[ast.expr],
                   annotation: Optional[ast.expr],
                   param_ann: Optional[Dict[str, str]] = None) -> None:
            cnode.decl_lines.setdefault(attr, (ctx.path, lineno))
            guard = ctx.guards.get(lineno)
            if guard is not None:
                cnode.guarded.setdefault(attr, guard)
            rationale = ctx.confined.get(lineno)
            if rationale is not None:
                cnode.confined.setdefault(attr, rationale)
            latch = _latch_from_call(graph, value) if value is not None \
                else None
            if latch is not None:
                cnode.attr_latches.setdefault(attr, latch)
                cnode.attr_types.setdefault(attr,
                                            _terminal(value.func) or "?")
                return
            typ = _annotation_class(annotation)
            if typ is None and isinstance(value, ast.Call):
                callee = _terminal(value.func)
                if graph.class_node(callee) is not None:
                    typ = callee
            if typ is None and isinstance(value, ast.Name) and param_ann:
                # ``self.server = server`` picks up the annotation of
                # the ``server`` parameter of the enclosing method.
                typ = param_ann.get(value.id)
            if typ is not None and (graph.class_node(typ) is not None
                                    or graph.is_latch_class(typ)):
                cnode.attr_types.setdefault(attr, typ)
                if graph.is_latch_class(typ) and \
                        attr not in cnode.attr_latches:
                    default = LATCH_CLASS_DEFAULTS.get(typ)
                    cnode.attr_latches[attr] = (
                        LatchRef(default, RANK_BY_NAME[default])
                        if default else LatchRef("?", None))

        # class-level declarations (dataclass fields, annotations)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                record(stmt.target.id, stmt.lineno, stmt.value,
                       stmt.annotation)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                record(stmt.targets[0].id, stmt.lineno, stmt.value, None)
        # self.X = ... sites in every method
        for func in node.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_ann: Dict[str, str] = {}
            for arg in (list(func.args.posonlyargs) + list(func.args.args)
                        + list(func.args.kwonlyargs)):
                ann = _annotation_class(arg.annotation)
                if ann is not None:
                    param_ann[arg.arg] = ann
            for sub in ast.walk(func):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value, annotation = \
                        sub.target, sub.value, sub.annotation
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    record(target.attr, sub.lineno, value, annotation,
                           param_ann)


# ----------------------------------------------------------------------
# per-function event extraction
# ----------------------------------------------------------------------
class _EventBuilder:
    """Walks one function body tracking locally-held latch ranks."""

    def __init__(self, graph: CallGraph, fn: FunctionInfo,
                 maps: _ModuleMaps) -> None:
        self.graph = graph
        self.fn = fn
        self.maps = maps
        self.local_types: Dict[str, str] = {}
        self.local_latches: Dict[str, LatchRef] = {}
        self._func_positions: Set[int] = set()
        self._write_ids: Set[int] = set()
        self._method_names = graph.class_method_names()

    # -- typing helpers -------------------------------------------------
    def _param_types(self) -> None:
        args = self.fn.node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            typ = _annotation_class(arg.annotation)
            if typ is not None:
                self.fn.param_types[arg.arg] = typ

    def _prescan_locals(self) -> None:
        """Flow-insensitive local variable types (x = ClassName(...))."""
        for sub in self._walk_own(self.fn.node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and \
                    isinstance(sub.targets[0], ast.Name):
                name = sub.targets[0].id
                latch = _latch_from_call(self.graph, sub.value)
                if latch is not None:
                    self.local_latches[name] = latch
                    continue
                typ = self.expr_class(sub.value)
                if typ is not None:
                    self.local_types.setdefault(name, typ)
            elif isinstance(sub, ast.AnnAssign) and \
                    isinstance(sub.target, ast.Name):
                typ = _annotation_class(sub.annotation)
                if typ is not None:
                    self.local_types.setdefault(sub.target.id, typ)

    def expr_class(self, expr: ast.expr) -> Optional[str]:
        """Infer the class of ``expr``'s value, or None."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return self.fn.self_class
            if expr.id in self.fn.param_types:
                return self.fn.param_types[expr.id]
            if expr.id in self.local_types:
                return self.local_types[expr.id]
            if expr.id in self.maps.from_imports:
                _mod, orig = self.maps.from_imports[expr.id]
                if self.graph.class_node(orig) is not None:
                    return orig
            return None
        if isinstance(expr, ast.Attribute):
            base = self.expr_class(expr.value)
            if base is None:
                return None
            return self.graph.attr_type(base, expr.attr)
        if isinstance(expr, ast.Call):
            callee = _terminal(expr.func)
            if callee is not None and \
                    self.graph.class_node(callee) is not None and \
                    isinstance(expr.func, ast.Name):
                return callee  # constructor call
            return None
        return None

    def latch_for(self, expr: ast.expr) -> Optional[LatchRef]:
        """Resolve ``expr`` to a latch identity, or None."""
        if isinstance(expr, ast.Name):
            if expr.id in self.local_latches:
                return self.local_latches[expr.id]
            typ = self.fn.param_types.get(expr.id) or \
                self.local_types.get(expr.id)
            if typ is not None and self.graph.is_latch_class(typ):
                default = LATCH_CLASS_DEFAULTS.get(typ)
                return (LatchRef(default, RANK_BY_NAME[default])
                        if default else LatchRef("?", None))
            return None
        if isinstance(expr, ast.Attribute):
            base = self.expr_class(expr.value)
            if base is not None:
                latch = self.graph.attr_latch(base, expr.attr)
                if latch is not None:
                    return latch
            return None
        latch = _latch_from_call(self.graph, expr)
        return latch

    # -- AST iteration that respects function boundaries ---------------
    @staticmethod
    def _walk_own(root: ast.AST) -> Iterator[ast.AST]:
        """ast.walk, but do not descend into nested def/class bodies
        (they are separate functions in the index). Lambdas ARE
        descended into: their bodies run where they are called, which
        for ready-predicates is under the latch at the call site."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- the walk -------------------------------------------------------
    def build(self) -> None:
        self._param_types()
        self._prescan_locals()
        self._mark_writes()
        node = self.fn.node
        self._walk_stmts(list(getattr(node, "body", [])), frozenset())

    def _mark_writes(self) -> None:
        """Pre-mark attribute nodes that are *writes* despite a Load
        ctx: subscript stores (``self.d[k] = v``) and mutator-method
        calls (``self.xs.append(v)``)."""
        for sub in self._walk_own(self.fn.node):
            if isinstance(sub, ast.Subscript) and \
                    isinstance(sub.ctx, (ast.Store, ast.Del)) and \
                    isinstance(sub.value, ast.Attribute):
                self._write_ids.add(id(sub.value))
            elif isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute) and \
                    sub.func.attr in MUTATOR_METHODS and \
                    isinstance(sub.func.value, ast.Attribute):
                self._write_ids.add(id(sub.func.value))

    def _walk_stmts(self, stmts: Sequence[ast.stmt],
                    held: "frozenset[str]") -> None:
        current = held
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: List[str] = []
                for item in stmt.items:
                    latch = self.latch_for(item.context_expr)
                    if latch is not None:
                        self.fn.events.append(AcquireEvent(
                            line=item.context_expr.lineno, held=current,
                            latch=latch))
                        if latch.known():
                            acquired.append(latch.name)
                    else:
                        self._visit_expr(item.context_expr, current)
                self._walk_stmts(stmt.body, current | frozenset(acquired))
            elif isinstance(stmt, ast.Try):
                self._walk_stmts(stmt.body, current)
                for handler in stmt.handlers:
                    self._walk_stmts(handler.body, current)
                self._walk_stmts(stmt.orelse, current)
                self._walk_stmts(stmt.finalbody, current)
            elif isinstance(stmt, ast.If):
                self._visit_expr(stmt.test, current)
                self._walk_stmts(stmt.body, current)
                self._walk_stmts(stmt.orelse, current)
            elif isinstance(stmt, ast.While):
                self._visit_expr(stmt.test, current)
                self._walk_stmts(stmt.body, current)
                self._walk_stmts(stmt.orelse, current)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._visit_expr(stmt.iter, current)
                self._walk_stmts(stmt.body, current)
                self._walk_stmts(stmt.orelse, current)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                continue  # indexed separately
            else:
                current = self._visit_stmt(stmt, current)

    def _visit_stmt(self, stmt: ast.stmt,
                    held: "frozenset[str]") -> "frozenset[str]":
        """Visit a simple statement; bare acquire()/release() calls
        shift the held set for the rest of the block."""
        self._visit_expr(stmt, held)
        for sub in self._walk_own(stmt):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Attribute):
                latch = self.latch_for(sub.func.value)
                if latch is None or not latch.known():
                    continue
                if sub.func.attr == "acquire":
                    held = held | {latch.name}
                elif sub.func.attr == "release":
                    held = held - {latch.name}
        return held

    def _visit_expr(self, node: ast.AST, held: "frozenset[str]") -> None:
        # Handle the node itself first (calls mark their func position
        # before the child walk reaches the method Attribute).
        if isinstance(node, ast.Call):
            self._handle_call(node, held)
        elif isinstance(node, ast.Attribute):
            self._handle_attribute(node, held)
        for sub in self._walk_own(node):
            if isinstance(sub, ast.Call):
                self._handle_call(sub, held)
            elif isinstance(sub, ast.Attribute):
                self._handle_attribute(sub, held)

    # -- attribute access events ---------------------------------------
    def _handle_attribute(self, node: ast.Attribute,
                          held: "frozenset[str]") -> None:
        if id(node) in self._func_positions:
            return  # method-call position, not a state access
        recv = self.expr_class(node.value)
        if recv is None or self.graph.class_node(recv) is None:
            return
        if node.attr.startswith("__") or any(
                node.attr in c.methods for c in self.graph.mro(recv)):
            return
        is_write = isinstance(node.ctx, (ast.Store, ast.Del)) or \
            id(node) in self._write_ids
        in_init = (self.fn.name == "__init__"
                   and isinstance(node.value, ast.Name)
                   and node.value.id == "self"
                   and self.fn.cls == recv)
        self.fn.events.append(AccessEvent(
            line=node.lineno, held=held, cls=recv, attr=node.attr,
            is_write=is_write, in_init=in_init))

    # -- call events ----------------------------------------------------
    def _handle_call(self, node: ast.Call, held: "frozenset[str]") -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._func_positions.add(id(func))
        self._detect_thread_entry(node)
        label = ast.unparse(func) if hasattr(ast, "unparse") else "?"
        # latch method calls: park/bow/notify_all, bare acquire/release
        if isinstance(func, ast.Attribute):
            latch = self.latch_for(func.value)
            if latch is not None:
                if func.attr in BLOCKING_LATCH_METHODS or \
                        func.attr in MUSTHOLD_LATCH_METHODS:
                    self.fn.events.append(BlockEvent(
                        line=node.lineno, held=held, latch=latch,
                        kind=func.attr))
                elif func.attr == "acquire":
                    self.fn.events.append(AcquireEvent(
                        line=node.lineno, held=held, latch=latch))
                # fall through: also record the call edge if resolvable
        callees = self._resolve_call(func)
        if callees:
            self.graph.edge_count += len(callees)
            self.fn.events.append(CallEvent(
                line=node.lineno, held=held, callees=tuple(callees),
                label=label))
        else:
            reason = self._unresolved_reason(func)
            if reason is not None:
                self.graph.unresolved.append(UnresolvedEdge(
                    caller=self.fn.qname, path=self.fn.path,
                    line=node.lineno, text=label, reason=reason))

    def _resolve_call(self, func: ast.expr) -> List[str]:
        graph = self.graph
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.maps.from_imports:
                mod, orig = self.maps.from_imports[name]
                qname = f"{mod}.{orig}"
                if qname in graph.functions:
                    return [qname]
                cnode = graph.class_node(orig)
                if cnode is not None and "__init__" in cnode.methods:
                    return [cnode.methods["__init__"]]
            qname = f"{self.fn.module}.{name}"
            if qname in graph.functions:
                return [qname]
            cnode = graph.class_node(name)
            if cnode is not None and "__init__" in cnode.methods:
                return [cnode.methods["__init__"]]
            return []
        if isinstance(func, ast.Attribute):
            attr = func.attr
            recv = self.expr_class(func.value)
            if recv is not None:
                resolved = graph.resolve_method(recv, attr)
                if resolved:
                    return resolved
            # module alias call: protocol.encode_frame(...)
            if isinstance(func.value, ast.Name):
                base = func.value.id
                if base in self.maps.module_alias:
                    qname = f"{self.maps.module_alias[base]}.{attr}"
                    if qname in graph.functions:
                        return [qname]
                if base in self.maps.from_imports:
                    mod, orig = self.maps.from_imports[base]
                    qname = f"{mod}.{orig}.{attr}"
                    if qname in graph.functions:
                        return [qname]
                # class attribute call: ClassName.method(obj)
                cnode = graph.class_node(base)
                if cnode is not None and attr in cnode.methods:
                    return [cnode.methods[attr]]
            # stored-callback fallback: unique bare name project-wide
            candidates = graph.by_bare_name.get(attr, [])
            if len(candidates) == 1 and attr not in self._method_names:
                return [candidates[0]]
            return []
        return []

    def _unresolved_reason(self, func: ast.expr) -> Optional[str]:
        """Report dynamic/unknown callees that plausibly reach project
        code; stay silent on obvious builtins/stdlib calls."""
        if isinstance(func, ast.Attribute):
            if func.attr in self._method_names or \
                    len(self.graph.by_bare_name.get(func.attr, [])) > 1:
                return ("receiver class unknown (dynamic dispatch "
                        "fails open)")
            return None
        if isinstance(func, ast.Name):
            if func.id in self._method_names or \
                    func.id in self.graph.by_bare_name:
                return "name does not resolve in this module's scope"
            return None
        return "computed callee expression (getattr/indirect dispatch)"

    def _detect_thread_entry(self, node: ast.Call) -> None:
        """Register Thread(target=...) / run_in_executor(_, fn, ...)
        targets as thread entry points."""
        callee = _terminal(node.func)
        target: Optional[ast.expr] = None
        if callee == "Thread":
            for kw in node.keywords:
                if kw.arg == "target":
                    target = kw.value
        elif callee == "run_in_executor" and len(node.args) >= 2:
            target = node.args[1]
        if target is None:
            return
        resolved = self._resolve_call(target) if isinstance(
            target, (ast.Name, ast.Attribute)) else []
        for qname in resolved:
            if qname not in self.graph.auto_entries:
                self.graph.auto_entries.append(qname)
