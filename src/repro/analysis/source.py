"""Concurrency static analysis over the repository's own source.

While the rest of :mod:`repro.analysis` lints *models* (dataflow
graphs, architectures, allocation bundles), this module lints the
*implementation*: the threaded service plane itself.  It parses the
``repro`` sources with :mod:`ast`, reads the declarative lock
discipline out of trailing comments, and emits ordinary
:class:`~repro.analysis.diagnostics.Diagnostic` records through the
same report/SARIF/baseline machinery the model rules use
(``repro-alloc lint --source``).

The discipline is declared in the code it protects:

* ``self._attr = ...  # guarded-by: _lock`` — every read or write of
  ``self._attr`` outside ``with self._lock:`` (or a method annotated
  ``# requires-lock: _lock``) is a data race (**CON001**).
* A module-level ``GUARDED_BY = {"Class.attr": "_lock"}`` table
  declares the same thing for code that cannot carry trailing
  comments.
* ``self._lock = make_lock("<node>")  # guards: ...`` documents a
  lock allocation; :func:`lock_registry` exposes every allocation so
  ``tools/check_invariants.py`` can insist the ``make_lock`` name
  literal equals the site's derived node name (which is what lets the
  runtime sanitizer in :mod:`repro.obs.lockcheck` join its observed
  acquisition graph with the static one on equal strings).
* ``# con-ok: CON00x <reason>`` on the offending line waives one rule
  at one site, in the code where reviewers see it — deliberate
  patterns (the logger's write-under-lock) are waived, never
  baselined away.

Rules (catalogued in :data:`repro.analysis.rules.RULES`):

* **CON001** (error) — guarded attribute accessed without its lock.
* **CON002** (warning) — guarded *mutable* state (dict/list/set/deque)
  returned or yielded by reference; the caller would mutate or
  iterate it unsynchronised.  Return a copy.
* **CON003** (warning) — blocking call (file I/O, ``time.sleep``,
  ``subprocess``/``socket`` use, stream writes) while holding a lock.
* **CON004** (error) — the cross-module lock-acquisition graph has a
  cycle: two threads taking the locks in opposite orders deadlock.

The lock-order graph (:func:`lock_order_graph`) is built from lexical
``with`` nesting plus interprocedural edges: per-class method
summaries (which locks does calling ``m()`` acquire, does it block)
are computed to a fixpoint over ``self.*`` calls, then calls through
typed attributes (``self.journal = JobJournal(...)`` in ``__init__``)
and the well-known accessor factories (``get_metrics()`` /
``get_trace()`` / ``get_logger()``) stitch the classes together.
``threading.Condition(self._lock)`` aliases are resolved to the
underlying lock.

Nodes are named ``<module>.<Class>.<attr>`` — exactly the string the
code passes to :func:`repro.obs.lockcheck.make_lock`, so the runtime
sanitizer's observed edges and these static edges live in one
namespace.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Location
from repro.analysis.rules import RULES
from repro.sdf.analysis import strongly_connected_components

__all__ = [
    "CON_RULES",
    "LockSite",
    "SourceAnalysis",
    "analyse_source",
    "default_source_paths",
    "lock_order_graph",
    "lock_registry",
    "source_analysis",
]

#: rule id -> severity, looked up from the shared catalogue
CON_RULES: Dict[str, str] = {
    rule.rule_id: rule.severity for rule in RULES if rule.kind == "source"
}

#: accessor factories returning a well-known singleton's class
KNOWN_FACTORIES: Dict[str, str] = {
    "get_metrics": "Metrics",
    "get_trace": "TraceBuffer",
    "get_logger": "JsonLogger",
}

#: callables that block: bare names and dotted ``module.name`` forms
_BLOCKING_CALLS = {
    "open",
    "sleep",
    "time.sleep",
    "os.fsync",
    "os.replace",
    "os.rename",
    "os.unlink",
    "os.remove",
    "os.makedirs",
    "os.listdir",
    "os.stat",
    "os.path.getsize",
    # the persistence helpers open, fsync and rename inside
    "write_atomic",
    "read_json",
    "repro.durable.write_atomic",
    "repro.durable.read_json",
}

#: any call into these modules blocks (process/network I/O)
_BLOCKING_MODULES = {"subprocess", "socket"}

#: method names that block on arbitrary receivers (stream/socket I/O,
#: thread joins); ``join`` on a string constant is excluded at the
#: call site, ``wait``/``notify*`` on a Condition alias likewise
_BLOCKING_METHODS = {
    "write",
    "flush",
    "read",
    "readline",
    "readlines",
    "recv",
    "send",
    "sendall",
    "join",
    "wait",
}

#: constructors of shared-mutable containers (CON002's notion of
#: "escaping this by reference is dangerous")
_MUTABLE_FACTORIES = {"dict", "list", "set", "deque", "defaultdict", "OrderedDict"}

_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
_GUARDS_RE = re.compile(r"#\s*guards:")
_REQUIRES_RE = re.compile(r"#\s*requires-lock:\s*([A-Za-z_]\w*)")
_WAIVER_RE = re.compile(r"#\s*con-ok:\s*(CON\d{3})")


# ---------------------------------------------------------------------------
# Per-module model


@dataclass(frozen=True)
class LockSite:
    """One lock allocation found in the analysed sources."""

    path: str  #: display path of the defining file
    line: int  #: allocation line
    module: str  #: dotted module name
    cls: str  #: owning class
    attr: str  #: attribute the lock is stored under
    node: str  #: derived node name ``<module>.<Class>.<attr>``
    declared: Optional[str]  #: the ``make_lock`` literal, ``None`` if bare
    documented: bool  #: guarded-by discipline or ``# guards:`` present


class _ClassModel:
    """Everything the walker needs to know about one class."""

    def __init__(self, module: "_ModuleModel", name: str) -> None:
        self.module = module
        self.name = name
        #: lock attr -> derived node name
        self.locks: Dict[str, str] = {}
        #: lock attr -> make_lock literal (None for a bare Lock())
        self.declared: Dict[str, Optional[str]] = {}
        #: lock attr -> allocation line
        self.lock_lines: Dict[str, int] = {}
        #: lock attr -> allocation stmt carries a ``# guards:`` comment
        self.lock_documented: Dict[str, bool] = {}
        #: Condition alias attr -> underlying lock attr
        self.aliases: Dict[str, str] = {}
        #: guarded attr -> lock attr
        self.guarded: Dict[str, str] = {}
        #: guarded attrs initialised to a mutable container
        self.mutable: Set[str] = set()
        #: attr -> class name (``self.journal = JobJournal(...)``)
        self.attr_types: Dict[str, str] = {}
        #: method name -> function node
        self.methods: Dict[str, ast.AST] = {}
        #: method name -> required lock attrs (``# requires-lock:``)
        self.requires: Dict[str, Set[str]] = {}

    def canonical(self, attr: str) -> str:
        """Resolve a Condition alias to its underlying lock attr."""
        return self.aliases.get(attr, attr)

    def node_for(self, attr: str) -> Optional[str]:
        return self.locks.get(self.canonical(attr))


class _ModuleModel:
    """One parsed source file plus its comment-borne annotations."""

    def __init__(self, path: str, display: str, name: str, text: str) -> None:
        self.path = path
        self.display = display
        self.name = name
        self.tree = ast.parse(text)
        self.classes: Dict[str, _ClassModel] = {}
        #: line -> comment text
        self.comments: Dict[int, str] = _comments_by_line(text)
        #: (line, rule id) waivers
        self.waivers: Set[Tuple[int, str]] = {
            (line, match.group(1))
            for line, comment in self.comments.items()
            for match in [_WAIVER_RE.search(comment)]
            if match is not None
        }
        #: ``GUARDED_BY`` table entries: (class, attr) -> lock attr
        self.table: Dict[Tuple[str, str], str] = {}

    def span_comment(
        self, stmt: ast.AST, pattern: "re.Pattern[str]"
    ) -> Optional["re.Match[str]"]:
        """First matching trailing comment within a statement's lines."""
        start = getattr(stmt, "lineno", None)
        if start is None:
            return None
        end = getattr(stmt, "end_lineno", start) or start
        for line in range(start, end + 1):
            comment = self.comments.get(line)
            if comment is not None:
                match = pattern.search(comment)
                if match is not None:
                    return match
        return None

    def waived(self, line: int, rule_id: str) -> bool:
        return (line, rule_id) in self.waivers


def _comments_by_line(text: str) -> Dict[int, str]:
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # a file ast can parse but tokenize trips on is exotic enough
        # that losing its annotations beats crashing the lint run
        pass
    return comments


# ---------------------------------------------------------------------------
# Harvesting the per-class model


def _dotted(expr: ast.AST) -> Optional[str]:
    """``a.b.c`` rendered as a string, ``None`` for anything richer."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _dotted(expr.value)
        return f"{base}.{expr.attr}" if base is not None else None
    return None


def _is_self_attr(expr: ast.AST) -> Optional[str]:
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _lock_allocation(value: ast.AST) -> Optional[Tuple[Optional[str], bool]]:
    """Is ``value`` a lock allocation?

    Returns ``(make_lock literal or None, is_lock)`` — ``(name, True)``
    for ``make_lock("name")``, ``(None, True)`` for a bare
    ``threading.Lock()`` / ``threading.RLock()`` (or the same wrapped
    in a dataclass ``field(default_factory=...)``), ``None`` when the
    value is not a lock allocation at all.
    """
    if isinstance(value, ast.Call):
        callee = _dotted(value.func)
        if callee in ("make_lock", "lockcheck.make_lock"):
            if value.args and isinstance(value.args[0], ast.Constant) and isinstance(
                value.args[0].value, str
            ):
                return (value.args[0].value, True)
            return (None, True)
        if callee in ("threading.Lock", "threading.RLock", "Lock", "RLock"):
            return (None, True)
        if callee is not None and callee.split(".")[-1] == "field":
            for keyword in value.keywords:
                if keyword.arg != "default_factory":
                    continue
                factory = keyword.value
                if isinstance(factory, ast.Lambda):
                    return _lock_allocation(factory.body)
                name = _dotted(factory)
                if name in ("threading.Lock", "threading.RLock", "Lock", "RLock"):
                    return (None, True)
    return None


def _mutable_value(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        callee = _dotted(value.func)
        if callee is None:
            return False
        leaf = callee.split(".")[-1]
        if leaf in _MUTABLE_FACTORIES:
            return True
        if leaf == "field":
            for keyword in value.keywords:
                if keyword.arg == "default_factory":
                    name = _dotted(keyword.value)
                    if name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES:
                        return True
    return False


def _harvest_module(model: _ModuleModel) -> None:
    for stmt in model.tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GUARDED_BY" for t in stmt.targets
        ):
            if isinstance(stmt.value, ast.Dict):
                for key, val in zip(stmt.value.keys, stmt.value.values):
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and isinstance(val, ast.Constant)
                        and isinstance(val.value, str)
                        and "." in key.value
                    ):
                        cls_name, _, attr = key.value.rpartition(".")
                        model.table[(cls_name, attr)] = val.value
        elif isinstance(stmt, ast.ClassDef):
            _harvest_class(model, stmt)
    # apply the module-level table after every class is known
    for (cls_name, attr), lock in model.table.items():
        cls = model.classes.get(cls_name)
        if cls is not None:
            cls.guarded.setdefault(attr, lock)


def _harvest_class(model: _ModuleModel, node: ast.ClassDef) -> None:
    cls = _ClassModel(model, node.name)
    model.classes[node.name] = cls
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = stmt
            match = model.span_comment(
                _def_header(stmt), _REQUIRES_RE
            )
            if match is not None:
                cls.requires.setdefault(stmt.name, set()).add(match.group(1))
            if stmt.name in ("__init__", "__post_init__"):
                _harvest_init(model, cls, stmt)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            # dataclass-style field declaration in the class body
            _harvest_attr_stmt(
                model, cls, stmt, stmt.target.id, stmt.value
            )
    # resolve Condition aliases declared before their lock (rare)
    for alias, lock_attr in list(cls.aliases.items()):
        if lock_attr not in cls.locks:
            del cls.aliases[alias]


class _HeaderProxy:
    """A minimal lineno span covering only a ``def``'s header line."""

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno
        self.end_lineno = lineno


def _def_header(stmt: ast.AST) -> ast.AST:
    # the requires-lock comment sits on the ``def`` line itself, not
    # somewhere inside the (possibly long) body span
    return _HeaderProxy(getattr(stmt, "lineno", 1))  # type: ignore[return-value]


def _harvest_init(
    model: _ModuleModel, cls: _ClassModel, func: ast.AST
) -> None:
    for stmt in ast.walk(func):
        if isinstance(stmt, ast.Assign):
            targets = [
                attr
                for target in stmt.targets
                for attr in [_is_self_attr(target)]
                if attr is not None
            ]
            for attr in targets:
                _harvest_attr_stmt(model, cls, stmt, attr, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            attr = _is_self_attr(stmt.target)
            if attr is not None:
                _harvest_attr_stmt(model, cls, stmt, attr, stmt.value)


def _harvest_attr_stmt(
    model: _ModuleModel,
    cls: _ClassModel,
    stmt: ast.AST,
    attr: str,
    value: Optional[ast.AST],
) -> None:
    line = getattr(stmt, "lineno", 1)
    if value is not None:
        allocation = _lock_allocation(value)
        if allocation is not None:
            declared, _ = allocation
            if attr not in cls.locks:
                cls.locks[attr] = f"{model.name}.{cls.name}.{attr}"
                cls.declared[attr] = declared
                cls.lock_lines[attr] = line
                cls.lock_documented[attr] = (
                    model.span_comment(stmt, _GUARDS_RE) is not None
                )
            return
        if isinstance(value, ast.Call):
            callee = _dotted(value.func)
            if callee in ("threading.Condition", "Condition") and value.args:
                aliased = _is_self_attr(value.args[0])
                if aliased is not None:
                    cls.aliases[attr] = aliased
                    return
            if isinstance(value.func, ast.Name):
                cls.attr_types.setdefault(attr, value.func.id)
    match = model.span_comment(stmt, _GUARDED_RE)
    if match is not None:
        cls.guarded.setdefault(attr, match.group(1))
        if value is not None and _mutable_value(value):
            cls.mutable.add(attr)


# ---------------------------------------------------------------------------
# Method summaries (which locks does calling this acquire / can it block)


@dataclass
class _Summary:
    acquires: Set[str] = field(default_factory=set)  #: node names
    may_block: bool = False
    callees: Set[str] = field(default_factory=set)  #: same-class names


def _blocking_call(call: ast.Call, cls: Optional[_ClassModel]) -> Optional[str]:
    """A short description when ``call`` is considered blocking."""
    callee = _dotted(call.func)
    if callee is not None:
        if callee in _BLOCKING_CALLS:
            return f"{callee}()"
        if callee.split(".")[0] in _BLOCKING_MODULES:
            return f"{callee}()"
    if isinstance(call.func, ast.Attribute):
        method = call.func.attr
        if method in _BLOCKING_METHODS:
            receiver = call.func.value
            if isinstance(receiver, (ast.Constant, ast.JoinedStr)):
                return None  # "sep".join(...) is not I/O
            attr = _is_self_attr(receiver)
            if (
                cls is not None
                and attr is not None
                and (attr in cls.aliases or attr in cls.locks)
            ):
                return None  # Condition.wait/notify on our own lock
            return f".{method}()"
    return None


def _summarise_method(cls: _ClassModel, func: ast.AST) -> _Summary:
    summary = _Summary()
    for node in ast.walk(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                attr = _is_self_attr(item.context_expr)
                if attr is not None:
                    lock_node = cls.node_for(attr)
                    if lock_node is not None:
                        summary.acquires.add(lock_node)
        elif isinstance(node, ast.Call):
            if _blocking_call(node, cls) is not None:
                summary.may_block = True
            attr = (
                _is_self_attr(node.func)
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if attr is not None and attr in cls.methods:
                summary.callees.add(attr)
        elif isinstance(node, ast.Attribute):
            # property access runs the property body
            attr = _is_self_attr(node)
            if attr is not None and attr in cls.methods:
                summary.callees.add(attr)
    return summary


def _fixpoint_summaries(
    classes: Dict[str, _ClassModel]
) -> Dict[Tuple[str, str], _Summary]:
    summaries: Dict[Tuple[str, str], _Summary] = {}
    for cls in classes.values():
        for name, func in cls.methods.items():
            summaries[(cls.name, name)] = _summarise_method(cls, func)
    changed = True
    while changed:
        changed = False
        for cls in classes.values():
            for name in cls.methods:
                summary = summaries[(cls.name, name)]
                for callee in summary.callees:
                    other = summaries.get((cls.name, callee))
                    if other is None:
                        continue
                    if not other.acquires <= summary.acquires:
                        summary.acquires |= other.acquires
                        changed = True
                    if other.may_block and not summary.may_block:
                        summary.may_block = True
                        changed = True
    return summaries


# ---------------------------------------------------------------------------
# The per-method walker


class _MethodWalker:
    """Walks one method body tracking the set of held locks."""

    def __init__(
        self,
        cls: _ClassModel,
        method_name: str,
        classes: Dict[str, _ClassModel],
        summaries: Dict[Tuple[str, str], _Summary],
        report: AnalysisReport,
        edges: Dict[str, Set[str]],
    ) -> None:
        self.cls = cls
        self.model = cls.module
        self.method = method_name
        self.classes = classes
        self.summaries = summaries
        self.report = report
        self.edges = edges
        self.constructor = method_name in ("__init__", "__post_init__", "__new__")
        #: local variable -> class name, built as assignments are seen
        self.local_types: Dict[str, str] = {}

    # -- diagnostics ---------------------------------------------------
    def _emit(
        self, rule_id: str, line: int, message: str, element: str, hint: str
    ) -> None:
        if self.model.waived(line, rule_id):
            return
        self.report.add(
            Diagnostic(
                rule_id,
                CON_RULES[rule_id],
                message,
                Location(
                    source=self.model.display,
                    field=f"{self.cls.name}.{self.method}",
                    element=element,
                ),
                hint=hint,
            )
        )

    def _edge(self, held: Sequence[str], acquired: Iterable[str]) -> None:
        for target in acquired:
            for source in held:
                if source != target:
                    self.edges.setdefault(source, set()).add(target)

    # -- statements ----------------------------------------------------
    def walk(self, func: ast.AST) -> None:
        held: List[str] = []
        held_attrs: Set[str] = set()
        for attr in self.cls.requires.get(self.method, ()):  # requires-lock
            canonical = self.cls.canonical(attr)
            held_attrs.add(canonical)
            node = self.cls.locks.get(canonical)
            if node is not None:
                held.append(node)
        self._walk_body(getattr(func, "body", []), held, held_attrs)

    def _walk_body(
        self, body: Sequence[ast.AST], held: List[str], held_attrs: Set[str]
    ) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held, held_attrs)

    def _walk_stmt(
        self, stmt: ast.AST, held: List[str], held_attrs: Set[str]
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scope: runs later, under unknown locks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            new_held = list(held)
            new_attrs = set(held_attrs)
            for item in stmt.items:
                attr = _is_self_attr(item.context_expr)
                lock_node = (
                    self.cls.node_for(attr) if attr is not None else None
                )
                if attr is not None and lock_node is not None:
                    self._edge(new_held, (lock_node,))
                    if lock_node in new_held:
                        # re-acquiring a non-reentrant lock deadlocks
                        # against ourselves: a one-node cycle
                        self.edges.setdefault(lock_node, set()).add(lock_node)
                    new_held.append(lock_node)
                    new_attrs.add(self.cls.canonical(attr))
                else:
                    self._scan_expr(item.context_expr, held, held_attrs)
                    if item.optional_vars is not None:
                        self._scan_expr(item.optional_vars, held, held_attrs)
            self._walk_body(stmt.body, new_held, new_attrs)
            return
        if isinstance(stmt, ast.Assign):
            self._track_local(stmt)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            self._check_escape(stmt.value, stmt.lineno)
        for value in ast.iter_fields(stmt):
            _, item = value
            if isinstance(item, ast.expr):
                self._scan_expr(item, held, held_attrs)
            elif isinstance(item, list):
                for child in item:
                    if isinstance(child, ast.stmt):
                        self._walk_stmt(child, held, held_attrs)
                    elif isinstance(child, ast.expr):
                        self._scan_expr(child, held, held_attrs)
                    elif isinstance(child, ast.excepthandler):
                        if child.type is not None:
                            self._scan_expr(child.type, held, held_attrs)
                        self._walk_body(child.body, held, held_attrs)
                    elif hasattr(child, "body") and isinstance(
                        getattr(child, "body"), list
                    ):
                        # match_case and friends
                        guard = getattr(child, "guard", None)
                        if isinstance(guard, ast.expr):
                            self._scan_expr(guard, held, held_attrs)
                        self._walk_body(child.body, held, held_attrs)

    def _track_local(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        value = stmt.value
        if isinstance(value, ast.Call):
            if isinstance(value.func, ast.Name):
                callee = value.func.id
                if callee in KNOWN_FACTORIES:
                    self.local_types[name] = KNOWN_FACTORIES[callee]
                    return
                if callee in self.classes:
                    self.local_types[name] = callee
                    return
        attr = _is_self_attr(value)
        if attr is not None and attr in self.cls.attr_types:
            self.local_types[name] = self.cls.attr_types[attr]

    # -- expressions ---------------------------------------------------
    def _iter_expr(self, expr: ast.expr) -> Iterable[ast.AST]:
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # deferred execution
            yield node
            for child in ast.iter_child_nodes(node):
                if not isinstance(child, ast.stmt):
                    stack.append(child)

    def _scan_expr(
        self, expr: ast.expr, held: List[str], held_attrs: Set[str]
    ) -> None:
        for node in self._iter_expr(expr):
            if isinstance(node, ast.Attribute):
                self._check_guarded(node, held_attrs)
            elif isinstance(node, ast.Call):
                self._check_call(node, held, held_attrs)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                if node.value is not None:
                    self._check_escape(node.value, node.lineno)

    def _check_guarded(self, node: ast.Attribute, held_attrs: Set[str]) -> None:
        if self.constructor:
            return  # the object is not shared during construction
        attr = _is_self_attr(node)
        if attr is None:
            return
        guard = self.cls.guarded.get(attr)
        if guard is None:
            return
        canonical = self.cls.canonical(guard)
        if canonical in held_attrs:
            return
        verb = "written" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
        self._emit(
            "CON001",
            node.lineno,
            f"self.{attr} is guarded by self.{guard} but is {verb} at "
            f"line {node.lineno} without holding it",
            attr,
            f"wrap the access in `with self.{guard}:` or annotate the "
            f"method `# requires-lock: {guard}`",
        )

    def _check_escape(self, value: ast.expr, line: int) -> None:
        attr = _is_self_attr(value)
        if attr is None:
            return
        if attr in self.cls.guarded and attr in self.cls.mutable:
            self._emit(
                "CON002",
                line,
                f"guarded mutable self.{attr} escapes by reference from "
                f"{self.cls.name}.{self.method} at line {line}; the "
                f"caller would read it unsynchronised",
                attr,
                "return a copy (dict(...) / list(...)) taken under the lock",
            )

    def _check_call(
        self, node: ast.Call, held: List[str], held_attrs: Set[str]
    ) -> None:
        if held:
            description = _blocking_call(node, self.cls)
            if description is not None:
                self._emit(
                    "CON003",
                    node.lineno,
                    f"blocking call {description} at line {node.lineno} "
                    f"while holding {', '.join(sorted(set(held)))}",
                    f"L{node.lineno}",
                    "move the blocking work outside the critical section "
                    "(snapshot under the lock, emit outside), or waive a "
                    "deliberate pattern with `# con-ok: CON003 <reason>`",
                )
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        receiver = node.func.value
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "self"
            and method in self.cls.methods
        ):
            # same-class call: charge the callee's fixpoint summary
            summary = self.summaries.get((self.cls.name, method))
            if summary is not None and held:
                self._edge(held, summary.acquires)
                for lock_node in summary.acquires:
                    if lock_node in held:
                        # calling back into a non-reentrant lock we
                        # already hold: self-deadlock, a one-node cycle
                        self.edges.setdefault(lock_node, set()).add(
                            lock_node
                        )
                if summary.may_block:
                    self._emit(
                        "CON003",
                        node.lineno,
                        f"call to self.{method}() at line {node.lineno} "
                        f"may block (file or stream I/O inside) while "
                        f"holding {', '.join(sorted(set(held)))}",
                        f"L{node.lineno}",
                        "move the call outside the critical section, or "
                        "waive a deliberate pattern with "
                        "`# con-ok: CON003 <reason>`",
                    )
            return
        if held:
            target_cls = self._receiver_class(receiver)
            if target_cls is not None:
                summary = self.summaries.get((target_cls, method))
                if summary is not None:
                    self._edge(held, summary.acquires)

    def _receiver_class(self, receiver: ast.expr) -> Optional[str]:
        if isinstance(receiver, ast.Name):
            return self.local_types.get(receiver.id)
        attr = _is_self_attr(receiver)
        if attr is not None:
            cls_name = self.cls.attr_types.get(attr)
            if cls_name in self.classes:
                return cls_name
            return None
        if isinstance(receiver, ast.Call) and isinstance(receiver.func, ast.Name):
            return KNOWN_FACTORIES.get(receiver.func.id)
        return None


# ---------------------------------------------------------------------------
# Cycle detection


class _LockGraph:
    """The lock graph as :func:`strongly_connected_components` reads
    it, nodes and successors sorted."""

    def __init__(self, edges: Dict[str, Set[str]]) -> None:
        self.edges = edges
        self.actor_names = sorted(set(edges).union(*edges.values()))

    def successors(self, node: str) -> List[str]:
        return sorted(self.edges.get(node, ()))


def _cycles(edges: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly-connected components with >1 node, plus self-loops."""
    return sorted(
        sorted(component)
        for component in strongly_connected_components(_LockGraph(edges))
        if len(component) > 1 or component[0] in edges.get(component[0], ())
    )


# ---------------------------------------------------------------------------
# Public API


@dataclass
class SourceAnalysis:
    """Everything one pass over the sources produces."""

    report: AnalysisReport
    lock_graph: Dict[str, Set[str]]  #: static acquired-while-held edges
    locks: List[LockSite]  #: every lock allocation found


def default_source_paths(root: Optional[str] = None) -> List[str]:
    """Every ``.py`` file of the installed ``repro`` package."""
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    paths: List[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(
            d for d in dirnames if d != "__pycache__"
        )
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                paths.append(os.path.join(dirpath, filename))
    return paths


def _display_path(path: str) -> str:
    absolute = os.path.abspath(path)
    relative = os.path.relpath(absolute, os.getcwd())
    return absolute if relative.startswith("..") else relative


def _module_name(path: str) -> str:
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    stem = parts[-1][: -len(".py")] if parts[-1].endswith(".py") else parts[-1]
    if "repro" in parts[:-1]:
        anchor = len(parts) - 2 - parts[:-1][::-1].index("repro")
        dotted = parts[anchor:-1] + ([] if stem == "__init__" else [stem])
        return ".".join(dotted)
    return stem


def source_analysis(
    paths: Optional[Sequence[str]] = None,
) -> SourceAnalysis:
    """Run every concurrency pass over ``paths`` (default: the package).

    Raises :class:`ValueError` for a file that cannot be parsed and
    :class:`OSError` for one that cannot be read — the CLI maps both
    onto exit code 2.
    """
    if paths is None:
        paths = default_source_paths()
    models: List[_ModuleModel] = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        try:
            models.append(
                _ModuleModel(path, _display_path(path), _module_name(path), text)
            )
        except SyntaxError as error:
            raise ValueError(
                f"cannot parse {path}: {error}"
            ) from error
    for model in models:
        _harvest_module(model)

    # one flat class namespace across the corpus; a duplicated class
    # name keeps its first definition (cross-class resolution is
    # best-effort by design)
    classes: Dict[str, _ClassModel] = {}
    for model in models:
        for name, cls in model.classes.items():
            classes.setdefault(name, cls)
    summaries = _fixpoint_summaries(classes)

    report = AnalysisReport()
    edges: Dict[str, Set[str]] = {}
    for model in models:
        for cls in model.classes.values():
            if classes.get(cls.name) is not cls:
                continue  # shadowed duplicate
            for method_name, func in cls.methods.items():
                walker = _MethodWalker(
                    cls, method_name, classes, summaries, report, edges
                )
                walker.walk(func)

    for component in _cycles(edges):
        rendered = " -> ".join(component + [component[0]])
        anchor = sorted(
            model.display
            for model in models
            for cls in model.classes.values()
            if any(node in component for node in cls.locks.values())
        )
        report.add(
            Diagnostic(
                "CON004",
                CON_RULES["CON004"],
                f"lock-order cycle: {rendered}; two threads taking these "
                f"locks in opposite orders deadlock",
                Location(
                    source=anchor[0] if anchor else None,
                    field="lock-order",
                    element=rendered,
                ),
                hint=(
                    "pick one global order for these locks and release "
                    "before acquiring against it"
                ),
            )
        )

    locks: List[LockSite] = []
    for model in models:
        for cls in model.classes.values():
            for attr, node in sorted(cls.locks.items()):
                documented = cls.lock_documented.get(attr, False) or any(
                    cls.canonical(guard) == attr
                    for guard in cls.guarded.values()
                )
                locks.append(
                    LockSite(
                        path=model.display,
                        line=cls.lock_lines.get(attr, 1),
                        module=model.name,
                        cls=cls.name,
                        attr=attr,
                        node=node,
                        declared=cls.declared.get(attr),
                        documented=documented,
                    )
                )
    return SourceAnalysis(report=report, lock_graph=edges, locks=locks)


def analyse_source(paths: Optional[Sequence[str]] = None) -> AnalysisReport:
    """The concurrency findings alone (what ``lint --source`` prints)."""
    return source_analysis(paths).report


def lock_order_graph(
    paths: Optional[Sequence[str]] = None,
) -> Dict[str, Set[str]]:
    """The static acquired-while-held graph, node -> successor set.

    Node names equal the :func:`repro.obs.lockcheck.make_lock` name
    literals, so :meth:`repro.obs.lockcheck.LockMonitor.inversions`
    can take this graph directly.
    """
    return source_analysis(paths).lock_graph


def lock_registry(paths: Optional[Sequence[str]] = None) -> List[LockSite]:
    """Every lock allocation in ``paths``, for the invariant checker."""
    return source_analysis(paths).locks
