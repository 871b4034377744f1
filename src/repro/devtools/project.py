"""Whole-program index: symbol table, import graph, call graph.

The per-file checks see one AST at a time; the failure modes PRs 5-8
introduced (forked workers touching module state, teardown paths that
leak a lock when an earlier close raises, writer/reader protocol
constants drifting apart) are *cross-module*.  This module parses the
tree once into :class:`ModuleSummary` records and assembles them into
a :class:`ProjectIndex` that the project-level checks (RPR5xx/6xx/7xx
and the interprocedural RPR2xx upgrade) query.

Summaries carry *facts*, not ASTs.  Name resolution (imports,
``self`` methods, locally-typed receivers) happens at query time
against the assembled index, so a summary never depends on other
files' content.
"""

from __future__ import annotations

import ast
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.devtools.config import CheckConfig


def _numpy_allocators() -> Tuple[frozenset, Tuple[str, ...]]:
    """The per-file RPR201 allocator set, imported lazily.

    ``checks.hotpath`` is the single source of truth for which NumPy
    calls allocate; importing it at module scope would cycle through
    the checks package (whose project checks import this module), so
    the lookup defers to first use.
    """
    from repro.devtools.checks.hotpath import (
        ALLOCATING_NUMPY_CALLS,
        _NUMPY_ALIASES,
    )

    return ALLOCATING_NUMPY_CALLS, _NUMPY_ALIASES

#: Method names that mutate a container in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "sort",
        "appendleft", "extendleft",
    }
)

#: Constructors whose module-level result is mutable shared state.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "deque", "Counter"}
)

#: Callable base names that start a thread in this process.
_THREAD_SPAWNERS = frozenset({"Thread", "ThreadPoolExecutor"})

#: Callable base names / dotted paths that fork a process.
_PROCESS_SPAWNERS = frozenset({"Process", "ProcessPoolExecutor"})

#: Release-method names recorded as candidate release events; the
#: RPR6xx checks filter them by resolved receiver type.
_RELEASE_METHODS = frozenset({"close", "release"})


def _dotted(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` attribute chains as name tuples (None otherwise)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """The class name a parameter annotation pins (None if opaque).

    Handles ``Name``, ``mod.Name``, string annotations and one level
    of ``Optional[...]`` — the shapes this codebase actually uses.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"")
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        dotted = _dotted(node)
        return ".".join(dotted) if dotted else None
    if isinstance(node, ast.Subscript):
        base = node.value
        if isinstance(base, ast.Name) and base.id == "Optional":
            inner = node.slice
            if isinstance(inner, ast.Index):  # pragma: no cover (py<3.9)
                inner = inner.value
            return _annotation_class(inner)
    return None


def module_name_for_path(path: str) -> str:
    """Dotted module name inferred from a file path.

    Anything after a ``src/`` component maps onto the package tree;
    other files (fixtures, scripts) use their stem.
    """
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "module"


class FunctionSummary:
    """Facts about one function."""

    __slots__ = (
        "name", "qualname", "class_name", "lineno", "col",
        "local_types", "calls", "allocations", "global_accesses",
        "module_attr_accesses", "thread_spawns", "process_spawns",
        "pipe_sends", "resource_events", "replace_sites",
        "version_key_sites",
    )

    def __init__(self, name: str, class_name: Optional[str], lineno: int, col: int) -> None:
        self.name = name
        self.class_name = class_name
        self.qualname = f"{class_name}.{name}" if class_name else name
        self.lineno = lineno
        self.col = col
        #: local var -> lexical class reference ("WriteAheadLog",
        #: "mod.Class"), from annotations and constructor assignments.
        self.local_types: Dict[str, str] = {}
        #: [{dotted, lineno, col, in_data_loop}]
        self.calls: List[Dict[str, Any]] = []
        #: [{kind: "numpy"|"comprehension", detail, lineno, col}]
        self.allocations: List[Dict[str, Any]] = []
        #: [{name, kind: "read"|"write", lineno, col}] over this
        #: module's own mutable globals.
        self.global_accesses: List[Dict[str, Any]] = []
        #: [{alias, attr, kind, lineno, col}] candidate accesses to
        #: other modules' globals via an import alias.
        self.module_attr_accesses: List[Dict[str, Any]] = []
        self.thread_spawns: List[Dict[str, Any]] = []
        #: [{dotted, lineno, col, arg_classes: [classref...]}]
        self.process_spawns: List[Dict[str, Any]] = []
        #: [{lineno, col, arg_class}]
        self.pipe_sends: List[Dict[str, Any]] = []
        #: Ordered events: {kind: "acquire"|"release"|"call", ...}
        self.resource_events: List[Dict[str, Any]] = []
        #: [{lineno, col, tmp_kind}] for os.replace/Path.replace calls.
        self.replace_sites: List[Dict[str, Any]] = []
        #: [{context: "dict"|"compare", lineno, col, is_literal}]
        self.version_key_sites: List[Dict[str, Any]] = []


class ModuleSummary:
    """Facts about one module."""

    __slots__ = (
        "path", "module", "is_hot_path", "imports", "constants",
        "protocol_constants", "mutable_globals", "classes", "functions",
    )

    def __init__(self, path: str, module: str, is_hot_path: bool) -> None:
        self.path = path
        self.module = module
        self.is_hot_path = is_hot_path
        #: local name -> dotted target ("np" -> "numpy").
        self.imports: Dict[str, str] = {}
        #: module-level NAME -> literal (constant propagation input).
        self.constants: Dict[str, Any] = {}
        #: [{name, value_repr, lineno, col, scope}] for *_MAGIC /
        #: *_VERSION definitions at module and class scope.
        self.protocol_constants: List[Dict[str, Any]] = []
        #: name -> {lineno, col, empty} for module-level mutable state.
        self.mutable_globals: Dict[str, Dict[str, Any]] = {}
        #: class name -> {methods: [..], bases: [..], attr_types: {..}}
        self.classes: Dict[str, Dict[str, Any]] = {}
        #: local qualname ("func", "Class.method") -> FunctionSummary.
        self.functions: Dict[str, FunctionSummary] = {}


# -- summary construction --------------------------------------------------


class _ParentMap:
    """Child -> parent links for one tree (loop/finally ancestry)."""

    def __init__(self, tree: ast.AST) -> None:
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    def in_data_loop(self, node: ast.AST, stop: ast.AST) -> bool:
        """Inside a non-constant-trip loop *body* below ``stop``."""
        child = node
        parent = self.parents.get(child)
        while parent is not None and child is not stop:
            if isinstance(parent, (ast.For, ast.While)) and (
                any(child is stmt for stmt in parent.body)
                or any(child is stmt for stmt in parent.orelse)
            ):
                if not (
                    isinstance(parent, ast.For)
                    and isinstance(parent.iter, (ast.Tuple, ast.List))
                ):
                    return True
            child = parent
            parent = self.parents.get(child)
        return False

    def in_finally(self, node: ast.AST, stop: ast.AST) -> bool:
        """Whether ``node`` sits (transitively) in a ``finally`` body."""
        child = node
        parent = self.parents.get(child)
        while parent is not None and child is not stop:
            if isinstance(parent, ast.Try) and any(
                child is stmt for stmt in parent.finalbody
            ):
                return True
            child = parent
            parent = self.parents.get(child)
        return False

    def in_with(self, node: ast.AST, stop: ast.AST) -> bool:
        child = node
        parent = self.parents.get(child)
        while parent is not None and child is not stop:
            if isinstance(parent, ast.With):
                return True
            child = parent
            parent = self.parents.get(child)
        return False


def _is_mutable_initializer(node: ast.AST) -> Optional[bool]:
    """None if not mutable; else whether the initializer is *empty*.

    Empty containers at module scope are runtime-filled caches (the
    fork-divergence hazard); populated displays are lookup tables.
    """
    if isinstance(node, (ast.Dict,)):
        return len(node.keys) == 0
    if isinstance(node, (ast.List, ast.Set)):
        return len(node.elts) == 0
    if isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted and dotted[-1] in _MUTABLE_CONSTRUCTORS:
            return len(node.args) == 0 and len(node.keywords) == 0
    return None


def _literal_value(node: ast.AST) -> Optional[Any]:
    """The literal behind simple constant expressions (None if none)."""
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float, str, bytes, bool)
    ):
        return node.value
    return None


def _call_class_ref(node: ast.AST) -> Optional[str]:
    """Class reference a call expression constructs, lexically.

    ``ClassName(...)`` and ``ClassName.open(...)`` / ``.acquire(...)``
    both pin the local to ``ClassName``; ``open(...)`` pins the
    builtin file type, named ``"open"`` in the lifecycle table.
    Conditional expressions take whichever arm constructs.
    """
    if isinstance(node, ast.IfExp):
        return _call_class_ref(node.body) or _call_class_ref(node.orelse)
    if not isinstance(node, ast.Call):
        return None
    dotted = _dotted(node.func)
    if dotted is None:
        return None
    if dotted[-1] in ("open", "acquire") and len(dotted) > 1:
        dotted = dotted[:-1]
    return ".".join(dotted)


class _FunctionScanner:
    """Collects one function's :class:`FunctionSummary` facts."""

    def __init__(
        self,
        node: ast.AST,
        class_name: Optional[str],
        module: "ModuleSummary",
        parents: _ParentMap,
        config: CheckConfig,
    ) -> None:
        self.node = node
        self.module = module
        self.parents = parents
        self.config = config
        self.summary = FunctionSummary(
            node.name, class_name, node.lineno, node.col_offset
        )
        self.locals: Set[str] = set()
        self.globals_declared: Set[str] = set()

    def scan(self) -> FunctionSummary:
        self._bind_parameters()
        self._collect_bindings()
        for child in ast.walk(self.node):
            if child is self.node:
                continue
            if isinstance(child, ast.Call):
                self._scan_call(child)
            elif isinstance(
                child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                self.summary.allocations.append(
                    {
                        "kind": "comprehension",
                        "detail": type(child).__name__,
                        "lineno": child.lineno,
                        "col": child.col_offset,
                    }
                )
            elif isinstance(child, ast.Dict):
                self._scan_dict_display(child)
            elif isinstance(child, ast.Compare):
                self._scan_compare(child)
            elif isinstance(child, ast.Name):
                self._scan_name(child)
            elif isinstance(child, (ast.Subscript, ast.Attribute)):
                self._scan_store_target(child)
        self._scan_resource_events()
        return self.summary

    # -- bindings --------------------------------------------------------

    def _bind_parameters(self) -> None:
        arguments = self.node.args
        for arg in (
            list(arguments.posonlyargs)
            + list(arguments.args)
            + list(arguments.kwonlyargs)
            + ([arguments.vararg] if arguments.vararg else [])
            + ([arguments.kwarg] if arguments.kwarg else [])
        ):
            self.locals.add(arg.arg)
            ref = _annotation_class(arg.annotation)
            if ref is not None:
                self.summary.local_types[arg.arg] = ref

    def _collect_bindings(self) -> None:
        for child in ast.walk(self.node):
            if isinstance(child, ast.Global):
                self.globals_declared.update(child.names)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    self._bind_target(target, child.value)
            elif isinstance(child, ast.AnnAssign) and child.value is not None:
                self._bind_target(child.target, child.value)
            elif isinstance(child, (ast.For, ast.comprehension)):
                self._bind_target(child.target, None)
            elif isinstance(child, ast.withitem) and child.optional_vars:
                context_call = child.context_expr
                self._bind_target(child.optional_vars, context_call)
            elif isinstance(child, ast.ExceptHandler) and child.name:
                self.locals.add(child.name)
            elif isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and child is not self.node:
                self.locals.add(child.name)

    def _bind_target(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            if target.id not in self.globals_declared:
                self.locals.add(target.id)
            if value is not None:
                ref = _call_class_ref(value)
                if ref is not None:
                    self.summary.local_types[target.id] = ref
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None)

    # -- per-node scans --------------------------------------------------

    def _scan_call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        self.summary.calls.append(
            {
                "dotted": list(dotted),
                "lineno": node.lineno,
                "col": node.col_offset,
                "in_data_loop": self.parents.in_data_loop(node, self.node),
            }
        )
        # Allocating NumPy constructor (no out=): hot-path fact.
        allocating_calls, numpy_aliases = _numpy_allocators()
        if (
            len(dotted) == 2
            and dotted[0] in numpy_aliases
            and dotted[1] in allocating_calls
            and not any(keyword.arg == "out" for keyword in node.keywords)
        ):
            self.summary.allocations.append(
                {
                    "kind": "numpy",
                    "detail": f"np.{dotted[1]}",
                    "lineno": node.lineno,
                    "col": node.col_offset,
                }
            )
        base = dotted[-1]
        if base in _THREAD_SPAWNERS:
            self.summary.thread_spawns.append(
                {
                    "dotted": list(dotted),
                    "lineno": node.lineno,
                    "col": node.col_offset,
                }
            )
        if base in _PROCESS_SPAWNERS or dotted in (("os", "fork"),):
            self.summary.process_spawns.append(
                {
                    "dotted": list(dotted),
                    "lineno": node.lineno,
                    "col": node.col_offset,
                    "arg_classes": self._spawn_arg_classes(node),
                }
            )
        if base == "send" and len(dotted) >= 2 and len(node.args) == 1:
            arg_class = self._value_class(node.args[0])
            if arg_class is not None:
                self.summary.pipe_sends.append(
                    {
                        "lineno": node.lineno,
                        "col": node.col_offset,
                        "arg_class": arg_class,
                    }
                )
        if base == "replace" and len(node.args) >= 2:
            # os.replace(tmp, dst) — Path.replace is single-arg and
            # checked via its receiver below.
            self.summary.replace_sites.append(
                {
                    "lineno": node.lineno,
                    "col": node.col_offset,
                    "tmp_kind": self._tmp_kind(node.args[0]),
                }
            )
        if base in _MUTATOR_METHODS and len(dotted) >= 2:
            self._record_mutation(dotted[:-1], node)

    def _spawn_arg_classes(self, node: ast.Call) -> List[str]:
        classes: List[str] = []
        for keyword in node.keywords:
            if keyword.arg == "args" and isinstance(
                keyword.value, (ast.Tuple, ast.List)
            ):
                for element in keyword.value.elts:
                    ref = self._value_class(element)
                    if ref is not None:
                        classes.append(ref)
        return classes

    def _value_class(self, node: ast.AST) -> Optional[str]:
        """Class reference of an expression's value, if inferable."""
        if isinstance(node, ast.Call):
            return _call_class_ref(node)
        if isinstance(node, ast.Name):
            return self.summary.local_types.get(node.id)
        return None

    def _tmp_kind(self, node: ast.AST) -> str:
        """Classify the temp-file argument of an ``os.replace`` call."""
        if isinstance(node, ast.Attribute):
            node = node.value  # handle.name -> classify handle
        if isinstance(node, ast.Name):
            assigned = self.summary.local_types.get(node.id)
            if assigned is not None:
                base = assigned.split(".")[-1]
                if base in ("NamedTemporaryFile", "mktemp", "mkstemp", "TemporaryFile"):
                    return "tempfile_default"
            origin = self._name_origins.get(node.id)
            if origin is not None:
                return origin
            return "unknown"
        return self._classify_tmp_expr(node)

    @property
    def _name_origins(self) -> Dict[str, str]:
        origins: Dict[str, str] = {}
        for child in ast.walk(self.node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name):
                    origins[target.id] = self._classify_tmp_expr(child.value)
        return origins

    def _classify_tmp_expr(self, node: ast.AST) -> str:
        constant = _literal_value(node)
        if isinstance(constant, str):
            return (
                "foreign_literal"
                if constant.startswith(("/tmp", "/var/tmp"))
                else "unknown"
            )
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                base = dotted[-1]
                if base in ("with_name", "with_suffix"):
                    return "same_dir"
                if dotted[0] == "tempfile" or base in (
                    "NamedTemporaryFile", "mktemp", "mkstemp", "TemporaryFile"
                ):
                    if any(keyword.arg == "dir" for keyword in node.keywords):
                        return "same_dir"
                    return "tempfile_default"
        if isinstance(node, ast.BinOp):
            # path.parent / "name" and str concatenation of a path
            # with a suffix both stay in the destination directory.
            return "same_dir"
        if isinstance(node, ast.JoinedStr):
            return "unknown"
        if isinstance(node, ast.Subscript):
            value = node.value
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted is not None and dotted[-1] == "mkstemp":
                    if not any(k.arg == "dir" for k in value.keywords):
                        return "tempfile_default"
        return "unknown"

    def _record_mutation(self, receiver: Tuple[str, ...], node: ast.AST) -> None:
        if len(receiver) == 1:
            name = receiver[0]
            if name in self.locals or name in self.summary.local_types:
                return
            if name in self.module.mutable_globals or name in self.globals_declared:
                self.summary.global_accesses.append(
                    {
                        "name": name,
                        "kind": "write",
                        "lineno": node.lineno,
                        "col": node.col_offset,
                    }
                )
        elif len(receiver) == 2 and receiver[0] in self.module.imports:
            self.summary.module_attr_accesses.append(
                {
                    "alias": receiver[0],
                    "attr": receiver[1],
                    "kind": "write",
                    "lineno": node.lineno,
                    "col": node.col_offset,
                }
            )

    def _scan_name(self, node: ast.Name) -> None:
        name = node.id
        if name in self.locals:
            return
        if name not in self.module.mutable_globals:
            return
        if isinstance(node.ctx, ast.Store) or isinstance(node.ctx, ast.Del):
            kind = "write"
        else:
            parent = self.parents.parents.get(node)
            if isinstance(parent, (ast.Subscript, ast.Attribute)) and isinstance(
                getattr(parent, "ctx", None), (ast.Store, ast.Del)
            ):
                kind = "write"
            elif isinstance(parent, ast.AugAssign) and parent.target is node:
                kind = "write"
            else:
                kind = "read"
        self.summary.global_accesses.append(
            {
                "name": name,
                "kind": kind,
                "lineno": node.lineno,
                "col": node.col_offset,
            }
        )

    def _scan_store_target(self, node: ast.AST) -> None:
        """Subscript/attribute stores through an import alias."""
        if not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            return
        base = node.value if isinstance(node, (ast.Subscript, ast.Attribute)) else None
        dotted = _dotted(base) if base is not None else None
        if (
            dotted is not None
            and len(dotted) == 2
            and dotted[0] in self.module.imports
            and dotted[0] not in self.locals
        ):
            self.summary.module_attr_accesses.append(
                {
                    "alias": dotted[0],
                    "attr": dotted[1],
                    "kind": "write",
                    "lineno": node.lineno,
                    "col": node.col_offset,
                }
            )

    def _scan_dict_display(self, node: ast.Dict) -> None:
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "version"
                and value is not None
            ):
                self.summary.version_key_sites.append(
                    {
                        "context": "dict",
                        "lineno": value.lineno,
                        "col": value.col_offset,
                        "is_literal": _literal_value(value) is not None,
                    }
                )

    def _scan_compare(self, node: ast.Compare) -> None:
        if len(node.comparators) != 1 or not isinstance(
            node.ops[0], (ast.Eq, ast.NotEq)
        ):
            return
        sides = (node.left, node.comparators[0])
        if not any(self._is_version_lookup(side) for side in sides):
            return
        for side in sides:
            if _literal_value(side) is not None:
                self.summary.version_key_sites.append(
                    {
                        "context": "compare",
                        "lineno": side.lineno,
                        "col": side.col_offset,
                        "is_literal": True,
                    }
                )

    def _is_version_lookup(self, node: ast.AST) -> bool:
        """``x["version"]`` / ``x.get("version")`` or a local bound to one."""
        if isinstance(node, ast.Subscript):
            key = node.slice
            if isinstance(key, ast.Index):  # pragma: no cover (py<3.9)
                key = key.value
            return isinstance(key, ast.Constant) and key.value == "version"
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            return (
                dotted is not None
                and dotted[-1] == "get"
                and len(node.args) >= 1
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "version"
            )
        if isinstance(node, ast.Name):
            return node.id in self._version_locals
        return False

    @property
    def _version_locals(self) -> Set[str]:
        names: Set[str] = set()
        for child in ast.walk(self.node):
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name) and self._is_version_lookup_expr(
                    child.value
                ):
                    names.add(target.id)
        return names

    def _is_version_lookup_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Subscript, ast.Call)):
            try:
                return self._is_version_lookup(node)
            except RecursionError:  # pragma: no cover
                return False
        return False

    # -- resource events -------------------------------------------------

    def _scan_resource_events(self) -> None:
        events: List[Dict[str, Any]] = []
        body = getattr(self.node, "body", [])
        for statement in body:
            self._scan_statement_events(statement, events)
        events.sort(key=lambda event: (event["lineno"], event["col"]))
        self.summary.resource_events = events

    def _scan_statement_events(
        self, statement: ast.stmt, events: List[Dict[str, Any]]
    ) -> None:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        recorded_calls: Set[int] = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                ref = _call_class_ref(node.value)
                if isinstance(target, ast.Name) and ref is not None:
                    events.append(
                        {
                            "kind": "acquire",
                            "var": target.id,
                            "cls": ref,
                            "lineno": node.lineno,
                            "col": node.col_offset,
                            "in_with": False,
                        }
                    )
                    recorded_calls.add(id(node.value))
            elif isinstance(node, ast.withitem):
                ref = _call_class_ref(node.context_expr)
                if ref is not None and isinstance(
                    node.optional_vars, (ast.Name, type(None))
                ):
                    var = (
                        node.optional_vars.id
                        if isinstance(node.optional_vars, ast.Name)
                        else "_"
                    )
                    events.append(
                        {
                            "kind": "acquire",
                            "var": var,
                            "cls": ref,
                            "lineno": node.context_expr.lineno,
                            "col": node.context_expr.col_offset,
                            "in_with": True,
                        }
                    )
                    recorded_calls.add(id(node.context_expr))
            elif isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if (
                    dotted is not None
                    and len(dotted) >= 2
                    and dotted[-1] in _RELEASE_METHODS
                ):
                    events.append(
                        {
                            "kind": "release",
                            "var": ".".join(dotted[:-1]),
                            "method": dotted[-1],
                            "lineno": node.lineno,
                            "col": node.col_offset,
                            "in_finally": self.parents.in_finally(
                                node, self.node
                            ),
                        }
                    )
                    recorded_calls.add(id(node))
                elif (
                    dotted is not None
                    and dotted[-1] == "acquire"
                    and len(dotted) == 2
                    and dotted[0] in self.summary.local_types
                ):
                    events.append(
                        {
                            "kind": "acquire",
                            "var": dotted[0],
                            "cls": self.summary.local_types[dotted[0]],
                            "lineno": node.lineno,
                            "col": node.col_offset,
                            "in_with": self.parents.in_with(node, self.node),
                        }
                    )
                    recorded_calls.add(id(node))
                elif id(node) not in recorded_calls:
                    events.append(
                        {
                            "kind": "call",
                            "lineno": node.lineno,
                            "col": node.col_offset,
                        }
                    )


def summarize_module(
    path: str, source: str, tree: ast.Module, config: CheckConfig
) -> ModuleSummary:
    """Build one module's :class:`ModuleSummary` from its parsed AST."""
    summary = ModuleSummary(
        path, module_name_for_path(path), config.is_hot_path(path, source)
    )
    parents = _ParentMap(tree)
    suffixes = tuple(config.protocol_constant_suffixes)

    def record_constant_targets(
        node: ast.stmt, scope: str
    ) -> None:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            literal = _literal_value(value)
            if scope == "module" and literal is not None:
                summary.constants[name] = literal
            if (
                name.upper() == name
                and name.endswith(suffixes)
                and literal is not None
            ):
                summary.protocol_constants.append(
                    {
                        "name": name,
                        "value_repr": repr(literal),
                        "lineno": target.lineno,
                        "col": target.col_offset,
                        "scope": scope,
                    }
                )
            if scope == "module":
                empty = _is_mutable_initializer(value)
                if empty is not None and name != "__all__":
                    summary.mutable_globals[name] = {
                        "lineno": target.lineno,
                        "col": target.col_offset,
                        "empty": empty,
                    }

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                summary.imports[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None:
                    summary.imports[local] = alias.name.split(".")[0]
                    # Record full dotted path too for `a.b` usage.
                    summary.imports.setdefault(alias.name, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue
            for alias in node.names:
                summary.imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )

    for node in tree.body:
        record_constant_targets(node, "module")

    def scan_function(
        node: ast.AST, class_name: Optional[str]
    ) -> None:
        scanner = _FunctionScanner(node, class_name, summary, parents, config)
        function = scanner.scan()
        summary.functions[function.qualname] = function

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(node, None)
        elif isinstance(node, ast.ClassDef):
            methods: List[str] = []
            bases: List[str] = []
            for base in node.bases:
                dotted = _dotted(base)
                if dotted is not None:
                    bases.append(".".join(dotted))
            attr_types: Dict[str, str] = {}
            for member in node.body:
                record_constant_targets(member, f"class {node.name}")
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(member.name)
            summary.classes[node.name] = {
                "methods": methods,
                "bases": bases,
                "attr_types": attr_types,
            }
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_function(member, node.name)
            # Attribute types: self.X = <ctor or annotated param>.
            for member in node.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                method = summary.functions[f"{node.name}.{member.name}"]
                for child in ast.walk(member):
                    if not isinstance(child, ast.Assign):
                        continue
                    for target in child.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            ref = _call_class_ref(child.value)
                            if ref is None and isinstance(child.value, ast.Name):
                                ref = method.local_types.get(child.value.id)
                            if ref is not None:
                                attr_types.setdefault(target.attr, ref)
    return summary


# -- the assembled index ---------------------------------------------------


class CallResolution:
    """Call-graph resolution result: candidates plus confidence."""

    __slots__ = ("candidates", "confident")

    def __init__(self, candidates: List[str], confident: bool) -> None:
        #: Function keys ``"module::qualname"``.
        self.candidates = candidates
        self.confident = confident


class ProjectIndex:
    """The whole-program symbol table the project checks query."""

    def __init__(self, config: Optional[CheckConfig] = None) -> None:
        self.config = config or CheckConfig()
        self.modules: Dict[str, ModuleSummary] = {}
        self._by_function_name: Optional[Dict[str, List[str]]] = None
        self._by_class_name: Optional[Dict[str, List[str]]] = None

    def add(self, summary: ModuleSummary) -> None:
        """Index one module (lookup tables rebuild lazily)."""
        self.modules[summary.module] = summary
        self._by_function_name = None
        self._by_class_name = None

    # -- lookup tables ---------------------------------------------------

    def _function_table(self) -> Dict[str, List[str]]:
        if self._by_function_name is None:
            table: Dict[str, List[str]] = {}
            for module in self.modules.values():
                for qualname, function in module.functions.items():
                    key = f"{module.module}::{qualname}"
                    table.setdefault(function.name, []).append(key)
            self._by_function_name = table
        return self._by_function_name

    def _class_table(self) -> Dict[str, List[str]]:
        if self._by_class_name is None:
            table: Dict[str, List[str]] = {}
            for module in self.modules.values():
                for class_name in module.classes:
                    table.setdefault(class_name, []).append(module.module)
            self._by_class_name = table
        return self._by_class_name

    def function(self, key: str) -> Optional[FunctionSummary]:
        """The summary behind a ``module::qualname`` key, if indexed."""
        module_name, _, qualname = key.partition("::")
        module = self.modules.get(module_name)
        if module is None:
            return None
        return module.functions.get(qualname)

    def functions(self) -> Iterator[Tuple[str, ModuleSummary, FunctionSummary]]:
        """Every function as ``(key, module, summary)``."""
        for module in self.modules.values():
            for qualname, function in module.functions.items():
                yield f"{module.module}::{qualname}", module, function

    # -- resolution ------------------------------------------------------

    def resolve_class(
        self, module: ModuleSummary, classref: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """``(module_name, class_name)`` for a lexical class reference."""
        if not classref:
            return None
        parts = classref.split(".")
        base = parts[-1]
        if len(parts) == 1:
            if base in module.classes:
                return module.module, base
            target = module.imports.get(base)
            if target is not None:
                owner = self._module_defining_class(target, base)
                if owner is not None:
                    return owner, base
        # Unique-basename fallback: one definition project-wide is an
        # unambiguous match even when the import path is re-exported.
        owners = self._class_table().get(base, [])
        if len(owners) == 1:
            return owners[0], base
        return None

    def _module_defining_class(
        self, dotted_target: str, class_name: str
    ) -> Optional[str]:
        # `from a.b import C` binds target "a.b.C": the module is the
        # prefix; re-exports fall back to the unique-name table.
        if dotted_target.endswith("." + class_name):
            module_name = dotted_target[: -(len(class_name) + 1)]
            module = self.modules.get(module_name)
            if module is not None and class_name in module.classes:
                return module_name
        return None

    def _resolve_method(
        self, class_owner: str, class_name: str, method: str
    ) -> Optional[str]:
        module = self.modules.get(class_owner)
        if module is None:
            return None
        info = module.classes.get(class_name)
        if info is None:
            return None
        if method in info["methods"]:
            return f"{class_owner}::{class_name}.{method}"
        for base in info["bases"]:
            resolved = self.resolve_class(module, base)
            if resolved is not None:
                found = self._resolve_method(resolved[0], resolved[1], method)
                if found is not None:
                    return found
        return None

    def resolve_call(
        self,
        module: ModuleSummary,
        function: FunctionSummary,
        dotted: Sequence[str],
    ) -> CallResolution:
        """Resolve one call site to function keys.

        Confident resolutions: direct module-level names, imported
        project functions, ``self`` methods, ``Class.method``, and
        receivers whose type a local binding pins.  Unknown receivers
        fall back to the conservative candidate set (every project
        function of that name) with ``confident=False``.
        """
        dotted = tuple(dotted)
        if not dotted:
            return CallResolution([], True)
        head, tail = dotted[0], dotted[1:]
        if not tail:
            name = head
            if name in module.functions:
                return CallResolution([f"{module.module}::{name}"], True)
            if name in module.classes:
                key = self._resolve_method(module.module, name, "__init__")
                return CallResolution([key] if key else [], True)
            target = module.imports.get(name)
            if target is not None:
                resolved = self._resolve_imported_callable(target, name)
                if resolved is not None:
                    return CallResolution([resolved], True)
                resolved_class = self.resolve_class(module, name)
                if resolved_class is not None:
                    key = self._resolve_method(
                        resolved_class[0], resolved_class[1], "__init__"
                    )
                    return CallResolution([key] if key else [], True)
                return CallResolution([], True)  # external callable
            candidates = self._function_table().get(name, [])
            return CallResolution(list(candidates), len(candidates) <= 1)
        if head == "self" and function.class_name is not None:
            return self._resolve_self_call(module, function, tail)
        # ClassName.method / alias.method / typed-receiver.method
        method = tail[-1]
        receiver_class: Optional[str] = None
        if head in function.local_types and len(tail) >= 1:
            receiver_class = self._chase_attr_chain(
                module, function.local_types[head], tail[:-1]
            )
        elif head in module.classes or (
            head in module.imports and self.resolve_class(module, head)
        ):
            if len(tail) == 1 and head[:1].isupper():
                receiver_class = head
        elif head in module.imports and len(tail) == 1:
            # module alias: mod.func(...)
            target = module.imports[head]
            owner = self.modules.get(target)
            if owner is not None and method in owner.functions:
                return CallResolution([f"{target}::{method}"], True)
            return CallResolution([], True)  # external module
        if receiver_class is not None:
            resolved_class = self.resolve_class(module, receiver_class)
            if resolved_class is not None:
                key = self._resolve_method(
                    resolved_class[0], resolved_class[1], method
                )
                return CallResolution([key] if key else [], True)
            return CallResolution([], True)  # external class
        # Conservative fallback: any project method with this name.
        candidates = [
            key
            for key in self._function_table().get(method, [])
            if "." in key.split("::")[1]
        ]
        return CallResolution(candidates, False)

    def _resolve_imported_callable(
        self, dotted_target: str, name: str
    ) -> Optional[str]:
        if dotted_target.endswith("." + name):
            module_name = dotted_target[: -(len(name) + 1)]
            module = self.modules.get(module_name)
            if module is not None and name in module.functions:
                return f"{module_name}::{name}"
        table = self._function_table().get(name, [])
        module_level = [key for key in table if "." not in key.split("::")[1]]
        if len(module_level) == 1:
            return module_level[0]
        return None

    def _resolve_self_call(
        self,
        module: ModuleSummary,
        function: FunctionSummary,
        tail: Tuple[str, ...],
    ) -> CallResolution:
        class_name = function.class_name or ""
        if len(tail) == 1:
            key = self._resolve_method(module.module, class_name, tail[0])
            if key is not None:
                return CallResolution([key], True)
            return CallResolution([], True)
        # self.attr...method(): chase the attribute's pinned type.
        info = module.classes.get(class_name, {"attr_types": {}})
        attr_ref = info["attr_types"].get(tail[0])
        chased = self._chase_attr_chain(module, attr_ref, tail[1:-1])
        if chased is not None:
            resolved_class = self.resolve_class(module, chased)
            if resolved_class is not None:
                key = self._resolve_method(
                    resolved_class[0], resolved_class[1], tail[-1]
                )
                return CallResolution([key] if key else [], True)
            return CallResolution([], True)
        candidates = [
            key
            for key in self._function_table().get(tail[-1], [])
            if "." in key.split("::")[1]
        ]
        return CallResolution(candidates, False)

    def _chase_attr_chain(
        self,
        module: ModuleSummary,
        classref: Optional[str],
        attrs: Tuple[str, ...],
    ) -> Optional[str]:
        """Follow ``x.a.b`` through pinned attribute types."""
        current = classref
        for attr in attrs:
            resolved = self.resolve_class(module, current)
            if resolved is None:
                return None
            owner = self.modules[resolved[0]]
            current = owner.classes[resolved[1]]["attr_types"].get(attr)
            if current is None:
                return None
        return current

    # -- reachability ----------------------------------------------------

    def reachable_from(
        self, roots: Sequence[str], confident_only: bool = True
    ) -> Dict[str, str]:
        """Function keys reachable from ``roots`` (cycle-safe BFS).

        Returns ``{reached_key: root_key}`` attributing each function
        to the entrypoint that first reached it.
        """
        reached: Dict[str, str] = {}
        frontier: List[Tuple[str, str]] = [(root, root) for root in roots]
        while frontier:
            key, root = frontier.pop()
            if key in reached:
                continue
            reached[key] = root
            function = self.function(key)
            if function is None:
                continue
            module = self.modules[key.partition("::")[0]]
            for call in function.calls:
                resolution = self.resolve_call(module, function, call["dotted"])
                if confident_only and not resolution.confident:
                    continue
                for candidate in resolution.candidates:
                    if candidate not in reached:
                        frontier.append((candidate, root))
        return reached

    def allocations_reachable(
        self, key: str, kind: str, max_depth: int = 3
    ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """First allocation of ``kind`` reachable from function ``key``.

        Bounded-depth, confident-edges-only walk; returns the owning
        function key and the allocation record, or None.
        """
        seen: Set[str] = set()
        frontier: List[Tuple[str, int]] = [(key, 0)]
        while frontier:
            current, depth = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            function = self.function(current)
            if function is None:
                continue
            for allocation in function.allocations:
                if allocation["kind"] == kind:
                    return current, allocation
            if depth >= max_depth:
                continue
            module = self.modules[current.partition("::")[0]]
            for call in function.calls:
                resolution = self.resolve_call(module, function, call["dotted"])
                if not resolution.confident:
                    continue
                for candidate in resolution.candidates:
                    if candidate not in seen:
                        frontier.append((candidate, depth + 1))
        return None

    def import_closure(self, module_name: str) -> Set[str]:
        """Project modules transitively imported by ``module_name``."""
        closure: Set[str] = set()
        frontier = [module_name]
        while frontier:
            current = frontier.pop()
            if current in closure:
                continue
            closure.add(current)
            module = self.modules.get(current)
            if module is None:
                continue
            for target in module.imports.values():
                for candidate in (target, target.rpartition(".")[0]):
                    if candidate in self.modules and candidate not in closure:
                        frontier.append(candidate)
        return closure


__all__ = [
    "CallResolution",
    "FunctionSummary",
    "ModuleSummary",
    "ProjectIndex",
    "module_name_for_path",
    "summarize_module",
]
