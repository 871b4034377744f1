"""Check plugin protocol and registries.

A per-file check is a class with a ``code``, a one-line ``rationale``
(shown by ``python -m repro check --list`` and mirrored in the README
codes table) and a ``run`` method yielding :class:`Diagnostic` records
for one parsed file.  A *project* check runs once per invocation over
the assembled :class:`~repro.devtools.project.ProjectIndex` instead;
the two kinds live in separate registries so an interprocedural
upgrade may share a code with the per-file check it extends (RPR201/
RPR202 do exactly that).  Registration is a decorator either way --
the registries, the CLI, ``--list`` and the fixture-driven tests all
pick a new check up automatically.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Type

from repro.devtools.config import CheckConfig
from repro.devtools.diagnostics import Diagnostic

if TYPE_CHECKING:  # pragma: no cover
    from repro.devtools.project import ProjectIndex

_REGISTRY: Dict[str, Type["Check"]] = {}
_PROJECT_REGISTRY: Dict[str, Type["ProjectCheck"]] = {}


def _validate_code(code: str, owner: str) -> None:
    if not code.startswith("RPR") or not code[3:].isdigit():
        raise ValueError(f"bad diagnostic code {code!r} on {owner}")


def register(check_class: Type["Check"]) -> Type["Check"]:
    """Class decorator adding a per-file check to the registry."""
    code = check_class.code
    _validate_code(code, check_class.__name__)
    existing = _REGISTRY.get(code)
    if existing is not None and existing is not check_class:
        raise ValueError(f"duplicate diagnostic code {code}")
    _REGISTRY[code] = check_class
    return check_class


def register_project(
    check_class: Type["ProjectCheck"],
) -> Type["ProjectCheck"]:
    """Class decorator adding a project-wide check to the registry.

    A project check may share its code with a per-file check (the
    interprocedural RPR2xx upgrades do); it must still be unique among
    project checks.
    """
    code = check_class.code
    _validate_code(code, check_class.__name__)
    existing = _PROJECT_REGISTRY.get(code)
    if existing is not None and existing is not check_class:
        raise ValueError(f"duplicate project diagnostic code {code}")
    _PROJECT_REGISTRY[code] = check_class
    return check_class


def all_checks() -> List[Type["Check"]]:
    """Registered per-file check classes, sorted by code."""
    _ensure_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def all_project_checks() -> List[Type["ProjectCheck"]]:
    """Registered project check classes, sorted by code."""
    _ensure_loaded()
    return [_PROJECT_REGISTRY[code] for code in sorted(_PROJECT_REGISTRY)]


def registered_codes() -> List[str]:
    """All registered diagnostic codes (both kinds), sorted."""
    _ensure_loaded()
    return sorted(set(_REGISTRY) | set(_PROJECT_REGISTRY))


def _ensure_loaded() -> None:
    # Importing the checks package populates the registry; deferred to
    # first use so base <-> checks never import-cycle.
    import repro.devtools.checks  # noqa: F401


class FileContext:
    """Everything the checks need to know about one parsed file.

    Built once per file by the analyzer and shared by every check:
    the AST plus parent links, loop ancestry, the module's telemetry
    imports and its hot-path designation.
    """

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        config: CheckConfig,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.config = config
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.is_hot_path = config.is_hot_path(path, source)
        self.telemetry_names: Set[str] = self._telemetry_imports()
        self.is_instrumented = bool(self.telemetry_names)

    def _telemetry_imports(self) -> Set[str]:
        """Local names bound to ``repro.telemetry`` (or members of it)."""
        names: Set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.telemetry":
                        names.add(alias.asname or "repro")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "repro" and any(
                    alias.name == "telemetry" for alias in node.names
                ):
                    for alias in node.names:
                        if alias.name == "telemetry":
                            names.add(alias.asname or "telemetry")
                elif node.module == "repro.telemetry":
                    for alias in node.names:
                        names.add(alias.asname or alias.name)
        return names

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (None for the module root)."""
        return self.parents.get(node)

    def enclosing_loops(self, node: ast.AST) -> List[ast.AST]:
        """``for``/``while`` statements whose *body* contains ``node``.

        A node sitting in a loop's iterable or condition expression is
        not "inside" that loop body: ``for x in np.zeros(n):`` runs the
        allocation once, so only descendants of ``body``/``orelse``
        count.
        """
        loops: List[ast.AST] = []
        child = node
        parent = self.parents.get(child)
        while parent is not None:
            if isinstance(parent, (ast.For, ast.While)) and (
                any(child is stmt for stmt in parent.body)
                or any(child is stmt for stmt in parent.orelse)
            ):
                loops.append(parent)
            child = parent
            parent = self.parents.get(child)
        return loops

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing function/lambda (None at module scope)."""
        parent = self.parents.get(node)
        while parent is not None:
            if isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return parent
            parent = self.parents.get(parent)
        return None


class Check:
    """Base class for one diagnostic code.

    Subclasses set :attr:`code` and :attr:`rationale` and implement
    :meth:`run`; ``rationale`` must be one line -- it is the ``--list``
    output and the README codes table.
    """

    #: Diagnostic code, e.g. ``"RPR101"``.
    code: str = ""
    #: One-line reason this contract exists.
    rationale: str = ""

    def run(self, context: FileContext) -> Iterator[Diagnostic]:
        """Yield diagnostics for one parsed file."""
        raise NotImplementedError

    def diagnostic(
        self, context: FileContext, node: ast.AST, message: str
    ) -> Diagnostic:
        """A :class:`Diagnostic` of this check's code anchored at ``node``."""
        return Diagnostic(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


class ProjectCheck:
    """Base class for one whole-program diagnostic code.

    Subclasses set :attr:`code`/:attr:`rationale` and implement
    :meth:`run` over the assembled index; diagnostics may point at any
    indexed file (a reader site can be flagged for a writer's drift).
    Inline suppressions apply exactly as for per-file checks: at the
    flagged line, in the flagged file.
    """

    #: Diagnostic code, e.g. ``"RPR501"``.
    code: str = ""
    #: One-line reason this contract exists.
    rationale: str = ""

    def run(self, index: "ProjectIndex") -> Iterator[Diagnostic]:
        """Yield diagnostics for the whole indexed project."""
        raise NotImplementedError

    def diagnostic(
        self, path: str, lineno: int, col: int, message: str
    ) -> Diagnostic:
        """A :class:`Diagnostic` of this check's code at a position."""
        return Diagnostic(
            path=path, line=lineno, col=col, code=self.code, message=message
        )
