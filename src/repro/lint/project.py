"""Whole-program analysis context: symbol table + call graph.

The per-file rules (R001-R010) are deliberately syntactic; the
invariants the reproduction's headline claims rest on, however, span
modules and language boundaries -- a seed that stops flowing through
``split_seed`` three calls away, a ctypes prototype that drifts from
the C signature, a published shared-memory block with no release on an
error path.  This module builds the shared substrate those passes run
on:

* a :class:`ModuleInfo` per Python file (AST, import-alias map,
  module-level globals, dotted module name derived from the path);
* a :class:`FunctionInfo` per function/method, keyed by qualified name
  (``repro.experiments.runner._run_chunk``), with the calls made from
  its body (nested defs excluded -- they are functions of their own);
* a project-wide call graph: ``calls_from`` (edges out of a function)
  and ``call_sites`` (every call resolving to a given function);
* companion C sources (``*.c`` under the linted roots) for the FFI
  prototype checker.

Resolution is best-effort and *conservative*: a call that cannot be
resolved to a project function simply produces no edge, so whole-program
rules err on the side of silence, never on inventing reachability.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.lint.engine import (
    build_alias_map,
    iter_python_files,
    suppressed_lines,
)
from repro.lint.findings import Finding
from repro.lint.policy import LintPolicy
from repro.lint.registry import ProjectRule, Rule, all_rules

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectContext",
    "build_project",
    "lint_project",
    "lint_project_paths",
    "module_name_for",
    "project_rules",
]

FunctionNode = "ast.FunctionDef | ast.AsyncFunctionDef"

#: Path prefixes stripped when deriving dotted module names, so that
#: ``src/repro/core/hf.py`` and an installed ``repro/core/hf.py`` both
#: name the module ``repro.core.hf``.
_SRC_PREFIXES = ("src/",)


def module_name_for(path: str) -> str:
    """Dotted module name derived from a repo-relative file path.

    ``src/repro/core/hf.py`` -> ``repro.core.hf``;
    ``pkg/__init__.py`` -> ``pkg``.  The mapping only needs to agree
    with how project modules import each other (absolute imports), not
    with ``sys.path`` in general.
    """
    norm = path.replace("\\", "/").lstrip("./")
    for prefix in _SRC_PREFIXES:
        if norm.startswith(prefix):
            norm = norm[len(prefix):]
            break
    if norm.endswith(".py"):
        norm = norm[: -len(".py")]
    if norm.endswith("/__init__"):
        norm = norm[: -len("/__init__")]
    return norm.replace("/", ".")


@dataclass
class FunctionInfo:
    """One function or method of the project."""

    qualname: str  #: ``module.func`` or ``module.Class.method``
    module: "ModuleInfo"
    node: ast.AST
    #: positionally-bindable parameter names (posonly + args), with any
    #: leading ``self``/``cls`` already stripped
    params: Tuple[str, ...] = ()
    kwonly: Tuple[str, ...] = ()
    #: True when the def sits inside a class body
    is_method: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


@dataclass(frozen=True)
class CallSite:
    """One call expression resolving to a project function."""

    caller: str  #: qualname of the enclosing function, or ``module:<module>``
    module: "ModuleInfo"
    node: ast.Call

    def bound_arg(self, callee: FunctionInfo, param: str) -> Optional[ast.expr]:
        """The expression this site binds to ``param`` of ``callee``.

        Positional binding uses ``callee.params`` (self already
        stripped, so ``obj.method(x)`` binds ``x`` to the first real
        parameter); keyword binding matches by name.  Returns ``None``
        when the site does not bind the parameter (default applies) or
        uses ``*args``/``**kwargs``.
        """
        for kw in self.node.keywords:
            if kw.arg == param:
                return kw.value
        try:
            index = list(callee.params).index(param)
        except ValueError:
            return None
        args = self.node.args
        if index < len(args) and not any(
            isinstance(a, ast.Starred) for a in args[: index + 1]
        ):
            return args[index]
        return None


@dataclass
class ModuleInfo:
    """Everything the project passes know about one Python module."""

    path: str
    name: str
    source: str
    tree: ast.Module
    lines: Tuple[str, ...]
    aliases: Dict[str, str]
    #: names assigned at module top level (mutable-global candidates)
    module_globals: frozenset = frozenset()
    #: names of top-level functions and classes defined here
    toplevel_defs: frozenset = frozenset()

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _body_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Call expressions in ``fn``'s own body (nested defs excluded)."""

    def visit(node: ast.AST) -> Iterator[ast.Call]:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Call):
                yield child
            yield from visit(child)

    yield from visit(fn)


@dataclass
class ProjectContext:
    """The resolved whole-program view the R1xx passes analyse."""

    modules: Dict[str, ModuleInfo] = field(default_factory=dict)  #: by path
    by_name: Dict[str, ModuleInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: caller qualname -> [(call node, resolved callee qualname)]
    calls_from: Dict[str, List[Tuple[ast.Call, str]]] = field(
        default_factory=dict
    )
    #: callee qualname -> [CallSite]
    call_sites: Dict[str, List[CallSite]] = field(default_factory=dict)
    #: C sources found next to the Python tree: path -> text
    c_files: Dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------

    def resolve_function(
        self, module: ModuleInfo, func_expr: ast.AST
    ) -> Optional[FunctionInfo]:
        """Project function a Name/Attribute expression refers to."""
        dotted = module.resolve(func_expr)
        if dotted is None:
            return None
        hit = self.functions.get(dotted)
        if hit is not None:
            return hit
        return self.functions.get(f"{module.name}.{dotted}")

    def enclosing_function(
        self, module: ModuleInfo, node: ast.AST, binding: Optional[str] = None
    ) -> Optional[FunctionInfo]:
        """Innermost project function whose body contains ``node`` (and,
        with ``binding``, that has a parameter of that name)."""
        best: Optional[FunctionInfo] = None
        best_span = None
        for info in self.functions.values():
            if info.module is not module:
                continue
            if binding is not None and binding not in (*info.params, *info.kwonly):
                continue
            fn = info.node
            start = getattr(fn, "lineno", None)
            end = getattr(fn, "end_lineno", None)
            line = getattr(node, "lineno", None)
            if start is None or end is None or line is None:
                continue
            if start <= line <= end:
                span = end - start
                if best_span is None or span < best_span:
                    best, best_span = info, span
        return best


def _positional_params(fn: ast.AST, *, is_method: bool) -> Tuple[str, ...]:
    args = fn.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _index_module(project: ProjectContext, info: ModuleInfo) -> None:
    """Register a module's functions and module-level calls."""

    def add_function(node: ast.AST, qualname: str, is_method: bool) -> None:
        project.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=info,
            node=node,
            params=_positional_params(node, is_method=is_method),
            kwonly=tuple(a.arg for a in node.args.kwonlyargs),
            is_method=is_method,
        )

    def walk(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                add_function(child, qualname, is_method=in_class)
                walk(child, qualname, in_class=False)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}", in_class=True)
            else:
                walk(child, prefix, in_class)

    walk(info.tree, info.name, in_class=False)


def _link_calls(project: ProjectContext) -> None:
    """Second pass: resolve every call to a project function, if any."""
    for info in project.modules.values():
        # calls made at module level (outside any def)
        module_caller = f"{info.name}:<module>"
        claimed: set = set()
        for fname, finfo in project.functions.items():
            if finfo.module is not info:
                continue
            edges: List[Tuple[ast.Call, str]] = []
            for call in _body_calls(finfo.node):
                claimed.add(id(call))
                callee = project.resolve_function(info, call.func)
                if callee is None:
                    continue
                edges.append((call, callee.qualname))
                project.call_sites.setdefault(callee.qualname, []).append(
                    CallSite(caller=fname, module=info, node=call)
                )
            if edges:
                project.calls_from[fname] = edges
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or id(node) in claimed:
                continue
            callee = project.resolve_function(info, node.func)
            if callee is None:
                continue
            project.calls_from.setdefault(module_caller, []).append(
                (node, callee.qualname)
            )
            project.call_sites.setdefault(callee.qualname, []).append(
                CallSite(caller=module_caller, module=info, node=node)
            )


def build_project(
    py_files: Mapping[str, str],
    c_files: Optional[Mapping[str, str]] = None,
) -> ProjectContext:
    """Build a :class:`ProjectContext` from in-memory sources.

    ``py_files`` maps path -> source; unparseable modules are skipped
    (the per-file pass already reports E999 for them).  ``c_files``
    carries companion C sources for the FFI checker.
    """
    project = ProjectContext(c_files=dict(c_files or {}))
    for path, source in sorted(py_files.items()):
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            continue
        module_globals = set()
        toplevel = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            module_globals.add(leaf.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                module_globals.add(stmt.target.id)
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                toplevel.add(stmt.name)
        info = ModuleInfo(
            path=path,
            name=module_name_for(path),
            source=source,
            tree=tree,
            lines=tuple(source.splitlines()),
            aliases=build_alias_map(tree),
            module_globals=frozenset(module_globals),
            toplevel_defs=frozenset(toplevel),
        )
        project.modules[path] = info
        project.by_name[info.name] = info
        _index_module(project, info)
    _link_calls(project)
    return project


def project_rules(
    rules: Optional[Dict[str, Rule]] = None
) -> Dict[str, ProjectRule]:
    """The registered whole-program rules (subset of the registry)."""
    active = rules if rules is not None else all_rules()
    return {
        rule_id: rule
        for rule_id, rule in active.items()
        if isinstance(rule, ProjectRule)
    }


def lint_project(
    project: ProjectContext,
    policy: LintPolicy,
    *,
    rules: Optional[Dict[str, Rule]] = None,
) -> List[Finding]:
    """Run every project rule; filter findings like the per-file engine.

    Each finding is kept only when its rule is enabled for the profile
    governing the finding's *path*, survives the same suppression
    comments (including first-line-of-statement span scoping) and is
    not baselined.  Findings in C files support no suppression comments
    -- an FFI mismatch must be fixed, not waved through.
    """
    raw: List[Finding] = []
    seen: set = set()
    for rule in project_rules(rules).values():
        for finding in rule.check_project(project):
            if finding in seen:
                continue  # two sinks can trace to one call site
            seen.add(finding)
            raw.append(finding)

    suppression_cache: Dict[str, Dict[int, frozenset]] = {}
    findings: List[Finding] = []
    for finding in raw:
        if finding.rule not in policy.rules_for(finding.path):
            continue
        if policy.is_baselined(finding.rule, finding.path):
            continue
        module = project.modules.get(finding.path)
        if module is not None:
            smap = suppression_cache.get(finding.path)
            if smap is None:
                smap = suppressed_lines(module.lines, module.tree)
                suppression_cache[finding.path] = smap
            ids = smap.get(finding.line, frozenset())
            if "ALL" in ids or finding.rule in ids:
                continue
        profile = policy.profile_for(finding.path)
        if finding.profile != profile:
            finding = dataclasses.replace(finding, profile=profile)
        findings.append(finding)
    return sorted(findings)


def _iter_c_files(paths: Sequence[str]) -> Iterator[Path]:
    from repro.lint.engine import _SKIP_DIRS  # shared skip list

    seen = set()
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            candidates = [root] if root.suffix == ".c" else []
        elif root.is_dir():
            candidates = sorted(
                p
                for p in root.rglob("*.c")
                if not any(part in _SKIP_DIRS for part in p.parts)
            )
        else:
            candidates = []
        for path in candidates:
            if path not in seen:
                seen.add(path)
                yield path


def lint_project_paths(
    paths: Sequence[str],
    policy: LintPolicy,
    *,
    rules: Optional[Dict[str, Rule]] = None,
    cache: Optional[object] = None,
) -> List[Finding]:
    """Whole-program lint of every ``.py`` (and companion ``.c``) file.

    ``cache`` is an optional :class:`repro.lint.cache.LintCache`: the
    result is replayed when the combined digest of every file matches
    (any single changed file invalidates it, as cross-module findings
    can move anywhere).
    """
    raw_files: Dict[str, bytes] = {
        str(p): p.read_bytes() for p in iter_python_files(paths)
    }
    c_raw: Dict[str, bytes] = {
        str(p): p.read_bytes() for p in _iter_c_files(paths)
    }
    digest = None
    if cache is not None:
        import hashlib

        hashes = {
            path: hashlib.sha256(data).hexdigest()
            for path, data in {**raw_files, **c_raw}.items()
        }
        digest = cache.project_digest(hashes)
        hit = cache.get_project(digest)
        if hit is not None:
            return hit
    py_files = {p: data.decode("utf-8") for p, data in raw_files.items()}
    c_files = {p: data.decode("utf-8") for p, data in c_raw.items()}
    project = build_project(py_files, c_files)
    findings = lint_project(project, policy, rules=rules)
    if cache is not None and digest is not None:
        cache.put_project(digest, findings)
    return findings
