"""Whole-program RNG/seed provenance and pool-purity passes (R101-R104).

These rules run on the :class:`~repro.lint.project.ProjectContext` --
they see every module at once, so a seed handed across a module boundary
is traced to where it was derived, and a function submitted to a process
pool is checked together with everything it transitively calls.

Design rule: **resolve conservatively, flag positively**.  Every pass
only reports when it can point at a concrete nondeterministic source
(a wall-clock read, a ``hash()`` call, a duplicated fork index, a
mutable module-global write); anything the analysis cannot resolve is
silent.  That keeps whole-program findings as cheap to verify by eye as
the per-file ones.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project import (
    CallSite,
    FunctionInfo,
    ModuleInfo,
    ProjectContext,
    _body_calls,
)
from repro.lint.registry import ProjectRule, register
from repro.lint.rules import _NP_GLOBAL_STATE, _POOL_SUBMIT_METHODS, _WALL_CLOCK

__all__ = [
    "SeedProvenanceRule",
    "DoubleForkRule",
    "RngAcrossPoolRule",
    "PoolPayloadPurityRule",
]

#: Calls that construct a Generator (the provenance sinks of R101).
_RNG_SINKS = frozenset(
    {
        "numpy.random.default_rng",
        "repro.utils.rng.ensure_generator",
        "repro.utils.ensure_generator",
    }
)

#: Calls that derive a seed under the SplitMix64 discipline.
_SEED_DERIVERS = frozenset(
    {
        "repro.utils.rng.split_seed",
        "repro.utils.rng.child_seed",
        "repro.utils.split_seed",
        "repro.utils.child_seed",
    }
)

#: Method names (receiver-typed resolution is out of scope) trusted to
#: hand out derived seeds / generators.
_SEED_METHODS = frozenset({"seed_for", "generator_for", "spawn"})

#: Calls whose result must never become a seed: nondeterministic per
#: process or per run.
_UNDERIVABLE_CALLS = frozenset(
    _WALL_CLOCK
    | {
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "os.urandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.randbits",
    }
)

#: Bare builtins whose value varies across processes / hash seeds.
_UNDERIVABLE_BUILTINS = frozenset({"hash", "id"})

_MAX_TRACE_DEPTH = 4


def _local_env(fn: ast.AST) -> Dict[str, ast.expr]:
    """Last simple assignment per name in a function body (own scope)."""
    env: Dict[str, ast.expr] = {}
    for child in ast.walk(fn):
        if isinstance(child, ast.Assign) and len(child.targets) == 1:
            target = child.targets[0]
            if isinstance(target, ast.Name):
                env[target.id] = child.value
        elif isinstance(child, ast.AnnAssign) and isinstance(
            child.target, ast.Name
        ):
            if child.value is not None:
                env[child.target.id] = child.value
    return env


class _SeedTracer:
    """Classifies seed expressions: derived / underivable / unknown."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project

    # Verdicts: ("derived", None) / ("unknown", None) /
    # ("underivable", reason) / ("param", param_name)

    def classify(
        self,
        expr: ast.expr,
        module: ModuleInfo,
        fn: Optional[FunctionInfo],
        env: Optional[Dict[str, ast.expr]] = None,
        depth: int = 0,
    ) -> Tuple[str, Optional[str]]:
        if depth > _MAX_TRACE_DEPTH:
            return "unknown", None
        if env is None:
            env = _local_env(fn.node) if fn is not None else {}
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool) or expr.value is None:
                return "unknown", None
            if isinstance(expr.value, int):
                return "derived", None
            return (
                "underivable",
                f"non-integer literal {expr.value!r} used as a seed",
            )
        if isinstance(expr, ast.Call):
            target = module.resolve(expr.func)
            if target in _SEED_DERIVERS:
                return "derived", None
            if target == "numpy.random.SeedSequence":
                # explicit entropy is as good as its source; no-arg
                # SeedSequence pulls OS entropy and differs every run
                if expr.args:
                    return self.classify(
                        expr.args[0], module, fn, env, depth + 1
                    )
                return (
                    "underivable",
                    "numpy.random.SeedSequence() without entropy draws "
                    "from the OS",
                )
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr in _SEED_METHODS
            ):
                return "derived", None
            if target in _UNDERIVABLE_CALLS:
                return "underivable", f"{target}() is nondeterministic"
            if (
                isinstance(expr.func, ast.Name)
                and expr.func.id in _UNDERIVABLE_BUILTINS
                and expr.func.id not in module.aliases
            ):
                return (
                    "underivable",
                    f"{expr.func.id}() varies across processes "
                    "(PYTHONHASHSEED / address space)",
                )
            return "unknown", None
        if isinstance(expr, (ast.BinOp, ast.UnaryOp, ast.IfExp)):
            operands: List[ast.expr] = []
            if isinstance(expr, ast.BinOp):
                operands = [expr.left, expr.right]
            elif isinstance(expr, ast.UnaryOp):
                operands = [expr.operand]
            else:
                operands = [expr.body, expr.orelse]
            verdicts = [
                self.classify(op, module, fn, env, depth + 1) for op in operands
            ]
            for verdict in verdicts:
                if verdict[0] == "underivable":
                    return verdict
            if any(v[0] in ("unknown", "param") for v in verdicts):
                return "unknown", None
            return "derived", None
        if isinstance(expr, ast.Name):
            if fn is not None and expr.id in (*fn.params, *fn.kwonly):
                return "param", expr.id
            bound = env.get(expr.id)
            if bound is not None and bound is not expr:
                return self.classify(bound, module, fn, env, depth + 1)
            return "unknown", None
        return "unknown", None

    def trace_param(
        self,
        fn: FunctionInfo,
        param: str,
        depth: int,
        visited: Set[Tuple[str, str]],
    ) -> Iterator[Tuple[CallSite, str]]:
        """Call sites that feed ``param`` an underivable value."""
        key = (fn.qualname, param)
        if key in visited or depth > _MAX_TRACE_DEPTH:
            return
        visited.add(key)
        for site in self.project.call_sites.get(fn.qualname, ()):  # sorted later
            arg = site.bound_arg(fn, param)
            if arg is None:
                continue
            caller = self.project.functions.get(site.caller)
            verdict, detail = self.classify(arg, site.module, caller)
            if verdict == "underivable":
                yield site, detail or "nondeterministic seed source"
            elif verdict == "param" and caller is not None:
                yield from self.trace_param(
                    caller, detail or "", depth + 1, visited
                )


@register
class SeedProvenanceRule(ProjectRule):
    rule_id = "R101"
    name = "seed-provenance"
    description = (
        "every Generator construction must be seeded by a value that "
        "(transitively, across modules) derives from the SplitMix64 "
        "split_seed/child_seed discipline -- never from wall clocks, "
        "hash(), uuid or other per-process sources."
    )
    rationale = (
        "R001 catches a *missing* seed in one file; it cannot see a seed "
        "that exists but was minted three calls away from time.time_ns() "
        "or hash().  Such a seed type-checks, runs, and silently breaks "
        "bit-reproducibility across runs and machines -- exactly the "
        "failure Theorem 3's PHF == HF verification cannot survive.  "
        "This pass walks the call graph from every default_rng / "
        "ensure_generator sink back to where the seed value was born."
    )
    bad = (
        "import time\n"
        "import numpy as np\n"
        "def make_rng(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "rng = make_rng(time.time_ns())\n"
    )
    good = (
        "import numpy as np\n"
        "from repro.utils.rng import split_seed\n"
        "def make_rng(seed):\n"
        "    return np.random.default_rng(seed)\n"
        "rng = make_rng(split_seed(20260708, 0))\n"
    )

    def _seed_arg(self, call: ast.Call) -> Optional[ast.expr]:
        if call.args and not isinstance(call.args[0], ast.Starred):
            return call.args[0]
        for kw in call.keywords:
            if kw.arg in ("seed", "root_seed"):
                return kw.value
        return None

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        tracer = _SeedTracer(project)
        for module in project.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                target = module.resolve(node.func)
                if target not in _RNG_SINKS:
                    continue
                seed = self._seed_arg(node)
                if seed is None:
                    continue  # unseeded: R001's business
                fn = project.enclosing_function(module, node)
                verdict, detail = tracer.classify(seed, module, fn)
                if verdict == "underivable":
                    yield self.project_finding(
                        module.path,
                        seed,
                        f"seed for {target}() has no SplitMix64 provenance: "
                        f"{detail}; derive it via repro.utils.rng "
                        "(split_seed/child_seed)",
                    )
                elif verdict == "param" and fn is not None:
                    seen: Set[Tuple[str, str]] = set()
                    for site, reason in tracer.trace_param(
                        fn, detail or "", 0, seen
                    ):
                        yield self.project_finding(
                            site.module.path,
                            site.node,
                            f"seed flowing into {target}() in "
                            f"`{fn.qualname}` has no SplitMix64 provenance "
                            f"at this call site: {reason}",
                        )


def _for_range_targets(fn: ast.AST) -> Dict[str, ast.Call]:
    """Loop variables iterating ``range(...)`` in a function body."""
    out: Dict[str, ast.Call] = {}
    for node in ast.walk(fn):
        if (
            isinstance(node, (ast.For, ast.AsyncFor))
            and isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name)
            and node.iter.func.id == "range"
        ):
            out[node.target.id] = node.iter
    for node in ast.walk(fn):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if (
                    isinstance(gen.target, ast.Name)
                    and isinstance(gen.iter, ast.Call)
                    and isinstance(gen.iter.func, ast.Name)
                    and gen.iter.func.id == "range"
                ):
                    out[gen.target.id] = gen.iter
    return out


#: Constant fork indices below this are assumed to fall inside any
#: ``range(...)`` loop forking the same base seed; dedicated streams
#: should use a large tag constant instead (e.g. ``0x50524F42``).
_SMALL_INDEX = 1024


@register
class DoubleForkRule(ProjectRule):
    rule_id = "R102"
    name = "double-fork"
    description = (
        "forking the same seed twice with the same index -- textually "
        "identical split_seed/child_seed derivations, or a small "
        "constant index alongside a range-loop fork of the same base -- "
        "produces overlapping streams."
    )
    rationale = (
        "split_seed(seed, i) is a pure function: two forks with equal "
        "(seed, index) ARE the same stream, so 'independent' consumers "
        "silently read correlated draws.  The classic shape is a probe "
        "or warm-up stream forked at index 0 next to a trial loop "
        "forking indices 0..n-1: trial 0 shares every draw with the "
        "probe.  Dedicated streams need dedicated indices (a large tag "
        "constant, or child_seed with a distinct path)."
    )
    bad = (
        "from repro.utils.rng import split_seed\n"
        "def run(seed, n):\n"
        "    probe = split_seed(seed, 0)\n"
        "    return [split_seed(seed, t) for t in range(n)]\n"
    )
    good = (
        "from repro.utils.rng import split_seed\n"
        "_PROBE_TAG = 0x50524F4245  # disjoint from small trial indices\n"
        "def run(seed, n):\n"
        "    probe = split_seed(seed, _PROBE_TAG)\n"
        "    return [split_seed(seed, t) for t in range(n)]\n"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for fn in project.functions.values():
            forks: List[Tuple[ast.Call, str, Tuple[str, ...]]] = []
            for call in _body_calls(fn.node):
                target = fn.module.resolve(call.func)
                if target not in _SEED_DERIVERS or not call.args:
                    continue
                base = ast.unparse(call.args[0])
                idx = tuple(ast.unparse(a) for a in call.args[1:])
                forks.append((call, base, idx))
            # exact duplicates: identical (base, index) text
            seen: Dict[Tuple[str, Tuple[str, ...]], ast.Call] = {}
            for call, base, idx in forks:
                key = (base, idx)
                first = seen.get(key)
                if first is not None and first is not call:
                    yield self.project_finding(
                        fn.module.path,
                        call,
                        f"seed fork ({base!s}, {', '.join(idx) or '-'}) "
                        f"duplicates the fork at line {first.lineno}: both "
                        "derive the SAME stream (overlapping draws)",
                    )
                else:
                    seen[key] = call
            # constant index vs a range-loop fork of the same base
            loop_vars = _for_range_targets(fn.node)
            constant_forks = [
                (call, base, idx)
                for call, base, idx in forks
                if len(idx) == 1 and idx[0].isdigit() and int(idx[0]) < _SMALL_INDEX
            ]
            loop_forks = [
                (call, base, idx)
                for call, base, idx in forks
                if len(idx) == 1 and idx[0] in loop_vars
            ]
            for ccall, cbase, cidx in constant_forks:
                for lcall, lbase, lidx in loop_forks:
                    if cbase != lbase or ccall is lcall:
                        continue
                    yield self.project_finding(
                        fn.module.path,
                        ccall,
                        f"constant fork index {cidx[0]} of `{cbase}` "
                        f"overlaps the range-loop fork `{lidx[0]}` at line "
                        f"{lcall.lineno}: the constant stream collides with "
                        "one of the loop's streams; use a large tag "
                        "constant or a distinct child_seed path",
                    )
                    break


def _uses_process_pools(module: ModuleInfo) -> bool:
    if any(
        v.startswith(("multiprocessing", "concurrent.futures"))
        for v in module.aliases.values()
    ):
        return True
    return "ProcessPoolExecutor" in module.source


def _direct_submissions(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.Call, ast.expr, List[ast.expr]]]:
    """(call, payload callable expr, payload args) per pool submission."""
    if not _uses_process_pools(module):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _POOL_SUBMIT_METHODS
        ):
            continue
        if not node.args:
            continue
        yield node, node.args[0], list(node.args[1:])


def _parameter_owner(
    project: ProjectContext, module: ModuleInfo, node: ast.AST, expr: ast.expr
) -> Optional[Tuple[FunctionInfo, str]]:
    """``(fn, param)`` when ``expr`` names a parameter of a function
    lexically enclosing ``node`` (a closure forwarding its outer
    function's parameter counts)."""
    if not isinstance(expr, ast.Name):
        return None
    fn = project.enclosing_function(module, node, binding=expr.id)
    return None if fn is None else (fn, expr.id)


def _pool_submissions(
    project: ProjectContext,
) -> Iterator[Tuple[ModuleInfo, ast.Call, ast.expr, List[ast.expr]]]:
    """All pool submissions, following broker forwarding to a fixpoint.

    A *broker* is a project function that forwards one of its own
    parameters to ``pool.submit``/``.map`` (the repo's
    ``execute_chunks`` is the canonical example); a call site passing a
    function to that parameter is a submission of that function.  A
    function passing its own parameter on to a broker is a broker too,
    so ``run_sweep -> _run_chunked -> execute_chunks`` reaches the
    real payload.
    """
    brokers: List[Optional[Tuple[FunctionInfo, str]]] = []
    for module in project.modules.values():
        for call, payload, args in _direct_submissions(module):
            yield module, call, payload, args
            brokers.append(_parameter_owner(project, module, call, payload))
    for broker in brokers:  # grows while iterating: the fixpoint
        if broker is None:
            continue
        fn, param = broker
        for site in project.call_sites.get(fn.qualname, ()):  # resolved calls
            arg = site.bound_arg(fn, param)
            if arg is None:
                continue
            yield site.module, site.node, arg, []
            forwarder = _parameter_owner(project, site.module, site.node, arg)
            if forwarder not in brokers:
                brokers.append(forwarder)


def _generator_exprs(
    module: ModuleInfo, fn: Optional[FunctionInfo], expr: ast.expr
) -> Iterator[ast.expr]:
    """Sub-expressions of ``expr`` that evaluate to a Generator."""
    env = _local_env(fn.node) if fn is not None else {}

    def is_generator(e: ast.expr, depth: int = 0) -> bool:
        if depth > 3:
            return False
        if isinstance(e, ast.Call):
            target = module.resolve(e.func)
            if target in _RNG_SINKS:
                return True
            if (
                isinstance(e.func, ast.Attribute)
                and e.func.attr == "generator_for"
            ):
                return True
            return False
        if isinstance(e, ast.Name):
            bound = env.get(e.id)
            return bound is not None and is_generator(bound, depth + 1)
        return False

    stack: List[ast.expr] = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (ast.Tuple, ast.List)):
            stack.extend(e.elts)
            continue
        if is_generator(e):
            yield e


@register
class RngAcrossPoolRule(ProjectRule):
    rule_id = "R103"
    name = "rng-across-pool"
    description = (
        "a numpy Generator (or an expression constructing one) must not "
        "be passed as a process-pool task argument; pass the integer "
        "seed and construct the Generator inside the worker."
    )
    rationale = (
        "A Generator pickled into a worker forks its state: parent and "
        "child then draw the SAME stream, silently correlating trials "
        "across n_jobs -- and any draw made in the parent after "
        "submission desynchronises replays.  The chunked runners pass "
        "(seed, trial-range) and re-derive generators inside the worker "
        "precisely so results are bit-identical for any worker count."
    )
    bad = (
        "import numpy as np\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def work(rng):\n"
        "    return rng.random()\n"
        "def run():\n"
        "    rng = np.random.default_rng(7)\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return pool.submit(work, rng).result()\n"
    )
    good = (
        "import numpy as np\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def work(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.random()\n"
        "def run():\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        return pool.submit(work, 7).result()\n"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module, call, _payload, args in _pool_submissions(project):
            fn = project.enclosing_function(module, call)
            for arg in args:
                for gen_expr in _generator_exprs(module, fn, arg):
                    yield self.project_finding(
                        module.path,
                        gen_expr,
                        "RNG object crosses a process-pool boundary "
                        "(pickling forks its state; parent and worker then "
                        "share one stream); pass the seed and construct "
                        "the Generator in the worker",
                    )


@register
class PoolPayloadPurityRule(ProjectRule):
    rule_id = "R104"
    name = "pool-payload-purity"
    description = (
        "functions submitted to a process pool, and everything they "
        "transitively call, must not read wall clocks, write mutable "
        "module globals, or draw from unseeded RNGs."
    )
    rationale = (
        "Chunk workers must be pure functions of their task tuple: the "
        "journal replays them, the retry path re-runs them in-parent, "
        "and bit-identical merges for any n_jobs assume a chunk's "
        "result depends on nothing but its key.  R003/R008 check one "
        "file at a time; this pass walks the call graph from every "
        "submitted payload, so a wall-clock read or module-global write "
        "three calls deep is still attributed -- at the offending line, "
        "with the payload chain in the message."
    )
    bad = (
        "import time\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def helper():\n"
        "    return time.time()\n"
        "def work(x):\n"
        "    return helper() + x\n"
        "with ProcessPoolExecutor() as pool:\n"
        "    fut = pool.submit(work, 1)\n"
    )
    good = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "def helper(t0):\n"
        "    return t0\n"
        "def work(x, t0=0.0):\n"
        "    return helper(t0) + x\n"
        "with ProcessPoolExecutor() as pool:\n"
        "    fut = pool.submit(work, 1)\n"
    )

    def _impurities(
        self, fn: FunctionInfo
    ) -> List[Tuple[ast.AST, str]]:
        """(node, description) impurities in one function body."""
        module = fn.module
        out: List[Tuple[ast.AST, str]] = []
        declared_global: Set[str] = set()
        local_names: Set[str] = set(fn.params) | set(fn.kwonly)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_names.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                local_names.add(node.target.id)
        for call in _body_calls(fn.node):
            target = module.resolve(call.func)
            if target in _WALL_CLOCK:
                out.append((call, f"wall-clock read {target}()"))
            elif target == "numpy.random.default_rng" and not call.args and not call.keywords:
                out.append((call, "unseeded numpy.random.default_rng()"))
            elif (
                target is not None
                and target.startswith("numpy.random.")
                and target.rsplit(".", 1)[1] in _NP_GLOBAL_STATE
            ):
                out.append((call, f"hidden-global-state draw {target}()"))
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if not isinstance(base, ast.Name):
                        continue
                    name = base.id
                    if base is target:
                        # plain rebinding: only a global write if declared
                        if name in declared_global:
                            out.append(
                                (node, f"write to module global `{name}`")
                            )
                        continue
                    if name in local_names and name not in declared_global:
                        continue
                    if name in module.module_globals or name in declared_global:
                        out.append(
                            (
                                node,
                                f"mutation of module global `{name}` "
                                f"({ast.unparse(target)} = ...)",
                            )
                        )
        return out

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        impurity_cache: Dict[str, List[Tuple[ast.AST, str]]] = {}
        reported: Set[Tuple[str, int, str]] = set()
        for module, call, payload, _args in _pool_submissions(project):
            root = project.resolve_function(module, payload)
            if root is None:
                continue
            # BFS over the call graph, tracking one shortest chain each
            chain: Dict[str, Optional[str]] = {root.qualname: None}
            queue: List[str] = [root.qualname]
            while queue:
                current = queue.pop(0)
                fn = project.functions.get(current)
                if fn is None:
                    continue
                if current not in impurity_cache:
                    impurity_cache[current] = self._impurities(fn)
                for node, what in impurity_cache[current]:
                    key = (fn.module.path, getattr(node, "lineno", 0), what)
                    if key in reported:
                        continue
                    reported.add(key)
                    links: List[str] = []
                    walk: Optional[str] = current
                    while walk is not None:
                        links.append(walk.rpartition(".")[2])
                        walk = chain[walk]
                    path_text = " -> ".join(reversed(links))
                    yield self.project_finding(
                        fn.module.path,
                        node,
                        f"{what} is reachable from pool payload "
                        f"`{root.name}` (submitted at {module.path}:"
                        f"{call.lineno}) via {path_text}; chunk workers "
                        "must be pure functions of their task",
                    )
                for _cnode, callee in project.calls_from.get(current, ()):  # edges
                    if callee not in chain:
                        chain[callee] = current
                        queue.append(callee)
