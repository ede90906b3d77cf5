"""Determinism lint: REP101 (unseeded RNG), REP102 (unordered-set
iteration), REP103 (wall clock in kernel/engine hot paths).

The repo's parity contract — bit-identical trees, converged arrays and
BSP counters across every backend and engine — survives only while
every source of nondeterminism is either absent or explicitly seeded.
These three rules flag the classes that have actually bitten
reproductions like this one:

* **REP101** — a ``random.*`` / ``np.random.*`` global-state call, or a
  generator constructed without a seed (``default_rng()``,
  ``Random()``).  Any of these makes results depend on process history
  or OS entropy.  Fix: thread an explicit seed into a *local*
  ``np.random.default_rng(seed)`` / ``random.Random(seed)``.
* **REP102** — iterating a ``set``/``frozenset`` (directly, via a
  comprehension, or via ``list()``/``tuple()``) without ``sorted(...)``.
  Set iteration order depends on insertion history and hash
  randomisation of the element values; any result derived from it can
  differ between runs.  Order-insensitive consumers (``sorted``,
  ``sum``, ``min``, ``max``, ``any``, ``all``, ``len``, ``set``,
  ``frozenset``, set comprehensions) are exempt.  ``dict`` iteration is
  insertion-ordered in supported Pythons and therefore exempt — unless
  the dict was built from a set, which the set-origin tracking catches
  at the set itself.
* **REP103** — a wall-clock read (``time.time``, ``perf_counter``,
  ``monotonic``, ``datetime.now``, ...) anywhere inside the
  kernel/engine hot paths (``repro/shortest_paths/``,
  ``repro/runtime/``).  Timing belongs in the callers and the benchmark
  harness; a clock read on the hot path is either dead weight or —
  worse — feeding an adaptive decision that breaks replay determinism.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, file_rule

# ---------------------------------------------------------------------- #
# REP101 — unseeded / global-state randomness
# ---------------------------------------------------------------------- #
#: np.random members that *construct* a generator: fine when passed an
#: explicit (non-None) seed, flagged when called bare.
_NP_CONSTRUCTORS = {"default_rng", "SeedSequence", "RandomState"}
#: np.random members that are types/plumbing, never entropy sources.
_NP_BENIGN = {"Generator", "BitGenerator", "PCG64", "PCG64DXSM", "Philox",
              "MT19937", "SFC64"}
#: stdlib random members that construct a generator (seedable).
_RANDOM_CONSTRUCTORS = {"Random"}
_RANDOM_BENIGN = {"getstate", "setstate"}


class _ImportTracker(ast.NodeVisitor):
    """Resolve local names to the modules this rule cares about."""

    def __init__(self) -> None:
        self.numpy_aliases: set[str] = set()
        self.np_random_aliases: set[str] = set()
        self.random_aliases: set[str] = set()
        #: local name -> member name imported from stdlib random
        self.from_random: dict[str, str] = {}
        #: local name -> member name imported from numpy.random
        self.from_np_random: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                (self.np_random_aliases if alias.asname else self.numpy_aliases
                 ).add(bound)
            elif alias.name == "random":
                self.random_aliases.add(bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "numpy" and alias.name == "random":
                self.np_random_aliases.add(bound)
            elif node.module == "numpy.random":
                self.from_np_random[bound] = alias.name
            elif node.module == "random":
                self.from_random[bound] = alias.name


def _has_explicit_seed(call: ast.Call) -> bool:
    """True when the constructor call carries a non-None seed argument."""
    args = list(call.args) + [kw.value for kw in call.keywords]
    if not args:
        return False
    first = call.args[0] if call.args else call.keywords[0].value
    return not (isinstance(first, ast.Constant) and first.value is None)


@file_rule(
    ("REP101", "unseeded or global-state RNG call"),
)
def check_unseeded_rng(ctx: ModuleContext) -> Iterator[Finding]:
    imports = _ImportTracker()
    imports.visit(ctx.tree)

    def classify(member: str, origin: str, call: ast.Call) -> str | None:
        """Return a message when the RNG member call is a finding."""
        constructors = (
            _NP_CONSTRUCTORS if origin == "np" else _RANDOM_CONSTRUCTORS
        )
        benign = _NP_BENIGN if origin == "np" else _RANDOM_BENIGN
        if member in benign:
            return None
        if member in constructors:
            if _has_explicit_seed(call):
                return None
            return (
                f"{member}() without an explicit seed: results depend on "
                f"OS entropy; pass a seed threaded from the caller"
            )
        mod = "np.random" if origin == "np" else "random"
        return (
            f"global-state RNG call {mod}.{member}(): determinism then "
            f"depends on process-wide call order; use a local seeded "
            f"generator instead"
        )

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        message: str | None = None
        if isinstance(func, ast.Attribute):
            value = func.value
            # np.random.<member>(...)
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in imports.numpy_aliases
            ):
                message = classify(func.attr, "np", node)
            # <np_random_alias>.<member>(...)
            elif (
                isinstance(value, ast.Name)
                and value.id in imports.np_random_aliases
            ):
                message = classify(func.attr, "np", node)
            # random.<member>(...)
            elif (
                isinstance(value, ast.Name)
                and value.id in imports.random_aliases
            ):
                message = classify(func.attr, "random", node)
        elif isinstance(func, ast.Name):
            if func.id in imports.from_random:
                message = classify(imports.from_random[func.id], "random", node)
            elif func.id in imports.from_np_random:
                message = classify(imports.from_np_random[func.id], "np", node)
        if message is not None:
            yield ctx.finding("REP101", node, message)


# ---------------------------------------------------------------------- #
# REP102 — unordered-set iteration
# ---------------------------------------------------------------------- #
#: callables whose result does not depend on argument order
_ORDER_INSENSITIVE = {
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len",
}
#: callables that materialise their argument *in iteration order*
_ORDER_SENSITIVE_CTORS = {"list", "tuple"}
#: set methods that return another set
_SET_RETURNING_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}


def _set_typed_names(scope: ast.AST) -> set[str]:
    """Names in ``scope`` that (only ever) hold sets.

    A name qualifies when every plain assignment to it in the scope is a
    set-ish expression and it is never rebound by a loop/with/aug
    target.  Nested function bodies are separate scopes and skipped.
    """
    assigned_set: set[str] = set()
    assigned_other: set[str] = set()

    def walk(node: ast.AST, top: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ) and not top:
                continue
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue  # nested scope
            if isinstance(child, ast.Assign):
                for tgt in child.targets:
                    if isinstance(tgt, ast.Name):
                        if _is_set_expr(child.value, set()):
                            assigned_set.add(tgt.id)
                        else:
                            assigned_other.add(tgt.id)
                    else:
                        for name in ast.walk(tgt):
                            if isinstance(name, ast.Name):
                                assigned_other.add(name.id)
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                tgt = child.target
                if isinstance(tgt, ast.Name):
                    assigned_other.add(tgt.id)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                for name in ast.walk(child.target):
                    if isinstance(name, ast.Name):
                        assigned_other.add(name.id)
                walk(child, False)
                continue
            walk(child, False)

    walk(scope, True)
    return assigned_set - assigned_other


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    """Best-effort: does this expression evaluate to a set/frozenset?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_RETURNING_METHODS
            and _is_set_expr(func.value, set_names)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, set_names) or _is_set_expr(
            node.right, set_names
        )
    return False


#: method sinks that fold their argument order-insensitively into a set
_ORDER_INSENSITIVE_METHODS = {
    "update", "difference_update", "intersection_update",
    "symmetric_difference_update", "union", "intersection", "difference",
    "issubset", "issuperset", "isdisjoint",
}


def _iteration_sink_ok(ctx: ModuleContext, node: ast.AST) -> bool:
    """True when the iteration's consumer is order-insensitive."""
    parent = ctx.parent_of(node)
    if isinstance(parent, ast.Call):
        if (
            isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INSENSITIVE
        ):
            return True
        if (
            isinstance(parent.func, ast.Attribute)
            and parent.func.attr in _ORDER_INSENSITIVE_METHODS
        ):
            return True
    return False


@file_rule(
    ("REP102", "iteration over an unordered set/frozenset"),
)
def check_set_iteration(ctx: ModuleContext) -> Iterator[Finding]:
    # per-scope set-typed name resolution: module plus each function
    scopes: list[ast.AST] = [ctx.tree]
    scopes.extend(
        n
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    module_sets = _set_typed_names(ctx.tree)

    def names_for(node: ast.AST) -> set[str]:
        # innermost enclosing function scope, else module scope
        cur = ctx.parent_of(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return _set_typed_names(cur) | module_sets
            cur = ctx.parent_of(cur)
        return module_sets

    msg = (
        "iterates a set/frozenset: ordering depends on insertion history "
        "and element hashing; wrap the iterable in sorted(...) (or prove "
        "the consumer order-insensitive and suppress)"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter, names_for(node)):
                yield ctx.finding("REP102", node.iter, f"for-loop {msg}")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            set_names = names_for(node)
            if any(
                _is_set_expr(gen.iter, set_names) for gen in node.generators
            ) and not _iteration_sink_ok(ctx, node):
                yield ctx.finding("REP102", node, f"comprehension {msg}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _ORDER_SENSITIVE_CTORS and node.args:
                if _is_set_expr(node.args[0], names_for(node)):
                    yield ctx.finding(
                        "REP102",
                        node,
                        f"{node.func.id}() over a set {msg}",
                    )


# ---------------------------------------------------------------------- #
# REP103 — wall clock inside kernel/engine hot paths
# ---------------------------------------------------------------------- #
#: module-path fragments that mark the kernel/engine hot paths
_HOT_PATH_FRAGMENTS = ("repro/shortest_paths/", "repro/runtime/")
_CLOCK_ATTRS = {
    "time": {
        "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns", "thread_time",
        "thread_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
}


@file_rule(
    ("REP103", "wall-clock call in a kernel/engine hot path"),
)
def check_hot_path_clock(ctx: ModuleContext) -> Iterator[Finding]:
    posix = ctx.path.replace("\\", "/")
    if not any(frag in posix for frag in _HOT_PATH_FRAGMENTS):
        return
    # names imported directly: from time import perf_counter
    clock_names: dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCK_ATTRS["time"]:
                    clock_names[alias.asname or alias.name] = alias.name

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        member: str | None = None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base == "time" and func.attr in _CLOCK_ATTRS["time"]:
                member = f"time.{func.attr}"
            elif base == "datetime" and func.attr in _CLOCK_ATTRS["datetime"]:
                member = f"datetime.{func.attr}"
        elif isinstance(func, ast.Name) and func.id in clock_names:
            member = f"time.{clock_names[func.id]}"
        if member is not None:
            yield ctx.finding(
                "REP103",
                node,
                f"{member}() inside a hot-path module; time the call from "
                f"its caller or the benchmark harness",
            )
