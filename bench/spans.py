"""Spans around the public functions of every tuttebound module.

Installed only around the traced runs of jobs.  Each public function of a
module is replaced by a wrapper in its defining module, in every tuttebound
module that bound the same object with ``from .x import y``, and, for the
``BigPoly`` operators, in the class.  A span records its name, start, end,
parent span and job id in flat arrays kept in memory until the run ends.
Names the metrics rely on that no longer exist are recorded as absent.
"""

from __future__ import annotations

import array
import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

MODULES = ("graphs", "oracles", "weights", "poly", "sp", "engine", "rootfind",
           "leaftree", "regions", "cli")
CLASS_METHODS = {"poly": ("BigPoly", ("__mul__", "__pow__", "gcd"))}

# Names the per-layer metrics read; each is reported absent if it is gone.
EXPECTED = (
    "rootfind.find_roots", "rootfind.solve_complex_coeffs", "rootfind.aberth_sweeps",
    "rootfind.newton_residuals", "leaftree.tree_chromatic_roots", "leaftree.leaf_tree_ab",
    "leaftree.t_eff_exact", "leaftree.t_eff_at", "graphs.maxmaxflow", "graphs.max_flow",
    "graphs.blocks", "sp.parse_sp", "sp.decompose_sp", "engine.tree_ab", "engine.tree_veff",
    "engine.chromatic_poly", "poly.BigPoly.__mul__", "poly.BigPoly.gcd",
    "oracles.partial_tutte_brute", "weights.parallel", "weights.series",
    "regions.grid_closure", "regions.boundary_rho", "regions.certify",
    "regions.cycle_counterexample", "cli.main",
)

# A private rootfind step watched without a span: it carries the working
# precision that per-root escalation reaches.
DPS_PROBE = "_newton_once"

NUMERIC = (int, float, complex)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_job = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [-1]
        self.job = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.max_dps = 0
        self.solved_polys: list = []
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the first call finds what to wrap."""
        if self._patches is None:
            self._patches = []
            self._find()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in reversed(self._patches or []):
            setattr(owner, key, original)

    def _find(self) -> None:
        modules = {name: sys.modules[f"tuttebound.{name}"] for name in MODULES
                   if f"tuttebound.{name}" in sys.modules}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "tuttebound" or key.startswith("tuttebound.")]
        found = set()
        for short, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(fn, f"{short}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
                found.add(f"{short}.{attr}")
        for short, (cls_name, methods) in CLASS_METHODS.items():
            cls = getattr(modules.get(short), cls_name, None)
            for meth in methods:
                raw = cls.__dict__.get(meth) if cls is not None else None
                if raw is None:
                    continue
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapper = self._wrap(fn, f"{short}.{cls_name}.{meth}")
                for key, value in list(cls.__dict__.items()):
                    target = value.__func__ if isinstance(value, staticmethod) else value
                    if target is fn:
                        wrapped = staticmethod(wrapper) if isinstance(value, staticmethod) else wrapper
                        self._patch(cls, key, wrapped)
                found.add(f"{short}.{cls_name}.{meth}")
        rootfind = modules.get("rootfind")
        probe = getattr(rootfind, DPS_PROBE, None)
        if probe is not None:
            self._patch(rootfind, DPS_PROBE, self._dps_probe(probe))
        self.absent = [name for name in EXPECTED if name not in found]

    def _patch(self, owner, key: str, value) -> None:
        original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._patches.append((owner, key, original, value))

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        exact_id = self._name_id(name + "[exact]") if name == "engine.tree_ab" else name_id
        observe = _OBSERVERS.get(name)
        span_name, span_parent, span_job = self.span_name, self.span_parent, self.span_job
        span_start, span_end, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            numeric = exact_id == name_id or isinstance(_arg(args, kwargs, 1, "q"), NUMERIC)
            span_name.append(name_id if numeric else exact_id)
            span_parent.append(stack[-1])
            span_job.append(tracer.job)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def _dps_probe(self, fn):
        tracer = self

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            tracer.max_dps = max(tracer.max_dps, int(_arg(args, kwargs, 2, "dps")))
            return fn(*args, **kwargs)

        return probe

    # -- analysis -----------------------------------------------------------

    def summary(self, span_cost: float = 0.0) -> dict:
        """Per-name span counts and outermost inclusive times, per-module self times.

        ``span_cost`` is what one wrapper adds outside its own span (see
        ``span_cost``); it is taken out of the parent's self time, or out of
        the time no span covers for an outermost span.
        """
        n = len(self.span_name)
        child_time = [0.0] * n
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child_time[parent] += duration[i] + span_cost
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        module_self: dict[str, float] = defaultdict(float)
        covered = 0.0
        base_ids = [self.name_ids[_base(name)] for name in self.names]
        for i in range(n):
            nid = self.span_name[i]
            name = self.names[nid]
            calls[name] += 1
            module_self[name.split(".", 1)[0]] += duration[i] - child_time[i]
            if self.span_parent[i] < 0:
                covered += duration[i] + span_cost
            # Inclusive time counts only the outermost span of a name.
            parent = self.span_parent[i]
            nested = False
            while parent >= 0:
                if base_ids[self.span_name[parent]] == base_ids[nid]:
                    nested = True
                    break
                parent = self.span_parent[parent]
            if not nested:
                inclusive[name] += duration[i]
        return {"calls": dict(calls), "inclusive": dict(inclusive),
                "module_self": dict(module_self), "covered": covered, "spans": n}

    def write(self, path) -> None:
        """Spans as arrays (name id, start, end, parent index, job id) plus the name table."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), absent=np.array(self.absent, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            job=np.frombuffer(self.span_job, dtype=np.int32))


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function.

    The median over ``repeats`` timings of ``calls`` wrapped calls less as
    many bare ones.
    """
    def noop(*args):
        return None

    wrapped = Tracer()._wrap(noop, "calibration.noop")
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop(1, 2)
        t1 = clock()
        for _ in range(calls):
            wrapped(1, 2)
        t2 = clock()
        costs.append(max(0.0, (t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _base(name: str) -> str:
    return name[:-len("[exact]")] if name.endswith("[exact]") else name


def _arg(args, kwargs, pos: int, key: str):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else None


def _solve(tracer, args, kwargs, result):
    tracer.counts["rootfind.roots"] += len(result.roots)
    tracer.counts["rootfind.converged"] += bool(result.converged)


def _find_roots(tracer, args, kwargs, result):
    tracer.solved_polys.append(_arg(args, kwargs, 0, "p"))


def _decompose(tracer, args, kwargs, result):
    tracer.counts["sp.decompose_sp_edges"] += _arg(args, kwargs, 0, "tt").graph.edge_count


def _tree_nodes(tracer, args, kwargs, result):
    tracer.counts["engine.tree_nodes"] += len(result.per_node)


def _grid(tracer, args, kwargs, result):
    tracer.counts["regions.grid_sweeps"] += result.sweeps
    tracer.counts["regions.grid_cells"] += sum(int(level.sum()) for level in result.levels)


_OBSERVERS = {
    "rootfind.solve_complex_coeffs": _solve,
    "rootfind.find_roots": _find_roots,
    "sp.decompose_sp": _decompose,
    "engine.tree_ab": _tree_nodes,
    "engine.tree_veff": _tree_nodes,
    "regions.grid_closure": _grid,
}
