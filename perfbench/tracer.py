"""Outside-in tracing of the dbfgs layers.

Spans are recorded around calls into each module's public functions from
the benchmark's own files; nothing under ``src/`` is instrumented. A span
is (name, start, end, parent index) and spans stay in memory until the
benchmark writes them out at the end of its run.

Modules import their collaborators by name (``from .objectives import
consensus_error``), so a module-level function is replaced in every
``dbfgs`` module that holds it: the wrapper sits at the name the caller
actually looks up. Methods are replaced on their class.
"""

from __future__ import annotations

import functools
import sys
import time

# (module under dbfgs, qualified name); the layer name is dbfgs.<module>.<qualname>
TARGETS = (
    ("netgraph", "build_d_regular_cycle"),
    ("netgraph", "build_weight_matrix"),
    ("objectives", "make_quadratic"),
    ("objectives", "make_logistic"),
    ("objectives", "solve_consensus_optimum"),
    ("objectives", "consensus_error"),
    ("objectives", "LogisticInstance.grad_all"),
    ("objectives", "DistributedObjective.stage1_full"),
    ("objectives", "DistributedObjective.stage2_full"),
    ("objectives", "DistributedObjective.stage1_block"),
    ("objectives", "DistributedObjective.stage2_block"),
    ("objectives", "DistributedObjective.runtime_grad"),
    ("curvature", "modified_variations"),
    ("curvature", "bfgs_update"),
    ("curvature", "neighborhood_descent"),
    ("_kernel", "RoundKernel.__init__"),
    ("_kernel", "RoundKernel.gather_views"),
    ("_kernel", "RoundKernel.descent"),
    ("_kernel", "RoundKernel.apply_descents"),
    ("_kernel", "RoundKernel.bfgs_all"),
    ("sync_runtime", "run_dbfgs_sync"),
    ("sync_runtime", "run_dgd"),
    ("sync_runtime", "run_dd"),
    ("sync_runtime", "run_admm"),
    ("sync_runtime", "Trace.to_csv"),
    ("async_sim", "gen_clock_schedule"),
    ("async_sim", "run_dbfgs_async"),
    ("async_sim", "run_dd_async"),
    ("harness", "parse_config"),
    ("harness", "run_experiment"),
)

MODULES = tuple(dict.fromkeys(module for module, _ in TARGETS))

LAYERS = tuple(f"dbfgs.{module}.{qualname}" for module, qualname in TARGETS)

# curvature updates: layer -> function(return value) -> (accepted, attempted)
ACCEPT_COUNTERS = {
    "dbfgs._kernel.RoundKernel.bfgs_all": lambda mask: (int(mask.sum()), int(mask.size)),
    "dbfgs.curvature.bfgs_update": lambda out: (int(bool(out[1])), 1),
}


class Tracer:
    """Span recorder for one benchmark pass."""

    def __init__(self):
        self.spans = []  # (layer, start, end, parent index or -1)
        self.accept = {layer: [0, 0] for layer in ACCEPT_COUNTERS}
        self._stack = [-1]

    def install(self, package) -> None:
        """Wrap every target of a freshly imported ``dbfgs`` package."""
        modules = [mod for name, mod in sys.modules.items()
                   if name == "dbfgs" or name.startswith("dbfgs.")]
        for (module, qualname), layer in zip(TARGETS, LAYERS):
            owner = getattr(package, module)
            *cls_path, attr = qualname.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapped = self._wrap(layer, original)
            if cls_path:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)

    def _wrap(self, layer, fn):
        spans, stack = self.spans, self._stack
        count = ACCEPT_COUNTERS.get(layer)
        totals = self.accept.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent)
            if count is not None:
                acc, att = count(out)
                totals[0] += acc
                totals[1] += att
            return out

        return traced

    def summary(self) -> dict:
        """Per-layer self seconds and call counts for this pass.

        A span's self time is its duration minus its direct children's.
        """
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for k, (layer, start, end, _) in enumerate(self.spans):
            self_s[layer] += end - start - child[k]
            calls[layer] += 1
        return {"self_s": self_s, "calls": calls,
                "accept": {layer: tuple(v) for layer, v in self.accept.items()}}
