"""Span tracing of the package's layers from outside, for the traced run.

The tracer rebinds public names in this process only (controller
``act``/``observe``/``resolve_policy``, the model build, the solver, its
validation, conversion and kernel references, the simulator and the sweep)
to wrappers that time each call.  Every call updates its name's count, total
and self time (duration minus the time of traced calls made inside it).
Calls above the per-frame and per-iteration level are also kept as spans
``(name, start_ns, end_ns, parent)`` in memory and written out at the end.
A span name is ``<layer>.<what>``; the layer is the package module.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from compactmdp import controllers, node, sim, solver

from workloads import SERIES

LAYERS = ("config", "node", "sparse", "solver", "controllers", "sim")


class Stat:
    __slots__ = ("count", "total_ns", "self_ns", "durations")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations = []


class Tracer:
    def __init__(self):
        self.stats = {}
        self.spans = []
        self.solves = []
        self.stm_bytes = 0
        # One entry per open call: [time of traced calls inside it, index of
        # its nearest kept span].  The bottom entry stands for untraced code.
        self._stack = [[0, -1]]

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def wrap(self, name, fn, keep=False, on_result=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stat = self.stat(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                index = len(spans)
                spans.append(None)
            else:
                index = parent[1]
            frame = [0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                stat.count += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[0]
                if keep:
                    stat.durations.append(duration)
                    spans[index] = (name, start, end, parent[1])
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_spec(self, spec):
        self.stm_bytes = max(self.stm_bytes, spec.transitions.nbytes)

    def _rebindings(self):
        w = self.wrap
        build = dict(keep=True, on_result=self._record_spec)
        solve = dict(keep=True, on_result=self.solves.append)
        out = [
            (node, "assemble_stm", w("node.assemble_stm", node.assemble_stm, keep=True)),
            (node, "reward_vector", w("node.reward_vector", node.reward_vector, keep=True)),
            (node, "build_mdp", w("node.build_mdp", node.build_mdp, **build)),
            (controllers, "build_mdp", w("node.build_mdp", controllers.build_mdp, **build)),
            (solver, "svi_solve", w("solver.svi_solve", solver.svi_solve, **solve)),
            (controllers, "svi_solve", w("solver.svi_solve", controllers.svi_solve, **solve)),
            (solver, "validate", w("solver.validate", solver.validate, keep=True)),
            (solver, "to_sparse", w("sparse.to_sparse", solver.to_sparse, keep=True)),
            (solver, "coo_to_csr", w("sparse.coo_to_csr", solver.coo_to_csr, keep=True)),
        ]
        for kernel in ("sparse_mult", "saxpy", "max_reduce", "inf_norm_diff"):
            out.append((solver, kernel, w(f"sparse.{kernel}", getattr(solver, kernel))))
        cls = controllers.StructuredController
        out.append(
            (cls, "resolve_policy",
             w("controllers.resolve_policy", cls.resolve_policy, keep=True))
        )
        for cls, series in SERIES.items():
            out.append((cls, "act", w(f"controllers.act.{series}", cls.act)))
            out.append((cls, "observe", w(f"controllers.observe.{series}", cls.observe)))

        by_class = {
            cls: w(f"sim.simulate.{series}", sim.simulate, keep=True)
            for cls, series in SERIES.items()
        }

        def simulate(scenario, controller):
            return by_class[type(controller)](scenario, controller)

        out.append((sim, "simulate", simulate))
        out.append((sim, "pareto_sweep", w("sim.pareto_sweep", sim.pareto_sweep, keep=True)))
        out.append(
            (sim, "write_sweep_csv", w("sim.write_sweep_csv", sim.write_sweep_csv, keep=True))
        )
        return out

    @contextmanager
    def installed(self):
        """Rebind the traced names for the duration of the block."""
        rebindings = self._rebindings()
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in rebindings]
        try:
            for owner, attr, wrapper in rebindings:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_self_ns(self):
        """Self time summed per layer, plus ``bench`` for the benchmark's own code."""
        out = dict.fromkeys(LAYERS + ("bench",), 0)
        for name, stat in self.stats.items():
            out[name.split(".", 1)[0]] += stat.self_ns
        return out

    def write(self, path):
        """Write the kept spans, one JSON object a line, then the totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": index, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent}
                ) + "\n")
            for name, stat in sorted(self.stats.items()):
                out.write(json.dumps(
                    {"total": name, "count": stat.count, "total_ns": stat.total_ns,
                     "self_ns": stat.self_ns}
                ) + "\n")
