"""The benchmark's tracer still finds every package name it rebinds.

``perfbench/spans.py`` times the package's layers by rebinding module and
class attributes by name.  Entering its ``Tracer().installed()`` block looks
each of them up, so a package change that drops or renames one fails here,
in the package's own tests, and not only in the benchmark's.  No workload runs.

The wrappers it and ``workloads.SolveClock`` install on the controller classes
see a call only if the package makes it through the class: ``simulate`` must
call ``act`` and ``observe`` once a frame or hold the frame, looked up on the
controller when the run starts, and the planner must re-solve through
``resolve_policy``.  The tracer wraps no ``hold``, so its time is the
simulator's own, and its per-frame figures count calls, not frames.
"""

import importlib
from pathlib import Path

from compactmdp import controllers, node, sim, solver
from support import never_holding

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_traced_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    owners = [node, controllers, solver, sim, controllers.StructuredController]
    owners += list(spans.SERIES)
    before = [dict(vars(owner)) for owner in owners]
    original_validate = solver.validate
    with spans.Tracer().installed():
        assert solver.validate is not original_validate
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert [n for n, value in names.items() if after.get(n) is not value] == []


def counting(monkeypatch, cls, name, counts, count=lambda result: 1):
    """Rebind ``cls.name`` to a wrapper that adds ``count(result)`` of each
    call to ``counts``."""
    original = getattr(cls, name)
    key = f"{cls.__name__}.{name}"
    counts[key] = 0

    def counted(self, *args):
        result = original(self, *args)
        counts[key] += count(result)
        return result

    monkeypatch.setattr(cls, name, counted)


SERIES = (("on-off", 3), ("mdp", 5.0), ("ql", 5.0))


def test_simulate_calls_act_and_observe_once_a_frame_through_the_controller(monkeypatch):
    """The tracer's per-frame wrappers, installed on the classes after the
    controllers are built, see every ``act`` and ``observe``: one of each on
    every frame that is not held, and the acts and held frames add up to the
    frames.  A controller that never holds gets one of each a frame."""
    scenario = sim.Scenario(duration_frames=3000, seed=2)
    built = [sim.make_controller(series, scenario.node, value, seed=2)
             for series, value in SERIES]
    stepped = [never_holding(sim.make_controller(series, scenario.node, value, seed=2))
               for series, value in SERIES]
    counts = {}
    for controller in built:
        for name in ("act", "observe"):
            counting(monkeypatch, type(controller), name, counts)
        counting(monkeypatch, type(controller), "hold", counts, count=lambda held: held)
    for controller in built:
        sim.simulate(scenario, controller)
    for controller in built:
        name = type(controller).__name__
        acts, held = counts[f"{name}.act"], counts[f"{name}.hold"]
        assert counts[f"{name}.observe"] == acts
        assert acts + held == 3000 and held > 0
    for key in counts:
        counts[key] = 0
    for controller in stepped:
        sim.simulate(scenario, controller)
    assert counts == {f"{type(c).__name__}.{name}": 3000 if name != "hold" else 0
                      for c in stepped for name in ("act", "observe", "hold")}


def test_the_planner_re_solves_through_resolve_policy(monkeypatch):
    """``SolveClock`` times each re-solve by rebinding ``resolve_policy``:
    hourly, 75 000 default frames reach it at frames 0, 36 000 and 72 000."""
    scenario = sim.Scenario(duration_frames=75000)
    controller = controllers.StructuredController(scenario.node)
    counts = {}
    counting(monkeypatch, controllers.StructuredController, "resolve_policy", counts)
    metrics = sim.simulate(scenario, controller)
    assert counts == {"StructuredController.resolve_policy": 3}
    assert metrics.solver_invocations == 3
