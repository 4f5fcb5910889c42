"""The benchmark's tracer still finds every package name it rebinds.

``perfbench/spans.py`` times the package's layers by rebinding module and
class attributes by name.  Entering its ``Tracer().installed()`` block looks
each of them up, so a package change that drops or renames one fails here,
in the package's own tests, and not only in the benchmark's.  No workload runs.
"""

import importlib
from pathlib import Path

from compactmdp import controllers, node, sim, solver

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
