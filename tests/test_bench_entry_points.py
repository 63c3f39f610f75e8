"""The names the benchmark in perfbench/ wraps and reads still exist.

perfbench/tracer.py wraps entry points by module and attribute path and
rebinds every module's binding of them; a refactor that renames one breaks
the benchmark, which this cheap check reports without running it.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import hankellab
from hankellab import Grid, MultiIndex, TransformPlan

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer",
    Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

MODULES = ("specfun", "grid", "transform", "heat", "dyadic", "symbols",
           "sobolev", "multiplier", "verify", "cli")


def _module(name):
    return importlib.import_module(f"hankellab.{name}")


def test_every_traced_target_resolves():
    for name in MODULES:
        _module(name)
    targets = tracer._targets("hankellab")
    assert targets
    for modname, path, _, _ in targets:
        obj = _module(modname)
        for part in path.split("."):
            assert hasattr(obj, part), f"{modname}.{path}"
            obj = getattr(obj, part)
        assert callable(obj), f"{modname}.{path}"


def test_plan_fields_and_contract_bindings():
    transform = _module("transform")
    # the tracer sums .nbytes over fwd and inv and reads 2-D matrix shapes
    grid = Grid.build(MultiIndex((0.5,)), R=6.0, n=16)
    plan = TransformPlan.build(grid)
    for mats in (plan.fwd, plan.inv):
        assert all(isinstance(M, np.ndarray) and M.ndim == 2 for M in mats)
    assert list(inspect.signature(transform._contract).parameters) == \
        ["mats", "values"]
    # each module's own binding is rebound to the traced function
    for name in ("verify", "multiplier", "heat"):
        assert _module(name)._contract is transform._contract
    assert _module("verify")._maximal_field is _module("heat")._maximal_field
    assert hankellab.TransformPlan is transform.TransformPlan


def test_signatures_and_constants_the_tracer_reads():
    # the tracer binds local_sobolev_norm's signature to read `samples`,
    # falling back on these two constants
    sobolev = _module("sobolev")
    assert "samples" in inspect.signature(sobolev.local_sobolev_norm).parameters
    assert isinstance(sobolev._DEFAULT_SAMPLES, dict)
    assert isinstance(sobolev.BOX_SAMPLES, int)
    # it reads the time grid as _maximal_field's third argument
    field_params = inspect.signature(_module("verify")._maximal_field).parameters
    assert list(field_params)[2] == "tg"
    # and the suite and output directory of _write_artifacts by position
    assert list(inspect.signature(_module("cli")._write_artifacts).parameters) \
        == ["cfg", "suite", "reports", "outdir"]


def test_adapted_plan_carries_the_unit_scale_key_fields():
    # the tracer keys adapted plans on alpha, both grid shapes and R * Lambda,
    # read from the TransformPlan that adapted_plan returns, here a full one
    verify = _module("verify")
    alpha = MultiIndex((0.5,))
    plan = verify.adapted_plan(
        Grid.build(alpha, 4.0, verify._adapted_n(4.0, 2.0)),
        Grid.build(alpha, 2.0, 32))
    assert isinstance(plan, TransformPlan)
    for grid in (plan.grid, plan.dual_grid):
        assert isinstance(grid.shape, tuple)
        assert grid.alpha.alpha == (0.5,)
    assert plan.grid.axes[0].R == 4.0 and plan.dual_grid.axes[0].R == 2.0
    key = tracer._adapted_plan_attrs((), {}, plan)["key"]
    assert key == [[0.5], list(plan.grid.shape), list(plan.dual_grid.shape),
                   8.0]
