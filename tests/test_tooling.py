"""Guards for the benchmark harness that lives next to the package."""

import importlib.util
import os

from modradon import experiments, fbp
from modradon.phantom import shepp_logan

BENCH_TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def test_traced_names_resolve():
    # the tracer swaps ``owner.__dict__[attr]``; a renamed or deleted entry
    # would only surface as a KeyError in a traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in tracing.patch_table()
               if attr not in owner.__dict__]
    assert missing == []


def test_pipeline_back_projects_once_through_fbp_global(monkeypatch):
    # the benchmark's fbp.back_project span patches this module global; a call
    # that bypassed it would silently drop out of the per-layer metrics
    calls = []
    inner = fbp.back_project

    def counting(hs, params, grid):
        calls.append(len(hs))
        return inner(hs, params, grid)

    monkeypatch.setattr(fbp, "back_project", counting)
    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, grid_size=16)
    assert calls == [2]
    assert res.images_bit_identical
