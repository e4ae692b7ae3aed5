"""Guards for the benchmark harness that lives next to the package."""

import importlib.util
import os

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
