"""Guards for the benchmark harness that lives next to the package."""

import ast
import glob
import importlib.util
import inspect
import os

import numpy as np

from modradon import cli, experiments, fbp, forward, unfold
from modradon.phantom import shepp_logan

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH_TRACING = os.path.join(ROOT, "bench", "tracing.py")


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


def test_benchmark_calls_bind():
    # the exact calls of bench/workloads.py: a parameter or flag the frozen
    # benchmark still passes must not disappear from the program
    inspect.signature(experiments.run_pipeline).bind(
        shepp_logan(), lam=0.025, omega=300, t_frac=0.5, filter_window="cosine",
        grid_size=256)
    inspect.signature(experiments.success_sweep).bind(
        lams=(0.1, 0.05), omegas=(1.0, 2.0), trials=12, tsteps=25, seed=1, workers=1,
        outdir="sweep")
    parser, subparsers = cli._build_parser()
    for argv in (["ingest", "--in", "raw.csv", "--omega", "300.0", "--T", "0.001",
                  "--angles", "600", "--K", "1128", "--lam", "0.025", "--out", "w.mrts"],
                 ["pipeline", "--ingest", "w.mrts", "--lam", "0.025", "--normalize",
                  "--omega", "300.0", "--outdir", "out"]):
        parser.parse_args(argv)
        # argparse accepts prefixes of longer flags, so check the names too
        flags = {s for a in subparsers[argv[0]]._actions for s in a.option_strings}
        assert {a for a in argv if a.startswith("--")} <= flags


def _count_back_projected_row_sets(monkeypatch):
    calls = []
    inner = fbp.back_project

    def counting(hs, params, grid):
        calls.append(len(hs))
        return inner(hs, params, grid)

    monkeypatch.setattr(fbp, "back_project", counting)
    return calls


def test_pipeline_back_projects_once_through_fbp_global(monkeypatch):
    # the benchmark's fbp.back_project span patches this module global; a call
    # that bypassed it would silently drop out of the per-layer metrics.  An
    # exact recovery is the clean sinogram, so one filtered row set serves both.
    calls = _count_back_projected_row_sets(monkeypatch)
    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, grid_size=16)
    assert calls == [1]
    assert res.images_bit_identical


def test_pipeline_back_projects_a_failed_recovery_on_its_own_rows(monkeypatch):
    calls = _count_back_projected_row_sets(monkeypatch)
    unfold = experiments.unfold_sinogram

    def corrupting(folded, cfg, K):
        out, reports = unfold(folded, cfg, K)
        out.rows[3, 5] += 2.0 * cfg.lam
        return out, reports

    monkeypatch.setattr(experiments, "unfold_sinogram", corrupting)
    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, grid_size=16)
    assert calls == [2]
    assert not res.images_bit_identical


def test_pipeline_unfolds_row_blocks_through_compact_counts(monkeypatch):
    # one compact_counts call per block of 64 angle rows: a per-row loop
    # would make one call per row
    blocks = []
    inner = unfold.compact_counts

    def counting(rows, lam, N, start):
        blocks.append(len(rows))
        return inner(rows, lam, N, start)

    monkeypatch.setattr(unfold, "compact_counts", counting)
    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, M=130, grid_size=16)
    assert res.success
    assert blocks == [64, 64, 2]


def test_sweep_samples_each_lattice_point_once(monkeypatch):
    # the benchmark's forward.sampler span patches RandomBandlimitedSignal.sample;
    # a sweep job scans each (trial, T) lattice once for every threshold and
    # slices each threshold's unfold window from those samples
    signal = forward.RandomBandlimitedSignal
    scan, sample = signal.scan_exceedance, signal.sample
    scans = []  # [T, thresholds, scanned half-width, [t of every sample call]] per scan

    def counting_scan(self, T, lams):
        scans.append([T, tuple(lams), None, []])
        kstars, scanned = scan(self, T, lams)
        scans[-1][2] = -scanned.base_index
        return kstars, scanned

    def counting_sample(self, t):
        scans[-1][3].append(np.atleast_1d(t))
        return sample(self, t)

    monkeypatch.setattr(signal, "scan_exceedance", counting_scan)
    monkeypatch.setattr(signal, "sample", counting_sample)
    experiments.success_sweep(lams=(0.1, 0.05), omegas=(10 * np.pi,), trials=3, tsteps=4,
                              seed=1)
    assert len(scans) == 3 * 4
    for T, lams, kw, calls in scans:
        assert lams == (0.1, 0.05)
        # one call at radius 3, and one more per doubling of the radius
        assert kw == int(np.ceil(3.0 * 2 ** (len(calls) - 1) / T))
        # each later call only reaches past everything evaluated before it
        for i in range(1, len(calls)):
            assert np.min(np.abs(calls[i])) > np.max(np.abs(np.concatenate(calls[:i])))
        every = np.concatenate(calls)
        assert np.unique(every).size == every.size == 2 * kw + 1
    assert any(len(calls) > 1 for *_, calls in scans)


def _parse(pattern):
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        if os.path.basename(path) != "__init__.py":
            with open(path) as f:
                trees[path] = ast.parse(f.read(), path)
    return trees


def test_every_definition_has_a_program_caller():
    # code that only the tests reach is dead weight; the package's re-exports
    # in __init__.py do not count as a use
    program = _parse("src/modradon/*.py")
    used = set()
    for tree in [*program.values(), *_parse("bench/*.py").values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)  # bench/tracing.py names attributes by string
    defined = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    unused = []
    for tree in program.values():
        for node in tree.body:
            if not isinstance(node, defined):
                continue
            if node.name not in used:
                unused.append(node.name)
            if isinstance(node, ast.ClassDef):
                unused += [f"{node.name}.{m.name}" for m in node.body
                           if isinstance(m, defined) and not m.name.startswith("__")
                           and m.name not in used]
    assert unused == []
