"""Guards for the benchmark harness that lives next to the package."""

import ast
import glob
import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from modradon import cli, experiments, fbp, forward, phantom, unfold
from modradon.phantom import shepp_logan, walnut_standin

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH_TRACING = os.path.join(ROOT, "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _patch_table():
    return _tracing().patch_table()


def test_traced_names_resolve():
    # the tracer swaps ``owner.__dict__[attr]``; a renamed or deleted entry
    # would only surface as a KeyError in a traced benchmark run
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in _patch_table()
               if attr not in owner.__dict__]
    assert missing == []


def test_traced_calls_stay_on_the_calling_thread(monkeypatch, tmp_path):
    # the tracer keeps one span stack, so every call it wraps must run on the
    # thread that runs the job; the row blocks that go to worker threads may
    # only reach untraced code.  M = 40 angles and 130 image rows give every
    # stage at least two blocks, and two CPUs put them on two threads.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = threading.get_ident()
    strays, block_threads = [], {}

    def guarded(name, fn):
        def check(*args, **kwargs):
            if threading.get_ident() != caller:
                strays.append(name)
            return fn(*args, **kwargs)
        return check

    def watched(module, map_blocks):
        def on_block(fn):
            def run(start):
                block_threads[module].add(threading.get_ident())
                return fn(start)
            return run
        return lambda fn, starts: map_blocks(on_block(fn), starts)

    for owner, attr, name, _ in _patch_table():
        monkeypatch.setattr(owner, attr, guarded(name, owner.__dict__[attr]))
    for module in (forward, unfold, fbp):
        block_threads[module.__name__] = set()
        monkeypatch.setattr(module, "map_blocks", watched(module.__name__, module.map_blocks))

    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, M=40, grid_size=130)
    assert res.success
    T, K = 0.009, 112
    csv, mrts = tmp_path / "raw.csv", tmp_path / "s.mrts"
    with open(csv, "w") as f:
        for row in forward.phantom_rows(shepp_logan(), T, 40):
            f.write(",".join(map(repr, row.tolist())) + "\n")
    assert cli.main(["ingest", "--in", str(csv), "--omega", "20", "--T", repr(T),
                     "--angles", "40", "--K", str(K), "--lam", "0.05", "--out", str(mrts)]) == 0
    assert cli.main(["pipeline", "--ingest", str(mrts), "--lam", "0.05", "--normalize",
                     "--omega", "20", "--size", "130", "--outdir", str(tmp_path / "out")]) == 0
    assert strays == []
    # the blocks of every stage did reach a worker thread
    assert all(threads - {caller} for threads in block_threads.values()), block_threads


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
    # the walnut set-up projects one scalar angle m*pi/600 at a time onto an
    # ascending lattice, one row each
    t = np.arange(-1128, 1129) * (1.0 / 1128.0)
    rows = phantom.radon_phantom(walnut_standin(), np.array([0, 599]) * np.pi / 600, t)
    for m, row in zip((0, 599), rows):
        got = phantom.radon_phantom(walnut_standin(), m * np.pi / 600, t)
        assert got.shape == t.shape
        assert got.tobytes() == row.tobytes()


def test_phantom_rows_projects_every_angle_in_one_call(monkeypatch):
    # the benchmark's phantom.radon_phantom span patches this module global;
    # one call per angle would bring back the per-angle loop
    calls = []
    inner = forward.radon_phantom

    def counting(p, theta, t):
        calls.append((np.shape(theta), threading.get_ident()))
        return inner(p, theta, t)

    monkeypatch.setattr(forward, "radon_phantom", counting)
    T = 0.009
    rows = forward.phantom_rows(shepp_logan(), T, 40)
    assert calls == [((40,), threading.get_ident())]
    assert rows.shape == (40, 2 * forward.support_index(T) + 1)


def _count_back_projections(monkeypatch):
    calls = []
    inner = fbp.back_project

    def counting(h, params, grid):
        calls.append(h.shape)
        return inner(h, params, grid)

    monkeypatch.setattr(fbp, "back_project", counting)
    return calls


def test_pipeline_back_projects_once_through_fbp_global(monkeypatch):
    # the benchmark's fbp.back_project span patches this module global; a call
    # that bypassed it would silently drop out of the per-layer metrics.  An
    # exact recovery is the clean sinogram, so one back projection serves both.
    calls = _count_back_projections(monkeypatch)
    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, grid_size=16)
    assert len(calls) == 1
    assert res.images_bit_identical


def test_pipeline_back_projects_a_failed_recovery_on_its_own_rows(monkeypatch):
    calls = _count_back_projections(monkeypatch)
    _corrupt_unfold(monkeypatch)
    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, grid_size=16)
    assert len(calls) == 2
    assert not res.images_bit_identical


def _corrupt_unfold(monkeypatch):
    unfold = experiments.unfold_sinogram

    def corrupting(folded, N, K):
        out, reports = unfold(folded, N, K)
        out.rows[3, 5] += 2.0 * folded.params.lam
        return out, reports

    monkeypatch.setattr(experiments, "unfold_sinogram", corrupting)


def _benchmark_tracer():
    tracing = _tracing()
    return tracing.Tracer(tracing.patch_table())


# the benchmark's counters unpack the arguments and results of the calls they
# wrap, so a call form they cannot read fails these two tests, not only a
# traced benchmark run.  Every counter a job reaches moves.


@pytest.mark.parametrize("images", [1, 2], ids=["exact", "corrupted"])
def test_benchmark_tracer_counts_a_pipeline(monkeypatch, images):
    # an exact recovery reuses the clean image, a corrupted one is
    # back-projected on its own; no row of either is flagged
    if images == 2:
        _corrupt_unfold(monkeypatch)
    tracer = _benchmark_tracer()
    res = tracer.run(lambda: experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0,
                                                      grid_size=16))
    counters = dict(tracer.counters)
    assert counters.pop("unfold.flagged_rows") == 0
    assert {"fbp.back_project.pixel_angle_updates", "phantom.radon_phantom.points",
            "forward.scan.samples_out", "unfold.rows"} <= counters.keys()
    assert all(v > 0 for v in counters.values()), counters
    assert tracer.layer_totals()["fbp.back_project"][1] == images
    assert counters["fbp.back_project.pixel_angle_updates"] == images * 16 * 16 * res.params.M


def test_benchmark_tracer_counts_a_sweep():
    tracer = _benchmark_tracer()
    tracer.run(lambda: experiments.success_sweep(lams=(0.1, 0.05), omegas=(10 * np.pi,),
                                                 trials=2, tsteps=3, seed=1))
    assert set(tracer.counters) == {"forward.sampler.points"}
    assert tracer.counters["forward.sampler.points"] > 0


def test_pipeline_unfolds_row_blocks_through_compact_counts(monkeypatch):
    # one compact_counts call per block of 32 angle rows: a per-row loop
    # would make one call per row.  Blocks may run concurrently, so only the
    # sizes are compared, not the order of the calls
    blocks = []
    inner = unfold.compact_counts

    def counting(rows, lam, N, start):
        blocks.append(len(rows))
        return inner(rows, lam, N, start)

    monkeypatch.setattr(unfold, "compact_counts", counting)
    res = experiments.run_pipeline(shepp_logan(), lam=0.05, omega=20.0, M=130, grid_size=16)
    assert res.success
    assert sorted(blocks) == [2, 32, 32, 32, 32]


def test_sweep_samples_each_lattice_point_once(monkeypatch):
    # the benchmark's forward.sampler span patches RandomBandlimitedSignal.sample;
    # a sweep job samples each (trial, T) lattice once for every threshold,
    # over the window its tail certificate gives, and on its own only the
    # head that a margin reaches left of that window
    signal = forward.RandomBandlimitedSignal
    scan, sample = experiments.scan_exceedance, signal.sample
    spacing, calls = {}, {}  # (T, signal) -> [lattice indices of every call]

    def counting_scan(sigs, T, lams):
        assert lams == (0.1, 0.05)
        spacing["T"] = T
        return scan(sigs, T, lams)

    def counting_sample(self, t):
        k = np.rint(np.atleast_1d(t) / spacing["T"]).astype(int)
        calls.setdefault((spacing["T"], id(self)), []).append(k)
        return sample(self, t)

    monkeypatch.setattr(experiments, "scan_exceedance", counting_scan)
    monkeypatch.setattr(signal, "sample", counting_sample)
    experiments.success_sweep(lams=(0.1, 0.05), omegas=(10 * np.pi, 30 * np.pi), trials=3,
                              tsteps=4, seed=1)
    assert len(calls) == 2 * 3 * 4
    heads = 0
    for (T, _), (window, *head) in calls.items():
        # one call over a window that holds [-K, K], lattice points in order
        K = forward.support_index(T)
        assert np.array_equal(window, np.arange(window[0], window[-1] + 1))
        assert window[0] <= -K and window[-1] >= K
        # at most one more: the head, which ends where the window starts
        assert len(head) <= 1
        for h in head:
            assert np.array_equal(h, np.arange(h[0], window[0]))
            heads += 1
    assert heads > 0


def test_sweep_mc_csv_bytes_match_the_benchmark_record(tmp_path):
    # the sweep-mc workload's configuration at seed 1 writes the CSV bytes
    # whose digests bench/RECORD.json holds
    with open(os.path.join(ROOT, "bench", "RECORD.json")) as f:
        record = json.load(f)["workloads"]["sweep-mc"]
    assert record["seed"] == 1
    experiments.success_sweep(lams=(0.1, 0.05), omegas=(10 * np.pi, 30 * np.pi), trials=12,
                              tsteps=25, seed=1, workers=1, outdir=str(tmp_path))
    got = {}
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name, "rb") as f:
            got[name] = hashlib.sha256(f.read()).hexdigest()
    assert got == record["digests"]


def test_pipeline_sl_recovered_sinograms_match_the_benchmark_record():
    # the pipeline-sl workload's configuration recovers the sinograms whose
    # digests bench/RECORD.json holds; its image digests were recorded before
    # back projection changed its summation order and are not checked here
    with open(os.path.join(ROOT, "bench", "RECORD.json")) as f:
        record = json.load(f)["workloads"]["pipeline-sl"]
    assert record["seed"] == 1
    for lam in (0.025, 0.00025):
        res = experiments.run_pipeline(shepp_logan(), lam=lam, omega=300, t_frac=0.5,
                                       filter_window="cosine", grid_size=256)
        rows = np.ascontiguousarray(res.unfolded.rows, dtype="<f8")
        got = hashlib.sha256(rows.tobytes()).hexdigest()
        assert got == record["digests"][f"lam{lam}.recovered_sinogram"]


def _parse(pattern):
    trees = {}
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        if os.path.basename(path) != "__init__.py":
            with open(path) as f:
                trees[path] = ast.parse(f.read(), path)
    return trees


def test_package_root_holds_only_its_docstring_and_version():
    # names are imported from the modules that define them; a re-export list
    # here would keep names alive that no program path reaches
    with open(os.path.join(ROOT, "src", "modradon", "__init__.py")) as f:
        tree = ast.parse(f.read())
    doc, version = tree.body
    assert ast.get_docstring(tree) and isinstance(version, ast.Assign)
    assert [ast.unparse(t) for t in version.targets] == ["__version__"]
    assert isinstance(version.value, ast.Constant)


def test_every_definition_has_a_program_caller():
    # code that only the tests reach is dead weight; __init__.py is skipped,
    # as it defines and imports nothing (see the test above)
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


def _mentions(names):
    """{(module, where)} for every mention of ``names`` in the package: a name,
    an attribute or an import, ``where`` being the enclosing top-level
    definition, or "import" for an import."""
    found = set()
    for path, tree in _parse("src/modradon/*.py").items():
        module = os.path.basename(path)[:-3]
        for top in tree.body:
            where = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    words = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                    if any(set(w.split(".")) & names for w in words):
                        found.add((module, "import"))
                elif (isinstance(node, ast.Name) and node.id in names
                      or isinstance(node, ast.Attribute) and node.attr in names):
                    found.add((module, where))
    return found


def test_threads_and_processes_start_in_one_place_each():
    # worker threads come only from core.map_blocks, whose pool lives for one
    # call; the sweep's process pool is the only other source of concurrency
    assert _mentions({"ThreadPoolExecutor", "Thread", "threading", "_thread"}) == {
        ("core", "import"), ("core", "map_blocks")}
    assert _mentions({"ProcessPoolExecutor", "multiprocessing", "fork"}) == {
        ("experiments", "import"), ("experiments", "success_sweep")}


def test_running_sums_live_in_the_unfold_core():
    # general and compact unfolding share one in-place int64 running-sum
    # layout; the copying references live in tests/oracles.py
    assert _mentions({"cumsum", "anti_diff", "anti_diff_bilateral"}) == {
        ("unfold", "compact_counts"), ("unfold", "_unfold_block")}


def test_unfolding_takes_its_order_from_the_caller():
    # the threshold comes from the sinogram and the order is picked once, by
    # the caller that owns the sampling decision; no config object carries
    # copies of lam, omega and T
    assert _mentions({"UnfoldConfig", "order_override"}) == set()
    assert _mentions({"select_order"}) == {
        ("experiments", "import"), ("experiments", "prepare_forward"), ("cli", "import"),
        ("cli", "_cmd_unfold")}


def test_the_tail_scan_alone_sets_the_margin():
    # K' is derived from the scan's exceedance radius and the order, with no
    # override, and one magnitude per column decides the exceedance
    assert _mentions({"k_prime", "k_min", "_k_prime_arg", "_exceeding_columns"}) == set()


def test_signal_tails_have_one_certificate():
    # the sweep's signals are sampled over the window their tail bound
    # certifies; the clear band and the radius schedule belong to the phantom
    # scan alone
    signal = {"RandomBandlimitedSignal", "scan_exceedance", "_probe_bounds"}
    for names in ({"clear_band_exceedance", "_CLEAR_BAND"},
                  {"radius", "SIGNAL_SCAN_RADIUS", "tail_bound", "_certified_window"}):
        assert not {where for _, where in _mentions(names)} & signal
    assert _mentions({"clear_band_exceedance", "_CLEAR_BAND"}) == {
        ("forward", None), ("forward", "ForwardScan"), ("forward", "clear_band_exceedance")}
    assert _mentions({"SIGNAL_SCAN_RADIUS", "tail_bound", "_certified_window"}) == set()


def test_index_size_bound_lives_in_one_definition():
    assert _mentions({"iinfo", "intp"}) == {("errors", "indexable")}


def _child_output(script):
    """Run ``script`` in a child interpreter that imports the package from
    src/ and return what it prints.  The test modules import scipy.signal
    and scipy.special themselves, for the oracles, so only a child shows
    what the package alone loads."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                         os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-W", "error", "-c", script],
                           env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout.strip()


def test_cli_imports_no_heavy_scipy_subpackage():
    # scipy.signal and what it pulls in cost each CLI process about 50 MB and
    # 0.6 s, and scipy.fft and scipy.special about 25 MB and 0.3 s more
    heavy = ("scipy.fft", "scipy.special", "scipy.signal", "scipy.stats", "scipy.linalg",
             "scipy.sparse", "scipy.optimize")
    assert _child_output(f"import sys, modradon, modradon.cli; "
                          f"print([m for m in {heavy!r} if m in sys.modules])") == "[]"


def test_sampling_a_sweep_signal_loads_scipy_special():
    # RandomBandlimitedSignal.sample imports the sine integral on first use
    script = ("import sys, numpy as np; from modradon.forward import RandomBandlimitedSignal; "
              "sig = RandomBandlimitedSignal.draw(10.0, np.random.SeedSequence(1)); "
              "before = 'scipy.special' in sys.modules; sig.sample(np.linspace(-2, 2, 9)); "
              "print(before, 'scipy.special' in sys.modules)")
    assert _child_output(script) == "False True"


def _imports_under(node, where=()):
    """(where, node) for every import statement below ``node``, ``where``
    naming its enclosing definitions, outermost first."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield where, child
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _imports_under(child, where + (child.name,))
        else:
            yield from _imports_under(child, where)


def test_scipy_is_imported_only_for_the_sine_integral():
    # numpy.fft runs the convolutions; scipy.special's sici, which only the
    # sweep signals need, is imported where they are sampled
    found = []
    for path, tree in _parse("src/modradon/*.py").items():
        for where, node in _imports_under(tree):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [a.name for a in node.names])
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append((os.path.basename(path)[:-3], ".".join(where), ast.unparse(node)))
    assert found == [("forward", "RandomBandlimitedSignal.sample",
                      "from scipy.special import sici")]
