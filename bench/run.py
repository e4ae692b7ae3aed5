#!/usr/bin/env python3
"""modradon benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``./src``.  One process runs one workload (``pipeline-sl``, ``sweep-mc`` or
``walnut-ingest``, see ``workloads.py``) in a closed loop with a single
client: set up, then repeat jobs until ``--seconds`` have passed.  Every job
is checked against the exactness invariants; a job that fails a check or
raises counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics; the spans of the
traced jobs are written to ``.bench_out/``.  The second-to-last line of
standard output is an information record (environment, job times, output
digests); the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, patch_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3

END_TO_END = [
    ("job_s_p50", "s"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
]

# per-layer metric -> unit; "<span>.self_s" and "<span>.calls" come from the
# spans, the others from the tracer's counters (see per_layer()).
PER_LAYER = [
    ("fbp.back_project.self_s", "s"),
    ("fbp.back_project.calls", "count"),
    ("fbp.back_project.pixel_angle_updates", "count"),
    ("fbp.filter_projections.self_s", "s"),
    ("phantom.radon_phantom.self_s", "s"),
    ("phantom.radon_phantom.calls", "count"),
    ("phantom.radon_phantom.points", "count"),
    ("forward.scan.self_s", "s"),
    ("forward.scan.samples_out", "count"),
    ("forward.scan.useful_ratio", "ratio"),
    ("forward.exceedance_index.self_s", "s"),
    ("forward.fold_sinogram.self_s", "s"),
    ("core.modulo_fold.self_s", "s"),
    ("forward.sampler.self_s", "s"),
    ("forward.sampler.points", "count"),
    ("forward.sampler.useful_ratio", "ratio"),
    ("unfold.unfold_compact.self_s", "s"),
    ("unfold.unfold_compact.calls", "count"),
    ("unfold.rows", "count"),
    ("unfold.samples_in", "count"),
    ("unfold.flagged_rows", "count"),
    ("unfold.unfold_sinogram.self_s", "s"),
    ("experiments.ingest_raw_csv.self_s", "s"),
    ("experiments.ingest_raw_csv.bytes", "B"),
    ("forward.load_sinogram.self_s", "s"),
    ("forward.load_sinogram.bytes", "B"),
    ("forward.save_sinogram.self_s", "s"),
    ("forward.save_sinogram.bytes", "B"),
    ("fbp.write_images.self_s", "s"),
    ("experiments.prepare_forward.self_s", "s"),
    ("experiments.run_pipeline.self_s", "s"),
    ("experiments.success_sweep.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def import_program(root):
    """Import modradon from ``root/src``; exit with status 1 if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "modradon", "__init__.py")):
        sys.exit(f"error: {src}/modradon not found; run from the root of a modradon checkout")
    sys.path.insert(0, src)
    import modradon
    import modradon.cli  # noqa: F401  (also imports modradon.experiments)

    return modradon


def environment(root):
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    pkg = os.path.join(root, "src", "modradon")
    lines = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                lines += sum(1 for _ in f)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "src_modradon_lines": lines,
    }


class Run:
    """Executes and checks the jobs of one workload."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.digests = None

    def job(self, call=None):
        """Run one job (through ``call`` if given), check it, return its wall time."""
        t0 = perf_counter()
        try:
            out = call(self.wl.job) if call else self.wl.job()
        except Exception:
            traceback.print_exc()
            out = None
        dt = perf_counter() - t0
        self.attempted += 1
        if out is None:
            problems = ["job raised"]
        else:
            problems = self.wl.check(out)
            digests = self.wl.digests(out)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("outputs differ from the first job of this run")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"{self.wl.name} job {self.attempted}: FAILED: {p}", file=sys.stderr)
        return dt


def per_layer(tracer, job_s, traced_s):
    """Per-job averages over the traced jobs, plus the ratios."""
    n = tracer.jobs
    totals = tracer.layer_totals()
    c = tracer.counters
    out = {}
    for name, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "self_s":
            out[name] = totals.get(span, (0.0, 0))[0] / n
        elif field == "calls":
            out[name] = totals.get(span, (0.0, 0))[1] / n
        elif field not in ("useful_ratio", "overhead_frac"):
            out[name] = c[name] / n
    attempts, points = c["forward.scan.attempts"], c["forward.sampler.points"]
    out["forward.scan.useful_ratio"] = c["forward.scan.prepared"] / attempts if attempts else 0.0
    out["forward.sampler.useful_ratio"] = (
        c["forward.sampler.points_unfolded"] / points if points else 0.0)
    out["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(job_s) - 1.0
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    t0 = perf_counter()
    mr = import_program(root)
    import_s = perf_counter() - t0

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](mr, workdir, args.seed)
        run = Run(wl)
        setup_s = []
        for _ in range(1 if args.trace else SETUP_REPS):
            t0 = perf_counter()
            wl.setup()
            run.job()  # warm-up
            setup_s.append(perf_counter() - t0)

        tracer = Tracer(patch_table()) if args.trace else None
        job_s, traced_s = [], []
        start = perf_counter()
        while not job_s or perf_counter() - start < args.seconds:
            job_s.append(run.job())
            if tracer:
                traced_s.append(run.job(tracer.run))
        wall = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        tracer.dump(os.path.join(root, ".bench_out",
                                 f"trace-{args.workload}-seed{args.seed}.json"))
        values = per_layer(tracer, job_s, traced_s)
        units = PER_LAYER
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "job_s_p50": statistics.median(job_s),
            "jobs_per_s": len(job_s) / wall,
            "setup_s": import_s + statistics.median(setup_s),
            "peak_rss_mb": rss_kib * 1024 / 1e6,
            "pass_frac": 1.0 - run.failed / run.attempted,
        }
        units = END_TO_END
    for name, unit in units:
        print(f"{args.workload}: {name} = {values[name]:.6g} {unit}", file=sys.stderr)
    print(f"{args.workload}: {len(job_s)} timed jobs, {len(traced_s)} traced, "
          f"{run.failed}/{run.attempted} failed", file=sys.stderr)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "import_s": import_s, "setup_reps_s": setup_s, "job_s": job_s,
            "traced_job_s": traced_s, "digests": run.digests,
            "environment": environment(root)}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
