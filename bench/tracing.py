"""Spans around modradon's public functions, recorded from the benchmark's side.

``Tracer.run(job)`` swaps each patched attribute (a module global where
``experiments``, ``forward``, ``fbp`` or ``cli`` look the function up, or a
class method) for a wrapper that records a span and updates the computed
counters, runs the job, and puts the originals back.  Untraced jobs therefore run
the unmodified program.

A span is ``(job, span_id, parent_id, name, start, end)``.  Spans are kept in
memory and written out with :meth:`Tracer.dump` when the run ends.  A span's
self time is its duration minus the durations of its direct children (the
program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter

import numpy as np


def _count_back_project(c, args, out):
    h, params, grid = args
    c["fbp.back_project.pixel_angle_updates"] += grid.width * grid.height * params.M


def _count_radon(c, args, out):
    c["phantom.radon_phantom.points"] += np.size(args[2])


def _count_scan(c, args, out):
    c["forward.scan.attempts"] += 1
    c["forward.scan.samples_out"] += out.rows.size


def _count_prepare(c, args, out):
    c["forward.scan.prepared"] += 1


def _count_sampler(c, args, out):
    c["forward.sampler.points"] += np.size(args[1])


def _count_unfold_compact(c, args, out):
    n = len(args[0])
    c["unfold.rows"] += 1
    c["unfold.samples_in"] += n
    c["forward.sampler.points_unfolded"] += n
    c["unfold.flagged_rows"] += not out[1].success


def _count_unfold_sinogram(c, args, out):
    c["unfold.rows"] += args[0].rows.shape[0]
    c["unfold.samples_in"] += args[0].rows.size
    c["unfold.flagged_rows"] += sum(not r.success for r in out[1])


def _count_ingest(c, args, out):
    c["experiments.ingest_raw_csv.bytes"] += os.path.getsize(args[0])


def _count_load(c, args, out):
    c["forward.load_sinogram.bytes"] += out.rows.nbytes


def _count_save(c, args, out):
    c["forward.save_sinogram.bytes"] += args[0].rows.nbytes


def patch_table():
    """(owner, attribute, span name, counter) for every traced call site.

    ``core.modulo_fold`` is traced where ``forward`` and ``experiments`` call
    it, not inside ``unfold``.
    """
    from modradon import cli, experiments, fbp, forward

    return [
        (fbp, "back_project", "fbp.back_project", _count_back_project),
        (fbp, "filter_projections", "fbp.filter_projections", None),
        (forward, "radon_phantom", "phantom.radon_phantom", _count_radon),
        (experiments, "scan_forward", "forward.scan", _count_scan),
        (experiments, "scan_from_raw", "forward.scan", _count_scan),
        (forward.ForwardScan, "exceedance_index", "forward.exceedance_index", None),
        (experiments, "fold_sinogram", "forward.fold_sinogram", None),
        (forward, "modulo_fold", "core.modulo_fold", None),
        (experiments, "modulo_fold", "core.modulo_fold", None),
        (forward.RandomBandlimitedSignal, "sample", "forward.sampler", _count_sampler),
        (experiments, "unfold_compact", "unfold.unfold_compact", _count_unfold_compact),
        (experiments, "unfold_sinogram", "unfold.unfold_sinogram", _count_unfold_sinogram),
        (experiments, "ingest_raw_csv", "experiments.ingest_raw_csv", _count_ingest),
        (forward, "load_sinogram", "forward.load_sinogram", _count_load),
        (cli, "load_sinogram", "forward.load_sinogram", _count_load),
        (experiments, "save_sinogram", "forward.save_sinogram", _count_save),
        (cli, "save_sinogram", "forward.save_sinogram", _count_save),
        (experiments, "write_pgm16", "fbp.write_images", None),
        (experiments, "write_raw_f64", "fbp.write_images", None),
        (experiments, "prepare_forward", "experiments.prepare_forward", _count_prepare),
        (experiments, "run_pipeline", "experiments.run_pipeline", None),
        (experiments, "success_sweep", "experiments.success_sweep", None),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    """In-memory span and counter store for the traced jobs of one run."""

    def __init__(self, table):
        self.table = table
        self.spans = []
        self.counters = Counter()
        self.jobs = 0
        self._stack = []
        self._job = None

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (self._job, sid, parent, name, t0, t1)
            if count is not None:
                count(counters, args, out)
            return out

        return traced

    def run(self, job):
        """Run one job under a root span ("bench") with every call site patched."""
        saved = []
        self._job = self.jobs
        self.jobs += 1
        for owner, attr, name, count in self.table:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, count))
        try:
            return self._wrap("bench", job, None)()
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def layer_totals(self):
        """{name: (self seconds, calls)} summed over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        totals = {}
        for job, sid, parent, name, t0, t1 in self.spans:
            s, n = totals.get(name, (0.0, 0))
            totals[name] = (s + (t1 - t0) - child[sid], n + 1)
        return totals

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["job", "id", "parent", "name", "start", "end"],
                       "spans": self.spans}, f)
