"""The three benchmark workloads.

Each workload repeats one *job*.  ``setup()`` makes the inputs, ``job()``
calls the program and returns its outputs, ``check(out)`` lists every
violated exactness invariant (empty when the job is correct) and
``digests(out)`` gives sha256 digests of the outputs, so that a later change
can see which bits moved.  The program is always reached through module
attributes (``experiments.run_pipeline``, ``cli.main``, ...), which is where
the tracer puts its spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np


def sha256(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


class PipelineSL:
    """Shepp-Logan at omega=300, 256x256, at both acceptance thresholds."""

    name = "pipeline-sl"
    # lam -> (K', N, J) of acceptance criterion 2
    EXPECTED = {0.025: (1631, 5, 144), 0.00025: (3793, 12, 13320)}

    def __init__(self, mr, workdir, seed):
        self.mr = mr

    def setup(self):
        self.phantom = self.mr.phantom.shepp_logan()

    def job(self):
        run = self.mr.experiments.run_pipeline
        return {lam: run(self.phantom, lam=lam, omega=300, t_frac=0.5,
                         filter_window="cosine", grid_size=256)
                for lam in self.EXPECTED}

    def check(self, out):
        bad = []
        for lam, res in out.items():
            k_prime, n, j = self.EXPECTED[lam]
            got = (res.params.K_prime, res.N, res.J)
            if got != (k_prime, n, j):
                bad.append(f"lam={lam}: (K', N, J) = {got}, expected {(k_prime, n, j)}")
            if not res.success:
                bad.append(f"lam={lam}: run reports success=False")
            if res.sino_parity_max != 0.0 or not np.array_equal(
                    res.unfolded.rows, res.clean.symmetric_rows()):
                bad.append(f"lam={lam}: recovered sinogram differs from the clean one")
            if not res.images_bit_identical or not np.array_equal(
                    res.image_clean.pixels, res.image_recovered.pixels):
                bad.append(f"lam={lam}: reconstructions are not bit-identical")
            if res.rmse_clean != res.rmse_recovered:
                bad.append(f"lam={lam}: rmse {res.rmse_clean!r} != {res.rmse_recovered!r}")
        return bad

    def digests(self, out):
        d = {}
        for lam, res in out.items():
            d[f"lam{lam}.recovered_sinogram"] = sha256(res.unfolded.rows)
            d[f"lam{lam}.image_clean"] = sha256(res.image_clean.pixels)
            d[f"lam{lam}.image_recovered"] = sha256(res.image_recovered.pixels)
        return d


class SweepMC:
    """Monte-Carlo success sweep, two thresholds by two bandwidths."""

    name = "sweep-mc"
    TRIALS = 12

    def __init__(self, mr, workdir, seed):
        self.mr = mr
        self.seed = seed
        self.outdir = os.path.join(workdir, "sweep")

    def setup(self):
        pass

    def job(self):
        return self.mr.experiments.success_sweep(
            lams=(0.1, 0.05), omegas=(10 * np.pi, 30 * np.pi), trials=self.TRIALS,
            tsteps=25, seed=self.seed, workers=1, outdir=self.outdir)

    def _csvs(self):
        return {name: _read(os.path.join(self.outdir, name))
                for name in sorted(os.listdir(self.outdir))}

    def check(self, out):
        bad = []
        csvs = self._csvs()
        if sorted(csvs.values()) != sorted(c.to_csv().encode() for c in out):
            bad.append("written CSVs do not match the returned cells")
        for c in out:
            cell = f"lam={c.lam:g} omega={c.omega / np.pi:g}pi"
            if not np.all(c.rates[0, :] == 1.0):
                bad.append(f"{cell}: rate below 1 at the guaranteed spacing: {c.rates[0]}")
            if not np.all(c.rates[c.t_over_shannon >= 0.5, 0] == 0.0):
                bad.append(f"{cell}: base order recovers at or beyond half the Nyquist spacing")
            area = c.rates.sum(axis=0)
            if not (area[0] <= area[1] <= area[2]):
                bad.append(f"{cell}: summed rates {area} do not grow with the order")
        return bad

    def digests(self, out):
        return {name: sha256(data) for name, data in self._csvs().items()}


class WalnutIngest:
    """Walnut-geometry raw CSV through ``modradon ingest`` and ``pipeline``."""

    name = "walnut-ingest"
    M, K, OMEGA, LAM = 600, 1128, 300.0, 0.025
    T = 1.0 / 1128.0

    def __init__(self, mr, workdir, seed):
        self.mr = mr
        self.csv = os.path.join(workdir, "walnut_raw.csv")
        self.mrts = os.path.join(workdir, "walnut.mrts")
        self.outdir = os.path.join(workdir, "walnut_out")

    def setup(self):
        """Write the raw projections, one angle row at a time (about 19 MB)."""
        phantom = self.mr.phantom
        walnut = phantom.walnut_standin()
        t = np.arange(-self.K, self.K + 1) * self.T
        with open(self.csv, "w") as f:
            for m in range(self.M):
                row = phantom.radon_phantom(walnut, m * np.pi / self.M, t)
                f.write(",".join(map(repr, row.tolist())) + "\n")

    def _out(self, what):
        return os.path.join(self.outdir, f"pipeline_{what}")

    def job(self):
        main = self.mr.cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                main(["ingest", "--in", self.csv, "--omega", repr(self.OMEGA),
                      "--T", repr(self.T), "--angles", str(self.M), "--K", str(self.K),
                      "--lam", repr(self.LAM), "--out", self.mrts]),
                main(["pipeline", "--ingest", self.mrts, "--lam", repr(self.LAM),
                      "--normalize", "--omega", repr(self.OMEGA), "--outdir", self.outdir]),
            )
        unfolded = self.mr.forward.load_sinogram(self._out("unfolded.mrts"))
        with open(self._out("metrics.csv")) as f:
            header, row = f.read().splitlines()
        return codes, unfolded, dict(zip(header.split(","), row.split(",")))

    def check(self, out):
        codes, unfolded, metrics = out
        bad = []
        if codes != (0, 0):
            bad.append(f"CLI exit codes {codes}, expected (0, 0)")
        for key in ("success", "images_bit_identical"):
            if metrics.get(key) != "1":
                bad.append(f"metrics CSV has {key}={metrics.get(key)!r}")
        clean = self.mr.forward.load_sinogram(self._out("sinogram.mrts"))
        if unfolded.rows.shape != (self.M, 2 * self.K + 1) or not np.array_equal(
                unfolded.rows, clean.symmetric_rows()):
            bad.append("recovered sinogram differs from the clean one")
        if _read(self._out("fbp_clean.f64")) != _read(self._out("fbp_recovered.f64")):
            bad.append("reconstructions are not bit-identical")
        return bad

    def digests(self, out):
        return {what: sha256(_read(self._out(what)))
                for what in ("unfolded.mrts", "fbp_clean.f64", "fbp_recovered.f64",
                             "metrics.csv")}


WORKLOADS = {w.name: w for w in (PipelineSL, SweepMC, WalnutIngest)}
