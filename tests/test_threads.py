"""Row blocks on worker threads: the same bits on any CPU count, errors in row
order, and no thread left behind."""

import os
import re
import signal
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from modradon.core import map_blocks
from modradon.errors import DomainError
from modradon.experiments import prepare_forward
from modradon.fbp import back_project
from modradon.forward import SamplingParams, convolve_rows, fold_sinogram
from modradon.phantom import ImageGrid, shepp_logan
from modradon.unfold import grid_upper_bound, select_order, unfold_sinogram
from oracles import back_project_oracle, convolve_rows_oracle

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
REAL_AFFINITY = os.sched_getaffinity


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)`` makes map_blocks see n usable CPUs; ``cpus(None)`` the real ones."""
    def pin(n):
        fake = REAL_AFFINITY if n is None else (lambda pid: set(range(n)))
        monkeypatch.setattr(os, "sched_getaffinity", fake)
    return pin


class TestMapBlocks:
    def test_results_come_back_in_order(self, cpus):
        cpus(2)
        assert map_blocks(lambda s: s * s, range(7)) == [s * s for s in range(7)]

    @pytest.mark.parametrize("n, starts", [(1, range(4)), (2, [0])])
    def test_runs_inline_on_one_cpu_or_one_block(self, cpus, n, starts):
        cpus(n)
        caller = threading.get_ident()
        assert set(map_blocks(lambda s: threading.get_ident(), starts)) == {caller}

    def test_blocks_overlap_and_no_thread_outlives_the_call(self, cpus):
        cpus(2)
        before = threading.active_count()
        # each block waits for the other: only two blocks in flight at once pass
        meet = threading.Barrier(2, timeout=30)
        map_blocks(lambda s: meet.wait(), range(4))
        assert threading.active_count() == before

    def test_counts_cpus_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        meet = threading.Barrier(2, timeout=30)
        map_blocks(lambda s: meet.wait(), range(2))

    def test_first_error_in_block_order_wins(self, cpus):
        cpus(2)
        later_failed = threading.Event()

        def fn(s):
            if s == 1:
                # block 3 fails first in time; block 1 is still the one raised
                assert later_failed.wait(30)
                raise ValueError("block 1")
            if s == 3:
                later_failed.set()
                raise ValueError("block 3")
            return s

        with pytest.raises(ValueError, match="block 1"):
            map_blocks(fn, range(4))


class TestSameBitsOnAnyCpuCount:
    # shapes whose last band or block is short: 257 and 300 image rows are
    # bands of 128, 128 and 1 or 44; 37 rows are convolution blocks of 16, 16
    # and 5; 70 angle rows are unfold blocks of 32, 32 and 6

    @staticmethod
    def _on_cpu_counts(cpus, run):
        """``run()`` on one CPU, on the real CPUs, and on 8 threads that switch
        every microsecond; the last two compared with the first, which is
        returned.  Arrays are compared by their bytes, so -0.0 and +0.0 differ."""
        cpus(1)
        alone = run()
        cpus(None)
        assert run() == alone
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run() == alone
        finally:
            sys.setswitchinterval(interval)
        return alone

    def test_back_project(self, cpus):
        # odd M: every base angle has a mirror and no quarter turn
        p = SamplingParams(omega=20.0, T=0.02, lam=1.0, K=30, K_prime=30, M=7)
        rng = np.random.default_rng(0)
        h = rng.normal(size=(7, 61))
        grid = ImageGrid(257, 257)
        self._on_cpu_counts(cpus, lambda: back_project(h, p, grid).pixels.tobytes())

    def test_back_project_shared_geometry(self, cpus):
        # a square grid of three bands, where the mirror and both quarter turns
        # of each base angle read its geometry in their own frames
        p = SamplingParams(omega=20.0, T=0.02, lam=1.0, K=30, K_prime=30, M=12)
        h = np.random.default_rng(2).normal(size=(12, 61))
        grid = ImageGrid(300, 300)
        alone = self._on_cpu_counts(cpus, lambda: back_project(h, p, grid).pixels.tobytes())
        assert alone == back_project_oracle(h, p, grid).tobytes()

    def test_convolve_rows(self, cpus):
        # one kernel spectrum serves every block, and each row still matches
        # fftconvolve bit for bit: a kernel longer than the rows, then shorter,
        # every column kept; then the short kernel keeping the first 120
        # columns, where the blocks' magnitudes of the dropped columns combine
        # to those of all rows
        rng = np.random.default_rng(1)
        for width, taps, start, keep in [(101, 151, 50, None), (301, 51, 25, None),
                                         (301, 51, 25, 120)]:
            rows, kern = rng.normal(size=(37, width)), rng.normal(size=taps)

            def run():
                kept, peak = convolve_rows(rows, kern, start, width, keep)
                return kept.shape, kept.tobytes(), peak.shape, peak.tobytes()

            alone = self._on_cpu_counts(cpus, run)
            full = convolve_rows_oracle(rows, kern, start, width)
            cut = width if keep is None else keep
            peak = np.max(np.abs(full[:, cut:]), axis=0)
            assert alone == ((37, cut), full[:, :cut].tobytes(),
                             (width - cut,), peak.tobytes())

    @staticmethod
    def _folded(M=70, lam=0.05, omega=20.0):
        clean, _ = prepare_forward(shepp_logan(), lam=lam, omega=omega, M=M)
        p = clean.params
        N = select_order(lam, grid_upper_bound(p.beta, lam), omega, p.T)
        return fold_sinogram(clean), N

    def test_unfold_sinogram(self, cpus):
        folded, N = self._folded()

        def run():
            out, reports = unfold_sinogram(folded, N)
            return out.rows.tobytes(), reports

        self._on_cpu_counts(cpus, run)

    @pytest.mark.parametrize("bad", [3.0, np.nan])
    def test_bad_sample_in_a_later_block_raises(self, cpus, bad):
        folded, N = self._folded()
        folded.rows[65, 10] = bad * folded.params.lam
        cpus(2)
        with pytest.raises(DomainError, match=re.escape("folded values must lie within "
                                                        "[-lam, lam)")):
            unfold_sinogram(folded, N)


def test_pipeline_leaves_no_thread_for_a_forked_sweep():
    # a pool that outlived the pipeline would be inherited by the sweep's forked
    # workers without its threads; run in a child so a hang ends at the timeout
    script = textwrap.dedent("""
        import os, threading
        import numpy as np
        os.sched_getaffinity = lambda pid: {0, 1}
        from modradon.experiments import run_pipeline, success_sweep
        from modradon.phantom import shepp_logan
        before = threading.active_count()
        run_pipeline(shepp_logan(), lam=0.05, omega=20.0, M=40, grid_size=130)
        assert threading.active_count() == before, threading.enumerate()
        success_sweep(lams=(0.1,), omegas=(10 * np.pi,), trials=2, tsteps=2, workers=2)
        print("sweep done")
    """)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen([sys.executable, "-W", "error", "-c", script],
                             env=dict(os.environ, PYTHONPATH=path), start_new_session=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = child.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        pytest.fail("the sweep after the pipeline did not finish within 120 s")
    assert child.returncode == 0, err
    assert out.strip() == "sweep done"
