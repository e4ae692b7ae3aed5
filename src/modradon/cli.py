"""Command-line front end for batch runs and experiment reproduction.

Commands: phantom, forward, fold, unfold, fbp, pipeline, ingest,
sweep-success, downsample-demo.  Flags may be preloaded from a plain-text
``key=value`` file via ``--config``; explicit flags always win.  All commands
are deterministic given (config, seed) and rewrite byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import experiments
from .errors import ConfigError, ModRadonError
from .fbp import FilterSpec, fbp_reconstruct, rmse, write_pgm16, write_raw_f64
from .forward import Sinogram, fold_sinogram, load_sinogram, save_sinogram
from .phantom import NAMED_PHANTOMS, ImageGrid, load_phantom, rasterize, save_phantom
from .unfold import COMPACT, GENERAL, select_order, unfold_sinogram, write_unfold_reports


def _phantom_arg(spec: str):
    if spec in NAMED_PHANTOMS:
        return NAMED_PHANTOMS[spec]()
    return load_phantom(spec)


def _floats(text: str) -> tuple:
    """Comma-separated numbers."""
    return tuple(float(v) for v in text.split(","))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file with defaults for this command")


def _add_forward_flags(p: argparse.ArgumentParser) -> None:
    """The flags ``forward`` and ``pipeline`` share; see :func:`_forward_kwargs`."""
    p.add_argument("--phantom", default="shepp-logan",
                   help=f"named phantom ({', '.join(NAMED_PHANTOMS)}) or a table file")
    p.add_argument("--omega", type=float, required=True, help="bandwidth (rad/unit)")
    p.add_argument("--lam", type=float, required=True, help="fold threshold")
    p.add_argument("--t-frac", type=float, default=0.5,
                   help="T as a fraction of 1/(omega*e)")
    p.add_argument("--T", type=float, help="explicit radial spacing (overrides --t-frac)")
    p.add_argument("--angles", type=int, help="number of angles M (default: omega)")
    p.add_argument("--K", type=int, help="detector index bound (default: ceil(1/T))")


def _forward_kwargs(args) -> dict:
    """``prepare_forward`` keywords from the flags of :func:`_add_forward_flags`."""
    return dict(lam=args.lam, omega=args.omega, t_frac=args.t_frac, T=args.T,
                M=args.angles, K=args.K)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modradon",
        description="Folded-projection tomography: forward model, unfolding, "
                    "reconstruction, and experiment sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="write a phantom table and optional raster")
    p.add_argument("--name", default="shepp-logan",
                   help=f"named phantom ({', '.join(NAMED_PHANTOMS)}) or a table file")
    p.add_argument("--out", required=True, help="output ellipse table path")
    p.add_argument("--raster", help="optional PGM raster output path")
    p.add_argument("--size", type=int, default=256, help="raster grid size")

    p = sub.add_parser("forward", help="phantom to prefiltered sinogram file")
    _add_forward_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fold", help="fold a sinogram into [-lam, lam)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--lam", type=float, help="override the threshold stored in the file")
    p.add_argument("--out", required=True)

    p = sub.add_parser("unfold", help="recover a sinogram from modulo samples")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--beta", type=float, required=True,
                   help="amplitude bound for the unfolded projections")
    p.add_argument("--mode", choices=[COMPACT, GENERAL], default=COMPACT)
    p.add_argument("--order", type=int, help="difference order override")
    p.add_argument("--K", type=int, help="output detector bound (default: stored K)")
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="optional per-row report CSV path")

    p = sub.add_parser("fbp", help="filtered back projection of a sinogram file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--filter", dest="filter_window", choices=["ram_lak", "cosine"],
                   default="cosine")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--out", required=True, help="PGM output path")
    p.add_argument("--raw", help="optional raw float64 output path")
    p.add_argument("--truth-phantom", help="phantom name/table for an RMSE line")

    p = sub.add_parser("pipeline", help="forward + fold + unfold + both reconstructions")
    _add_forward_flags(p)
    p.add_argument("--filter", dest="filter_window", choices=["ram_lak", "cosine"],
                   default="cosine")
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--normalize", action="store_true",
                   help="scale raw projections to unit sup-norm before filtering")
    p.add_argument("--ingest", help="run on an ingested sinogram file instead of a phantom")
    p.add_argument("--tag", default="pipeline")
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("ingest", help="convert external raw projection data")
    p.add_argument("--in", dest="infile", required=True,
                   help="CSV (M rows, 2K+1 columns) or .mrts file")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep-success", help="Monte-Carlo recovery success grid")
    p.add_argument("--lams", type=_floats, default="0.1,0.05",
                   help="comma-separated thresholds")
    p.add_argument("--omegas-pi", type=_floats, default="10",
                   help="comma-separated bandwidths in multiples of pi")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tsteps", type=int, default=25)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--full", action="store_true",
                   help="full scale: 1000 trials, 100 steps, omegas 10,20,30 pi")
    p.add_argument("--outdir", required=True)

    p = sub.add_parser("downsample-demo",
                       help="order-1 failure/order-2 recovery after rate halving")
    p.add_argument("--omega-pi", type=float, default=10.0)
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0-frac", type=float, default=0.5)
    p.add_argument("--factor", type=int, default=2)
    p.add_argument("--outdir", required=True)

    for p in sub.choices.values():
        _add_common(p)
    return parser, sub.choices


def _load_config_file(path: str) -> dict:
    cfg = {}
    with open(path, errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "\ufffd" in body:  # a byte that is not UTF-8, replaced on reading
                raise ConfigError(f"{path}: line {lineno}: not UTF-8 text")
            key, sep, val = body.partition("=")
            if not sep:
                raise ConfigError(f"{path}: line {lineno}: expected key=value")
            cfg[key.strip().replace("-", "_")] = val.strip()
    return cfg


def _apply_config(argv, subparsers):
    """Install config-file values as subparser defaults; explicit flags win."""
    if "--config" not in argv:
        return
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise ConfigError("--config requires a file path")
    cfg = _load_config_file(argv[idx + 1])
    command = argv[0] if argv and not argv[0].startswith("-") else None
    if command not in subparsers:
        raise ConfigError("--config requires the command to be named first")
    sub = subparsers[command]
    dests = {a.dest for a in sub._actions}
    unknown = set(cfg) - dests
    if unknown:
        raise ConfigError(f"unknown config keys for '{command}': {sorted(unknown)}")
    # string defaults go through each option's type conversion during parsing
    sub.set_defaults(**cfg)


def _cmd_phantom(args) -> int:
    p = _phantom_arg(args.name)
    save_phantom(p, args.out)
    if args.raster:
        img = rasterize(p, ImageGrid(args.size, args.size))
        write_pgm16(img, args.raster)
    return 0


def _cmd_forward(args) -> int:
    clean, _ = experiments.prepare_forward(_phantom_arg(args.phantom), **_forward_kwargs(args))
    save_sinogram(clean, args.out)
    p = clean.params
    print(f"wrote {args.out}: M={p.M} K={p.K} K'={p.K_prime} "
          f"beta={p.beta!r} rho={p.rho!r} N={p.N}")
    return 0


def _cmd_fold(args) -> int:
    s = load_sinogram(args.infile)
    if args.lam is not None:
        s = Sinogram(replace(s.params, lam=args.lam), s.rows)
    save_sinogram(fold_sinogram(s), args.out)
    return 0


def _cmd_unfold(args) -> int:
    ms = load_sinogram(args.infile)
    p = ms.params
    N = args.order
    if N is None:
        N = select_order(p.lam, args.beta, p.omega, p.T)
    out, reports = unfold_sinogram(ms, N, args.K, mode=args.mode, beta=args.beta)
    save_sinogram(out, args.out)
    if args.report:
        write_unfold_reports(reports, args.report)
    bad = sum(1 for r in reports if not r.success)
    print(f"unfolded {p.M} rows (order {out.params.N}); {bad} flagged")
    return 0 if bad == 0 else 3


def _cmd_fbp(args) -> int:
    s = load_sinogram(args.infile)
    img = fbp_reconstruct(s, FilterSpec(s.params.omega, args.filter_window),
                          ImageGrid(args.size, args.size))
    write_pgm16(img, args.out)
    if args.raw:
        write_raw_f64(img, args.raw)
    if args.truth_phantom:
        truth = rasterize(_phantom_arg(args.truth_phantom), ImageGrid(args.size, args.size))
        print(f"rmse_vs_truth={rmse(img, truth)!r}")
    return 0


def _cmd_pipeline(args) -> int:
    # the source is held by no local and passed without ``**``, whose argument
    # tuple would keep it alive, so that run_pipeline can free a loaded
    # sinogram once it has cut out the clean rows
    res = experiments.run_pipeline(
        load_sinogram(args.ingest) if args.ingest else _phantom_arg(args.phantom),
        lam=args.lam, omega=args.omega, t_frac=args.t_frac, T=args.T, M=args.angles,
        K=args.K, filter_window=args.filter_window,
        grid_size=args.size, normalize=args.normalize, outdir=args.outdir, tag=args.tag,
    )
    print(f"K'={res.params.K_prime} N={res.N} J={res.J} "
          f"extra_compact={res.extra_samples_compact} extra_general={res.extra_samples_general}")
    print(f"sino_parity={res.sino_parity_max!r} image_parity={res.image_parity_max!r} "
          f"bit_identical={res.images_bit_identical}")
    if res.rmse_clean is not None:
        print(f"rmse_clean={res.rmse_clean!r} rmse_recovered={res.rmse_recovered!r}")
    return 0 if res.success else 3


def _cmd_ingest(args) -> int:
    s = experiments.ingest_raw_csv(args.infile, omega=args.omega, T=args.T,
                                   M=args.angles, K=args.K, lam=args.lam,
                                   normalize=not args.no_normalize)
    save_sinogram(s, args.out)
    print(f"ingested {args.infile}: max |value| = {s.params.beta!r}")
    return 0


def _cmd_sweep(args) -> int:
    # --full keeps success_sweep's own full-scale defaults
    scale = {} if args.full else dict(trials=args.trials, tsteps=args.tsteps,
                                      omegas=tuple(v * np.pi for v in args.omegas_pi))
    cells = experiments.success_sweep(lams=args.lams, seed=args.seed, workers=args.workers,
                                      outdir=args.outdir, **scale)
    for c in cells:
        print(f"lam={c.lam:g} omega={c.omega / np.pi:g}pi: "
              f"rate(T_us)={c.rates[0].tolist()} rate(T_shannon)={c.rates[-1].tolist()}")
    return 0


def _cmd_demo(args) -> int:
    attempts = experiments.downsample_demo(
        omega=args.omega_pi * np.pi, lam=args.lam, seed=args.seed,
        t0_frac=args.t0_frac, factor=args.factor, outdir=args.outdir)
    for a in attempts:
        print(a.to_csv_line())
    expected = [True, False, True]
    return 0 if [a.success for a in attempts] == expected else 3


_COMMANDS = {
    "phantom": _cmd_phantom,
    "forward": _cmd_forward,
    "fold": _cmd_fold,
    "unfold": _cmd_unfold,
    "fbp": _cmd_fbp,
    "pipeline": _cmd_pipeline,
    "ingest": _cmd_ingest,
    "sweep-success": _cmd_sweep,
    "downsample-demo": _cmd_demo,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = _build_parser()
    try:
        _apply_config(argv, subparsers)
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ModRadonError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
