"""Command-line entry point: wires configs, seeds and output paths to the drivers.

Flags over config files; every run writes its outputs plus a JSON manifest
that replays the run byte-for-byte via --manifest.  The manifests of the
multi-Hurst studies (continuity, nonconv) also record the checksum of the
noise they consumed.  A setting that a command's flags leave out (--kind,
--level, --levels) takes its one default from RunConfig.  Relative output
paths resolve against $FBMDELAY_OUT when it is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass

from .kernels import HALF, hurst_constant
from .noise import make_grid, process_values, write_path_csv, PROCESS_KINDS
from .integrator import delayed_integral_batch, result_record
from .experiments import (
    DeskConfig,
    _integration_plan,
    _replicate,
    cauchy_decay_study,
    continuity_study,
    nonconvergence_demo,
    parse_integrand,
    verify_dr_moments,
    write_continuity_csv,
    write_decay_csv,
    write_manifest,
    write_moments_csv,
    write_nonconv_csv,
)

COMMANDS = ("simulate", "integrate", "verify-moments", "continuity", "nonconv", "decay")
OUT_ENV = "FBMDELAY_OUT"
MIN_STEPS = 64


@dataclass(frozen=True)
class RunConfig:
    command: str
    hurst: tuple[float, ...]
    integrand: str | None
    horizon: float
    steps: int
    warmup: float
    reps: int
    seed: int
    tol: float | None
    out: str
    kind: str = "B_H"
    level: int = 8
    levels: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; pick one of {', '.join(COMMANDS)}")
        if self.steps < MIN_STEPS or self.steps & (self.steps - 1) != 0:
            raise ValueError(f"--steps must be a power of two >= {MIN_STEPS} (got {self.steps})")
        for h in self.hurst:
            if not (0.5 <= h < 1.0):
                raise ValueError(f"--hurst values must lie in [0.5, 1) (got {h})")
        if self.reps < 2:
            raise ValueError(f"--reps must be >= 2 (got {self.reps})")
        if self.horizon <= 0.0:
            raise ValueError(f"--t must be positive (got {self.horizon})")
        if self.warmup < 0.0:
            raise ValueError(f"--warmup must be >= 0 (got {self.warmup})")
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"--kind must be one of {', '.join(PROCESS_KINDS)} (got {self.kind})")


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fbmdelay",
                                description="Fractional Brownian motion, delayed stochastic "
                                            "integration, and its Monte Carlo verification suite")
    p.add_argument("--manifest", help="replay a previous run from its JSON manifest")
    sub = p.add_subparsers(dest="command")

    def common(sp, hurst_list=False):
        if hurst_list:
            sp.add_argument("--hurst-list", default="0.7,0.6,0.55,0.51",
                            help="comma-separated Hurst values")
        else:
            sp.add_argument("--hurst", type=float, default=0.75)
        sp.add_argument("--t", type=float, default=1.0, dest="horizon")
        sp.add_argument("--steps", type=int, default=4096)
        sp.add_argument("--warmup", type=float, default=8.0)
        sp.add_argument("--reps", type=int, default=1000)
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--out", required=True)

    sp = sub.add_parser("simulate", help="export one simulated path as CSV")
    common(sp)
    sp.add_argument("--kind", default=argparse.SUPPRESS, help="one of " + ", ".join(PROCESS_KINDS))

    sp = sub.add_parser("integrate", help="delayed integral of an integrand on one path (JSON)")
    common(sp)
    sp.add_argument("--integrand", default="det:const:1.0")
    sp.add_argument("--level", type=int, default=argparse.SUPPRESS,
                    help="dyadic projection level for non-predictable integrands")

    sp = sub.add_parser("verify-moments", help="MC check of the history-derivative moment identities")
    common(sp)

    sp = sub.add_parser("continuity", help="Hurst-continuity gaps of the delayed integral")
    common(sp, hurst_list=True)
    sp.add_argument("--integrand", default="fbm:0.75")

    sp = sub.add_parser("nonconv", help="the non-vanishing Riemann-sum gap as h drops to 1/2")
    common(sp, hurst_list=True)

    sp = sub.add_parser("decay", help="level-to-level gaps of the dyadic extension")
    common(sp)
    sp.add_argument("--integrand", default="bm")
    sp.add_argument("--levels", default=argparse.SUPPRESS, help="coarse:fine consecutive dyadic levels")
    return p


def _config_from_args(args) -> RunConfig:
    hurst = tuple(float(x) for x in args.hurst_list.split(",")) if hasattr(args, "hurst_list") \
        else (float(args.hurst),)
    given = {key: getattr(args, key) for key in ("kind", "level") if hasattr(args, key)}
    if hasattr(args, "levels"):
        lo, hi = (int(x) for x in args.levels.split(":"))
        given["levels"] = tuple(range(lo, hi + 1))
    return RunConfig(
        command=args.command,
        hurst=hurst,
        integrand=getattr(args, "integrand", None),
        horizon=args.horizon,
        steps=args.steps,
        warmup=args.warmup,
        reps=args.reps,
        seed=args.seed,
        tol=args.tol,
        out=_resolve_out(args.out),
        **given,
    )


def _desk(cfg: RunConfig) -> DeskConfig:
    return DeskConfig(horizon=cfg.horizon, steps=cfg.steps, warmup=cfg.warmup)


def _run(cfg: RunConfig) -> list[str]:
    """Execute one validated config; returns the list of files written."""
    desk = _desk(cfg)
    outputs = [cfg.out]
    record = {"tool": "fbmdelay", "config": asdict(cfg), "outputs": outputs}
    if cfg.command == "simulate":
        hp = hurst_constant(cfg.hurst[0])
        grid = make_grid(cfg.horizon, cfg.steps, cfg.warmup)
        # one replication, stream 0: the path `integrate` draws for the same seed
        times, values = _replicate(cfg.seed, grid, 1, 1,
                                   lambda nb: process_values(nb.increments, grid, hp, cfg.kind))
        h = HALF if cfg.kind == "B" else hp.h  # the driving path is the h = 1/2 process
        write_path_csv(cfg.kind, h, cfg.seed, times[0], values[0], cfg.out)
    elif cfg.command == "integrate":
        hp = hurst_constant(cfg.hurst[0])
        grid = make_grid(cfg.horizon, cfg.steps, cfg.warmup)
        gamma, seg = _integration_plan(parse_integrand(cfg.integrand, cfg.horizon), grid, cfg.level)
        # one replication, stream 0: the path `simulate` draws for the same seed
        parts = _replicate(cfg.seed, grid, 1, 1, lambda nb: delayed_integral_batch(gamma, seg, nb, hp))
        with open(cfg.out, "w") as fh:
            json.dump(result_record(parts, seg, grid, hp, cfg.seed), fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif cfg.command == "verify-moments":
        hp = hurst_constant(cfg.hurst[0])
        report = verify_dr_moments(hp, cfg.horizon, cfg.reps, cfg.seed, desk)
        write_moments_csv(cfg.out, [report])
    elif cfg.command == "continuity":
        curve = continuity_study(cfg.integrand, cfg.hurst, cfg.reps, cfg.seed,
                                 cfg.tol, desk, proj_level=cfg.level)
        write_continuity_csv(cfg.out, curve)
        record["noise_checksum"] = curve.noise_checksum
    elif cfg.command == "nonconv":
        rows = nonconvergence_demo(cfg.hurst, cfg.reps, cfg.seed, desk)
        write_nonconv_csv(cfg.out, rows)
        record["noise_checksum"] = rows[0].noise_checksum
    elif cfg.command == "decay":
        hp = hurst_constant(cfg.hurst[0])
        study = cauchy_decay_study(cfg.integrand, hp, cfg.levels, cfg.reps, cfg.seed, desk)
        write_decay_csv(cfg.out, study)
    manifest_path = cfg.out + ".manifest.json"
    write_manifest(manifest_path, record)
    outputs.append(manifest_path)
    return outputs


def parse_and_dispatch(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.manifest:
            with open(args.manifest) as fh:
                stored = json.load(fh)
            cfg_dict = dict(stored["config"])
            for key in ("hurst", "levels"):
                cfg_dict[key] = tuple(cfg_dict[key])
            cfg = RunConfig(**cfg_dict)
        elif args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        else:
            cfg = _config_from_args(args)
        cfg.validate()
        outputs = _run(cfg)
    except (ValueError, OSError) as exc:
        print(f"fbmdelay: error: {exc}", file=sys.stderr)
        return 2
    for path in outputs:
        print(path)
    return 0


def main() -> None:
    raise SystemExit(parse_and_dispatch())


if __name__ == "__main__":
    main()
