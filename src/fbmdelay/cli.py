"""Command-line entry point: wires configs, seeds and output paths to the drivers.

Flags over config files; every run writes its outputs plus a JSON manifest
that replays the run byte-for-byte via --manifest.  The manifests of the
multi-Hurst studies (continuity, nonconv) also record the checksum of the
noise they consumed.  Every manifest records the package, Python, numpy and
scipy versions, the bit generator of the noise (noise.BIT_GENERATOR) and the
history lattice of its grid (see noise.make_grid); a manifest replays only if
its config has exactly RunConfig's fields, with their types, its generator is
this build's and its lattice is the one this build makes of that config.  A
setting that a command's flags leave out (--kind, --level, --levels) takes
its one default from RunConfig, and only integrate may set level to anything
else.
Relative output paths resolve against $FBMDELAY_OUT when it is set.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from dataclasses import asdict, dataclass, fields

import numpy
import scipy

from . import __version__
from .kernels import HALF, hurst_constant
from .noise import BIT_GENERATOR, FAR_RATIO, SimulationGrid, make_grid, process_values, write_path_csv, PROCESS_KINDS
from .integrator import delayed_integral_batch, result_record
from .experiments import (
    _integration_plan,
    _plan,
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
    out: str
    kind: str = "B_H"
    level: int = 8
    levels: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}; pick one of {', '.join(COMMANDS)}")
        if self.steps < MIN_STEPS or self.steps & (self.steps - 1) != 0:
            raise ValueError(f"--steps must be a power of two >= {MIN_STEPS} (got {self.steps})")
        if self.steps > sys.float_info.max:  # an exact comparison: the int is never converted
            raise ValueError(f"--steps must be below 2**1024, the float range (got 2**{self.steps.bit_length() - 1})")
        for h in self.hurst:
            if not (0.5 <= h < 1.0):
                raise ValueError(f"--hurst values must lie in [0.5, 1) (got {h})")
        if self.reps < 2:
            raise ValueError(f"--reps must be >= 2 (got {self.reps})")
        if self.seed < 0:
            raise ValueError(f"--seed must be >= 0 (got {self.seed})")
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"--t must be positive and finite (got {self.horizon})")
        if self.horizon / self.steps == 0.0:
            raise ValueError(f"--t {self.horizon!r} in {self.steps} steps underflows to a step of 0; raise --t")
        if not 0.0 <= self.warmup < math.inf:
            raise ValueError(f"--warmup must be >= 0 and finite (got {self.warmup})")
        try:
            make_grid(self.horizon, self.steps, self.warmup)
        except ValueError as exc:
            raise ValueError(f"--warmup is too far back: {exc}") from None
        if self.kind not in PROCESS_KINDS:
            raise ValueError(f"--kind must be one of {', '.join(PROCESS_KINDS)} (got {self.kind})")
        if self.level != RunConfig.level and self.command != "integrate":
            raise ValueError(f"level is set only by integrate's --level; {self.command} takes "
                             f"{RunConfig.level} (got {self.level})")


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps no state in it between calls."""
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
        sp.add_argument("--warmup", type=float, default=1e14,
                        help="how far back the history reaches")
        sp.add_argument("--reps", type=int, default=1000)
        sp.add_argument("--seed", type=int, default=1)
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
    try:
        hurst = tuple(float(x) for x in args.hurst_list.split(",")) if hasattr(args, "hurst_list") \
            else (float(args.hurst),)
    except ValueError:
        raise ValueError(f"--hurst-list takes comma-separated numbers such as 0.7,0.51 "
                         f"(got {args.hurst_list!r})") from None
    given = {key: getattr(args, key) for key in ("kind", "level") if hasattr(args, key)}
    if hasattr(args, "levels"):
        try:
            lo, hi = (int(x) for x in args.levels.split(":"))
        except ValueError:
            raise ValueError(f"--levels takes coarse:fine integers such as 4:10 (got {args.levels!r})") from None
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
        out=_resolve_out(args.out),
        **given,
    )


def _json_has_type(value, annotation: str) -> bool:
    """Whether a JSON value has the type of a RunConfig field annotation (tuples are JSON lists)."""
    if annotation.startswith("tuple["):
        item = annotation[len("tuple["):].split(",")[0]
        return isinstance(value, list) and all(_json_has_type(v, item) for v in value)
    if annotation.endswith(" | None"):
        return value is None or _json_has_type(value, annotation.removesuffix(" | None"))
    kinds = {"int": int, "float": (int, float), "str": str}[annotation]
    return isinstance(value, kinds) and not isinstance(value, bool)


def _config_from_manifest(stored) -> RunConfig:
    """The RunConfig a manifest recorded; refused unless its config has RunConfig's fields and types."""
    config = stored.get("config") if isinstance(stored, dict) else None
    keys = set(config) if isinstance(config, dict) else set()
    names = {f.name for f in fields(RunConfig)}
    if keys != names:
        raise ValueError(f"manifest config does not match RunConfig: unknown keys {sorted(keys - names)}, "
                         f"missing keys {sorted(names - keys)}")
    for f in fields(RunConfig):
        if not _json_has_type(config[f.name], f.type):
            raise ValueError(f"manifest config does not match RunConfig: key {f.name!r} must be {f.type} "
                             f"(got {config[f.name]!r})")
    return RunConfig(**{**config, "hurst": tuple(config["hurst"]), "levels": tuple(config["levels"])})


def _lattice(grid: SimulationGrid) -> dict:
    """The history lattice of a grid, as a manifest records it: its output bytes depend on all of it."""
    return {"near_window": -grid.uniform_start, "far_ratio": FAR_RATIO, "reach": grid.warmup_length,
            "far_cells": grid.far_cells, "near_cells": grid.near_cells,
            "main_cells": grid.main_steps}


def _check_lattice(stored: dict, cfg: RunConfig) -> None:
    """Refuse a manifest whose history lattice is not the one this build makes of its config."""
    want = _lattice(make_grid(cfg.horizon, cfg.steps, cfg.warmup))
    if stored.get("lattice") != want:
        raise ValueError(f"manifest history lattice {stored.get('lattice')} is not this build's {want}; "
                         "rerun the command to write a new manifest")


#: the noise record of a manifest: a seed draws these bytes only with this bit generator
_NOISE = {"bit_generator": BIT_GENERATOR}


def _check_noise(stored: dict) -> None:
    """Refuse a manifest whose noise was drawn by another bit generator, or that does not name one."""
    if stored.get("noise") != _NOISE:
        raise ValueError(f"manifest noise {stored.get('noise')} is not this build's {_NOISE}; "
                         "rerun the command to write a new manifest")


def _run(cfg: RunConfig) -> list[str]:
    """Execute one validated config; returns the list of files written."""
    grid, hp = make_grid(cfg.horizon, cfg.steps, cfg.warmup), hurst_constant(cfg.hurst[0])
    outputs = [cfg.out]
    record = {"tool": "fbmdelay", "config": asdict(cfg), "outputs": outputs, "lattice": _lattice(grid),
              "noise": _NOISE,
              "versions": {"fbmdelay": __version__, "python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if cfg.command == "simulate":
        # one replication, stream 0: the path `integrate` draws for the same seed; B and W_H read no history
        plan = _plan(grid, () if cfg.kind in ("B", "W_H") else (hp,))
        times, values = _replicate(cfg.seed, plan, 1, lambda incs: process_values(incs, grid, hp, cfg.kind))
        h = HALF if cfg.kind == "B" else hp.h  # the driving path is the h = 1/2 process
        write_path_csv(cfg.kind, h, cfg.seed, times[0], values[0], cfg.out)
    elif cfg.command == "integrate":
        gamma, seg = _integration_plan(parse_integrand(cfg.integrand, cfg.horizon), grid, cfg.level, "--level")
        # one replication, stream 0: the path `simulate` draws for the same seed
        parts = _replicate(cfg.seed, _plan(grid, (hp,)), 1,
                           lambda incs: delayed_integral_batch(gamma, seg, grid, incs, hp))
        with open(cfg.out, "w") as fh:
            json.dump(result_record(parts, seg, grid, hp, cfg.seed), fh, indent=2, sort_keys=True)
            fh.write("\n")
    elif cfg.command == "verify-moments":
        report = verify_dr_moments(hp, cfg.horizon, cfg.reps, cfg.seed, grid)
        write_moments_csv(cfg.out, [report])
    elif cfg.command == "continuity":
        curve = continuity_study(cfg.integrand, cfg.hurst, cfg.reps, cfg.seed, grid, cfg.level)
        write_continuity_csv(cfg.out, curve)
        record["noise_checksum"] = curve.noise_checksum
    elif cfg.command == "nonconv":
        rows = nonconvergence_demo(cfg.hurst, cfg.reps, cfg.seed, grid)
        write_nonconv_csv(cfg.out, rows)
        record["noise_checksum"] = rows[0].noise_checksum
    elif cfg.command == "decay":
        study = cauchy_decay_study(cfg.integrand, hp, cfg.levels, cfg.reps, cfg.seed, grid)
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
            cfg = _config_from_manifest(stored)
            cfg.validate()
            _check_noise(stored)
            _check_lattice(stored, cfg)
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
