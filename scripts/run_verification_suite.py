#!/usr/bin/env python3
"""Run the full desk-scale verification sweep and write every table + manifest.

Usage: python scripts/run_verification_suite.py [outdir] [--quick]

Writes, into outdir (default ./results):
  dr_moments.csv     moment identities of the history-derivative process
  fbm_law.csv        variance/covariance of the synthesized fbm
  shiryaev.csv       quadratic-identity defect along grid refinement
  nonconv.csv        the non-vanishing Riemann-sum gap as h drops to 1/2
  continuity_*.csv   Hurst-continuity curves per integrand
  decay_*.csv        dyadic extension gaps with slope fits
  run_manifest.json  full configuration and seeds
"""

import os
import sys
import time

from fbmdelay.kernels import hurst_constant
from fbmdelay.experiments import (
    DESK,
    DeskConfig,
    cauchy_decay_study,
    continuity_study,
    fbm_law_check,
    nonconvergence_demo,
    shiryaev_identity_check,
    verify_dr_moments,
    write_continuity_csv,
    write_decay_csv,
    write_law_csv,
    write_manifest,
    write_moments_csv,
    write_nonconv_csv,
    write_shiryaev_csv,
)

SEEDS = {"moments": 42, "law": 42, "shiryaev": 5, "nonconv": 9, "continuity": 2024, "decay": 77}


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    quick = "--quick" in sys.argv
    outdir = args[0] if args else "results"
    os.makedirs(outdir, exist_ok=True)
    cfg = DeskConfig(steps=512, warmup=2.0) if quick else DESK
    reps_moments = 1000 if quick else 10_000
    reps_curves = 200 if quick else 1000
    t0 = time.time()
    outputs = []

    def put(name):
        path = os.path.join(outdir, name)
        outputs.append(path)
        print(f"[{time.time() - t0:7.1f}s] {path}")
        return path

    reports = [verify_dr_moments(hurst_constant(h), 1.0, reps_moments, SEEDS["moments"], cfg)
               for h in (0.55, 0.75, 0.9)]
    write_moments_csv(put("dr_moments.csv"), reports)

    write_law_csv(put("fbm_law.csv"),
                  fbm_law_check(hurst_constant(0.75), reps_moments, SEEDS["law"], cfg))

    n_seq = [cfg.steps // 16, cfg.steps // 4, cfg.steps]
    write_shiryaev_csv(put("shiryaev.csv"),
                       shiryaev_identity_check(hurst_constant(0.75), n_seq,
                                               max(reps_curves, 1000), SEEDS["shiryaev"], cfg))

    write_nonconv_csv(put("nonconv.csv"),
                      nonconvergence_demo([0.51, 0.6, 0.75], 4 * reps_curves,
                                          SEEDS["nonconv"], cfg))

    for spec, tag in [("det:const:1.0", "det"), ("fbm:0.75", "fbm075"), ("pp:bm:8", "ppbm8")]:
        curve = continuity_study(spec, [0.7, 0.6, 0.55, 0.51], reps_curves,
                                 SEEDS["continuity"], config=cfg,
                                 proj_level=6 if quick else 8)
        write_continuity_csv(put(f"continuity_{tag}.csv"), curve)

    levels = range(3, 8) if quick else range(4, 11)
    for spec, h, tag in [("bm", 0.75, "bm_h075"), ("fbm:0.75", 0.6, "fbm075_h06")]:
        study = cauchy_decay_study(spec, hurst_constant(h), levels, 200, SEEDS["decay"], cfg)
        write_decay_csv(put(f"decay_{tag}.csv"), study)

    write_manifest(os.path.join(outdir, "run_manifest.json"), {
        "tool": "fbmdelay-verification-suite",
        "config": {"steps": cfg.steps, "warmup": cfg.warmup, "horizon": cfg.horizon,
                   "reps_moments": reps_moments, "reps_curves": reps_curves, "quick": quick},
        "seeds": SEEDS,
        "outputs": outputs,
    })
    print(f"done in {time.time() - t0:.1f}s -> {outdir}/run_manifest.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
