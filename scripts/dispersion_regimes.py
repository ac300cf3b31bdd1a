#!/usr/bin/env python3
"""Emit dispersion-relation data for the three qualitative regimes.

Writes, per regime, a CSV of the two branches over a log-spaced
wavenumber grid and a JSON summary of the slow-branch minimum analysis:
a generic configuration with a valid strict minimum, a configuration at
the double-minimum transition (located by bisection), and a polished
degenerate-minimum configuration.
"""

import argparse
import os

import numpy as np

from gcwaves import Params, eval_lambda, find_critical
from gcwaves.cli import write_csv, write_json, _report_dict
from gcwaves.dispersion import locate_branch_crossing, refine_degenerate

VALID = Params(0.5, 1.0, 0.2)
DEGENERATE_SEED = Params(0.063, 0.939, 0.232)


def emit(p, name, outdir, k_min=1e-2, k_max=1e2, samples=2000):
    ks = np.geomspace(k_min, k_max, samples)
    write_csv(os.path.join(outdir, f"{name}.csv"),
              ["k", "lambda_minus", "lambda_plus", "D"],
              [ks, *eval_lambda(ks, p)])
    rep = find_critical(p)
    payload = _report_dict(rep)
    payload["params"] = {"rho": p.rho, "beta_under": p.beta_under,
                         "beta_over": p.beta_over}
    write_json(os.path.join(outdir, f"{name}.json"), payload)
    print(f"{name}: verdict={rep.verdict} k0={rep.crit.k0:.6f} "
          f"lambda''={rep.crit.lambda2:.3e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out/dispersion")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    emit(VALID, "valid", args.out)

    lo, hi, _ = locate_branch_crossing(0.5, 1.0, 0.04, 0.07)
    beta_c = 0.5 * (lo + hi)
    print(f"double-minimum transition bracketed at beta_over={beta_c:.12f}")
    emit(Params(0.5, 1.0, beta_c), "double_minimum", args.out)

    q = refine_degenerate(DEGENERATE_SEED)
    print(f"degenerate parameters polished to rho={q.rho:.9f}, "
          f"beta_under={q.beta_under:.9f}, beta_over={q.beta_over:.9f}")
    emit(q, "degenerate", args.out)


if __name__ == "__main__":
    main()
