#!/usr/bin/env python3
"""Cost profile of plain stepwise evaluation versus the centered form.

Plain mode is the classical grid method: each boundary cell is pushed through
the map composition as a raw box, which pays the full chart-composition
wrapping and needs deep subdivision on the entry checks. The centered form
transports a per-cell interval Jacobian instead and collapses the counts by
several orders of magnitude. This script measures both on every relation of
the campaign (revcover.campaign.RELATIONS).

The plain runs of the relations in HEAVY_PLAIN cost on the order of the
historically reported 2.2e8 total boxes in their entry checks; they are
skipped unless --heavy is given. Their mean-value runs always run.

Usage: python scripts/grid_method_profile.py [--heavy] [--budget N] [--threads N]
           [--max-depth N]
"""

import argparse
import time

from revcover.campaign import RELATIONS, build_proof_data
from revcover.covering import VerifyConfig, verify_cover

HEAVY_PLAIN = {("N1", "H1"), ("H1", "H2")}


def run(args):
    data = build_proof_data()
    print(f"{'relation':<14} {'mode':<12} {'status':<14} {'boxes':>12} {'depth':>5} {'time':>9}")
    for src, dst, k, _ in RELATIONS:
        for mean_value in (False, True):
            mode = "mean-value" if mean_value else "plain"
            if not mean_value and (src, dst) in HEAVY_PLAIN and not args.heavy:
                print(f"{src}->{dst:<9} {mode:<12} (skipped: pass --heavy)")
                continue
            cfg = VerifyConfig(
                mean_value=mean_value,
                budget=args.budget,
                threads=args.threads,
                max_depth=args.max_depth,
            )
            t0 = time.perf_counter()
            cert = verify_cover(data.hset(src), data.mapsys, k, data.hset(dst), cfg)
            dt = time.perf_counter() - t0
            print(f"{src}->{dst:<9} {mode:<12} {cert.status:<14} "
                  f"{cert.boxes:>12} {cert.max_depth:>5} {dt:>8.2f}s")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--heavy", action="store_true",
                    help="include the plain runs with very expensive entry checks")
    ap.add_argument("--budget", type=int, default=50_000_000)
    ap.add_argument("--max-depth", type=int, default=40)
    ap.add_argument("--threads", type=int, default=1)
    run(ap.parse_args())
