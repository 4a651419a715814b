#!/usr/bin/env python3
"""Monte Carlo sweep of eigengate error vs coupling noise amplitude.

Uses the free-fermion shortcut, so large chains are cheap; the default grid
(N in {2,4,8,12}, nine noise amplitudes, 200 samples) runs in seconds.
"""

import argparse
import sys
import time

from kchain.cli import _chain_size, _noise_eps, _nonnegative_int, _positive_int
from kchain.experiments import DEFAULT_SAMPLES, FIG3_EPS_GRID, SweepConfig, sweep_fig3, write_table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=_chain_size, nargs="+", default=[2, 4, 8, 12])
    ap.add_argument("--eps", type=_noise_eps, nargs="+", default=list(FIG3_EPS_GRID))
    ap.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES)
    ap.add_argument("--seed", type=_nonnegative_int, default=20260801)
    ap.add_argument("--out", type=str, default="fig3.csv")
    args = ap.parse_args()

    cfg = SweepConfig(
        protocol="fig3",
        n_values=tuple(args.n),
        eps_values=tuple(args.eps),
        samples=args.samples,
        base_seed=args.seed,
    )
    t0 = time.time()
    rows = sweep_fig3(cfg)
    write_table(
        args.out,
        ("N", "eps", "mean_error", "stderr", "samples"),
        rows,
        config=cfg,
        wall_time=time.time() - t0,
    )
    print(f"wrote {len(rows)} rows to {args.out} in {time.time() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
