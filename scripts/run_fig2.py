#!/usr/bin/env python3
"""Monte Carlo sweep of protocol error vs drive length under coupling noise.

Writes one CSV row per (N, M, eps) grid point plus a JSON sidecar with the
exact configuration. The full grid (N in {4,6}, M 1..20, four noise levels,
200 samples) takes a while; trim --samples or --m-max for a quick look.
"""

import argparse
import sys
import time

from kchain.cli import _even_chain_size, _noise_eps, _nonnegative_int, _positive_int
from kchain.experiments import DEFAULT_SAMPLES, FIG2_EPS_GRID, SweepConfig, sweep_fig2, write_table


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=_even_chain_size, nargs="+", default=[4, 6])
    ap.add_argument("--m-min", type=_positive_int, default=1)
    ap.add_argument("--m-max", type=_positive_int, default=20)
    ap.add_argument("--eps", type=_noise_eps, nargs="+", default=list(FIG2_EPS_GRID))
    ap.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES)
    ap.add_argument("--seed", type=_nonnegative_int, default=20260801)
    ap.add_argument("--threads", type=_positive_int, default=1)
    ap.add_argument("--out", type=str, default="fig2.csv")
    args = ap.parse_args()
    if args.m_max < args.m_min:
        ap.error(f"argument --m-max: must be >= --m-min ({args.m_min}), got {args.m_max}")

    cfg = SweepConfig(
        protocol="fig2",
        n_values=tuple(args.n),
        m_values=tuple(range(args.m_min, args.m_max + 1)),
        eps_values=tuple(args.eps),
        samples=args.samples,
        base_seed=args.seed,
        threads=args.threads,
    )
    t0 = time.time()
    rows = sweep_fig2(cfg)
    write_table(
        args.out,
        ("N", "M", "eps", "mean_error", "stderr", "samples"),
        rows,
        config=cfg,
        wall_time=time.time() - t0,
    )
    print(f"wrote {len(rows)} rows to {args.out} in {time.time() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
