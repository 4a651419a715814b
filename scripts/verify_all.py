#!/usr/bin/env python3
"""Run the whole closed-form identity suite and print one PASS/FAIL per check.

Thin wrapper over `kchain verify-all`; exits nonzero if anything fails.
"""

import argparse
import sys

from kchain.cli import _chain_size, main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-max", type=_chain_size, default=6, help="largest chain size to sweep")
    args = ap.parse_args()
    return cli_main(["verify-all", "--n-max", str(args.n_max)])


if __name__ == "__main__":
    sys.exit(main())
