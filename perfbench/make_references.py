#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the current kchain sources.

    python3 perfbench/make_references.py

Records, at the default seed, the plateau_n6 batch-0 mean errors and the
verify_fig3 op-0 fig3 mean errors, and the N=8 panel: the errors of the
realizations among sample indices 0..PANEL_SCAN-1 whose refinement ends at
1024 substeps per period.  Takes about two minutes.
"""

import json
import sys

import run

PANEL_SCAN = 16
PANEL_SUBSTEPS = 1024


def main() -> int:
    run.pin_threads()
    kchain = run.import_kchain()
    from checks import Tally, protocol_problems

    tally = Tally()
    refs = {"default_seed": run.DEFAULT_SEED}
    _, means = run.make_plateau_n6(kchain, run.DEFAULT_SEED, tally, None)(0)
    refs["plateau_n6"] = {"samples_per_m": run.PLATEAU_SAMPLES, "mean_error": means}
    _, means = run.make_verify_fig3(kchain, run.DEFAULT_SEED, tally, None)(0)
    refs["verify_fig3"] = {"mean_error": means}
    panel = {}
    for index in range(PANEL_SCAN):
        res = kchain.run_iswap_protocol(run.n8_params(kchain, index))
        tally.record(protocol_problems(res, 8), f"n8 sample {index}")
        print(f"n8 sample {index}: {res.substeps_per_period} substeps, error {res.error!r}",
              file=sys.stderr)
        if res.substeps_per_period == PANEL_SUBSTEPS:
            panel[str(index)] = float(res.error)
    refs["protocol_n8"] = {"substeps_per_period": PANEL_SUBSTEPS, "errors": panel}
    if tally.failed:
        print("\n".join(tally.messages), file=sys.stderr)
        return 1
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
