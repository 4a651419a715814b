#!/usr/bin/env python3
"""kchain benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload plateau_n6 --seed 20260801 --seconds 50 --trace 0

It imports kchain from the repository's ``src/``.  Every workload is a
closed loop with one client in one process, sweep threads=1 and BLAS
pinned to one thread: inputs run back to back until ``--seconds`` have
passed.  Reported times are scaled to a reference machine speed measured
by a fixed numpy probe run between inputs (see PROBE_REF_S); the report
file keeps the unscaled values.

- plateau_n6: ``experiments.sweep_fig2`` on the acceptance-08 grid (N=6,
  M in {16, 20}, eps=1e-2), one input being 5 samples per M.  One op is one
  noisy protocol sample (~0.2 s); the step exponentials dominate and the
  per-sample fixed costs are ~1%.
- protocol_n8: noisy ``run_iswap_protocol`` at N=8, M=16, eps=1e-2 on a
  panel of realizations that refine to 1024 substeps per period.  One op is
  one run (~5 s) with sectors up to 70 wide; fixed costs are negligible.
  BENCHMARK.json does not list it: a run holds only ~6 of these ops, and
  its spread across seeds on a shared machine reached 15-19%.  Run it by
  hand to see how integrator cost scales with sector size.
- verify_fig3: one op is ``cli.main(["verify-all", "--n-max", "8"])`` then
  ``experiments.sweep_fig3`` on the full fig3 grid at 200 samples.  It never
  enters the drive integrator; it runs the dense oracles and the
  free-fermion eigengate path.

Every op's outputs are checked (see checks.py); a failed check, an
exception or non-convergence fails the op.  At the default seed the outputs
must also match ``references.json`` at rel 1e-6.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
wraps every kchain function in a span recorder and prints the per-layer
metrics, per op.  The last stdout line is the result JSON; the result, the
environment and (traced) the spans are also written to ``perfbench/out/``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 20260801
SETUPS = 5
# Other tenants slow this kind of shared machine by up to ~1.6x for minutes
# at a time.  Each run times a fixed numpy kernel (make_probe) between its
# inputs and reports times at a reference speed: measured seconds times
# PROBE_REF_S[kind] / (the run's median kernel time).  PROBE_REF_S holds the
# kernels' times on an uncontended 2-vCPU x86-64 sandbox (2.1 GHz, OpenBLAS,
# 1 thread).
PROBES = 3
PROBE_KIND = {"plateau_n6": "linalg", "protocol_n8": "linalg", "verify_fig3": "python"}
PROBE_REF_S = {"linalg": 0.012, "python": 0.009}
# a tail percentile needs ten ops beyond it; protocol_n8 and verify_fig3 run
# 5-15 ops, so their op_s_p90 reports the median instead
TAIL_PERCENTILE = {"plateau_n6": 90, "protocol_n8": 50, "verify_fig3": 50}
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "KRAW_THREADS")

# frozen headline errors (tests/test_driving.py), reproduced by every set-up
HEADLINE = ((4, 1, 0.000672555999634894), (6, 4, 0.00030227647116154444))

PLATEAU_M = (16, 20)
PLATEAU_EPS = 1e-2
PLATEAU_SAMPLES = 5
N8_M, N8_EPS = 16, 1e-2
FIG3_N = (2, 4, 8, 12)
FIG3_SLOPE_N = (4, 8, 12)
FIG3_SAMPLES = 200

# computed flop model for one n x n step exponential: the Hermitian
# eigendecomposition with vectors (4 x Golub-Van Loan's 9n^3 real, for
# complex arithmetic) plus the complex product V diag V^dagger (8n^3)
EXPM_FLOPS_PER_N3 = 36 + 8


def pin_threads() -> None:
    """Must run before numpy is imported anywhere in the process."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_kchain():
    if not (SRC / "kchain" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kchain sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kchain
    import kchain.cli  # noqa: F401  (verify_fig3 drives the CLI)

    if Path(kchain.__file__).resolve().parent != SRC / "kchain":
        raise SystemExit(f"perfbench: imported kchain from {kchain.__file__}, not {SRC}")
    return kchain


def setup():
    """Import kchain and run the headline protocols; (seconds, results)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (its import is part of set-up)

    kchain = import_kchain()
    results = []
    for N, M, _ in HEADLINE:
        try:
            results.append(kchain.run_iswap_protocol(kchain.ProtocolParams(N=N, M=M)))
        except Exception as exc:
            results.append(exc)
    return time.perf_counter() - t0, results


def headline_problems(results) -> list:
    """Problem lists of the set-up's headline runs, one per run."""
    from checks import close, protocol_problems

    out = []
    for (N, M, want), res in zip(HEADLINE, results):
        if isinstance(res, Exception):
            out.append([f"raised {res!r}"])
            continue
        problems = protocol_problems(res, N)
        if not close(float(res.error), want):
            problems.append(f"headline error N={N} M={M} {float(res.error)!r} != {want!r}")
        out.append(problems)
    return out


def setup_probe() -> int:
    """Set up in this fresh interpreter and report it as one JSON line."""
    seconds, results = setup()
    print(json.dumps({"setup_s": seconds, "problems": headline_problems(results)}))
    return 0


def child_setup():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe"],
        capture_output=True, text=True, timeout=170, cwd=ROOT, env=os.environ.copy(),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["problems"]


def derived_seed(seed: int, k: int) -> int:
    """Independent 63-bit base seed for input k of a run."""
    import numpy as np

    lo, hi = np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(2)
    return ((int(hi) & 0x7FFFFFFF) << 32) | int(lo)


# ------------------------------------------------------------------ workloads
#
# make_<workload>(kchain, seed, tally, refs) returns step(k), which runs
# input k, checks every op into the tally and returns (op seconds, outputs):
# the seconds of every op that returned, and the outputs references.json
# records.


def make_plateau_n6(kchain, seed, tally, refs):
    from checks import close, protocol_problems, reference_problems

    experiments = kchain.experiments
    ref = refs["plateau_n6"]["mean_error"] if seed == DEFAULT_SEED and refs else None
    ops = len(PLATEAU_M) * PLATEAU_SAMPLES

    def step(k):
        inner = experiments.run_iswap_protocol
        runs = []

        def timed(params, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                res = inner(params, *args, **kwargs)
            except Exception as exc:
                runs.append((params, None, exc))
                raise
            runs.append((params, time.perf_counter() - t0, res))
            return res

        config = experiments.SweepConfig(
            protocol="fig2", n_values=(6,), m_values=PLATEAU_M, eps_values=(PLATEAU_EPS,),
            samples=PLATEAU_SAMPLES, base_seed=derived_seed(seed, k),
        )
        batch = []
        experiments.run_iswap_protocol = timed
        try:
            rows = experiments.sweep_fig2(config)
        except RuntimeError as exc:
            rows = []
            batch.append(f"sweep raised {exc}")
        finally:
            experiments.run_iswap_protocol = inner
        means = {}
        if rows and (len(rows) != len(PLATEAU_M) or len(runs) != ops):
            batch.append(f"{len(rows)} rows from {len(runs)} runs")
        for row in rows:
            M, mean, count = row[1], row[3], row[5]
            errors = [float(r.error) for p, secs, r in runs if p.M == M and secs is not None]
            means[M] = mean
            if count != PLATEAU_SAMPLES or not errors or not close(mean, sum(errors) / len(errors), 1e-12):
                batch.append(f"row M={M} disagrees with its samples")
        outputs = [means.get(M) for M in PLATEAU_M]
        if ref is not None and k == 0:
            batch += reference_problems("plateau mean", outputs, ref)
        for params, secs, res in runs:
            problems = [f"raised {res!r}"] if secs is None else protocol_problems(res, 6)
            tally.record(problems + batch, f"plateau_n6 input {k} M={params.M} seed={params.seed}")
        for _ in range(ops - len(runs)):
            tally.record(batch or ["not run"], f"plateau_n6 input {k}")
        return [secs for _, secs, _ in runs if secs is not None], outputs

    return step


def n8_params(kchain, index: int):
    """Protocol parameters of realization ``index`` of the N=8 panel."""
    seed = kchain.experiments.point_seed(DEFAULT_SEED, 8, N8_M, 0, index)
    return kchain.ProtocolParams(N=8, M=N8_M, noise_eps=N8_EPS, seed=seed)


def make_protocol_n8(kchain, seed, tally, refs):
    from checks import protocol_problems, reference_problems

    # A noisy N=8 run converges at 512 or at 1024 substeps per period,
    # depending on its realization, and the two cost 2x apart; a run holds
    # too few N=8 ops to average that mix.  So the workload draws from the
    # panel of realizations (sample indices of the default base seed) that
    # need 1024, and the seed picks where in the panel to start.
    panel = refs["protocol_n8"]["errors"]
    order = sorted(panel, key=int)
    offset = seed % len(order)

    def step(k):
        index = order[(offset + k) % len(order)]
        label = f"protocol_n8 sample {index}"
        t0 = time.perf_counter()
        try:
            res = kchain.run_iswap_protocol(n8_params(kchain, int(index)))
        except Exception as exc:
            tally.record([f"raised {exc!r}"], label)
            return [], [None]
        secs = time.perf_counter() - t0
        outputs = [float(res.error)]
        problems = protocol_problems(res, 8)
        problems += reference_problems(f"n8 sample {index} error", outputs, [panel[index]])
        tally.record(problems, label)
        return [secs], outputs

    return step


def make_verify_fig3(kchain, seed, tally, refs):
    from checks import in_unit_interval, loglog_slope, reference_problems

    experiments = kchain.experiments
    ref = refs["verify_fig3"]["mean_error"] if seed == DEFAULT_SEED and refs else None

    def step(k):
        config = experiments.SweepConfig(
            protocol="fig3", n_values=FIG3_N, eps_values=experiments.FIG3_EPS_GRID,
            samples=FIG3_SAMPLES, base_seed=derived_seed(seed, k),
        )
        printed = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(printed):
                code = kchain.cli.main(["verify-all", "--n-max", "8"])
            rows = experiments.sweep_fig3(config)
        except Exception as exc:
            tally.record([f"raised {exc!r}"], f"verify_fig3 input {k}")
            return [], []
        secs = time.perf_counter() - t0
        problems = []
        lines = printed.getvalue().splitlines()
        if code != 0 or not lines or lines[-1] != "all checks passed":
            problems.append(f"verify-all returned {code}: {lines[-1] if lines else ''}")
        grid = len(FIG3_N) * len(experiments.FIG3_EPS_GRID)
        outputs = [row[2] for row in rows]
        if len(rows) != grid or any(row[4] != FIG3_SAMPLES for row in rows):
            problems.append(f"fig3 has {len(rows)} rows, expected {grid} of {FIG3_SAMPLES} samples")
        if not in_unit_interval(outputs):
            problems.append("fig3 mean error outside [0, 1)")
        else:
            for N in FIG3_SLOPE_N:
                sel = [(row[1], row[2]) for row in rows if row[0] == N]
                slope = loglog_slope(*zip(*sel))
                if not abs(slope - 2.0) <= 0.3:
                    problems.append(f"fig3 slope N={N} {slope:.3f} outside 2 +- 0.3")
        if ref is not None and k == 0:
            problems += reference_problems("fig3 mean", outputs, ref)
        tally.record(problems, f"verify_fig3 input {k}")
        return [secs], outputs

    return step


WORKLOADS = {
    "plateau_n6": make_plateau_n6,
    "protocol_n8": make_protocol_n8,
    "verify_fig3": make_verify_fig3,
}


# ----------------------------------------------------------------- measuring


def make_probe(workload: str):
    """A fixed numpy kernel, independent of kchain, that times the machine.

    Contention slows vectorised linear algebra and interpreter-bound code
    by different factors, so the kernel follows the workload's mix:
    batched Hermitian eigendecompositions at the sector widths 20 and 70
    for the protocol workloads, and many small numpy calls driven from
    Python, like fig3's sweep, for verify_fig3.
    """
    import numpy as np

    rng = np.random.default_rng(0)

    def hermitian(count, n):
        a = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
        return a + np.conj(np.swapaxes(a, -1, -2))

    stacks = [hermitian(64, 20), hermitian(8, 70)]
    small = hermitian(1, 12)[0]

    def linalg_kernel():
        for stack in stacks:
            np.linalg.eigh(stack)
        sum(i * i for i in range(20000))

    def python_kernel():
        for i in range(120):
            np.random.default_rng(i).uniform(-1.0, 1.0, size=11)
            w, v = np.linalg.eigh(small)
            np.linalg.det(np.eye(12) + (v * np.exp(-1j * w)) @ v.conj().T)
            sum(j * j for j in range(300))

    kernel = python_kernel if PROBE_KIND[workload] == "python" else linalg_kernel

    def probe() -> float:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0

    return probe


def measure(step, seconds: float, probe):
    """Closed loop: inputs 0, 1, ... back to back, while stopping later ends
    nearer to ``seconds`` than stopping now.  The probe runs PROBES times
    before the first input and after each one.  Returns (op seconds, probe
    seconds, wall seconds of every step)."""
    times, walls = [], []
    probes = [probe() for _ in range(PROBES)]
    t0 = time.perf_counter()
    while not walls or (time.perf_counter() - t0) * (1 + 0.5 / len(walls)) < seconds:
        ts = time.perf_counter()
        times += step(len(walls))[0]
        walls.append(time.perf_counter() - ts)
        probes += [probe() for _ in range(PROBES)]
    return times, probes, walls


def end_to_end(times, setup_times, scale, tail) -> dict:
    """End-to-end metrics with every time multiplied by ``scale``; op_s_p90
    is the ``tail`` percentile of op time."""
    times = sorted(t * scale for t in times)
    if len(times) > 1:
        p90 = statistics.quantiles(times, n=100)[tail - 1]
    else:
        p90 = times[0] if times else math.nan
    return {
        "setup_s": statistics.median(setup_times) * scale,
        "ops_per_s": len(times) / sum(times) if times else math.nan,
        "op_s_p50": statistics.median(times) if times else math.nan,
        "op_s_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_hooks(kchain):
    """Tags kept on spans of the functions the derived metrics need."""
    import inspect

    import numpy as np

    try:
        nsub0 = inspect.signature(kchain.driving.run_iswap_protocol).parameters["nsub0"].default
    except (AttributeError, KeyError):
        nsub0 = None

    def expm(args, kwargs, result):
        shape = np.shape(args[0] if args else next(iter(kwargs.values())))
        return int(np.prod(shape[:-2])), int(shape[-1])

    def window(args, kwargs, result):
        return int(kwargs["nsub"] if "nsub" in kwargs else args[6])

    def protocol(args, kwargs, result):
        final = result.substeps_per_period // 2
        return final, math.log2(final / kwargs.get("nsub0", nsub0)) + 1

    return {
        "driving._expm_stack": expm,
        "driving._drive_window_sector": window,
        "driving.run_iswap_protocol": protocol,
    }


def derived_metrics(rec) -> dict:
    """name -> (function, total) for the per-layer metrics that are not self_s/calls."""
    stacks = [rec.tags.get(sid) for sid in rec.spans_of("driving._expm_stack")]
    stacks = [t for t in stacks if t]
    levels = [rec.tags[sid][1] for sid in rec.spans_of("driving.run_iswap_protocol") if sid in rec.tags]
    final = discarded = 0.0
    for sid in rec.spans_of("driving._drive_window_sector"):
        owner = rec.ancestor(sid, "driving.run_iswap_protocol")
        secs = rec.end[sid] - rec.start[sid]
        if owner in rec.tags and rec.tags.get(sid) == rec.tags[owner][0]:
            final += secs
        else:
            discarded += secs
    return {
        "driving._expm_stack.matrices": ("driving._expm_stack", sum(m for m, _ in stacks)),
        "driving._expm_stack.flops": (
            "driving._expm_stack", sum(EXPM_FLOPS_PER_N3 * m * n**3 for m, n in stacks)),
        "driving.refine_levels": ("driving.run_iswap_protocol", sum(levels)),
        "driving.level_final_s": ("driving._drive_window_sector", final),
        "driving.level_discarded_s": ("driving._drive_window_sector", discarded),
    }


def environment() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        deps = config.get("Build Dependencies", {})
        blas = {key: deps.get(key) for key in ("blas", "lapack")}
    except TypeError:  # numpy < 1.26 only prints
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        blas = text.getvalue()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "numpy": np.__version__,
        "blas_lapack": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, results = setup()
    kchain = import_kchain()
    from checks import Tally

    tally = Tally()
    setup_times = [seconds]
    for problems in headline_problems(results):
        tally.record(problems, "set-up headline")
    if not args.trace:
        for _ in range(SETUPS - 1):
            secs, probe_problems = child_setup()
            setup_times.append(secs)
            for problems in probe_problems:
                tally.record(problems, "set-up probe headline")
    refs = json.loads((HERE / "references.json").read_text())
    step = WORKLOADS[args.workload](kchain, args.seed, tally, refs)

    probe = make_probe(args.workload)
    ref = PROBE_REF_S[PROBE_KIND[args.workload]]
    t0 = time.perf_counter()
    if not args.trace:
        times, probes, _ = measure(step, args.seconds, probe)
        scale = ref / statistics.median(probes)
        tail = TAIL_PERCENTILE[args.workload]
        values = end_to_end(times, setup_times, scale, tail)
        wanted = spec["end_to_end"]
        extra = {"absent": [], "unscaled": end_to_end(times, setup_times, 1.0, tail)}
    else:
        from spans import SpanRecorder, metric_values

        ts = time.perf_counter()
        step(0)
        untraced = time.perf_counter() - ts
        rec = SpanRecorder("kchain", hooks=trace_hooks(kchain))
        rec.install()
        try:
            times, probes, walls = measure(step, args.seconds, probe)
        finally:
            rec.uninstall()
        scale = ref / statistics.median(probes)
        wanted = spec["per_layer"]
        names = [m["name"] for m in wanted if m["name"] != "trace.overhead_frac"]
        values, absent = metric_values(rec, names, len(times), derived_metrics(rec))
        for m in wanted:
            if m["unit"] == "s/op":
                values[m["name"]] *= scale
        values["trace.overhead_frac"] = walls[0] / untraced - 1.0
        OUT.mkdir(exist_ok=True)
        rec.dump(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
        extra = {
            "absent": absent,
            "spans": len(rec),
            "hook_errors": rec.hook_errors,
            "self_s_and_calls": {name: list(v) for name, v in sorted(rec.totals().items())},
        }
    elapsed = time.perf_counter() - t0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "ops": len(times), "elapsed_s": elapsed, "op_s": times, "probe_s": probes, "scale": scale,
        "setup_s": setup_times, "fail_frac": tally.fail_frac, "failures": tally.messages,
        "environment": environment(), "result": result, **extra,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe()
    if args.workload is None:
        parser.error("--workload is required")
    report = run(args)
    result = report["result"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {report['ops']} ops in "
          f"{report['elapsed_s']:.2f} s; times scaled by {report['scale']:.4f} to the reference speed")
    for name, m in result["metrics"].items():
        print(f"#   {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"#   {'fail_frac':<40} {report['fail_frac']:.6g} fraction "
          f"({result['failed']}/{result['attempted']} ops)")
    for message in report["failures"]:
        print(f"# FAIL {message}")
    for name, value in report.get("unscaled", {}).items():
        print(f"#   unscaled {name:<31} {value:.6g}")
    for name in report["absent"]:
        print(f"# absent {name}")
    print("# env " + json.dumps(report["environment"], default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
