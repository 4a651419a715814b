"""Command-line frontend.

Times are in units of 1/J and energies in units of J throughout.  All
numeric output uses 17 significant digits so reruns diff exactly; the
only timestamps live in JSON sidecar files, never in tables.
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from .circuits import (
    cns_decomposition,
    cns_unitary,
    ctrl_iswap2_circuit,
    ctrl_x_circuit,
    phase_gate,
    verify_ctrl_iswap2_circuit,
    verify_ctrl_x_circuit,
)
from .driving import ProtocolParams, gate_time_accounting, run_iswap_protocol
from .eigengate import eigengate_report
from .experiments import (
    DEFAULT_SAMPLES,
    FIG2_EPS_GRID,
    FIG3_EPS_GRID,
    SweepConfig,
    format_table,
    ghz_demo,
    point_seeds,
    pst_demo,
    sweep_fig2,
    sweep_fig3,
    write_table,
)
from .hamiltonians import _CHAIN_N_MAX, _SEED_END, hopping_matrices, krawtchouk_chain
from .krawtchouk import (
    build_basis,
    conjugate_phase,
    eigenstate_vector,
    m1_closed_form,
    m2_closed_form,
    meixner_identity_check,
)

__all__ = ["main"]


class _IntAtLeast:
    """argparse type: an integer in minimum, minimum + step, minimum + 2 step,
    ..., up to maximum if one is given."""

    def __init__(self, minimum: int, step: int = 1, what: str = "", maximum: int | None = None):
        self.minimum, self.step, self.maximum = minimum, step, maximum
        if step == 2:
            kind = f"an {'even' if minimum % 2 == 0 else 'odd'} integer >= {minimum}"
        else:
            kind = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        self.message = f"{what} must be {kind}".lstrip()
        self.too_large = f"{what} must be at most {maximum}".lstrip()

    def __call__(self, text) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < self.minimum or (value - self.minimum) % self.step:
            raise argparse.ArgumentTypeError(f"{self.message}, got {text!r}")
        if self.maximum is not None and value > self.maximum:
            raise argparse.ArgumentTypeError(f"{self.too_large}, got {text!r}")
        return value


_nonnegative_int = _IntAtLeast(0)
_thread_count = _IntAtLeast(1, what="thread count (--threads or KRAW_THREADS)")
# Upper bounds on the sizes of the verification and protocol commands.  The
# eigengate checks hold stacks of sector minors; the matrix elements hold
# two dense 2^N band eigenstates; GHZ exponentiates sectors up to 462 wide
# at N=11; PST scans all 2^N basis states for its N-wide sector.  A protocol
# run steps sectors up to 252 wide at N=10, and circuit-verify multiplies
# dense 2^N x 2^N gates, 16 MiB each at N=10 and 4 GiB at N=14.  spectrum
# diagonalizes a dense N x N hopping matrix, ~1 s at N=2048 on one core; a
# fig3 sweep scores an N x N gate per sample, ~2 s and ~100 MiB for the
# default grid at N=64, growing as N^3.  A drive of 10^6 periods already
# stalls at the default tolerance, and a fig2 sweep holds its M grid whole;
# a fig3 sweep keeps 8 bytes per sample per eps point, 72 MB at 10^6.
_MAX_EIGENGATE_N = 10
_MAX_MATRIX_ELEMENTS_N = 9
_MAX_GHZ_N = 11
_MAX_PST_N = 20
_MAX_PROTOCOL_N = 10
_MAX_FIG3_N = 64
_MAX_PROTOCOL_M = 10**6
_MAX_SAMPLES = 10**6
_protocol_size = _IntAtLeast(4, step=2, maximum=_MAX_PROTOCOL_N)
_spectrum_size = _IntAtLeast(2, maximum=_CHAIN_N_MAX)
_sweep_size = _IntAtLeast(2, maximum=_MAX_FIG3_N)
_drive_length = _IntAtLeast(1, maximum=_MAX_PROTOCOL_M)
_sample_count = _IntAtLeast(1, maximum=_MAX_SAMPLES)

# Tolerances of the checks run by their own command and by verify-all: value < tol passes
_SPECTRUM_TOL = 1e-10
_MATRIX_ELEMENTS_TOL = 1e-12
_PST_TOL = 1e-10
_GHZ_TOL = 1e-10
_CIRCUIT_TOL = 1e-10


def _noise_eps(text) -> float:
    """argparse type for a coupling-noise amplitude in [0, 1)."""
    try:
        value = float(text)
    except (ValueError, OverflowError):
        # OverflowError: a config file's integer past float64's range
        value = math.nan
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"noise amplitude must lie in [0, 1), got {text!r}")
    return value


def _positive_float(text) -> float:
    """argparse type for a finite number > 0 (a frequency)."""
    try:
        value = float(text)
    except (ValueError, OverflowError):
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


# JSON value types a config file may give for each flag type
_CONFIG_TYPES = {
    int: (int,),
    _noise_eps: (int, float),
    _positive_float: (int, float),
    str: (str,),
    None: (str,),
}


def _config_value(action, key, value):
    """A config file value checked against its flag's type, nargs and choices."""
    if action.nargs in ("+", "*"):
        if not isinstance(value, list) or (action.nargs == "+" and not value):
            raise SystemExit(f"config key {key!r} must be a non-empty list")
        return [_config_value_one(action, key, v) for v in value]
    return _config_value_one(action, key, value)


def _config_value_one(action, key, value):
    if action.nargs == 0:  # store_true
        expected = (bool,)
    else:
        expected = (int,) if isinstance(action.type, _IntAtLeast) else _CONFIG_TYPES[action.type]
        if value is None and action.default is None:
            return None
    # bool is a subclass of int: true/false must not pass as a number
    if not isinstance(value, expected) or (isinstance(value, bool) and bool not in expected):
        names = " or ".join(t.__name__ for t in expected)
        raise SystemExit(f"config key {key!r} must be {names}, got {value!r}")
    if action.type is not None:
        try:
            value = action.type(value)
        except argparse.ArgumentTypeError as exc:
            raise SystemExit(f"config key {key!r}: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise SystemExit(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _apply_config_file(args, parser, argv):
    """argv parsed again with a JSON file's values as the defaults of their
    flags, so flags given on the command line win."""
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"config file {args.config!r}: {exc}") from None
    if not isinstance(overrides, dict):
        raise SystemExit("config file must hold a JSON object")
    # the command's own flags, then the global ones, each with its parser
    actions = {}
    for p in (parser._command_parsers[args.command], parser):
        for action in p._actions:
            if action.option_strings and action.dest not in ("help", "config"):
                actions.setdefault(action.dest, (p, action))
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions:
            raise SystemExit(f"unknown config key {key!r}")
        p, action = actions[dest]
        p.set_defaults(**{dest: _config_value(action, key, value)})
    return parser.parse_args(argv)


def _spectrum(N: int):
    """Closed-form single-particle spectrum k - n/2, k = 0..N-1, its
    largest deviation from the diagonalized chain, and the deviation's
    tolerance.  The eigenvalues' roundoff grows with the spectral radius
    n/2; a radius up to 1 keeps the absolute _SPECTRUM_TOL."""
    n = N - 1
    hop = hopping_matrices(krawtchouk_chain(N).couplings)
    exact = np.array([k - n / 2.0 for k in range(N)])
    deviation = float(np.abs(np.sort(np.linalg.eigvalsh(hop)) - exact).max())
    return exact, deviation, _SPECTRUM_TOL * max(1.0, n / 2.0)


def _site_term(ket: np.ndarray, N: int, a: int, b: int | None = None) -> np.ndarray:
    """sigma^-_a sigma^+_b ket on a dense 2^N ket: the term moves an
    excitation from site b to an empty site a; without b, sigma^-_a ket
    excites the empty site a.  The term has at most one nonzero entry, 1,
    per row and column, so gathering ket's entries gives its dense product
    with ket exactly."""
    ma, mb = 1 << (N - 1 - a), 0 if b is None else 1 << (N - 1 - b)
    states = np.arange(2**N)
    hit = states[(states & ma != 0) & (states & mb == 0)]
    out = np.zeros(2**N, dtype=complex)
    out[hit] = ket[hit ^ (ma | mb)]
    return out


def _m2_elements(n: int):
    """(j, d, closed form, brute force, deviation) of the drive term
    sigma^-_j sigma^+_{j+d} (d = (n+1)/2) between the half-filled band
    states, for every j at odd n.  The deviation also covers
    sigma^+_j sigma^-_{j+d}, whose element is conjugate_phase(N) times the
    closed form.  The brute force is <lower| term |upper> on the dense band
    eigenstates, built once."""
    d = (n + 1) // 2
    N = n + 1
    basis = build_basis(n)
    bra = eigenstate_vector(basis, range(N // 2)).conj()
    ket = eigenstate_vector(basis, range(N // 2, N))
    for j in range(0, n - d + 1):
        closed = m2_closed_form(n, j)
        brute = complex(bra @ _site_term(ket, N, j, j + d))
        conj = complex(bra @ _site_term(ket, N, j + d, j))
        err = max(abs(brute - closed), abs(conj - conjugate_phase(N) * closed))
        yield j, d, closed, brute, err


def _m1_element(n: int) -> tuple:
    """(power form, minor form, brute force) of the one-site term
    sigma^-_{n/2} between the half-filled band states at even n (odd N):
    m1_closed_form's two forms and <lower| term |upper> on the dense band
    eigenstates."""
    N = n + 1
    basis = build_basis(n)
    bra = eigenstate_vector(basis, range(n // 2 + 1)).conj()
    ket = eigenstate_vector(basis, range(n // 2 + 1, N))
    forms = m1_closed_form(n)
    return forms.power_form, forms.minor_form, complex(bra @ _site_term(ket, N, n // 2))


def _cmd_spectrum(args) -> int:
    exact, worst, tol = _spectrum(args.n)
    rows = [(args.n - 1, k, lam) for k, lam in enumerate(exact)]
    sys.stdout.write(format_table(("n", "k", "lambda"), rows))
    if not worst < tol:
        print(f"FAIL spectrum deviation {worst:.3e} (tol {tol:g})", file=sys.stderr)
        return 1
    return 0


def _cmd_matrix_elements(args) -> int:
    rows = [
        (n, j, d, closed, brute.real, err)
        for n in range(3, args.n_max + 1, 2)
        for j, d, closed, brute, err in _m2_elements(n)
    ]
    sys.stdout.write(format_table(("n", "j", "d", "M2_closed", "M2_brute", "abs_err"), rows))
    worst = max(row[-1] for row in rows)
    if not worst < _MATRIX_ELEMENTS_TOL:
        print(f"FAIL matrix elements deviate up to {worst:.3e}", file=sys.stderr)
        return 1
    return 0


def _eigengate_checks(report: dict):
    """(label, value, tol) of every check in one eigengate_report; a check
    passes when value < tol."""
    N = report["N"]
    yield f"eigengate mapping N={N}", 1.0 - report["min_overlap"], 1e-9
    yield f"eigengate phases N={N}", report["max_phase_deviation"], 1e-9
    yield f"intertwining N={N}", report["intertwining_residual"], report["intertwining_allowance"]
    yield f"so(3) N={N}", max(report["so3_residuals"].values()), 1e-9
    yield f"BCH N={N}", max(report["bch_residuals"].values()), 1e-9


def _cmd_eigengate_check(args) -> int:
    report = eigengate_report(args.n)
    print(json.dumps(report, indent=2, sort_keys=True))
    ok = all(value < tol for _, value, tol in _eigengate_checks(report))
    return 0 if ok else 1


def _cmd_drive(args) -> int:
    rows, levels = [], []
    count = 1 if args.eps == 0.0 else args.samples
    seeds = [args.seed]
    if count > 1:
        seeds = point_seeds(args.seed, args.n, args.m, 0, range(count)).tolist()
    for seed in seeds:
        params = ProtocolParams(
            N=args.n, M=args.m, noise_eps=args.eps, seed=seed, halfway_inversion=not args.no_inversion
        )
        res = run_iswap_protocol(params, omega_override=args.omega_override)
        rows.append((args.n, args.m, params.tau_d, args.eps, seed, res.error))
        # a JSON row also says which refinement level the run returned
        levels.append(
            {
                "substeps_per_period": res.substeps_per_period,
                "converged_delta": res.converged_delta,
                "unitarity_defect": res.unitarity_defect,
            }
        )
    if args.out == "json":
        payload = {
            "rows": [
                {**dict(zip(("N", "M", "tauD_J", "eps", "seed", "error"), r)), **level}
                for r, level in zip(rows, levels)
            ],
            "mean_error": float(np.mean([r[-1] for r in rows])),
            "omega": res.omega,
            "J_D": res.J_D,
            "drive_phase": res.drive_phase,
            "halfway_inversion": not args.no_inversion,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(format_table(("N", "M", "tauD_J", "eps", "seed", "error"), rows))
    return 0


def _cmd_noise_sweep(args) -> int:
    t0 = time.time()
    fig2 = args.figure == 2
    config = SweepConfig(
        protocol=f"fig{args.figure}",
        n_values=tuple(args.n),
        m_values=tuple(range(args.m_min, args.m_max + 1)) if fig2 else (),
        eps_values=tuple(args.eps),
        samples=args.samples,
        base_seed=args.seed,
        threads=args.threads,
    )
    if fig2:
        rows, header = sweep_fig2(config), ("N", "M", "eps", "mean_error", "stderr", "samples")
    else:
        rows, header = sweep_fig3(config), ("N", "eps", "mean_error", "stderr", "samples")
    write_table(args.out, header, rows, config=config, wall_time=time.time() - t0)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_circuit_verify(args) -> int:
    N = args.n
    core = None
    if args.use_simulated_drive:
        core = run_iswap_protocol(ProtocolParams(N=N, M=args.m)).unitary
    if args.which == "ctrl-x":
        circuit = ctrl_x_circuit(N, phase_n=None if core is None else phase_gate(N, core))
        deviation = verify_ctrl_x_circuit(N, circuit)
    else:
        circuit = ctrl_iswap2_circuit(N, iswap_n=core)
        deviation = verify_ctrl_iswap2_circuit(N, circuit)
    report = {
        "which": args.which,
        "n": N,
        "deviation": deviation,
        "simulated_drive": bool(args.use_simulated_drive),
    }
    if args.use_simulated_drive:
        report["m"] = args.m
    passing = args.use_simulated_drive or deviation < _CIRCUIT_TOL
    report["pass"] = bool(passing)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if passing else 1


def _cmd_ghz(args) -> int:
    fid = ghz_demo(args.n)
    print(json.dumps({"n": args.n, "fidelity": fid}))
    return 0 if 1.0 - fid < _GHZ_TOL else 1


def _cmd_pst(args) -> int:
    worst = pst_demo(args.n)
    print(json.dumps({"n": args.n, "max_infidelity": worst}))
    return 0 if worst < _PST_TOL else 1


def _cmd_verify_all(args) -> int:
    n_max = args.n_max
    failures = 0

    def check(name, value, tol):
        nonlocal failures
        ok = value < tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (tol {tol:g})")

    for N in range(2, n_max + 1):
        check(f"spectrum N={N}", *_spectrum(N)[1:])
    for N in range(2, n_max + 1, 2):
        for label, value, tol in _eigengate_checks(eigengate_report(N)):
            check(label, value, tol)
    for n in range(2, min(n_max, 9) + 1):
        check(f"Meixner n={n}", meixner_identity_check(n), 1e-9)
    for n in range(3, min(n_max + 1, 8), 2):
        worst = max(err for *_, err in _m2_elements(n))
        check(f"matrix elements n={n}", worst, _MATRIX_ELEMENTS_TOL)
    for n in range(2, n_max, 2):
        power, minor, brute = _m1_element(n)
        check(f"M1 n={n}", max(abs(minor - power), abs(brute - power)), _MATRIX_ELEMENTS_TOL)
    for N in range(2, n_max + 1):
        check(f"PST N={N}", pst_demo(N), _PST_TOL)
    for N in range(3, n_max + 1, 2):
        check(f"GHZ N={N}", 1.0 - ghz_demo(N), _GHZ_TOL)
    check("CNS decomposition", float(np.abs(cns_decomposition() - cns_unitary()).max()), _CIRCUIT_TOL)
    for N in (4, 6):
        if N <= max(n_max, 4):
            check(f"ctrl-X circuit N={N}", verify_ctrl_x_circuit(N), _CIRCUIT_TOL)
            check(f"ctrl-iSWAP2 circuit N={N}", verify_ctrl_iswap2_circuit(N), _CIRCUIT_TOL)
    for N, M, expected in ((6, 4, 30), (4, 1, 8)):
        _, _, eq = gate_time_accounting(N, M)
        check(f"gate time N={N} M={M}", abs(eq - expected), 0.5)
    print("all checks passed" if failures == 0 else f"{failures} checks FAILED")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kchain",
        description="Krawtchouk chain simulator: spectra, eigengates, resonant "
        "multi-qubit swap protocol, and verification suites.",
    )
    # a string default goes through the type check when parsing, so a bad
    # KRAW_THREADS is a usage error, not a traceback
    parser.add_argument(
        "--threads",
        type=_thread_count,
        default=os.environ.get("KRAW_THREADS", "1"),
        help="worker threads for fig2 sweep samples (default: KRAW_THREADS or 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="single-particle chain spectrum as CSV")
    p.add_argument("--n", type=_spectrum_size, required=True, help="qubit count N")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "matrix-elements", help="closed-form vs brute-force drive matrix elements"
    )
    p.add_argument(
        "--n-max", type=_IntAtLeast(3, maximum=_MAX_MATRIX_ELEMENTS_N), default=7,
        help=f"largest odd n, at most {_MAX_MATRIX_ELEMENTS_N} (default 7)",
    )
    p.set_defaults(func=_cmd_matrix_elements)

    p = sub.add_parser("eigengate-check", help="eigengate identity report as JSON")
    p.add_argument("--n", type=_IntAtLeast(2, maximum=_MAX_EIGENGATE_N), required=True)
    p.set_defaults(func=_cmd_eigengate_check)

    p = sub.add_parser("drive", help="run the resonant swap protocol")
    p.add_argument("--n", type=_protocol_size, default=6)
    p.add_argument("--m", type=_drive_length, default=4, help="drive length in 2pi/J units")
    p.add_argument("--eps", type=_noise_eps, default=0.0, help="coupling noise amplitude")
    p.add_argument("--seed", type=_IntAtLeast(0, maximum=_SEED_END - 1), default=20260801, help="noise-draw seed")
    p.add_argument("--samples", type=_sample_count, default=1)
    p.add_argument("--no-inversion", action="store_true")
    p.add_argument("--omega-override", type=_positive_float, default=None)
    p.add_argument("--out", choices=("csv", "json"), default="csv")
    p.add_argument("--config", type=str, default=None, help="JSON file of defaults")
    p.set_defaults(func=_cmd_drive)

    p = sub.add_parser("noise-sweep", help="Monte Carlo sweep to a CSV file")
    p.add_argument("--figure", type=int, choices=(2, 3), required=True)
    p.add_argument("--n", type=_sweep_size, nargs="+", default=None)
    p.add_argument("--m-min", type=_drive_length, default=1)
    p.add_argument("--m-max", type=_drive_length, default=20)
    p.add_argument("--eps", type=_noise_eps, nargs="+", default=None)
    p.add_argument("--samples", type=_sample_count, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=_nonnegative_int, default=20260801)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--config", type=str, default=None, help="JSON file of defaults")
    p.set_defaults(func=_cmd_noise_sweep)

    p = sub.add_parser("circuit-verify", help="gate construction checks as JSON")
    p.add_argument("--which", choices=("ctrl-x", "ctrl-iswap2"), required=True)
    p.add_argument("--n", type=_protocol_size, required=True)
    p.add_argument("--use-simulated-drive", action="store_true")
    p.add_argument("--m", type=_drive_length, default=1)
    p.set_defaults(func=_cmd_circuit_verify)

    p = sub.add_parser("ghz", help="one-pulse GHZ preparation fidelity")
    p.add_argument("--n", type=_IntAtLeast(3, step=2, maximum=_MAX_GHZ_N), required=True)
    p.set_defaults(func=_cmd_ghz)

    p = sub.add_parser("pst", help="perfect-state-transfer mirror check")
    p.add_argument("--n", type=_IntAtLeast(2, maximum=_MAX_PST_N), required=True)
    p.set_defaults(func=_cmd_pst)

    p = sub.add_parser("verify-all", help="run the full identity suite")
    p.add_argument(
        "--n-max", type=_IntAtLeast(2, maximum=_MAX_EIGENGATE_N), default=6,
        help=f"largest N, at most {_MAX_EIGENGATE_N} (default 6)",
    )
    p.set_defaults(func=_cmd_verify_all)

    parser._command_parsers = dict(sub.choices)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = _apply_config_file(args, parser, argv)
    command = parser._command_parsers[args.command]
    if args.command == "noise-sweep":
        if args.n is None:
            args.n = [4, 6] if args.figure == 2 else [2, 4, 8, 12]
        if args.eps is None:
            args.eps = list(FIG2_EPS_GRID) if args.figure == 2 else list(FIG3_EPS_GRID)
        if args.out is None:
            args.out = f"fig{args.figure}.csv"
        if args.figure == 2:
            odd = [n for n in args.n if n < 4 or n % 2]
            if odd:
                command.error(f"argument --n: fig2 needs even N >= 4, got {odd}")
            big = [n for n in args.n if n > _MAX_PROTOCOL_N]
            if big:
                command.error(f"argument --n: fig2 needs N <= {_MAX_PROTOCOL_N}, got {big}")
            if args.m_max < args.m_min:
                command.error(f"argument --m-max: must be >= --m-min ({args.m_min}), got {args.m_max}")
    if args.command == "circuit-verify" and args.which == "ctrl-iswap2" and args.n not in (4, 6):
        command.error(f"argument --n: ctrl-iswap2 is defined for N in {{4, 6}}, got {args.n}")
    try:
        return args.func(args)
    except (RuntimeError, ValueError, OSError) as exc:
        # a run that does not converge (say, a long drive at the default
        # tolerance), that the library refuses (an omega override far from
        # the calibrated frequency) or whose table cannot be written is
        # reported, not raised as a traceback
        print(f"kchain {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
