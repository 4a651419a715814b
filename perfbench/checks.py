"""Output checks for benchmark ops and the tally that turns them into fail_frac.

The checks are written against plain numpy, not kchain's own helpers, so a
defect in a helper cannot also hide itself from the benchmark.
"""

import math

import numpy as np

__all__ = [
    "UNITARY_TOL",
    "REL_TOL",
    "Tally",
    "close",
    "protocol_problems",
    "reference_problems",
    "loglog_slope",
    "in_unit_interval",
]

UNITARY_TOL = 1e-10
REL_TOL = 1e-6


class Tally:
    """Attempted and failed op counts plus the first few failure messages."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, problems, label: str = "") -> bool:
        """Count one op; it fails if ``problems`` is non-empty."""
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        if len(self.messages) < self.KEEP:
            self.messages.append(f"{label}: {'; '.join(problems)}")
        return False

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _iswap_trace_error(N: int, u: np.ndarray) -> float:
    """1 - |Tr(T U^dagger)| / 2^N for T the N-qubit swap target.

    T swaps |1..10..0> and |0..01..1> with phase i and is the identity
    elsewhere, so only the diagonal and those two entries of U enter.
    """
    half = N // 2
    a = ((1 << half) - 1) << half
    b = (1 << half) - 1
    diag = np.diagonal(u).copy()
    diag[[a, b]] = 0.0
    tr = np.sum(np.conj(diag)) + 1j * np.conj(u[a, b]) + 1j * np.conj(u[b, a])
    return 1.0 - abs(tr) / u.shape[0]


def protocol_problems(result, N: int, tol: float = 1e-9) -> list:
    """Invariants every protocol run must satisfy, as a list of failures.

    The unitary is unitary at 1e-10, the refinement converged below tol,
    the error lies in [0, 1), and the reported error equals the trace error
    recomputed from the unitary at rel 1e-6.
    """
    problems = []
    u = np.asarray(result.unitary)
    if u.shape != (2**N, 2**N):
        return [f"unitary has shape {u.shape}, expected {(2**N, 2**N)}"]
    dev = float(np.max(np.abs(u.conj().T @ u - np.eye(2**N))))
    if not dev <= UNITARY_TOL:
        problems.append(f"not unitary (deviation {dev:.3e})")
    if not result.converged_delta < tol:
        problems.append(f"not converged (delta {result.converged_delta:.3e})")
    error = float(result.error)
    if not 0.0 <= error < 1.0:
        problems.append(f"error {error!r} outside [0, 1)")
    recomputed = _iswap_trace_error(N, u)
    if not close(error, recomputed):
        problems.append(f"error {error!r} disagrees with the unitary ({recomputed!r})")
    return problems


def reference_problems(label: str, got, want) -> list:
    """Compare matching sequences of values at rel 1e-6."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, reference has {len(want)}"]
    return [
        f"{label}[{i}] {g!r} != reference {w!r}"
        for i, (g, w) in enumerate(zip(got, want))
        if not close(float(g), float(w))
    ]


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.asarray(y)), 1)[0])


def in_unit_interval(values) -> bool:
    return all(math.isfinite(v) and 0.0 <= v < 1.0 for v in values)
