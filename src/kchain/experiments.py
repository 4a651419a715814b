"""Seeded Monte Carlo sweeps and state-transfer demonstrations.

Outputs are plain CSV tables (numeric payloads, LF endings) so reruns
diff exactly; run metadata that would break byte-identity (timestamps,
wall time) lives in a JSON sidecar next to the table.
"""

import dataclasses
import datetime
import json
import math
import numbers
import platform
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from ._seeding import assembled_entropy, generate_state, mix_entropy, uint_stack
from .driving import ProtocolParams, run_iswap_protocol
from .eigengate import noisy_eigengate_errors
from .hamiltonians import build_hk, krawtchouk_chain
from .linalg import basis_index, expm_hermitian, sector_indices

__all__ = [
    "FIG2_EPS_GRID",
    "FIG3_EPS_GRID",
    "DEFAULT_SAMPLES",
    "SweepConfig",
    "point_seed",
    "point_seeds",
    "sweep_fig2",
    "sweep_fig3",
    "format_table",
    "write_table",
    "ghz_demo",
    "pst_demo",
    "pst_mirror_amplitude",
]

FIG2_EPS_GRID = (0.0, 1e-3, 3e-3, 1e-2)
FIG3_EPS_GRID = tuple(float(e) for e in np.logspace(-3, -2, 9))
DEFAULT_SAMPLES = 200
# samples of one fig3 grid point scored per stacked call; bounds the memory
# of large --samples runs
FIG3_BATCH = 256


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    protocol: str
    n_values: tuple
    eps_values: tuple
    m_values: tuple = ()
    samples: int = DEFAULT_SAMPLES
    base_seed: int = 20260801
    threads: int = 1

    def __post_init__(self):
        if self.protocol not in ("fig2", "fig3"):
            raise ValueError("protocol must be 'fig2' or 'fig3'")
        if not isinstance(self.samples, numbers.Integral) or self.samples < 1:
            raise ValueError(f"samples must be an int >= 1, got {self.samples!r}")
        if not isinstance(self.base_seed, numbers.Integral) or self.base_seed < 0:
            raise ValueError(f"base_seed must be an int >= 0, got {self.base_seed!r}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not self.n_values or not self.eps_values:
            raise ValueError("parameter grid must be non-empty")
        if self.protocol == "fig2" and not self.m_values:
            raise ValueError("fig2 sweep needs m_values")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "eps_values", tuple(self.eps_values))
        object.__setattr__(self, "m_values", tuple(self.m_values))


def point_seeds(base_seed: int, N: int, M: int, eps_idx: int, sample_indices) -> np.ndarray:
    """Stable 64-bit seeds of the samples sample_indices of one grid point,
    as a uint64 array.

    Element k is the seed that SeedSequence(entropy=base_seed,
    spawn_key=(N, M, eps_idx, sample_indices[k])).generate_state(2) gives,
    low word first, so any two distinct grid coordinates give statistically
    independent streams and the mapping never changes across library
    versions or thread counts.  Every entropy word but the sample index is
    the grid point's, so those are mixed once and only the last word is
    mixed per sample (_seeding).  base_seed, N, M and eps_idx are ints >= 0
    and each sample index an int in [0, 2^32).
    """
    for name, value in (("base_seed", base_seed), ("N", N), ("M", M), ("eps_idx", eps_idx)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    indices = uint_stack(sample_indices, 2**32, "sample index")
    entropy = assembled_entropy(base_seed, (N, M, eps_idx, indices))
    lo, hi = generate_state(mix_entropy(entropy), 2)
    return hi << 32 | lo


def point_seed(base_seed: int, N: int, M: int, eps_idx: int, sample_idx: int) -> int:
    """Stable 64-bit seed of one Monte Carlo sample: point_seeds of one index."""
    return int(point_seeds(base_seed, N, M, eps_idx, [sample_idx])[0])


def _mean_and_stderr(errors: np.ndarray) -> tuple:
    """Sample mean and its standard error (0 for a single sample)."""
    count = len(errors)
    stderr = float(errors.std(ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    return float(errors.mean()), stderr


def _sample_errors(worker, count: int, threads: int) -> np.ndarray:
    """Evaluate worker(sample_idx) for each index, in index order."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(worker, range(count))))
    return np.array([worker(i) for i in range(count)])


def sweep_fig2(config: SweepConfig) -> list:
    """Protocol error vs drive length under coupling noise.

    Returns rows (N, M, eps, mean_error, stderr, samples); noiseless
    points are deterministic and use a single run.
    """
    rows = []
    for N in config.n_values:
        for M in config.m_values:
            for eps_idx, eps in enumerate(config.eps_values):
                count = 1 if eps == 0.0 else config.samples
                seeds = point_seeds(config.base_seed, N, M, eps_idx, np.arange(count)).tolist()

                def worker(sample_idx, N=N, M=M, eps=eps, seeds=seeds):
                    seed = seeds[sample_idx]
                    try:
                        return run_iswap_protocol(
                            ProtocolParams(N=N, M=M, noise_eps=eps, seed=seed)
                        ).error
                    except Exception as exc:
                        raise RuntimeError(
                            f"sample failed at N={N} M={M} eps={eps} seed={seed}: {exc}"
                        ) from exc

                errors = _sample_errors(worker, count, config.threads)
                rows.append((N, M, eps, *_mean_and_stderr(errors), count))
    return rows


def sweep_fig3(config: SweepConfig) -> list:
    """Eigengate trace error vs coupling noise strength.

    Returns rows (N, eps, mean_error, stderr, samples); noiseless points
    are deterministic and use a single sample.  The samples of a grid point
    are scored in stacks of at most FIG3_BATCH by noisy_eigengate_errors,
    which works on N x N single-particle matrices, never on 2^N unitaries.
    config.threads is not used: the stacked evaluation runs in one thread.
    """
    rows = []
    for N in config.n_values:
        for eps_idx, eps in enumerate(config.eps_values):
            count = 1 if eps == 0.0 else config.samples
            seeds = point_seeds(config.base_seed, N, 0, eps_idx, np.arange(count))
            try:
                errors = np.concatenate([
                    noisy_eigengate_errors(N, 1.0, eps, seeds[lo:lo + FIG3_BATCH])
                    for lo in range(0, count, FIG3_BATCH)
                ])
            except Exception as exc:
                raise RuntimeError(
                    f"samples failed at N={N} eps={eps} base_seed={config.base_seed}: {exc}"
                ) from exc
            rows.append((N, eps, *_mean_and_stderr(errors), count))
    return rows


def format_table(header: tuple, rows: list) -> str:
    """CSV text: the header, then one line per row with %.17g floats."""
    lines = [",".join(header)]
    lines += [",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_table(path: str, header: tuple, rows: list, config=None, wall_time: float | None = None) -> None:
    """CSV (format_table) plus a JSON sidecar for run metadata."""
    with open(path, "w", newline="\n") as fh:
        fh.write(format_table(header, rows))
    meta = {
        "version": __version__,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        # the sweeps' seeds and noise draws reproduce numpy's SeedSequence
        # and PCG64 streams, so name the numpy whose streams these are
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    if config is not None:
        meta["config"] = dataclasses.asdict(config)
    if wall_time is not None:
        meta["wall_time_s"] = wall_time
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ghz_demo(N: int, J: float = 1.0, couplings: tuple | None = None) -> float:
    """Fidelity of the one-pulse GHZ preparation on an odd chain.

    Evolves |+>^N under the chain for pi/J, applies exp(-i pi X/4) on
    every site and compares against (|0..0> + |1..1>)/sqrt(2).  The
    couplings override exists for sensitivity probes.

    The chain conserves the excitation number, so |+>^N evolves sector by
    sector.  After the rotations, <0..0| and <1..1| have the amplitudes
    (-i)^q / 2^(N/2) and (-i)^(N-q) / 2^(N/2) on every q-excitation state,
    so each sector adds that weight times the sum of its evolved amplitudes.
    """
    if N % 2 == 0:
        raise ValueError("one-pulse GHZ preparation needs odd N")
    spec = krawtchouk_chain(N, J)
    if couplings is not None:
        spec = dataclasses.replace(spec, couplings=tuple(couplings))
    overlap = 0.0
    for q in range(N + 1):
        u = expm_hermitian(build_hk(spec, sector_indices(N, q)), math.pi / J)
        # |+>^N has amplitude 2^(-N/2) on every state
        overlap += ((-1.0j) ** q + (-1.0j) ** (N - q)) * u.sum()
    return float(abs(overlap / (2**N * math.sqrt(2.0))) ** 2)


def _pst_propagator(N: int, J: float, q: int) -> tuple:
    """(states, u): the chain's evolution u over the transfer time pi/J on
    the q-excitation sector, whose ascending basis indices are states."""
    states = sector_indices(N, q)
    return states, expm_hermitian(build_hk(krawtchouk_chain(N, J), states), math.pi / J)


def _mirror_amplitude(propagator: tuple, bits) -> complex:
    """<mirror(bits)| u |bits>, read straight from the sector propagator."""
    states, u = propagator
    row, col = np.searchsorted(states, [basis_index(reversed(bits)), basis_index(bits)])
    return complex(u[row, col])


def pst_mirror_amplitude(N: int, bits, J: float = 1.0) -> complex:
    """Amplitude on the site-mirrored basis state after a pi/J evolution.

    bits are the N occupations (0 or 1) of the initial basis state."""
    bits = list(bits)
    if len(bits) != N or any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be {N} zeros and ones, got {bits!r}")
    return _mirror_amplitude(_pst_propagator(N, J, sum(bits)), bits)


def pst_demo(N: int, J: float = 1.0) -> float:
    """Worst-case transfer infidelity over all single-excitation states.

    One propagator, of the N-state one-excitation sector, serves every
    state.
    """
    propagator = _pst_propagator(N, J, 1)
    worst = 0.0
    for x in range(N):
        bits = [0] * N
        bits[x] = 1
        worst = max(worst, 1.0 - abs(_mirror_amplitude(propagator, bits)))
    return worst
