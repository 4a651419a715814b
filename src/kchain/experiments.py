"""Seeded Monte Carlo sweeps and state-transfer demonstrations.

Outputs are plain CSV tables (numeric payloads, LF endings) so reruns
diff exactly; run metadata that would break byte-identity (timestamps,
wall time) lives in a JSON sidecar next to the table.
"""

import dataclasses
import datetime
import itertools
import json
import math
import numbers
import platform
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from ._seeding import assembled_entropy, generate_state, mix_entropy, uint_stack
from .driving import ProtocolParams, run_iswap_protocol
from .eigengate import coupling_noise_errors, eigengate_single_particle
from .hamiltonians import ChainSpec, chain_block, coupling_noises, krawtchouk_chain, sector_hops
from .linalg import basis_index, expm_hermitian

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
# noisy fig3 gates scored per stacked call, and (eps point, sample) pairs of
# one chain size whose seeds and coupling draws are derived per stack; both
# bound the memory of large --samples runs
FIG3_BATCH = 256
FIG3_DRAW_ROWS = 4096


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        if not _is_int(self.samples) or self.samples < 1:
            raise ValueError(f"samples must be an int >= 1, got {self.samples!r}")
        if not _is_int(self.base_seed) or self.base_seed < 0:
            raise ValueError(f"base_seed must be an int >= 0, got {self.base_seed!r}")
        if not _is_int(self.threads) or self.threads < 1:
            raise ValueError(f"threads must be an int >= 1, got {self.threads!r}")
        if not self.n_values or not self.eps_values:
            raise ValueError("parameter grid must be non-empty")
        if self.protocol == "fig2" and not self.m_values:
            raise ValueError("fig2 sweep needs m_values")
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "eps_values", tuple(self.eps_values))
        object.__setattr__(self, "m_values", tuple(self.m_values))
        # the whole grid is checked before any point is computed
        for N in self.n_values:
            if self.protocol == "fig2" and not (_is_int(N) and N >= 4 and N % 2 == 0):
                raise ValueError(f"n_values must be even ints >= 4 for fig2, got {N!r}")
            if not _is_int(N) or N < 2:
                raise ValueError(f"n_values must be ints >= 2, got {N!r}")
        for eps in self.eps_values:
            if isinstance(eps, bool) or not isinstance(eps, numbers.Real) or not 0.0 <= eps < 1.0:
                raise ValueError(f"eps_values must be reals in [0, 1), got {eps!r}")


def point_seeds(base_seed: int, N: int, M: int, eps_idx, sample_indices) -> np.ndarray:
    """Stable 64-bit seeds of the samples sample_indices of one grid point,
    as a uint64 array.

    Element k is the seed that SeedSequence(entropy=base_seed,
    spawn_key=(N, M, eps_idx, sample_indices[k])).generate_state(2) gives,
    low word first, so any two distinct grid coordinates give statistically
    independent streams and the mapping never changes across library
    versions or thread counts.  Every entropy word but the sample index is
    the grid point's, so those are mixed once and only the last word is
    mixed per sample (_seeding).  base_seed, N, M and eps_idx are ints >= 0
    and each sample index an int in [0, 2^32).  eps_idx may also be a
    sequence of one index in [0, 2^32) per sample, which seeds samples of
    several grid points in one stack: element k is then that of eps_idx[k].
    """
    scalars = [("base_seed", base_seed), ("N", N), ("M", M)]
    if np.ndim(eps_idx) == 0:
        scalars.append(("eps_idx", eps_idx))
    for name, value in scalars:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    indices = uint_stack(sample_indices, 2**32, "sample index")
    if np.ndim(eps_idx):
        # a value below 2^32 is one SeedSequence word, as its scalar is
        eps_idx = uint_stack(eps_idx, 2**32, "eps_idx")
        if eps_idx.shape != indices.shape:
            raise ValueError(f"eps_idx has {len(eps_idx)} values, but there are {len(indices)} sample indices")
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
    are deterministic and use a single sample.  Per chain size the clean
    gate is built once, and the seeds and coupling draws of all its
    (eps point, sample) pairs are derived as one stack, of at most
    FIG3_DRAW_ROWS pairs.  The noisy gates are scored in stacks of at most
    FIG3_BATCH by coupling_noise_errors, which works on N x N
    single-particle matrices, never on 2^N unitaries; a stack may hold
    samples of several eps points.  Every error equals its sample's
    noisy_eigengate_errors on its own, so the rows depend on neither stack
    size.  config.threads is not used: the stacked evaluation runs in one
    thread.
    """
    eps = np.array(config.eps_values, dtype=float)
    counts = [1 if e == 0.0 else config.samples for e in config.eps_values]
    # the pairs of eps point p are starts[p] <= pair < starts[p + 1]
    starts = np.array([0, *itertools.accumulate(counts)])
    rows = []
    for N in config.n_values:
        spec = krawtchouk_chain(N, 1.0)
        u_exact = eigengate_single_particle(N, 1.0, spec=spec)
        pending = []  # errors of the point in progress, one array per draw stack
        for lo in range(0, starts[-1], FIG3_DRAW_ROWS):
            hi = min(lo + FIG3_DRAW_ROWS, starts[-1])
            pair = np.arange(lo, hi)
            point = np.searchsorted(starts, pair, side="right") - 1
            points = np.unique(point)
            try:
                seeds = point_seeds(config.base_seed, N, 0, point, pair - starts[point])
                noise = coupling_noises(N, eps[point], seeds)
                errors = np.concatenate([
                    coupling_noise_errors(u_exact, spec, noise[b:b + FIG3_BATCH])
                    for b in range(0, len(pair), FIG3_BATCH)
                ])
            except Exception as exc:
                shown = [config.eps_values[p] for p in points]
                raise RuntimeError(
                    f"samples failed at N={N} eps in {shown} base_seed={config.base_seed}: {exc}"
                ) from exc
            for p in points:
                pending.append(errors[point == p])
                if starts[p + 1] <= hi:
                    point_errors = np.concatenate(pending)
                    rows.append((N, config.eps_values[p], *_mean_and_stderr(point_errors), counts[p]))
                    pending = []
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
    spec = krawtchouk_chain(N, J) if couplings is None else ChainSpec(N, J, couplings)
    overlap = 0.0
    for q in range(N + 1):
        u = expm_hermitian(chain_block(spec, sector_hops(N, q)), math.pi / J)
        # |+>^N has amplitude 2^(-N/2) on every state
        overlap += ((-1.0j) ** q + (-1.0j) ** (N - q)) * u.sum()
    return float(abs(overlap / (2**N * math.sqrt(2.0))) ** 2)


def _pst_propagator(N: int, J: float, q: int) -> tuple:
    """(states, u): the chain's evolution u over the transfer time pi/J on
    the q-excitation sector, whose ascending basis indices are states."""
    hops = sector_hops(N, q)
    return hops[0], expm_hermitian(chain_block(krawtchouk_chain(N, J), hops), math.pi / J)


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
