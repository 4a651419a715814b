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

import numpy as np

from . import __version__
from ._seeding import assembled_entropy, generate_state, mix_entropy, uint_stack
from .driving import _COUNT_MAX, ProtocolParams, run_iswap_protocol
from .eigengate import coupling_noise_errors, eigengate_single_particle
from .hamiltonians import (
    _CHAIN_N_MAX,
    _N_MAX,
    _check_noise_eps,
    _is_number,
    chain_block,
    coupling_noises,
    krawtchouk_chain,
    sector_hops,
)
from .linalg import expm_hermitian

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
]

FIG2_EPS_GRID = (0.0, 1e-3, 3e-3, 1e-2)
FIG3_EPS_GRID = tuple(float(e) for e in np.logspace(-3, -2, 9))
DEFAULT_SAMPLES = 200
# noisy fig3 gates scored per stacked call, and (eps point, sample) pairs of
# one chain size whose seeds and coupling draws are derived per stack; both
# bound the memory of large --samples runs
FIG3_BATCH = 256
FIG3_DRAW_ROWS = 4096


@dataclasses.dataclass(frozen=True)
class SweepConfig:
    """A sweep's grid; base_seed is SeedSequence entropy (any int >= 0), not a draw's seed."""

    protocol: str
    n_values: tuple
    eps_values: tuple
    m_values: tuple = ()
    samples: int = DEFAULT_SAMPLES
    base_seed: int = 20260801
    threads: int = 1

    def __post_init__(self):
        if not isinstance(self.protocol, str) or self.protocol not in ("fig2", "fig3"):
            raise ValueError("protocol must be 'fig2' or 'fig3'")
        if not _is_number(self.samples, numbers.Integral) or self.samples < 1:
            raise ValueError(f"samples must be an int >= 1, got {self.samples!r}")
        if not _is_number(self.base_seed, numbers.Integral) or self.base_seed < 0:
            raise ValueError(f"base_seed must be an int >= 0, got {self.base_seed!r}")
        if not _is_number(self.threads, numbers.Integral) or self.threads < 1:
            raise ValueError(f"threads must be an int >= 1, got {self.threads!r}")
        for name in ("n_values", "eps_values", "m_values"):
            try:
                values = tuple(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be a sequence, got {getattr(self, name)!r}") from None
            if not values and name != "m_values":
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, values)
        if self.protocol == "fig2" and not self.m_values:
            raise ValueError("fig2 sweep needs m_values")
        # the whole grid is checked before any point is computed
        for N in self.n_values:
            if self.protocol == "fig2" and not (_is_number(N, numbers.Integral) and N in range(4, _N_MAX + 1, 2)):
                raise ValueError(f"n_values must be even ints in [4, {_N_MAX}] for fig2, got {N!r}")
            if not _is_number(N, numbers.Integral) or N < 2:
                raise ValueError(f"n_values must be ints >= 2, got {N!r}")
            if N > _CHAIN_N_MAX:
                raise ValueError(f"n_values must be at most {_CHAIN_N_MAX}, the largest chain, got {N!r}")
        for M in self.m_values:
            if not (_is_number(M, numbers.Integral) and 1 <= M <= _COUNT_MAX):
                raise ValueError(f"m_values must be ints >= 1 (at most 2^53), got {M!r}")
        for eps in self.eps_values:
            _check_noise_eps(eps, "eps_values")


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
        if not (_is_number(value, numbers.Integral) and value >= 0):
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
        from concurrent.futures import ThreadPoolExecutor  # loads logging, so only here
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.array(list(pool.map(worker, range(count))))
    return np.array([worker(i) for i in range(count)])


def _check_protocol(config: SweepConfig, protocol: str) -> None:
    if config.protocol != protocol:
        raise ValueError(f"sweep_{protocol} needs a {protocol!r} config, got protocol {config.protocol!r}")


def sweep_fig2(config: SweepConfig) -> list:
    """Protocol error vs drive length under coupling noise.

    Returns rows (N, M, eps, mean_error, stderr, samples); noiseless
    points are deterministic and use a single run.
    """
    _check_protocol(config, "fig2")
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
    samples of several eps points.  One chain size's errors are held as one
    array, 8 bytes per sample, and row p reads its slice
    starts[p]:starts[p + 1].  Every error equals its sample's
    coupling_noise_errors on its own, so the rows depend on neither stack
    size.  config.threads is not used: the stacked evaluation runs in one
    thread.
    """
    _check_protocol(config, "fig3")
    eps = np.array(config.eps_values, dtype=float)
    counts = [1 if e == 0.0 else config.samples for e in config.eps_values]
    # the pairs of eps point p are starts[p] <= pair < starts[p + 1]
    starts = np.array([0, *itertools.accumulate(counts)])
    rows = []
    for N in config.n_values:
        spec = krawtchouk_chain(N)
        u_exact = eigengate_single_particle(N)
        stacks = []  # the errors of every gate stack, in pair order
        for lo in range(0, starts[-1], FIG3_DRAW_ROWS):
            pair = np.arange(lo, min(lo + FIG3_DRAW_ROWS, starts[-1]))
            point = np.searchsorted(starts, pair, side="right") - 1
            try:
                seeds = point_seeds(config.base_seed, N, 0, point, pair - starts[point])
                noise = coupling_noises(N, eps[point], seeds)
                stacks += (
                    coupling_noise_errors(u_exact, spec, noise[b:b + FIG3_BATCH])
                    for b in range(0, len(pair), FIG3_BATCH)
                )
            except Exception as exc:
                shown = [config.eps_values[p] for p in np.unique(point)]
                raise RuntimeError(
                    f"samples failed at N={N} eps in {shown} base_seed={config.base_seed}: {exc}"
                ) from exc
        errors = np.concatenate(stacks)
        for p, e in enumerate(config.eps_values):
            rows.append((N, e, *_mean_and_stderr(errors[starts[p]:starts[p + 1]]), counts[p]))
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


def ghz_demo(N: int) -> float:
    """Fidelity of the one-pulse GHZ preparation on an odd chain.

    Evolves |+>^N under the chain for a time pi, applies exp(-i pi X/4) on
    every site and compares against (|0..0> + |1..1>)/sqrt(2).

    The chain conserves the excitation number, so |+>^N evolves sector by
    sector.  After the rotations, <0..0| and <1..1| have the amplitudes
    (-i)^q / 2^(N/2) and (-i)^(N-q) / 2^(N/2) on every q-excitation state,
    so each sector adds that weight times the sum of its evolved amplitudes.
    """
    spec = krawtchouk_chain(N)  # checks N before its parity is read
    N = spec.N
    if N % 2 == 0:
        raise ValueError("one-pulse GHZ preparation needs odd N")
    overlap = 0.0
    for q in range(N + 1):
        u = expm_hermitian(chain_block(spec, sector_hops(N, q)), math.pi)
        # |+>^N has amplitude 2^(-N/2) on every state
        overlap += ((-1.0j) ** q + (-1.0j) ** (N - q)) * u.sum()
    return float(abs(overlap / (2**N * math.sqrt(2.0))) ** 2)


def pst_demo(N: int) -> float:
    """Worst-case transfer infidelity over all single-excitation states.

    One propagator, of the N-state one-excitation sector over the transfer
    time pi, serves every state: site x sits at position N-1-x of the
    sector's ascending basis, so its mirror amplitude is u[x, N-1-x].  An
    amplitude a roundoff above 1 in magnitude reads 0.
    """
    spec = krawtchouk_chain(N)
    N = spec.N
    u = expm_hermitian(chain_block(spec, sector_hops(N, 1)), math.pi)
    return max(0.0, *(1.0 - abs(complex(u[x, N - 1 - x])) for x in range(N)))
