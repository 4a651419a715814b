"""Spin-chain Hamiltonians: XX+YY chains, their diagonal dual, and resonant drives."""

import dataclasses
import functools
import math
import numbers

import numpy as np

from ._seeding import uint_stack, uniform_stack
from .linalg import sector_indices

__all__ = [
    "ChainSpec",
    "DrivingSpec",
    "krawtchouk_couplings",
    "krawtchouk_chain",
    "coupling_noise",
    "coupling_noises",
    "chain_hops",
    "sector_hops",
    "chain_block",
    "build_hk",
    "build_hz",
    "hz_diagonal",
    "hopping_matrices",
    "single_particle_hopping",
    "driving_operator",
]


@dataclasses.dataclass(frozen=True, eq=False)
class ChainSpec:
    """An open XX+YY chain on N qubits: couplings[x] couples qubits x and
    x+1, and J is the coupling scale the chain was built for."""

    N: int
    J: float
    couplings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "couplings", np.asarray(self.couplings, dtype=float))
        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral) or self.N < 2:
            raise ValueError(f"N must be an int >= 2, got {self.N!r}")
        if self.couplings.shape != (self.N - 1,):
            raise ValueError("couplings must have length N-1")
        if not np.isfinite(self.couplings).all():
            raise ValueError(f"couplings must be finite, got {self.couplings!r}")


@dataclasses.dataclass(frozen=True)
class DrivingSpec:
    """One oscillatory two-site driving term.

    Site j carries the raising operator and site j+d the lowering one (and
    conjugates).  sign selects the real ('+') or imaginary ('-') pairing.
    The spec fixes the constant operator (driving_operator); the drive's
    frequency and phase belong to the protocol that modulates it.
    """

    j: int
    d: int
    sign: str
    J_D: float

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")
        if self.j < 0 or self.d < 1:
            raise ValueError("need j >= 0 and d >= 1")


def krawtchouk_couplings(n: int, J: float) -> np.ndarray:
    """Engineered couplings -J/2 * sqrt((x+1)(n-x)) for x = 0..n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x = np.arange(n)
    return -(J / 2.0) * np.sqrt((x + 1.0) * (n - x))


def krawtchouk_chain(N: int, J: float, noise_eps: float = 0.0, seed=None) -> ChainSpec:
    """The chain with the engineered couplings, each J_x -> (1 + eps_x) J_x
    with eps_x = coupling_noise(N, noise_eps, seed) if noise_eps > 0."""
    if isinstance(noise_eps, bool) or not (isinstance(noise_eps, numbers.Real) and 0.0 <= noise_eps < 1.0):
        raise ValueError(f"noise_eps must be a number in [0, 1), got {noise_eps!r}")
    couplings = krawtchouk_couplings(N - 1, J)
    if noise_eps > 0.0:
        couplings = couplings * (1.0 + coupling_noise(N, noise_eps, seed))
    return ChainSpec(N, J, couplings)


def coupling_noise(N: int, noise_eps: float, seed) -> np.ndarray:
    """Relative coupling errors eps_x of the N-1 bonds for one seed.

    eps_x is uniform on [-noise_eps, noise_eps], drawn from a generator
    seeded by seed, so the draw is reproducible.
    """
    return np.random.default_rng(seed).uniform(-noise_eps, noise_eps, size=N - 1)


def coupling_noises(N: int, noise_eps, seeds) -> np.ndarray:
    """coupling_noise for a stack of seeds, each an int in [0, 2^64): row k
    is coupling_noise(N, noise_eps, seeds[k]) bit for bit.  noise_eps is
    one number for every seed, or a sequence of one per seed, in which case
    row k is coupling_noise(N, noise_eps[k], seeds[k]).

    The seeds' SeedSequence and PCG64 streams are computed as one stack
    (_seeding), not one generator per seed.
    """
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"N must be an int >= 1, got {N!r}")
    if np.ndim(noise_eps) == 0:
        _check_noise_eps(noise_eps)
        eps = float(noise_eps)
    else:
        eps = np.asarray(noise_eps)
        if eps.dtype.kind != "f" or not (np.isfinite(eps) & (eps >= 0.0)).all():
            for value in eps.tolist():
                _check_noise_eps(value)
        eps = eps.astype(float)
    seeds = uint_stack(seeds, 2**64, "seed")
    if np.ndim(eps) and eps.shape != seeds.shape:
        raise ValueError(f"noise_eps has {len(eps)} values, but there are {len(seeds)} seeds")
    return uniform_stack(seeds, -eps, eps, N - 1)


def _check_noise_eps(value) -> None:
    if not (isinstance(value, numbers.Real) and 0.0 <= value < math.inf):
        raise ValueError(f"noise_eps must be a finite number >= 0, got {value!r}")


def _hop_pattern(N: int, states, sites) -> tuple:
    """(states, row, col, term) of the hops sum_t |..0_a..1_b..><..1_a..0_b..|
    + h.c. with (a, b) = sites[t], on the ascending basis indices states
    (all 2^N if None): hop term[k] takes state col[k] to state row[k].  It
    depends on N, the states and the sites only, so blocks with other
    amplitudes reuse it (_hopping_block).  row, col and term are read only."""
    states = np.arange(2**N) if states is None else np.asarray(states)
    ma, mb = 1 << (N - 1 - np.asarray(sites).T)
    col, term = np.nonzero((states[:, None] & ma != 0) & (states[:, None] & mb == 0))
    row = np.searchsorted(states, states[col] ^ (ma | mb)[term])
    for arr in (row, col, term):
        arr.flags.writeable = False
    return states, row, col, term


def _hopping_block(pattern, amps) -> np.ndarray:
    """The block of the hops of pattern (_hop_pattern), hop t with amplitude
    amps[t]: one pass writes every term."""
    states, row, col, term = pattern
    amps = np.asarray(amps)[term]
    block = np.zeros((len(states), len(states)), dtype=complex)
    block[row, col] = amps
    block[col, row] = np.conj(amps)
    return block


def chain_hops(N: int, states=None) -> tuple:
    """Hop pattern of the chain's bonds (x, x+1) on the ascending basis
    indices states, or on all 2^N states if None: what build_hk's block
    on those states shares across couplings (chain_block)."""
    return _hop_pattern(N, states, [(x, x + 1) for x in range(N - 1)])


@functools.lru_cache(maxsize=128)
def sector_hops(N: int, q: int) -> tuple:
    """chain_hops of the q-excitation sector (sector_indices(N, q)), built
    once per (N, q) and shared: every array in it is read only."""
    return chain_hops(N, sector_indices(N, q))


def chain_block(spec: ChainSpec, hops) -> np.ndarray:
    """build_hk(spec, states) from hops = chain_hops(spec.N, states): only
    spec's couplings are applied.  The block is Hermitian by construction:
    each hop's two entries are set as a conjugate pair, and ChainSpec holds
    only real, finite couplings."""
    return _hopping_block(hops, spec.couplings)


def build_hk(spec: ChainSpec, states=None) -> np.ndarray:
    """Chain Hamiltonian sum_x (J_x/2)(XX+YY) on the ascending basis
    indices states, or on all 2^N states if None.

    The hopping part has matrix element J_x between |..10..> and |..01..>
    on bond x, which fixes the single-particle normalization.
    """
    return chain_block(spec, chain_hops(spec.N, states))


def hz_diagonal(N: int, J: float) -> np.ndarray:
    """Diagonal of the dual Hamiltonian: J * sum over excited sites of (x - n/2)."""
    n = N - 1
    dim = 2**N
    idx = np.arange(dim)
    diag = np.zeros(dim)
    for x in range(N):
        bit = (idx >> (N - 1 - x)) & 1
        diag += J * (x - n / 2.0) * bit
    return diag


def build_hz(N: int, J: float) -> np.ndarray:
    """(J/2) sum_x (x - n/2)(1 - Z)_x, diagonal in the computational basis."""
    if N < 2:
        raise ValueError("N must be at least 2")
    return np.diag(hz_diagonal(N, J)).astype(complex)


def hopping_matrices(couplings: np.ndarray) -> np.ndarray:
    """Tridiagonal (N x N) matrices with off-diagonals couplings[..., x].

    Leading axes of couplings are batch axes, one matrix per coupling row.
    """
    couplings = np.asarray(couplings, dtype=float)
    n = couplings.shape[-1] + 1
    mat = np.zeros(couplings.shape[:-1] + (n, n))
    x = np.arange(n - 1)
    mat[..., x, x + 1] = couplings
    mat[..., x + 1, x] = couplings
    return mat


def single_particle_hopping(spec: ChainSpec) -> np.ndarray:
    """(N x N) one-excitation block: tridiagonal with off-diagonals J_x."""
    return hopping_matrices(spec.couplings)


def driving_operator(spec: DrivingSpec, N: int, states=None) -> np.ndarray:
    """Constant operator part of the drive (the cos factor stripped), on the
    ascending basis indices states, or on all 2^N states if None.

    sign '+': J_D [sp_j sm_{j+d} + sm_j sp_{j+d}]
    sign '-': i J_D [sp_j sm_{j+d} - sm_j sp_{j+d}]
    where sp removes and sm creates an excitation.
    """
    a, b = spec.j, spec.j + spec.d
    if b >= N:
        raise ValueError("site j+d out of range")
    amp = spec.J_D if spec.sign == "+" else 1.0j * spec.J_D
    return _hopping_block(_hop_pattern(N, states, [(a, b)]), [amp])

