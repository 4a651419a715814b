"""Spin-chain Hamiltonians: XX+YY chains, their diagonal dual, and the resonant drive."""

import dataclasses
import functools
import numbers

import numpy as np

from ._seeding import uint_stack, uniform_stack
from .linalg import sector_indices

__all__ = [
    "ChainSpec",
    "krawtchouk_couplings",
    "krawtchouk_chain",
    "coupling_noises",
    "chain_hops",
    "sector_hops",
    "chain_block",
    "hz_diagonal",
    "hopping_matrices",
    "unit_drive",
]

# One draw's seeds lie below this, the stacked draw's too (coupling_noises)
_SEED_END = 2**64

# The largest chain a ChainSpec holds, the largest a command builds (kchain
# spectrum): an N such as 10**400 would otherwise reach np.arange unchecked.
_CHAIN_N_MAX = 2048


@dataclasses.dataclass(frozen=True, eq=False)
class ChainSpec:
    """An open XX+YY chain on N qubits: couplings[x] couples qubits x and x+1."""

    N: int
    couplings: np.ndarray

    def __post_init__(self):
        # a bool, string, complex or narrower float would be cast without a word
        dtype = np.asarray(self.couplings).dtype
        if not (dtype.kind in "iu" or dtype == np.float64):
            raise ValueError(f"couplings must be ints or float64 numbers, got {self.couplings!r}")
        object.__setattr__(self, "couplings", np.asarray(self.couplings, dtype=float))
        _check_chain(self.N)
        if self.couplings.shape != (self.N - 1,):
            raise ValueError("couplings must have length N-1")
        if not np.isfinite(self.couplings).all():
            raise ValueError(f"couplings must be finite, got {self.couplings!r}")


def _check_chain(N) -> None:
    """ChainSpec's rule for N, which krawtchouk_chain checks first."""
    if not (_is_number(N, numbers.Integral) and 2 <= N <= _CHAIN_N_MAX):
        raise ValueError(f"N must be an int >= 2 (at most {_CHAIN_N_MAX}), got {N!r}")


def krawtchouk_couplings(n: int) -> np.ndarray:
    """Engineered couplings -1/2 * sqrt((x+1)(n-x)) for x = 0..n-1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    x = np.arange(n)
    return -0.5 * np.sqrt((x + 1.0) * (n - x))


def krawtchouk_chain(N: int, noise_eps: float = 0.0, seed=None) -> ChainSpec:
    """The chain with the engineered couplings, each J_x -> (1 + eps_x) J_x
    with eps_x uniform on [-noise_eps, noise_eps] from default_rng(seed)."""
    _check_chain(N)
    _check_noise_eps(noise_eps)
    _check_seed(seed, noise_eps)
    couplings = krawtchouk_couplings(N - 1)
    if noise_eps > 0.0:
        couplings = couplings * (1.0 + np.random.default_rng(seed).uniform(-noise_eps, noise_eps, N - 1))
    return ChainSpec(N, couplings)


def coupling_noises(N: int, noise_eps, seeds) -> np.ndarray:
    """The relative coupling errors of a stack of seeds, each an int in
    [0, 2^64): row k is the draw krawtchouk_chain(N, noise_eps, seeds[k])
    applies, bit for bit.  noise_eps is one number for every seed, or a
    sequence of one per seed, in which case row k is the draw of
    krawtchouk_chain(N, noise_eps[k], seeds[k]).

    The seeds' SeedSequence and PCG64 streams are computed as one stack
    (_seeding), not one generator per seed.
    """
    _check_chain(N)
    if np.ndim(noise_eps) == 0:
        _check_noise_eps(noise_eps)
        eps = float(noise_eps)
    else:
        eps = np.asarray(noise_eps)
        # a float64 array is checked at once, anything else value by value,
        # so a numpy float32 in a list of floats is refused too
        array = isinstance(noise_eps, np.ndarray)
        if array and eps.dtype.kind == "f" and eps.dtype != np.float64:
            raise ValueError(f"noise_eps must be float64 numbers, got a {eps.dtype} array")
        if not array or eps.dtype.kind != "f" or not ((eps >= 0.0) & (eps < 1.0)).all():
            for value in eps.ravel().tolist() if array else noise_eps:
                _check_noise_eps(value)
        eps = eps.astype(float)
    seeds = uint_stack(seeds, _SEED_END, "seed")
    if np.ndim(eps) and eps.shape != seeds.shape:
        raise ValueError(f"noise_eps has {len(eps)} values, but there are {len(seeds)} seeds")
    return uniform_stack(seeds, -eps, eps, N - 1)


def _is_number(value, kind) -> bool:
    """The number rule of every boundary: value is an instance of the numbers
    ABC kind, not a bool, and, if a numpy float, a float64 (a narrower or
    wider one would carry its precision into every computation)."""
    non_float64 = isinstance(value, np.floating) and not isinstance(value, np.float64)
    return isinstance(value, kind) and not isinstance(value, bool) and not non_float64


def _check_noise_eps(value, name: str = "noise_eps") -> None:
    """Raise ValueError naming name unless value is a noise amplitude: a
    number (_is_number) in [0, 1), so no drawn factor 1 + eps_x can reach
    zero or flip a coupling's sign."""
    if not (_is_number(value, numbers.Real) and 0.0 <= value < 1.0):
        raise ValueError(f"{name} must be a finite number in [0, 1), got {value!r}")


def _check_seed(seed, noise_eps) -> None:
    """Raise ValueError naming seed unless it is one draw's seed, or None
    for a clean draw (a noisy draw without a seed would differ per call)."""
    clean = seed is None and noise_eps == 0.0
    if not (clean or _is_number(seed, numbers.Integral) and 0 <= seed < _SEED_END):
        raise ValueError(f"seed must be an int in [0, {_SEED_END}), or None for a noiseless draw, got {seed!r}")


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
    indices states, or on all 2^N states if None: what the chain's block
    on those states shares across couplings (chain_block)."""
    return _hop_pattern(N, states, [(x, x + 1) for x in range(N - 1)])


@functools.lru_cache(maxsize=128)
def sector_hops(N: int, q: int) -> tuple:
    """chain_hops of the q-excitation sector (sector_indices(N, q)), built
    once per (N, q) and shared: every array in it is read only."""
    return chain_hops(N, sector_indices(N, q))


def chain_block(spec: ChainSpec, hops) -> np.ndarray:
    """Chain Hamiltonian sum_x (J_x/2)(XX+YY) on the basis indices states
    of hops = chain_hops(spec.N, states): only spec's couplings are applied.

    The hopping part has matrix element J_x between |..10..> and |..01..>
    on bond x, which fixes the single-particle normalization.  The block is
    Hermitian by construction: each hop's two entries are set as a
    conjugate pair, and ChainSpec holds only real, finite couplings."""
    return _hopping_block(hops, spec.couplings)


def hz_diagonal(N: int, states=None) -> np.ndarray:
    """Diagonal of the dual Hamiltonian (1/2) sum_x (x - n/2)(1 - Z)_x, which
    is diagonal in the computational basis: the sum over excited sites of
    (x - n/2), on the basis indices states, or on all 2^N states if None."""
    n = N - 1
    idx = np.arange(2**N) if states is None else np.asarray(states)
    diag = np.zeros(len(idx))
    for x in range(N):
        bit = (idx >> (N - 1 - x)) & 1
        diag += (x - n / 2.0) * bit
    return diag


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


def unit_drive(N: int, sign: str, pairs, states=None) -> np.ndarray:
    """The drive's constant operator at J_D = 1 (the cos factor stripped) on
    the pairs (j, j + N/2), j in pairs, on the ascending basis indices
    states, or on all 2^N states if None:

    sign '+': sum_j [sp_j sm_{j+N/2} + sm_j sp_{j+N/2}]
    sign '-': i sum_j [sp_j sm_{j+N/2} - sm_j sp_{j+N/2}]
    where sp removes and sm creates an excitation.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    d = N // 2
    if not all(0 <= j < N - d for j in pairs):
        raise ValueError(f"drive pairs need 0 <= j < {N - d} at N={N}, got {pairs!r}")
    amps = [1.0 if sign == "+" else 1.0j] * len(pairs)
    return _hopping_block(_hop_pattern(N, states, [(j, j + d) for j in pairs]), amps)
