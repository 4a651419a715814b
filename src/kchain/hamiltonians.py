"""Spin-chain Hamiltonians: XX+YY chains, their diagonal dual, and resonant drives."""

import dataclasses

import numpy as np

__all__ = [
    "ChainSpec",
    "DrivingSpec",
    "krawtchouk_couplings",
    "krawtchouk_chain",
    "coupling_noise",
    "apply_coupling_noise",
    "chain_hops",
    "chain_block",
    "build_hk",
    "build_hz",
    "hz_diagonal",
    "hopping_matrices",
    "single_particle_hopping",
    "driving_operator",
]


@dataclasses.dataclass(frozen=True)
class ChainSpec:
    """Parameters of an open XX+YY chain on N qubits.

    couplings[x] couples qubits x and x+1; zfields[x] is a longitudinal
    field gamma_x on qubit x.  noise_eps is the half-width of the
    multiplicative coupling noise drawn by apply_coupling_noise.
    """

    N: int
    J: float
    couplings: np.ndarray
    zfields: np.ndarray
    noise_eps: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "couplings", np.asarray(self.couplings, dtype=float))
        object.__setattr__(self, "zfields", np.asarray(self.zfields, dtype=float))
        if self.N < 2:
            raise ValueError("N must be at least 2")
        if self.couplings.shape != (self.N - 1,):
            raise ValueError("couplings must have length N-1")
        if self.zfields.shape != (self.N,):
            raise ValueError("zfields must have length N")
        for name in ("couplings", "zfields"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 <= self.noise_eps < 1.0:
            raise ValueError("noise_eps must lie in [0, 1)")


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
    """ChainSpec with the engineered couplings and zero fields."""
    return ChainSpec(
        N=N,
        J=J,
        couplings=krawtchouk_couplings(N - 1, J),
        zfields=np.zeros(N),
        noise_eps=noise_eps,
        seed=seed,
    )


def coupling_noise(N: int, noise_eps: float, seed) -> np.ndarray:
    """Relative coupling errors eps_x of the N-1 bonds for one seed.

    eps_x is uniform on [-noise_eps, noise_eps], drawn from a generator
    seeded by seed, so the draw is reproducible.
    """
    return np.random.default_rng(seed).uniform(-noise_eps, noise_eps, size=N - 1)


def apply_coupling_noise(spec: ChainSpec) -> ChainSpec:
    """Draw quenched multiplicative noise: J_x -> (1 + eps_x) J_x.

    eps_x comes from coupling_noise(spec.N, spec.noise_eps, spec.seed).
    """
    if spec.noise_eps == 0.0:
        return spec
    eps = coupling_noise(spec.N, spec.noise_eps, spec.seed)
    return dataclasses.replace(spec, couplings=spec.couplings * (1.0 + eps))


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
    on those states shares across couplings and fields (chain_block)."""
    return _hop_pattern(N, states, [(x, x + 1) for x in range(N - 1)])


def chain_block(spec: ChainSpec, hops) -> np.ndarray:
    """build_hk(spec, states) from hops = chain_hops(spec.N, states): only
    spec's couplings and fields are applied.  The block is Hermitian by
    construction: each hop's two entries are set as a conjugate pair, and
    ChainSpec holds only real, finite couplings and fields."""
    states = hops[0]
    ham = _hopping_block(hops, spec.couplings)
    if np.any(spec.zfields):
        N = spec.N
        zdiag = np.zeros(len(states))
        for x in range(N):
            bit = (states >> (N - 1 - x)) & 1
            zdiag += spec.zfields[x] * (1.0 - 2.0 * bit)
        ham[np.diag_indices(len(states))] += zdiag
    return ham


def build_hk(spec: ChainSpec, states=None) -> np.ndarray:
    """Chain Hamiltonian sum_x (J_x/2)(XX+YY) + sum_x gamma_x Z_x on the
    ascending basis indices states, or on all 2^N states if None.

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
    mat = hopping_matrices(spec.couplings)
    if np.any(spec.zfields):
        # sum_y gamma_y Z_y on a one-excitation state: every site contributes
        # +gamma, the excited one flips to -gamma
        mat += np.diag(spec.zfields.sum() - 2.0 * spec.zfields)
    return mat


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

