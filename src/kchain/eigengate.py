"""Eigengate construction and verification: basis change between chain and dual."""

import dataclasses

import numpy as np

from .hamiltonians import (
    ChainSpec,
    chain_block,
    coupling_noises,
    hopping_matrices,
    hz_diagonal,
    krawtchouk_chain,
    sector_hops,
    single_particle_hopping,
)
from .krawtchouk import build_basis
from .linalg import (
    assert_unitary,
    block_diagonal,
    expm_hermitian,
    expm_hermitian_times,
    minors,
    sector_indices,
)

__all__ = [
    "EigengateForm",
    "build_eigengate",
    "expected_phase",
    "check_intertwining",
    "rotation_checks",
    "compare_forms",
    "eigengate_single_particle",
    "free_fermion_block",
    "free_fermion_trace_error",
    "noisy_eigengate_errors",
    "coupling_noise_errors",
]

VARIANTS = ("three_step", "single_pulse")


@dataclasses.dataclass(frozen=True)
class EigengateForm:
    """The eigengate by its excitation-sector blocks: blocks[q] is its
    block on sector_indices(N, q), outside which it is zero."""

    variant: str
    N: int
    J: float
    blocks: tuple

    @property
    def unitary(self) -> np.ndarray:
        """The gate on the full 2^N space, built from the blocks."""
        return block_diagonal(self.blocks)


def _sector_hamiltonians(spec: ChainSpec, J: float):
    """(Hk block, Hz diagonal) of every excitation sector q = 0..N, on its
    ascending basis indices sector_indices(N, q).  Hk and Hz conserve the
    excitation number, so these blocks hold every nonzero entry of both."""
    hz = hz_diagonal(spec.N, J)
    for q in range(spec.N + 1):
        hops = sector_hops(spec.N, q)
        yield chain_block(spec, hops), hz[hops[0]]


def _check_spec_size(N: int, spec: ChainSpec) -> None:
    if spec.N != N:
        raise ValueError(f"spec is for N={spec.N}, but the gate is for N={N}")


def build_eigengate(
    N: int, J: float, variant: str = "three_step", spec: ChainSpec | None = None
) -> EigengateForm:
    """Unitary mapping every computational state to the chain eigenstate.

    three_step: exp(-i pi/2J Hz) exp(-i pi/2J Hk) exp(-i pi/2J Hz)
    single_pulse: exp(-i pi/J (Hk+Hz)/sqrt(2))
    A noisy spec perturbs only the chain pulse; the diagonal pulses are exact.
    Each excitation sector's block is exponentiated on its own.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if spec is None:
        spec = krawtchouk_chain(N, J)
    _check_spec_size(N, spec)
    quarter = np.pi / (2.0 * J)
    blocks = []
    for hk, hz in _sector_hamiltonians(spec, J):
        if variant == "three_step":
            ez = np.exp(-1.0j * hz * quarter)
            block = ez[:, None] * expm_hermitian(hk, quarter) * ez
        else:
            block = expm_hermitian((hk + np.diag(hz)) / np.sqrt(2.0), 2.0 * quarter)
        assert_unitary(block)
        blocks.append(block)
    return EigengateForm(variant=variant, N=N, J=J, blocks=tuple(blocks))


def expected_phase(q: int, n: int) -> complex:
    """Phase i^(q n) carried by a q-excitation state under the eigengate."""
    return 1.0j ** (q * n)


def check_intertwining(gate: EigengateForm) -> float:
    """Max entry of |Hk U - U Hz| for the clean chain Hk, taken over the
    excitation sectors, outside which all three are zero."""
    spec = krawtchouk_chain(gate.N, gate.J)
    return max(
        float(np.max(np.abs(hk @ u - u * hz)))
        for (hk, hz), u in zip(_sector_hamiltonians(spec, gate.J), gate.blocks)
    )


def rotation_checks(N: int, J: float, thetas) -> tuple:
    """(so(3) residuals, BCH rotation residuals) of the angular-momentum
    triple Lx = Hk/J, Lz = Hz/J, Ly = -i[Lz, Lx] on the full 2^N space.

    The so(3) residuals, keyed xy_z, yz_x and zx_y, are the largest entries
    of [Lx, Ly] - i Lz and its cyclic permutations.  The BCH residual at
    each theta is that of the rotation identity for conjugation by the
    combined pulse: exp(-i Lh theta) Lz exp(+i Lh theta) should equal
    sin^2(theta/2) Lx - (sin theta / sqrt 2) Ly + cos^2(theta/2) Lz,
    with Lh = (Lx + Lz)/sqrt(2).  All four operators conserve the
    excitation number, so each residual is the largest over the sector
    blocks; one diagonalization of each block of Lh serves every theta.
    """
    comm = lambda a, b: a @ b - b @ a
    so3 = dict.fromkeys(("xy_z", "yz_x", "zx_y"), 0.0)
    bch = [0.0] * len(thetas)
    for hk, hz in _sector_hamiltonians(krawtchouk_chain(N, J), J):
        lx = hk / J
        lz = np.diag(hz / J).astype(complex)
        ly = -1.0j * (lz @ lx - lx @ lz)
        for key, (a, b, c) in (("xy_z", (lx, ly, lz)), ("yz_x", (ly, lz, lx)), ("zx_y", (lz, lx, ly))):
            so3[key] = max(so3[key], float(np.max(np.abs(comm(a, b) - 1.0j * c))))
        rotations = expm_hermitian_times((lx + lz) / np.sqrt(2.0), thetas)
        for k, (theta, u) in enumerate(zip(thetas, rotations)):
            bch[k] = max(bch[k], _bch_residual(theta, u, lx, ly, lz))
    return so3, bch


def _bch_residual(theta, u, lx, ly, lz) -> float:
    # the in-place steps round exactly as lhs - (a lx - b ly + c lz) does
    diff = u @ lz @ u.conj().T
    rhs = np.sin(theta / 2.0) ** 2 * lx
    rhs -= (np.sin(theta) / np.sqrt(2.0)) * ly
    rhs += np.cos(theta / 2.0) ** 2 * lz
    diff -= rhs
    return float(np.max(np.abs(diff)))


def compare_forms(N: int, J: float = 1.0) -> dict:
    """Mapping and phase tables for both gate variants, and their difference.

    Both variants are scored against the chain eigenstates, built once.  Per
    variant the report holds the gate, the smallest overlap |<s|_chain U |s>|,
    the phase table over all 2^N labels s and its largest deviation from
    i^(q n).  The gates and the eigenstates are block diagonal over the
    excitation sectors, so each sector is scored on its own.
    """
    n = N - 1
    phi = build_basis(n, J).phi
    sectors = [sector_indices(N, q) for q in range(N + 1)]
    # row r of a sector's table: the chain eigenstate whose occupied modes
    # are the excited sites of states[r], on the sector's states; its
    # entries are eigenstate_vector's bit for bit
    targets = [free_fermion_block(phi, states) for states in sectors]
    report = {"N": N, "variants": {}}
    for variant in VARIANTS:
        gate = build_eigengate(N, J, variant)
        mags = np.zeros(2**N)
        phases = np.zeros(2**N, dtype=complex)
        dev = 0.0
        for q, (states, target, block) in enumerate(zip(sectors, targets, gate.blocks)):
            amps = np.sum(target.conj() * block.T, axis=1)
            mag = np.abs(amps)
            phase = np.divide(amps, mag, out=np.zeros_like(amps), where=mag > 0)
            mags[states], phases[states] = mag, phase
            dev = max(dev, float(np.max(np.abs(phase - expected_phase(q, n)))))
        report["variants"][variant] = {
            "gate": gate,
            "min_overlap": float(mags.min()),
            "phases": phases,
            "max_phase_deviation": dev,
        }
    three_step, single_pulse = (report["variants"][v]["gate"].blocks for v in VARIANTS)
    report["entrywise_difference"] = max(
        float(np.max(np.abs(a - b))) for a, b in zip(three_step, single_pulse)
    )
    return report


def eigengate_single_particle(
    N: int,
    J: float,
    variant: str = "three_step",
    spec: ChainSpec | None = None,
    hop: np.ndarray | None = None,
) -> np.ndarray:
    """(N x N) single-particle matrix of the eigengate.

    The gate is a particle-number-conserving free-fermion unitary fixing the
    vacuum with phase one, so this matrix determines it completely.  hop, if
    given, replaces the chain's hopping matrix; it may be a stack
    (..., N, N), which gives the stack of gates.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if hop is None:
        if spec is None:
            spec = krawtchouk_chain(N, J)
        _check_spec_size(N, spec)
        hop = single_particle_hopping(spec)
    elif np.shape(hop)[-2:] != (N, N):
        raise ValueError(f"hop has shape {np.shape(hop)}, but the gate is for N={N}: need (..., {N}, {N})")
    n = N - 1
    zdiag = J * (np.arange(N) - n / 2.0)
    quarter = np.pi / (2.0 * J)
    if variant == "three_step":
        ez = np.diag(np.exp(-1.0j * zdiag * quarter))
        return ez @ expm_hermitian(hop, quarter) @ ez
    return expm_hermitian((hop + np.diag(zdiag)) / np.sqrt(2.0), 2.0 * quarter)


def free_fermion_block(u: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Block on one sector's ascending basis indices states of the
    vacuum-fixing free-fermion unitary with single-particle matrix u: entry
    (r, c) is the minor of u on the excited sites of states[r], states[c]."""
    bits = (np.asarray(states)[:, None] >> np.arange(len(u) - 1, -1, -1)) & 1
    sites = np.nonzero(bits)[1].reshape(len(states), -1)
    return minors(u, sites, sites)


def free_fermion_trace_error(u_exact: np.ndarray, u_actual: np.ndarray) -> float | np.ndarray:
    """Trace error between two vacuum-fixing free-fermion unitaries.

    The many-body trace of U_exact^dagger U_actual over the full 2^N space
    equals det(1 + w) with w the product of the single-particle matrices, by
    summing the exterior powers of w over all particle-number sectors.
    Leading axes of u_actual are batch axes, giving one error per matrix.
    """
    N = u_exact.shape[0]
    w = u_exact.conj().T @ u_actual
    return 1.0 - np.abs(np.linalg.det(np.eye(N) + w)) / 2**N


def noisy_eigengate_errors(N: int, J: float, eps: float, seeds) -> np.ndarray:
    """Trace errors of noisy three-step gates against the clean one, per seed.

    Each seed draws its couplings as apply_coupling_noise does, all seeds
    in one stack (coupling_noises), so seeds are ints in [0, 2^64).  The noisy
    gates are built and scored as one stack against a clean gate computed
    once (coupling_noise_errors).
    """
    spec = krawtchouk_chain(N, J, noise_eps=eps)
    u_exact = eigengate_single_particle(N, J, "three_step")
    return coupling_noise_errors(u_exact, spec, coupling_noises(N, eps, seeds))


def coupling_noise_errors(u_exact: np.ndarray, spec: ChainSpec, noise: np.ndarray) -> np.ndarray:
    """Trace errors against the single-particle gate u_exact of the
    three-step gates of spec's chain with its couplings J_x -> (1 +
    noise[k, x]) J_x, one gate per row k of noise.

    The gates are built and scored as one stack; every element equals the
    error of its row on its own, whatever stack the row is scored in.
    """
    hop = hopping_matrices(spec.couplings * (1.0 + noise))
    u_noisy = eigengate_single_particle(spec.N, spec.J, "three_step", hop=hop)
    return free_fermion_trace_error(u_exact, u_noisy)

