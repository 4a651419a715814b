"""Eigengate construction and verification: basis change between chain and dual."""

import dataclasses

import numpy as np

from .hamiltonians import (
    ChainSpec,
    chain_block,
    hopping_matrices,
    hz_diagonal,
    krawtchouk_chain,
    sector_hops,
)
from .krawtchouk import build_basis
from .linalg import (
    assert_unitary,
    block_diagonal,
    expm_hermitian,
    expm_hermitian_times,
    minors,
)

__all__ = [
    "EigengateForm",
    "build_eigengate",
    "expected_phase",
    "eigengate_report",
    "eigengate_single_particle",
    "free_fermion_block",
    "free_fermion_trace_error",
    "coupling_noise_errors",
]

VARIANTS = ("three_step", "single_pulse")


@dataclasses.dataclass(frozen=True, eq=False)
class EigengateForm:
    """The eigengate by its excitation-sector blocks: blocks[q] is its
    block on sector_indices(N, q), outside which it is zero."""

    variant: str
    N: int
    blocks: tuple

    @property
    def unitary(self) -> np.ndarray:
        """The gate on the full 2^N space, built from the blocks."""
        return block_diagonal(self.blocks)


def _sector_hamiltonians(spec: ChainSpec):
    """(states, Hk block, Hz diagonal) of every excitation sector q = 0..N,
    states being its ascending basis indices sector_indices(N, q).  Hk and
    Hz conserve the excitation number, so these blocks hold every nonzero
    entry of both."""
    for q in range(spec.N + 1):
        hops = sector_hops(spec.N, q)
        yield hops[0], chain_block(spec, hops), hz_diagonal(spec.N, hops[0])


def _sector_gate(variant: str, hk: np.ndarray, hz: np.ndarray) -> np.ndarray:
    """One excitation sector's block of the eigengate variant, from the
    sector's Hk block and Hz diagonal (build_eigengate)."""
    quarter = np.pi / 2.0
    if variant == "three_step":
        ez = np.exp(-1.0j * hz * quarter)
        block = ez[:, None] * expm_hermitian(hk, quarter) * ez
    else:
        block = expm_hermitian((hk + np.diag(hz)) / np.sqrt(2.0), 2.0 * quarter)
    assert_unitary(block)
    return block


def build_eigengate(N: int, variant: str = "three_step") -> EigengateForm:
    """Unitary mapping every computational state to the clean chain's eigenstate.

    three_step: exp(-i pi/2 Hz) exp(-i pi/2 Hk) exp(-i pi/2 Hz)
    single_pulse: exp(-i pi (Hk+Hz)/sqrt(2))
    Each excitation sector's block is exponentiated on its own.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    spec = krawtchouk_chain(N)
    blocks = tuple(_sector_gate(variant, hk, hz) for _, hk, hz in _sector_hamiltonians(spec))
    return EigengateForm(variant=variant, N=N, blocks=blocks)


def expected_phase(q: int, n: int) -> complex:
    """Phase i^(q n) carried by a q-excitation state under the eigengate."""
    return 1.0j ** (q * n)


def eigengate_report(N: int, thetas) -> dict:
    """Every identity check of the eigengate on the clean N-qubit chain, in
    one pass over its excitation sectors; all the operators conserve the
    excitation number, so each value is the worst over the sectors.

    variants[v] scores gate variant v: min_overlap is the smallest
    |<s|_chain U |s>| over the states s, against the Slater targets
    free_fermion_block gives, and max_phase_deviation the largest distance
    of its phase from i^(q n); the top-level pair is the worse of both.
    entrywise_difference is max |U_three_step - U_single_pulse|, and
    intertwining_residual max |Hk U - U Hz| of the three-step gate, allowed
    1e-9 times the largest coupling.  so3_residuals are the largest entries
    of [Lx, Ly] - i Lz and its cyclic permutations (xy_z, yz_x, zx_y), for
    Lx = Hk, Lz = Hz and Ly = -i[Lz, Lx] = -i C: Lx, Lz and C are real
    and Lz diagonal, so they are |[Lx, C] + Lz|, |[C, Lz] + Lx| and
    |[Lz, Lx] - C|.  bch_residuals[str(theta)] is the largest entry of
    exp(-i Lh theta) Lz exp(i Lh theta) - (sin^2(theta/2) Lx - (sin theta /
    sqrt 2) Ly + cos^2(theta/2) Lz), Lh = (Lx + Lz)/sqrt(2), for each theta
    in thetas; one real eigendecomposition of each sector's Lh serves every
    theta, so a residual does not depend on the other thetas.
    """
    n = N - 1
    spec = krawtchouk_chain(N)
    phi = build_basis(n).phi
    overlap, deviation = dict.fromkeys(VARIANTS, 1.0), dict.fromkeys(VARIANTS, 0.0)
    difference = intertwining = 0.0
    so3 = dict.fromkeys(("xy_z", "yz_x", "zx_y"), 0.0)
    bch = [0.0] * len(thetas)
    for q, (states, hk, hz) in enumerate(_sector_hamiltonians(spec)):
        target = free_fermion_block(phi, states)
        blocks = {variant: _sector_gate(variant, hk, hz) for variant in VARIANTS}
        for variant, block in blocks.items():
            amps = np.sum(target.conj() * block.T, axis=1)
            mag = np.abs(amps)
            phase = np.divide(amps, mag, out=np.zeros_like(amps), where=mag > 0)
            overlap[variant] = min(overlap[variant], float(mag.min()))
            dev = float(np.max(np.abs(phase - expected_phase(q, n))))
            deviation[variant] = max(deviation[variant], dev)
        u = blocks["three_step"]
        difference = max(difference, float(np.max(np.abs(u - blocks["single_pulse"]))))
        intertwining = max(intertwining, float(np.max(np.abs(hk @ u - u * hz))))

        lx, lz = hk.real, hz
        c = lz[:, None] * lx - lx * lz
        for key, residual in (
            ("xy_z", lx @ c - c @ lx + np.diag(lz)),
            ("yz_x", c * lz - lz[:, None] * c + lx),
            ("zx_y", lz[:, None] * lx - lx * lz - c),
        ):
            so3[key] = max(so3[key], float(np.max(np.abs(residual))))
        rotations = expm_hermitian_times((lx + np.diag(lz)) / np.sqrt(2.0), thetas)
        for k, (theta, rot) in enumerate(zip(thetas, rotations)):
            rhs = np.sin(theta / 2.0) ** 2 * lx + np.cos(theta / 2.0) ** 2 * np.diag(lz)
            rhs = rhs + 1.0j * (np.sin(theta) / np.sqrt(2.0)) * c
            bch[k] = max(bch[k], float(np.max(np.abs((rot * lz) @ rot.conj().T - rhs))))
    return {
        "N": N,
        "variants": {
            variant: {"min_overlap": overlap[variant], "max_phase_deviation": deviation[variant]}
            for variant in VARIANTS
        },
        "min_overlap": min(overlap.values()),
        "max_phase_deviation": max(deviation.values()),
        "entrywise_difference": difference,
        "intertwining_residual": intertwining,
        "intertwining_allowance": 1e-9 * float(np.abs(spec.couplings).max()),
        "so3_residuals": so3,
        "bch_residuals": dict(zip(map(str, thetas), bch)),
    }


def eigengate_single_particle(N: int, hop: np.ndarray | None = None) -> np.ndarray:
    """(N x N) single-particle matrix of the three-step eigengate.

    The gate is a particle-number-conserving free-fermion unitary fixing the
    vacuum with phase one, so this matrix determines it completely.  It is
    the clean chain's gate unless hop, the only way another chain
    reaches it, replaces the chain's hopping matrix; hop may be a stack
    (..., N, N), which gives the stack of gates.
    """
    if hop is None:
        hop = hopping_matrices(krawtchouk_chain(N).couplings)
    elif np.shape(hop)[-2:] != (N, N):
        raise ValueError(f"hop has shape {np.shape(hop)}, but the gate is for N={N}: need (..., {N}, {N})")
    n = N - 1
    zdiag = np.arange(N) - n / 2.0
    quarter = np.pi / 2.0
    ez = np.diag(np.exp(-1.0j * zdiag * quarter))
    return ez @ expm_hermitian(hop, quarter) @ ez


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


def coupling_noise_errors(u_exact: np.ndarray, spec: ChainSpec, noise: np.ndarray) -> np.ndarray:
    """Trace errors against the single-particle gate u_exact of the
    three-step gates of spec's chain with its couplings J_x -> (1 +
    noise[k, x]) J_x, one gate per row k of noise.

    The gates are built and scored as one stack; every element equals the
    error of its row on its own, whatever stack the row is scored in.
    """
    hop = hopping_matrices(spec.couplings * (1.0 + noise))
    u_noisy = eigengate_single_particle(spec.N, hop=hop)
    return free_fermion_trace_error(u_exact, u_noisy)

