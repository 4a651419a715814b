"""Eigengate construction and verification: basis change between chain and dual."""

import dataclasses

import numpy as np

from .hamiltonians import (
    ChainSpec,
    build_hk,
    build_hz,
    coupling_noises,
    hopping_matrices,
    hz_diagonal,
    krawtchouk_chain,
    single_particle_hopping,
)
from .krawtchouk import build_basis, eigenstate_vector
from .linalg import (
    assert_unitary,
    expm_hermitian,
    expm_hermitian_times,
    minors,
    occupied_sites,
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
]

VARIANTS = ("three_step", "single_pulse")


@dataclasses.dataclass(frozen=True)
class EigengateForm:
    variant: str
    N: int
    J: float
    unitary: np.ndarray


def build_eigengate(
    N: int, J: float, variant: str = "three_step", spec: ChainSpec | None = None
) -> EigengateForm:
    """Unitary mapping every computational state to the chain eigenstate.

    three_step: exp(-i pi/2J Hz) exp(-i pi/2J Hk) exp(-i pi/2J Hz)
    single_pulse: exp(-i pi/J (Hk+Hz)/sqrt(2))
    A noisy spec perturbs only the chain pulse; the diagonal pulses are exact.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if spec is None:
        spec = krawtchouk_chain(N, J)
    hk = build_hk(spec)
    hz = build_hz(N, J)
    quarter = np.pi / (2.0 * J)
    if variant == "three_step":
        ez = np.diag(np.exp(-1.0j * hz_diagonal(N, J) * quarter))
        u = ez @ expm_hermitian(hk, quarter) @ ez
    else:
        u = expm_hermitian((hk + hz) / np.sqrt(2.0), 2.0 * quarter)
    assert_unitary(u)
    return EigengateForm(variant=variant, N=N, J=J, unitary=u)


def expected_phase(q: int, n: int) -> complex:
    """Phase i^(q n) carried by a q-excitation state under the eigengate."""
    return 1.0j ** (q * n)


def _overlaps(unitary: np.ndarray, targets: list):
    """(magnitudes, phases) of <target_s| U |s> for every label s."""
    dim = len(targets)
    mags = np.zeros(dim)
    phases = np.zeros(dim, dtype=complex)
    for s, target in enumerate(targets):
        amp = complex(target.conj() @ unitary[:, s])
        mags[s] = abs(amp)
        phases[s] = amp / abs(amp) if abs(amp) > 0 else 0.0
    return mags, phases


def check_intertwining(gate: EigengateForm, hk: np.ndarray, hz: np.ndarray) -> float:
    """Max entry of |Hk U - U Hz|."""
    return float(np.max(np.abs(hk @ gate.unitary - gate.unitary @ hz)))


def rotation_checks(N: int, J: float, thetas) -> tuple:
    """(so(3) residuals, BCH rotation residuals) of the angular-momentum
    triple Lx = Hk/J, Lz = Hz/J, Ly = -i[Lz, Lx] on the full 2^N space.

    The so(3) residuals, keyed xy_z, yz_x and zx_y, are the largest entries
    of [Lx, Ly] - i Lz and its cyclic permutations.  The BCH residual at
    each theta is that of the rotation identity for conjugation by the
    combined pulse: exp(-i Lh theta) Lz exp(+i Lh theta) should equal
    sin^2(theta/2) Lx - (sin theta / sqrt 2) Ly + cos^2(theta/2) Lz,
    with Lh = (Lx + Lz)/sqrt(2).  One diagonalization of Lh serves every
    theta.
    """
    lx = build_hk(krawtchouk_chain(N, J)) / J
    lz = build_hz(N, J) / J
    ly = -1.0j * (lz @ lx - lx @ lz)
    comm = lambda a, b: a @ b - b @ a
    so3 = {
        "xy_z": float(np.max(np.abs(comm(lx, ly) - 1.0j * lz))),
        "yz_x": float(np.max(np.abs(comm(ly, lz) - 1.0j * lx))),
        "zx_y": float(np.max(np.abs(comm(lz, lx) - 1.0j * ly))),
    }
    rotations = expm_hermitian_times((lx + lz) / np.sqrt(2.0), thetas)
    return so3, [_bch_residual(theta, u, lx, ly, lz) for theta, u in zip(thetas, rotations)]


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
    the phase table and its largest deviation from i^(q n).
    """
    n = N - 1
    basis = build_basis(n, J)
    # the chain eigenstate with the same occupied modes as s, for every label s
    targets = [eigenstate_vector(basis, occupied_sites(s, N)) for s in range(2**N)]
    report = {"N": N, "variants": {}}
    for variant in VARIANTS:
        gate = build_eigengate(N, J, variant)
        mags, phases = _overlaps(gate.unitary, targets)
        dev = max(
            abs(phases[s] - expected_phase(bin(s).count("1"), n))
            for s in range(2**N)
        )
        report["variants"][variant] = {
            "gate": gate,
            "min_overlap": float(mags.min()),
            "phases": phases,
            "max_phase_deviation": float(dev),
        }
    three_step, single_pulse = (report["variants"][v]["gate"].unitary for v in VARIANTS)
    report["entrywise_difference"] = float(np.max(np.abs(three_step - single_pulse)))
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
    if hop is None:
        if spec is None:
            spec = krawtchouk_chain(N, J)
        hop = single_particle_hopping(spec)
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
    once; every element equals the error of its seed on its own.
    """
    spec = krawtchouk_chain(N, J, noise_eps=eps)
    hop = hopping_matrices(spec.couplings * (1.0 + coupling_noises(N, eps, seeds)))
    u_exact = eigengate_single_particle(N, J, "three_step")
    u_noisy = eigengate_single_particle(N, J, "three_step", hop=hop)
    return free_fermion_trace_error(u_exact, u_noisy)

