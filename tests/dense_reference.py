"""Dense 2^N x 2^N references for the sector-wise eigengate, rotation, PST
and GHZ oracles, and the dense single-qubit operators, basis states and
matrix elements the tests check the library against.

Each dense function builds the full many-body operators and works on them
directly, as the oracles did before they were reduced to the excitation
sectors; the tests bound the sector routes against these.  The per-point
noisy eigengate errors the fig3 sweep is checked against, and the
single-pulse gate's single-particle matrix, are here too.
"""

import dataclasses
import math

import numpy as np

from kchain.eigengate import VARIANTS, coupling_noise_errors, eigengate_single_particle, expected_phase
from kchain.hamiltonians import (
    chain_block,
    chain_hops,
    coupling_noises,
    hopping_matrices,
    hz_diagonal,
    krawtchouk_chain,
)
from kchain.krawtchouk import build_basis, eigenstate_vector
from kchain.linalg import PAULI_X, assert_unitary, basis_index, expm_hermitian, tensor_embed

# Single-qubit operators in the |0>, |1> basis.  |1> is the excited state;
# SIGMA_MINUS creates it (|0> -> |1>) and SIGMA_PLUS removes it.
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = 0.5 * (PAULI_X + 1.0j * PAULI_Y)
SIGMA_MINUS = 0.5 * (PAULI_X - 1.0j * PAULI_Y)


def basis_state(bits_or_index, nqubits: int) -> np.ndarray:
    """Unit state vector for a bitstring (iterable/str) or basis index."""
    if isinstance(bits_or_index, (int, np.integer)):
        idx = int(bits_or_index)
    else:
        idx = basis_index(int(b) for b in bits_or_index)
    vec = np.zeros(2**nqubits, dtype=complex)
    vec[idx] = 1.0
    return vec


def occupied_sites(index: int, nqubits: int):
    """Ascending tuple of excited qubit positions in a basis state."""
    return tuple(x for x in range(nqubits) if (index >> (nqubits - 1 - x)) & 1)


def matrix_element_bruteforce(basis, bra_modes, op, ket_modes) -> complex:
    """<bra| op |ket> with both states built as dense eigenstate vectors."""
    bra = eigenstate_vector(basis, bra_modes)
    ket = eigenstate_vector(basis, ket_modes)
    if op.shape != (bra.size, bra.size):
        raise ValueError("operator dimension mismatch")
    return complex(bra.conj() @ (op @ ket))


def dense_unit_drive(N, sign, pairs):
    """The unit drive on the pairs (j, j + N/2), j in pairs, with sign, as a
    sum of dense embeds: sum_j [sp_j sm_{j+N/2} + sm_j sp_{j+N/2}] under '+'
    and i times the difference under '-'.  hamiltonians.unit_drive(N) is the
    layout drive_layout(N); the drive tests build any other with this."""
    s = 1.0 if sign == "+" else -1.0
    amp = 1.0 if sign == "+" else 1.0j
    d = N // 2
    return sum(
        amp * (tensor_embed(np.kron(SIGMA_PLUS, SIGMA_MINUS), [j, j + d], N)
               + s * tensor_embed(np.kron(SIGMA_MINUS, SIGMA_PLUS), [j, j + d], N))
        for j in pairs
    )


# the largest entrywise gap allowed between a sector route and its reference
SECTOR_TOL = 1e-13


def dense_eigengate(N, variant="three_step", spec=None):
    """The eigengate as one 2^N x 2^N exponential (the diagonal pulses as
    dense diagonal matrices)."""
    if spec is None:
        spec = krawtchouk_chain(N)
    hk, hz = chain_block(spec, chain_hops(N)), np.diag(hz_diagonal(N))
    quarter = np.pi / 2.0
    if variant == "three_step":
        ez = np.diag(np.exp(-1.0j * hz_diagonal(N) * quarter))
        u = ez @ expm_hermitian(hk, quarter) @ ez
    else:
        u = expm_hermitian((hk + hz) / np.sqrt(2.0), 2.0 * quarter)
    assert_unitary(u)
    return u


def noisy_eigengate_errors(N, eps, seeds):
    """Trace errors of noisy three-step gates against the clean one, per seed.

    Each seed draws its couplings as krawtchouk_chain(N, eps, seed)
    does, all seeds in one stack (coupling_noises), so seeds are ints in
    [0, 2^64).  The noisy gates are built and scored as one stack against
    a clean gate computed once (coupling_noise_errors).
    """
    spec = krawtchouk_chain(N)
    u_exact = eigengate_single_particle(N)
    return coupling_noise_errors(u_exact, spec, coupling_noises(N, eps, seeds))


def single_pulse_single_particle(N):
    """(N x N) single-particle matrix of the single-pulse eigengate,
    exp(-i pi (hop + Hz)/sqrt(2)) on the clean chain's one-excitation
    sector."""
    zdiag = np.arange(N) - (N - 1) / 2.0
    hop = hopping_matrices(krawtchouk_chain(N).couplings)
    return expm_hermitian((hop + np.diag(zdiag)) / np.sqrt(2.0), math.pi)


def dense_intertwining(u, N):
    """Max entry of |Hk U - U Hz| with the dense clean chain and dual."""
    hk, hz = chain_block(krawtchouk_chain(N), chain_hops(N)), np.diag(hz_diagonal(N))
    return float(np.max(np.abs(hk @ u - u @ hz)))


def dense_rotation_checks(N, thetas):
    """eigengate_report's so(3) residuals and BCH residuals (one per angle)
    on the dense triple, one exponential per angle."""
    lx = chain_block(krawtchouk_chain(N), chain_hops(N))
    lz = np.diag(hz_diagonal(N))
    ly = -1.0j * (lz @ lx - lx @ lz)
    residual = lambda a, b, c: float(np.max(np.abs(a @ b - b @ a - 1.0j * c)))
    so3 = {"xy_z": residual(lx, ly, lz), "yz_x": residual(ly, lz, lx), "zx_y": residual(lz, lx, ly)}
    bch = []
    for theta in thetas:
        u = expm_hermitian((lx + lz) / np.sqrt(2.0), theta)
        rhs = (
            np.sin(theta / 2.0) ** 2 * lx
            - (np.sin(theta) / np.sqrt(2.0)) * ly
            + np.cos(theta / 2.0) ** 2 * lz
        )
        bch.append(float(np.max(np.abs(u @ lz @ u.conj().T - rhs))))
    return so3, bch


def dense_compare_forms(N):
    """eigengate_report's mapping and phase scores of both variants and
    their entrywise difference, from dense gates, each label scored
    against its own 2^N eigenstate_vector.  Each variant also keeps its
    dense unitary and phase table."""
    n = N - 1
    basis = build_basis(n)
    targets = [eigenstate_vector(basis, occupied_sites(s, N)) for s in range(2**N)]
    report = {"N": N, "variants": {}}
    for variant in VARIANTS:
        u = dense_eigengate(N, variant)
        amps = np.array([complex(t.conj() @ u[:, s]) for s, t in enumerate(targets)])
        phases = amps / np.abs(amps)
        dev = max(abs(phases[s] - expected_phase(bin(s).count("1"), n)) for s in range(2**N))
        report["variants"][variant] = {
            "unitary": u,
            "min_overlap": float(np.abs(amps).min()),
            "phases": phases,
            "max_phase_deviation": float(dev),
        }
    three, single = (report["variants"][v]["unitary"] for v in VARIANTS)
    report["entrywise_difference"] = float(np.max(np.abs(three - single)))
    return report


def dense_pst_amplitude(N, bits):
    """<mirror(bits)| exp(-i pi Hk) |bits> from the 2^N propagator."""
    u = expm_hermitian(chain_block(krawtchouk_chain(N), chain_hops(N)), math.pi)
    return complex(u[basis_index(list(reversed(bits))), basis_index(bits)])


def dense_ghz_demo(N, couplings=None):
    """ghz_demo's fidelity from the 2^N state and a dense product of the
    N single-qubit rotations."""
    spec = krawtchouk_chain(N)
    if couplings is not None:
        spec = dataclasses.replace(spec, couplings=tuple(couplings))
    dim = 2**N
    psi = expm_hermitian(chain_block(spec, chain_hops(N)), math.pi) @ np.full(dim, dim**-0.5, dtype=complex)
    rot = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)  # exp(-i pi X/4)
    full = np.array([[1.0 + 0.0j]])
    for _ in range(N):
        full = np.kron(full, rot)
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[dim - 1] = 1.0 / math.sqrt(2.0)
    return float(abs(np.vdot(ghz, full @ psi)) ** 2)
