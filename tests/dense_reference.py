"""Dense 2^N x 2^N references for the sector-wise eigengate, rotation, PST
and GHZ oracles.

Each function builds the full many-body operators and works on them
directly, as the oracles did before they were reduced to the excitation
sectors; the tests bound the sector routes against these.
"""

import dataclasses
import math

import numpy as np

from kchain.eigengate import VARIANTS, expected_phase
from kchain.hamiltonians import build_hk, build_hz, hz_diagonal, krawtchouk_chain
from kchain.krawtchouk import build_basis, eigenstate_vector
from kchain.linalg import assert_unitary, basis_index, expm_hermitian, occupied_sites

# the largest entrywise gap allowed between a sector route and its reference
SECTOR_TOL = 1e-13


def dense_eigengate(N, J, variant="three_step", spec=None):
    """The eigengate as one 2^N x 2^N exponential (the diagonal pulses as
    dense diagonal matrices)."""
    if spec is None:
        spec = krawtchouk_chain(N, J)
    hk, hz = build_hk(spec), build_hz(N, J)
    quarter = np.pi / (2.0 * J)
    if variant == "three_step":
        ez = np.diag(np.exp(-1.0j * hz_diagonal(N, J) * quarter))
        u = ez @ expm_hermitian(hk, quarter) @ ez
    else:
        u = expm_hermitian((hk + hz) / np.sqrt(2.0), 2.0 * quarter)
    assert_unitary(u)
    return u


def dense_intertwining(u, N, J):
    """Max entry of |Hk U - U Hz| with the dense clean chain and dual."""
    hk, hz = build_hk(krawtchouk_chain(N, J)), build_hz(N, J)
    return float(np.max(np.abs(hk @ u - u @ hz)))


def dense_rotation_checks(N, J, thetas):
    """rotation_checks' (so(3), BCH) residuals on the dense triple, one
    exponential per angle."""
    lx = build_hk(krawtchouk_chain(N, J)) / J
    lz = build_hz(N, J) / J
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


def dense_compare_forms(N, J=1.0):
    """compare_forms' report from dense gates, each label scored against
    its own 2^N eigenstate_vector."""
    n = N - 1
    basis = build_basis(n, J)
    targets = [eigenstate_vector(basis, occupied_sites(s, N)) for s in range(2**N)]
    report = {"N": N, "variants": {}}
    for variant in VARIANTS:
        u = dense_eigengate(N, J, variant)
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


def dense_pst_amplitude(N, bits, J=1.0):
    """<mirror(bits)| exp(-i pi Hk / J) |bits> from the 2^N propagator."""
    u = expm_hermitian(build_hk(krawtchouk_chain(N, J)), math.pi / J)
    return complex(u[basis_index(list(reversed(bits))), basis_index(bits)])


def dense_ghz_demo(N, J=1.0, couplings=None):
    """ghz_demo's fidelity from the 2^N state and a dense product of the
    N single-qubit rotations."""
    spec = krawtchouk_chain(N, J)
    if couplings is not None:
        spec = dataclasses.replace(spec, couplings=tuple(couplings))
    dim = 2**N
    psi = expm_hermitian(build_hk(spec), math.pi / J) @ np.full(dim, dim**-0.5, dtype=complex)
    rot = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)  # exp(-i pi X/4)
    full = np.array([[1.0 + 0.0j]])
    for _ in range(N):
        full = np.kron(full, rot)
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[dim - 1] = 1.0 / math.sqrt(2.0)
    return float(abs(np.vdot(ghz, full @ psi)) ** 2)
