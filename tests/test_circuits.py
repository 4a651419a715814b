"""Tests for gate constructions built from the resonant N-site swap."""

import numpy as np
import pytest

from kchain.circuits import (
    HADAMARD,
    S_GATE,
    cns_decomposition,
    cns_unitary,
    ctrl_iswap2_circuit,
    ctrl_iswap2_target,
    ctrl_x_circuit,
    ctrl_x_target,
    iswap2,
    phase_gate,
    scn_unitary,
    verify_ctrl_iswap2_circuit,
    verify_ctrl_x_circuit,
)
from kchain.driving import ProtocolParams, iswap_target, run_iswap_protocol
from kchain.linalg import PAULI_X, assert_unitary, basis_index

from dense_reference import basis_state


def test_iswap2_matrix():
    u = iswap2()
    assert u[basis_index("10"), basis_index("01")] == 1j
    assert u[basis_index("01"), basis_index("10")] == 1j
    assert u[0, 0] == 1 and u[3, 3] == 1
    # generated by the two-site hopping block
    xx_yy = np.zeros((4, 4), dtype=complex)
    xx_yy[1, 2] = xx_yy[2, 1] = 2.0
    from scipy.linalg import expm

    assert np.max(np.abs(u - expm(1j * np.pi / 4.0 * xx_yy))) < 1e-14


def test_cns_truth_table():
    u = cns_unitary()
    table = {"00": "00", "01": "10", "10": "11", "11": "01"}
    for src, dst in table.items():
        col = u @ basis_state(src, 2)
        assert np.allclose(col, basis_state(dst, 2)), (src, dst)
    assert np.allclose(scn_unitary(), u.conj().T)


def test_cns_decomposes_into_iswap_and_single_qubit_gates():
    assert np.max(np.abs(cns_decomposition() - cns_unitary())) < 1e-14


def test_phase_gate_is_squared_swap():
    for N in (4, 6):
        target = iswap_target(N)
        pg = phase_gate(N)
        assert np.allclose(pg, target @ target)
        a = basis_index("1" * (N // 2) + "0" * (N // 2))
        b = basis_index("0" * (N // 2) + "1" * (N // 2))
        diag = np.diag(pg)
        assert diag[a] == -1 and diag[b] == -1
        assert np.sum(diag) == 2**N - 4


# ----------------------------------------------------------- gate matrices


def test_primitive_blocks_are_unitary():
    # every gate the constructions multiply together
    for block in (PAULI_X, HADAMARD, S_GATE.conj().T, iswap2(), cns_unitary(), scn_unitary()):
        assert_unitary(block, tol=1e-12)
    for N in (4, 6):
        assert_unitary(iswap_target(N), tol=1e-12)
        assert_unitary(phase_gate(N), tol=1e-12)


# ----------------------------------------------------- composite gate checks


@pytest.mark.parametrize("N", [4, 6])
def test_ctrl_x_construction_exact(N):
    assert verify_ctrl_x_circuit(N) < 1e-10
    u = ctrl_x_circuit(N)
    target = ctrl_x_target(N)
    cols = [i for i in range(2**N) if not (i & 1)]  # ancilla qubit N-1 in |0>
    assert np.max(np.abs(u[:, cols] - target[:, cols])) < 1e-10


def test_ctrl_x_target_truth_table():
    N = 4
    target = ctrl_x_target(N)
    # X on qubit N-2 iff all of 0..N-3 are excited, ancilla untouched
    assert np.allclose(target @ basis_state("1100", N), basis_state("1110", N))
    assert np.allclose(target @ basis_state("1110", N), basis_state("1100", N))
    assert np.allclose(target @ basis_state("0100", N), basis_state("0100", N))


@pytest.mark.parametrize("N", [4, 6])
def test_ctrl_iswap2_construction_exact(N):
    assert verify_ctrl_iswap2_circuit(N) < 1e-10


def test_ctrl_iswap2_walk_and_inert_states():
    N = 6
    u = ctrl_iswap2_circuit(N)
    # fix the global phase on a state the gate must leave alone
    inert = basis_index("111111")
    phase = u[inert, inert]
    assert abs(phase) == pytest.approx(1.0, abs=1e-10)
    u = u / phase
    src, dst = basis_index("111101"), basis_index("111110")
    assert np.max(np.abs(u[:, src] - 1j * basis_state(dst, N))) < 1e-10
    assert np.max(np.abs(u[:, dst] - 1j * basis_state(src, N))) < 1e-10
    # control not satisfied: nothing moves
    for bits in ("011101", "000000", "101010"):
        idx = basis_index(bits)
        assert abs(abs(u[idx, idx]) - 1.0) < 1e-10


def test_ctrl_iswap2_target_structure():
    N = 4
    target = ctrl_iswap2_target(N)
    src, dst = basis_index("1101"), basis_index("1110")
    assert target[dst, src] == 1j and target[src, dst] == 1j
    rest = np.delete(np.arange(16), [src, dst])
    assert np.array_equal(target[np.ix_(rest, rest)], np.eye(14))


def test_simulated_swap_slots_into_circuits():
    N = 4
    res = run_iswap_protocol(ProtocolParams(N=N, M=1))
    dev = verify_ctrl_iswap2_circuit(N, ctrl_iswap2_circuit(N, iswap_n=res.unitary))
    assert dev < 5e-3
    assert dev > 1e-7  # the simulated gate is good but not exact
