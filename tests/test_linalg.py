"""Tests for dense linear-algebra helpers and basis conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchain.linalg import (
    PAULI_X,
    assert_hermitian,
    assert_unitary,
    basis_index,
    expm_hermitian,
    expm_hermitian_times,
    max_column_distance,
    sector_indices,
    tensor_embed,
    trace_error,
)

from dense_reference import PAULI_Y, PAULI_Z, SIGMA_MINUS, SIGMA_PLUS, basis_state, occupied_sites


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2.0


def test_pauli_algebra():
    assert np.allclose(PAULI_X @ PAULI_Y - PAULI_Y @ PAULI_X, 2j * PAULI_Z)
    assert np.allclose(SIGMA_PLUS, (PAULI_X + 1j * PAULI_Y) / 2.0)
    assert np.allclose(SIGMA_MINUS, SIGMA_PLUS.conj().T)
    # sigma^- creates an excitation: |0> -> |1> with our |1> = (0, 1)^T layout
    ket0 = np.array([1.0, 0.0])
    assert np.allclose(SIGMA_MINUS @ ket0, [0.0, 1.0])
    assert np.allclose(SIGMA_PLUS @ np.array([0.0, 1.0]), ket0)


def test_basis_index_leftmost_is_most_significant():
    assert basis_index("100") == 4
    assert basis_index("001") == 1
    assert basis_index("1100") == 12
    assert basis_index([1, 0, 0]) == 4
    assert basis_index((0, 1, 1, 0)) == 6


@pytest.mark.parametrize("index, nqubits, bits", [(12, 4, (1, 1, 0, 0)), (1, 3, (0, 0, 1)), (0, 2, (0, 0))])
def test_bits_of_index(index, nqubits, bits):
    assert len(bits) == nqubits
    assert basis_index(bits) == index


@given(st.integers(min_value=0, max_value=255))
def test_bits_index_round_trip(index):
    assert basis_index(format(index, "08b")) == index


def test_basis_state_from_string_and_index():
    vec = basis_state("0110", 4)
    assert vec.shape == (16,)
    assert vec[6] == 1.0 and np.count_nonzero(vec) == 1
    assert np.array_equal(basis_state(6, 4), vec)


def test_occupied_sites():
    assert occupied_sites(basis_index("0110"), 4) == (1, 2)
    assert occupied_sites(0, 4) == ()
    assert occupied_sites(15, 4) == (0, 1, 2, 3)


def test_sector_indices_partition_space():
    assert sector_indices(3, 0).tolist() == [0]
    assert sector_indices(3, 1).tolist() == [1, 2, 4]
    merged = np.concatenate([sector_indices(5, w) for w in range(6)])
    assert sorted(merged.tolist()) == list(range(32))


def test_sector_indices_are_one_shared_read_only_array():
    states = sector_indices(6, 2)
    assert sector_indices(6, 2) is states
    with pytest.raises(ValueError, match="read-only"):
        states[0] = 1


@pytest.mark.parametrize("N", range(2, 13))
def test_sector_complement_is_partner_sector_reversed(N):
    # flipping every bit maps sector q onto sector N-q in reverse order,
    # which the protocol's particle-hole pairing relies on
    full = 2**N - 1
    for q in range(N + 1):
        assert np.array_equal(full ^ sector_indices(N, q), sector_indices(N, N - q)[::-1])


def test_tensor_embed_single_site():
    ident = np.eye(2)
    assert np.allclose(tensor_embed(PAULI_X, (0,), 2), np.kron(PAULI_X, ident))
    assert np.allclose(tensor_embed(PAULI_X, (1,), 2), np.kron(ident, PAULI_X))


def test_tensor_embed_disjoint_supports_commute():
    lhs = tensor_embed(np.kron(SIGMA_PLUS, SIGMA_MINUS), (0, 2), 3)
    rhs = tensor_embed(SIGMA_PLUS, (0,), 3) @ tensor_embed(SIGMA_MINUS, (2,), 3)
    assert np.allclose(lhs, rhs)


def test_tensor_embed_site_order_matters():
    block = np.kron(SIGMA_PLUS, SIGMA_MINUS)
    reversed_sites = tensor_embed(block, (2, 0), 3)
    expected = tensor_embed(SIGMA_PLUS, (2,), 3) @ tensor_embed(SIGMA_MINUS, (0,), 3)
    assert np.allclose(reversed_sites, expected)


def test_expm_hermitian_sign_convention():
    # exp(-i t H) with H = Z, t = pi/2 sends |0> -> -i|0>
    u = expm_hermitian(PAULI_Z, np.pi / 2.0)
    assert np.allclose(np.diag(u), [-1j, 1j])


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=6))
@settings(max_examples=25, deadline=None)
def test_expm_hermitian_is_unitary_group_action(seed, dim):
    local = np.random.default_rng(seed)
    ham = random_hermitian(local, dim)
    u1 = expm_hermitian(ham, 0.3)
    u2 = expm_hermitian(ham, 1.1)
    assert_unitary(u1)
    assert np.allclose(u1 @ u2, expm_hermitian(ham, 1.4), atol=1e-12)


def test_hermiticity_checks(rng):
    ham = random_hermitian(rng, 4)
    assert_hermitian(ham)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(bad)


def test_assert_unitary_rejects_projector():
    with pytest.raises(ValueError):
        assert_unitary(np.ones((2, 2)))


def test_trace_error_global_phase_invariant(rng):
    u = expm_hermitian(random_hermitian(rng, 8))
    assert trace_error(u, u) < 1e-15
    assert trace_error(u, np.exp(0.7j) * u) < 1e-14
    # orthogonal unitaries saturate the metric
    assert abs(trace_error(np.eye(2), PAULI_X) - 1.0) < 1e-15


def test_column_metrics(rng):
    a = expm_hermitian(random_hermitian(rng, 4))
    assert abs(trace_error(a, a)) < 1e-14
    assert max_column_distance(a, a) == 0.0
    b = a.copy()
    b[:, 2] += 1e-3
    assert abs(max_column_distance(a, b) - np.linalg.norm(b[:, 2] - a[:, 2])) < 1e-15


def test_expm_hermitian_stack_matches_each_matrix_bitwise(rng):
    stack = np.array([random_hermitian(rng, 5) for _ in range(7)])
    batched = expm_hermitian(stack, 0.8)
    assert batched.shape == stack.shape
    for ham, u in zip(stack, batched):
        assert np.array_equal(u, expm_hermitian(ham, 0.8))
    real = stack.real + np.swapaxes(stack.real, -1, -2)
    for ham, u in zip(real, expm_hermitian(real, 1.3)):
        assert np.array_equal(u, expm_hermitian(ham, 1.3))


def test_expm_hermitian_stack_rejects_any_non_hermitian_member(rng):
    stack = np.array([random_hermitian(rng, 3) for _ in range(4)])
    stack[2, 0, 1] += 0.5
    with pytest.raises(ValueError):
        expm_hermitian(stack)



def test_expm_hermitian_times_match_scalar_calls_bitwise(rng):
    times = [0.0, 0.8, -1.3, np.pi]
    for dim in (3, 16, 64):
        ham = random_hermitian(rng, dim)
        got = list(expm_hermitian_times(ham, times))
        assert len(got) == len(times)
        for t, u in zip(times, got):
            assert np.array_equal(u, expm_hermitian(ham, t))
    stack = np.array([random_hermitian(rng, 5) for _ in range(3)])
    for t, u in zip(times, expm_hermitian_times(stack, times)):
        assert u.shape == stack.shape
        assert np.array_equal(u, expm_hermitian(stack, t))
