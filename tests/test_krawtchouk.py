"""Tests for Krawtchouk mode data: transform matrix, minors, matrix elements."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchain.hamiltonians import chain_block, chain_hops, drive_layout, krawtchouk_chain
from kchain.krawtchouk import (
    build_basis,
    conjugate_phase,
    eigenstate_vector,
    int_det,
    kmatrix,
    kminor_det,
    krawtchouk_poly,
    m1_closed_form,
    m2_closed_form,
    manybody_energy,
    meixner_identity_check,
    phi_minor_exact,
)
from kchain.linalg import tensor_embed

from dense_reference import SIGMA_MINUS, SIGMA_PLUS, matrix_element_bruteforce


def brute_m2(n, j):
    """Independent two-site transition element via dense operators."""
    N = n + 1
    d = (n + 1) // 2
    basis = build_basis(n)
    lower = tuple(range(N // 2))
    upper = tuple(range(N // 2, N))
    op = tensor_embed(SIGMA_MINUS, (j,), N) @ tensor_embed(SIGMA_PLUS, (j + d,), N)
    return matrix_element_bruteforce(basis, lower, op, upper)


def test_polynomial_table_small():
    # K_k(x; n) over x for n = 3, exact integers
    assert [krawtchouk_poly(3, 0, x) for x in range(4)] == [1, 1, 1, 1]
    assert [krawtchouk_poly(3, 1, x) for x in range(4)] == [3, 1, -1, -3]
    assert [krawtchouk_poly(3, 2, x) for x in range(4)] == [3, -1, -1, 3]
    assert [krawtchouk_poly(3, 3, x) for x in range(4)] == [1, -1, 1, -1]
    assert np.array_equal(kmatrix(3), [[1, 1, 1, 1], [3, 1, -1, -3], [3, -1, -1, 3], [1, -1, 1, -1]])


@pytest.mark.parametrize("n", range(1, 14))
def test_phi_orthogonal_and_symmetric(n):
    basis = build_basis(n)
    phi = basis.phi
    assert np.max(np.abs(phi @ phi.T - np.eye(n + 1))) < 1e-12
    assert np.max(np.abs(phi - phi.T)) < 1e-12


@pytest.mark.parametrize("n", range(1, 14))
def test_spectrum_is_linear_ladder(n):
    basis = build_basis(n)
    assert np.allclose(basis.lambdas, [k - n / 2.0 for k in range(n + 1)], atol=0)
    hop = np.diag(krawtchouk_chain(n + 1).couplings, 1)
    hop = hop + hop.T
    assert np.max(np.abs(hop @ basis.phi.T - basis.phi.T @ np.diag(basis.lambdas))) < 1e-12


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_int_det_matches_float_det(seed, dim):
    mat = np.random.default_rng(seed).integers(-9, 10, size=(dim, dim))
    exact = int_det(mat.tolist())
    assert exact == round(np.linalg.det(mat.astype(float)))


def test_kminor_power_identities():
    # determinant of K restricted to the closed lower half {0..n/2}
    closed = [kminor_det(n, range(n // 2 + 1), range(n // 2 + 1)) for n in (2, 4, 6, 8)]
    assert closed == [(-2) ** (n * (n + 2) // 8) for n in (2, 4, 6, 8)] == [-2, -8, 64, 1024]
    # and to the open half {0..n/2-1}
    open_half = [kminor_det(n, range(n // 2), range(n // 2)) for n in (2, 4, 6, 8)]
    assert open_half == [(-2) ** (n * (n - 2) // 8) for n in (2, 4, 6, 8)] == [1, -2, -8, 64]


def test_phi_entries_normalize_kmatrix():
    # phi_{k,x} = K_k(x) 2^(-n/2) sqrt(C(n,x)/C(n,k)), symmetric by duality
    for n in (3, 5):
        phi = build_basis(n).phi
        kmat = kmatrix(n)
        for k in range(n + 1):
            for x in range(n + 1):
                norm = 2.0 ** (-n / 2.0) * math.sqrt(math.comb(n, x) / math.comb(n, k))
                assert phi[k, x] == pytest.approx(kmat[k, x] * norm, abs=1e-13)


def test_phi_minor_exact_matches_float_determinant():
    n = 5
    rows, cols = (0, 1, 2), (1, 2, 4)
    direct = np.linalg.det(build_basis(n).phi[np.ix_(rows, cols)])
    assert phi_minor_exact(n, rows, cols) == pytest.approx(direct, abs=1e-12)
    assert kminor_det(n, rows, cols) == -24


def test_m1_frozen_values():
    res = m1_closed_form(2)
    assert res.power_form == pytest.approx(-0.5, abs=1e-15)
    assert res.minor_form == pytest.approx(-0.5, abs=1e-15)
    res = m1_closed_form(4)
    assert res.power_form == pytest.approx(1.0 / 16.0, abs=1e-15)
    assert res.minor_form == pytest.approx(res.power_form, abs=1e-15)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_m1_matches_brute_force(n):
    # center-site creation element between the closed lower sea {0..n/2}
    # and the strict upper sea {n/2+1..n}
    N = n + 1
    basis = build_basis(n)
    bra = tuple(range(n // 2 + 1))
    ket = tuple(range(n // 2 + 1, n + 1))
    op = tensor_embed(SIGMA_MINUS, (n // 2,), N)
    brute = matrix_element_bruteforce(basis, bra, op, ket)
    assert abs(brute.imag) < 1e-14
    assert m1_closed_form(n).power_form == pytest.approx(brute.real, abs=1e-12)


M2_FROZEN = {
    (3, 0): 0.21650635094610957,  # sqrt(3)/8
    (3, 1): 0.21650635094610957,
    (5, 0): -0.024705294220065465,
    (5, 1): 0.078125,  # 5/64
    (5, 2): -0.024705294220065465,
    (7, 0): 0.0007221777078979,
    (7, 1): 0.007400119417103357,
    (7, 2): 0.007400119417103357,
    (7, 3): 0.0007221777078979,
}


@pytest.mark.parametrize("n, j", sorted(M2_FROZEN))
def test_m2_frozen_values(n, j):
    assert m2_closed_form(n, j) == pytest.approx(M2_FROZEN[(n, j)], abs=1e-12)


def test_m2_sqrt3_over_8_exact():
    assert m2_closed_form(3, 0) == pytest.approx(math.sqrt(3) / 8.0, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_m2_closed_matches_brute_force(n):
    d = (n + 1) // 2
    for j in range(n + 1 - d):
        brute = brute_m2(n, j)
        assert abs(brute.imag) < 1e-13
        assert m2_closed_form(n, j) == pytest.approx(brute.real, abs=1e-12)


@pytest.mark.parametrize("n", [3, 5])
def test_m2_reversed_element_is_conjugate_with_parity(n):
    # swapping bra and ket for the same operator multiplies by (-1)^(N/2)
    N = n + 1
    d = (n + 1) // 2
    basis = build_basis(n)
    lower = tuple(range(N // 2))
    upper = tuple(range(N // 2, N))
    op = tensor_embed(SIGMA_MINUS, (0,), N) @ tensor_embed(SIGMA_PLUS, (d,), N)
    fwd = matrix_element_bruteforce(basis, lower, op, upper)
    rev = matrix_element_bruteforce(basis, upper, op, lower)
    assert rev == pytest.approx(conjugate_phase(N) * fwd, abs=1e-13)
    # hermiticity sanity: the adjoint operator reproduces fwd exactly
    adj = matrix_element_bruteforce(basis, upper, op.conj().T, lower)
    assert adj == pytest.approx(np.conj(fwd), abs=1e-13)


def test_conjugate_phase_and_driving_sign():
    assert [conjugate_phase(N) for N in (2, 4, 6, 8)] == [-1, 1, -1, 1]
    # the drive's sign (drive_layout) at the chain sizes a run takes
    assert [drive_layout(N)[0] for N in (4, 6, 8, 10)] == ["+", "-", "+", "-"]


@pytest.mark.parametrize("n", range(2, 10))
def test_meixner_identity(n):
    assert meixner_identity_check(n) < 1e-9


def test_manybody_energies_and_gap():
    basis = build_basis(5)
    assert manybody_energy(basis, (0, 1, 2)) == pytest.approx(-4.5)
    assert manybody_energy(basis, (3, 4, 5)) == pytest.approx(4.5)
    # N^2 / 4 gap between half seas
    for N in (4, 6, 8):
        b = build_basis(N - 1)
        gap = manybody_energy(b, range(N // 2, N)) - manybody_energy(b, range(N // 2))
        assert gap == pytest.approx(N**2 / 4.0)


@pytest.mark.parametrize("N", [4, 6])
def test_eigenstate_vectors_diagonalize_chain(N):
    basis = build_basis(N - 1)
    ham = chain_block(krawtchouk_chain(N), chain_hops(N))
    for q in (1, N // 2):
        for modes in list(combinations(range(N), q))[:6]:
            vec = eigenstate_vector(basis, modes)
            assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
            energy = manybody_energy(basis, modes)
            assert np.linalg.norm(ham @ vec - energy * vec) < 1e-11


# decay constant c2 = 2^(3/4) 3^(-9/16) of the centred two-site element
C2_ASYMPTOTIC = 2.0**0.75 * 3.0 ** (-9.0 / 16.0)


def m2_asymptotic_probe(n_list):
    """Super-exponential decay table for the two-site element at j = (n-1)/4.

    Each row is (n, M2, |M2| / c2^(n^2)); the third column varying
    sub-exponentially in n is the decay signature.  Requires n = 1 mod 4 so
    that j = (n-1)/4 is an integer.
    """
    rows = []
    for n in n_list:
        if n % 4 != 1:
            raise ValueError("need n = 1 mod 4 for the centered element")
        m2 = m2_closed_form(n, (n - 1) // 4)
        rows.append((n, m2, abs(m2) / C2_ASYMPTOTIC ** (n * n)))
    return rows


def test_asymptotic_probe_frozen_rows():
    rows = m2_asymptotic_probe([5, 9, 13])
    assert [r[0] for r in rows] == [5, 9, 13]
    assert rows[0][1] == pytest.approx(5.0 / 64.0, abs=1e-14)
    assert rows[1][1] == pytest.approx(-0.000560760498046875, abs=1e-15)
    assert rows[2][1] == pytest.approx(1.7704110177874097e-07, rel=1e-10)
    # raw elements decay super-exponentially while the rescaled column stays O(1)
    assert abs(rows[2][1]) < 1e-6
    for _, _, scaled in rows:
        assert 0.5 < scaled < 5.0


def test_asymptotic_probe_rejects_misaligned_n():
    with pytest.raises(ValueError):
        m2_asymptotic_probe([7])


def _eigenstate_by_minor_loop(basis, modes):
    """Reference route: one 2-D det per site subset."""
    N = basis.n + 1
    vec = np.zeros(2**N)
    if not modes:
        vec[0] = 1.0
        return vec
    rows = basis.phi[list(modes), :]
    for xs in combinations(range(N), len(modes)):
        index = sum(1 << (N - 1 - x) for x in xs)
        vec[index] = float(np.linalg.det(rows[:, list(xs)]))
    return vec


@pytest.mark.parametrize("N", range(2, 9))
def test_stacked_eigenstate_equals_minor_loop_exactly(N):
    basis = build_basis(N - 1)
    for q in range(N + 1):
        for modes in combinations(range(N), q):
            got = eigenstate_vector(basis, modes)
            assert got.dtype == np.float64
            assert np.array_equal(got, _eigenstate_by_minor_loop(basis, modes))
