"""Tests for chain Hamiltonians: couplings, symmetry sectors, noise, driving term."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchain.hamiltonians import (
    ChainSpec,
    DrivingSpec,
    build_hk,
    build_hz,
    chain_block,
    chain_hops,
    coupling_noise,
    driving_operator,
    hopping_matrices,
    hz_diagonal,
    krawtchouk_chain,
    krawtchouk_couplings,
    single_particle_hopping,
)
from kchain.linalg import (
    PAULI_Z,
    basis_index,
    is_hermitian,
    sector_indices,
    tensor_embed,
)


def total_z(N):
    return sum(tensor_embed(PAULI_Z, (x,), N) for x in range(N))


def test_coupling_formula_values():
    # J_x = -(J/2) sqrt((x+1)(n-x))
    got = krawtchouk_couplings(3, 1.0)
    assert np.allclose(got, [-np.sqrt(3) / 2, -1.0, -np.sqrt(3) / 2])
    got = krawtchouk_couplings(5, 2.0)
    assert np.allclose(got[0], -np.sqrt(5))
    assert np.allclose(got, got[::-1])  # mirror symmetric chain


def test_chain_spec_validation():
    with pytest.raises(ValueError, match="couplings must have length N-1"):
        ChainSpec(N=4, J=1.0, couplings=np.zeros(5))
    # 4.0 would pass the length check, since (3.0,) == (3,)
    for N in (4.0, True, "4", 1):
        with pytest.raises(ValueError, match="^N must be an int >= 2"):
            ChainSpec(N=N, J=1.0, couplings=np.zeros(3))


@pytest.mark.parametrize("field", ["couplings", "J"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chain_spec_rejects_non_finite_values(field, bad):
    # a non-finite coupling scale reaches the spec through its couplings
    with pytest.raises(ValueError, match="^couplings must be finite"):
        if field == "J":
            krawtchouk_chain(4, bad)
        else:
            ChainSpec(N=4, J=1.0, couplings=[1.0, bad, 1.0])


@pytest.mark.parametrize("noise_eps", [np.nan, -0.1, 1.0, "0.1", True])
def test_krawtchouk_chain_rejects_bad_noise_eps(noise_eps):
    with pytest.raises(ValueError, match=r"^noise_eps must be a number in \[0, 1\)"):
        krawtchouk_chain(4, 1.0, noise_eps=noise_eps, seed=1)


@pytest.mark.parametrize("N", range(2, 11))
def test_chain_blocks_are_exactly_hermitian(N):
    # chain_block checks nothing: its blocks must be Hermitian bit for bit
    noisy = krawtchouk_chain(N, 1.0, noise_eps=0.05, seed=N)
    for q in range(N + 1):
        block = chain_block(noisy, chain_hops(N, sector_indices(N, q)))
        assert np.array_equal(block, block.conj().T), (N, q)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_hk_hermitian_and_u1_symmetric(N):
    ham = build_hk(krawtchouk_chain(N, 1.0))
    assert is_hermitian(ham)
    assert np.allclose(ham @ total_z(N), total_z(N) @ ham)


@pytest.mark.parametrize("N", [2, 4, 6])
def test_single_excitation_block_matches_hopping_matrix(N):
    spec = krawtchouk_chain(N, 1.3)
    ham = build_hk(spec)
    hop = single_particle_hopping(spec)
    idx = [basis_index([1 if y == x else 0 for y in range(N)]) for x in range(N)]
    assert np.allclose(ham[np.ix_(idx, idx)], hop)


def test_single_particle_spectrum_is_linear():
    for N in (4, 7, 10):
        hop = single_particle_hopping(krawtchouk_chain(N, 1.0))
        evals = np.linalg.eigvalsh(hop)
        n = N - 1
        assert np.allclose(evals, [1.0 * (k - n / 2.0) for k in range(N)], atol=1e-12)


def test_hz_diagonal_is_positional_dual_spectrum():
    # each excited site x contributes J*(x - n/2), mirroring the hopping spectrum
    diag = hz_diagonal(3, 2.0)
    assert diag[basis_index("000")] == 0.0
    assert diag[basis_index("100")] == -2.0
    assert diag[basis_index("001")] == 2.0
    assert diag[basis_index("111")] == 0.0
    assert np.allclose(build_hz(3, 2.0), np.diag(diag))
    # single-excitation values sweep the full linear ladder
    single = [hz_diagonal(4, 1.0)[basis_index([1 if y == x else 0 for y in range(4)])] for x in range(4)]
    assert np.allclose(single, [-1.5, -0.5, 0.5, 1.5])


def test_noise_free_spec_is_fixed_point():
    # without noise the seed is not read: the chain is the engineered one
    spec = krawtchouk_chain(6, 1.0, noise_eps=0.0, seed=5)
    assert np.array_equal(spec.couplings, krawtchouk_couplings(5, 1.0))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_noise_is_bounded_and_seeded(seed):
    eps = 0.05
    noisy = krawtchouk_chain(6, 1.0, noise_eps=eps, seed=seed)
    rel = noisy.couplings / krawtchouk_couplings(5, 1.0) - 1.0
    assert np.all(np.abs(rel) <= eps)
    again = krawtchouk_chain(6, 1.0, noise_eps=eps, seed=seed)
    assert np.array_equal(noisy.couplings, again.couplings)


def test_noise_draws_differ_across_seeds():
    spec_a = krawtchouk_chain(6, 1.0, noise_eps=0.05, seed=1)
    spec_b = krawtchouk_chain(6, 1.0, noise_eps=0.05, seed=2)
    assert not np.allclose(spec_a.couplings, spec_b.couplings)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_driving_operator_hermitian_and_sector_coupling(sign):
    N = 6
    op = driving_operator(DrivingSpec(j=1, d=3, sign=sign, J_D=0.8), N)
    assert is_hermitian(op)
    # moves exactly one excitation between sites j and j+d: total weight conserved
    tz = total_z(N)
    assert np.allclose(op @ tz, tz @ op)


def test_driving_operator_matrix_elements():
    N = 4
    op_plus = driving_operator(DrivingSpec(j=0, d=2, sign="+", J_D=0.5), N)
    src = basis_index("1000")  # excited at j=0, empty at j+d=2
    dst = basis_index("0010")
    assert op_plus[dst, src] == pytest.approx(0.5)
    assert op_plus[src, dst] == pytest.approx(0.5)
    op_minus = driving_operator(DrivingSpec(j=0, d=2, sign="-", J_D=0.5), N)
    assert op_minus[dst, src] == pytest.approx(0.5j)
    assert op_minus[src, dst] == pytest.approx(-0.5j)
    # spectator sites untouched: no coupling when j+d already occupied
    blocked = basis_index("1010")
    assert np.allclose(op_plus[:, blocked], 0.0)


def test_coupling_noise_is_the_draw_krawtchouk_chain_uses():
    spec = krawtchouk_chain(7, 1.0, noise_eps=0.03, seed=11)
    eps = coupling_noise(7, 0.03, 11)
    assert eps.shape == (6,)
    assert np.array_equal(spec.couplings, krawtchouk_couplings(6, 1.0) * (1.0 + eps))


def test_hopping_matrices_stack_matches_single_particle_hopping():
    specs = [krawtchouk_chain(5, 1.0, noise_eps=0.1, seed=s) for s in range(3)]
    stack = hopping_matrices(np.array([spec.couplings for spec in specs]))
    assert stack.shape == (3, 5, 5)
    for spec, hop in zip(specs, stack):
        assert np.array_equal(hop, single_particle_hopping(spec))


@pytest.mark.parametrize("N", range(2, 11))
def test_sector_blocks_equal_dense_slices(N):
    # the per-sector builders must give exactly the dense operator's blocks
    noisy = krawtchouk_chain(N, 1.0, noise_eps=0.05, seed=N)
    drives = [
        DrivingSpec(j=j, d=d, sign=sign, J_D=0.7)
        for sign in "+-"
        for d in {1, N // 2, N - 1}
        for j in {0, N - 1 - d}
    ]
    builders = [lambda states: build_hk(noisy, states)]
    builders += [lambda states, s=s: driving_operator(s, N, states) for s in drives]
    for sign in "+-":
        # every (j, j + N/2) pair summed, as the protocol's drive
        pairs = [DrivingSpec(j=j, d=N // 2, sign=sign, J_D=0.7) for j in range(N // 2)]
        builders.append(lambda states, p=pairs: sum(driving_operator(s, N, states) for s in p))
    sectors = [sector_indices(N, q) for q in range(N + 1)]
    for build in builders:
        dense = build(None)
        for ix in sectors:
            assert np.array_equal(build(ix), dense[np.ix_(ix, ix)])
    # the chain and its dual conserve the excitation number: the sector
    # blocks hold every nonzero entry, which the sector-wise oracles rely on
    for dense in (build_hk(noisy), build_hz(N, 1.0)):
        rest = dense.copy()
        for ix in sectors:
            rest[np.ix_(ix, ix)] = 0.0
        assert not rest.any()


@pytest.mark.parametrize("N", [4, 6, 8])
def test_one_hop_pattern_serves_every_coupling_draw(N):
    # a sector's pattern is built once; each draw applies only its couplings,
    # bitwise as build_hk builds the block from scratch
    specs = [krawtchouk_chain(N, 1.0, noise_eps=0.05, seed=s) for s in range(4)]
    for ix in [sector_indices(N, q) for q in range(N + 1)] + [None]:
        hops = chain_hops(N, ix)
        for spec in specs:
            assert np.array_equal(chain_block(spec, hops), build_hk(spec, ix))
