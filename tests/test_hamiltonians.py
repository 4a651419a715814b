"""Tests for chain Hamiltonians: couplings, symmetry sectors, noise, driving term."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchain.hamiltonians import (
    ChainSpec,
    chain_block,
    chain_hops,
    coupling_noises,
    drive_layout,
    hopping_matrices,
    hz_diagonal,
    krawtchouk_chain,
    krawtchouk_couplings,
    unit_drive,
)
from kchain.krawtchouk import conjugate_phase
from kchain.linalg import (
    assert_hermitian,
    basis_index,
    sector_indices,
    tensor_embed,
)

from dense_reference import PAULI_Z, dense_unit_drive


def total_z(N):
    return sum(tensor_embed(PAULI_Z, (x,), N) for x in range(N))


def test_coupling_formula_values():
    # J_x = -(1/2) sqrt((x+1)(n-x))
    got = krawtchouk_couplings(3)
    assert np.allclose(got, [-np.sqrt(3) / 2, -1.0, -np.sqrt(3) / 2])
    got = krawtchouk_couplings(5)
    assert np.allclose(got[0], -np.sqrt(5) / 2)
    assert np.allclose(got, got[::-1])  # mirror symmetric chain


def test_chain_spec_validation():
    with pytest.raises(ValueError, match="couplings must have length N-1"):
        ChainSpec(N=4, couplings=np.zeros(5))
    # 4.0 would pass the length check, since (3.0,) == (3,)
    for N in (4.0, True, "4", 1):
        with pytest.raises(ValueError, match="^N must be an int >= 2"):
            ChainSpec(N=N, couplings=np.zeros(3))


@pytest.mark.parametrize("field", ["couplings"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chain_spec_rejects_non_finite_values(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ChainSpec(N=4, couplings=[1.0, bad, 1.0])


@pytest.mark.parametrize("noise_eps", [np.nan, -0.1, 1.0, "0.1", True])
def test_krawtchouk_chain_rejects_bad_noise_eps(noise_eps):
    with pytest.raises(ValueError, match=r"^noise_eps must be a finite number in \[0, 1\)"):
        krawtchouk_chain(4, noise_eps=noise_eps, seed=1)


@pytest.mark.parametrize("N", range(2, 11))
def test_chain_blocks_are_exactly_hermitian(N):
    # chain_block checks nothing: its blocks must be Hermitian bit for bit
    noisy = krawtchouk_chain(N, noise_eps=0.05, seed=N)
    for q in range(N + 1):
        block = chain_block(noisy, chain_hops(N, sector_indices(N, q)))
        assert np.array_equal(block, block.conj().T), (N, q)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_hk_hermitian_and_u1_symmetric(N):
    ham = chain_block(krawtchouk_chain(N), chain_hops(N))
    assert_hermitian(ham)
    assert np.allclose(ham @ total_z(N), total_z(N) @ ham)


@pytest.mark.parametrize("N", [2, 4, 6])
def test_single_excitation_block_matches_hopping_matrix(N):
    spec = krawtchouk_chain(N)
    ham = chain_block(spec, chain_hops(N))
    hop = hopping_matrices(spec.couplings)
    idx = [basis_index([1 if y == x else 0 for y in range(N)]) for x in range(N)]
    assert np.allclose(ham[np.ix_(idx, idx)], hop)


def test_single_particle_spectrum_is_linear():
    for N in (4, 7, 10):
        hop = hopping_matrices(krawtchouk_chain(N).couplings)
        evals = np.linalg.eigvalsh(hop)
        n = N - 1
        assert np.allclose(evals, [1.0 * (k - n / 2.0) for k in range(N)], atol=1e-12)


def test_hz_diagonal_is_positional_dual_spectrum():
    # each excited site x contributes x - n/2, mirroring the hopping spectrum
    diag = hz_diagonal(3)
    assert diag[basis_index("000")] == 0.0
    assert diag[basis_index("100")] == -1.0
    assert diag[basis_index("001")] == 1.0
    assert diag[basis_index("111")] == 0.0
    # single-excitation values sweep the full linear ladder
    single = [hz_diagonal(4)[basis_index([1 if y == x else 0 for y in range(4)])] for x in range(4)]
    assert np.allclose(single, [-1.5, -0.5, 0.5, 1.5])


def test_noise_free_spec_is_fixed_point():
    # without noise the seed is not read: the chain is the engineered one
    spec = krawtchouk_chain(6, noise_eps=0.0, seed=5)
    assert np.array_equal(spec.couplings, krawtchouk_couplings(5))


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_noise_is_bounded_and_seeded(seed):
    eps = 0.05
    noisy = krawtchouk_chain(6, noise_eps=eps, seed=seed)
    rel = noisy.couplings / krawtchouk_couplings(5) - 1.0
    assert np.all(np.abs(rel) <= eps)
    again = krawtchouk_chain(6, noise_eps=eps, seed=seed)
    assert np.array_equal(noisy.couplings, again.couplings)


def test_noise_draws_differ_across_seeds():
    spec_a = krawtchouk_chain(6, noise_eps=0.05, seed=1)
    spec_b = krawtchouk_chain(6, noise_eps=0.05, seed=2)
    assert not np.allclose(spec_a.couplings, spec_b.couplings)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_driving_operator_hermitian_and_sector_coupling(sign):
    N = {"+": 8, "-": 6}[sign]
    assert drive_layout(N)[0] == sign
    op = unit_drive(N)
    assert_hermitian(op)
    # moves exactly one excitation between sites j and j+N/2: total weight conserved
    tz = total_z(N)
    assert np.allclose(op @ tz, tz @ op)


def test_driving_operator_matrix_elements():
    # N = 4 drives the pairs (0, 2) and (1, 3) with '+'
    op_plus = unit_drive(4)
    src = basis_index("1000")  # excited at j=0, empty at j+N/2=2
    dst = basis_index("0010")
    assert op_plus[dst, src] == 1.0
    assert op_plus[src, dst] == 1.0
    # N = 6 drives the pair (1, 4) with '-'
    op_minus = unit_drive(6)
    src, dst = basis_index("010000"), basis_index("000010")
    assert op_minus[dst, src] == 1.0j
    assert op_minus[src, dst] == -1.0j
    # spectator sites untouched: no coupling when j+N/2 already occupied
    blocked = basis_index("1010")
    assert np.allclose(op_plus[:, blocked], 0.0)


def test_drive_layout_sign_follows_the_conjugate_phase():
    # the pair terms add up on the target transition when the drive's sign
    # is the conjugate-ordered element's phase (-1)^(N/2): '+' iff it is 1
    for N in range(4, 13, 2):
        sign, pairs = drive_layout(N)
        assert (sign == "+") == (conjugate_phase(N) == 1), N
        assert all(type(j) is int and 0 <= j < N // 2 for j in pairs), N
    for N in (3, 5, 7, 9, 11, 2, 14, True, 4.0):
        message = rf"^N must be an even int >= 4 \(at most 12\), got {re.escape(repr(N))}$"
        with pytest.raises(ValueError, match=message):
            drive_layout(N)


def test_coupling_noise_is_the_draw_krawtchouk_chain_uses():
    # NumPy's generator of the seed, and the stacked draw's row of it
    spec = krawtchouk_chain(7, noise_eps=0.03, seed=11)
    eps = np.random.default_rng(11).uniform(-0.03, 0.03, 6)
    assert np.array_equal(spec.couplings, krawtchouk_couplings(6) * (1.0 + eps))
    assert coupling_noises(7, 0.03, [11])[0].tobytes() == eps.tobytes()


def test_hopping_matrices_stack_matches_single_particle_hopping():
    specs = [krawtchouk_chain(5, noise_eps=0.1, seed=s) for s in range(3)]
    stack = hopping_matrices(np.array([spec.couplings for spec in specs]))
    assert stack.shape == (3, 5, 5)
    for spec, hop in zip(specs, stack):
        assert np.array_equal(hop, hopping_matrices(spec.couplings))


@pytest.mark.parametrize("N", range(2, 11))
def test_sector_blocks_equal_dense_slices(N):
    # the per-sector builders must give exactly the dense operator's blocks
    noisy = krawtchouk_chain(N, noise_eps=0.05, seed=N)
    builders = [lambda states: chain_block(noisy, chain_hops(N, states))]
    if N % 2 == 0 and N >= 4:  # the chains with a drive layout
        builders.append(lambda states: unit_drive(N, states))
    sectors = [sector_indices(N, q) for q in range(N + 1)]
    for build in builders:
        dense = build(None)
        for ix in sectors:
            assert np.array_equal(build(ix), dense[np.ix_(ix, ix)])
    # the chain and its dual conserve the excitation number: the sector
    # blocks hold every nonzero entry, which the sector-wise oracles rely on
    for dense in (chain_block(noisy, chain_hops(N)), np.diag(hz_diagonal(N))):
        rest = dense.copy()
        for ix in sectors:
            rest[np.ix_(ix, ix)] = 0.0
        assert not rest.any()


@pytest.mark.parametrize("N", [4, 6, 8])
def test_one_hop_pattern_serves_every_coupling_draw(N):
    # a sector's pattern is built once; each draw applies only its couplings,
    # bitwise as a pattern built afresh for that draw
    specs = [krawtchouk_chain(N, noise_eps=0.05, seed=s) for s in range(4)]
    for ix in [sector_indices(N, q) for q in range(N + 1)] + [None]:
        hops = chain_hops(N, ix)
        for spec in specs:
            assert np.array_equal(chain_block(spec, hops), chain_block(spec, chain_hops(N, ix)))


# the per-pair sum of dense embeds is the reference the drive tests build
# other layouts with (dense_unit_drive); on the layout each chain size fixes
# it is the builder's bits, and so are its sector slices
# (test_sector_blocks_equal_dense_slices)
@pytest.mark.parametrize("N", range(4, 11, 2))
def test_unit_drive_equals_the_per_pair_sum_and_the_dense_embeds(N):
    assert np.array_equal(unit_drive(N), dense_unit_drive(N, *drive_layout(N)))
