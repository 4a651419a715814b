"""Tests for the eigenbasis-mapping gate and its algebraic identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchain.eigengate import (
    VARIANTS,
    build_eigengate,
    check_intertwining,
    compare_forms,
    eigengate_single_particle,
    expected_phase,
    free_fermion_block,
    free_fermion_trace_error,
    noisy_eigengate_errors,
    rotation_checks,
)
from kchain.hamiltonians import (
    build_hk,
    krawtchouk_chain,
    single_particle_hopping,
)
from kchain.krawtchouk import build_basis, eigenstate_vector
from kchain.linalg import assert_unitary, occupied_sites, sector_indices, trace_error

from dense_reference import (
    SECTOR_TOL,
    dense_compare_forms,
    dense_eigengate,
    dense_intertwining,
    dense_rotation_checks,
)


@pytest.mark.parametrize("N", [2, 4, 6, 8])
@pytest.mark.parametrize("variant", VARIANTS)
def test_eigengate_maps_states_with_clean_phases(N, variant):
    form = compare_forms(N)["variants"][variant]
    assert_unitary(form["gate"].unitary)
    phases = form["phases"]
    assert form["min_overlap"] > 1.0 - 1e-9
    n = N - 1
    for state in range(2**N):
        q = bin(state).count("1")
        assert abs(phases[state] - expected_phase(q, n)) < 1e-8


def test_expected_phase_is_quarter_cycle():
    assert expected_phase(0, 3) == 1
    assert expected_phase(1, 3) == pytest.approx(1j**3)
    assert expected_phase(2, 5) == pytest.approx((1j) ** 10)
    for q in range(4):
        for n in range(1, 6):
            assert expected_phase(q, n) == pytest.approx(1j ** (q * n))


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_variants_agree_entrywise(N):
    report = compare_forms(N)
    assert report["entrywise_difference"] < 1e-12
    for variant in VARIANTS:
        assert report["variants"][variant]["min_overlap"] > 1.0 - 1e-9


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_intertwining_swaps_hamiltonians(N):
    hk = build_hk(krawtchouk_chain(N, 1.0))
    residual = check_intertwining(build_eigengate(N, 1.0))
    assert residual < 1e-9 * np.max(np.abs(hk))
    dense = dense_intertwining(dense_eigengate(N, 1.0), N, 1.0)
    assert abs(residual - dense) <= SECTOR_TOL


@pytest.mark.parametrize("N", [2, 4, 6])
def test_so3_structure(N):
    res, _ = rotation_checks(N, 1.0, ())
    assert set(res) == {"xy_z", "yz_x", "zx_y"}
    assert max(res.values()) < 1e-9


@pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi])
@pytest.mark.parametrize("N", [2, 4, 6])
def test_bch_rotation_identity_grid(N, theta):
    assert rotation_checks(N, 1.0, [theta])[1][0] < 1e-9


@given(st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_bch_rotation_identity_any_angle(theta):
    assert rotation_checks(4, 1.0, [theta])[1][0] < 1e-9


@pytest.mark.parametrize("N", [4, 6])
def test_single_particle_shortcut_matches_dense(N):
    # the free-fermion error functional evaluated on N x N mode matrices
    # must reproduce the dense 2^N x 2^N trace error
    spec = krawtchouk_chain(N, 1.0, noise_eps=0.08, seed=7)
    dense_clean = build_eigengate(N, 1.0).unitary
    dense_noisy = build_eigengate(N, 1.0, spec=spec).unitary
    small_clean = eigengate_single_particle(N, 1.0)
    small_noisy = eigengate_single_particle(N, 1.0, spec=spec)
    shortcut = free_fermion_trace_error(small_clean, small_noisy)
    dense = trace_error(dense_clean, dense_noisy)
    # the noisy gate must differ from the clean one, or both errors are
    # roundoff zeros and the comparison shows nothing
    assert dense > 1e-3
    assert shortcut == pytest.approx(dense, abs=1e-12)


def test_single_particle_gate_diagonalizes_hopping():
    N = 6
    spec = krawtchouk_chain(N, 1.0)
    u = eigengate_single_particle(N, 1.0)
    hop = single_particle_hopping(spec)
    transformed = u.conj().T @ hop @ u
    off = transformed - np.diag(np.diag(transformed))
    assert np.max(np.abs(off)) < 1e-10


NOISY_FROZEN = {
    4: 0.001430578534293625,
    6: 0.005007023621536932,
    8: 0.009823539063814057,
}


@pytest.mark.parametrize("N", sorted(NOISY_FROZEN))
def test_noisy_error_frozen_values(N):
    got = noisy_eigengate_errors(N, 1.0, 0.05, [123])[0]
    assert got == pytest.approx(NOISY_FROZEN[N], rel=1e-9)


def test_noise_free_error_vanishes():
    for N in (4, 6):
        assert noisy_eigengate_errors(N, 1.0, 0.0, [0])[0] < 1e-12


@pytest.mark.parametrize("build", [build_eigengate, eigengate_single_particle], ids=lambda f: f.__name__)
def test_unknown_variant_rejected(build):
    with pytest.raises(ValueError, match="variant must be one of"):
        build(4, 1.0, "bogus")


@pytest.mark.parametrize("N, eps", [(2, 1e-3), (4, 0.05), (8, 1e-2), (12, 3e-3)])
def test_stacked_noisy_errors_equal_single_calls_exactly(N, eps):
    # the fig3 sweep scores a grid point in stacks of FIG3_BATCH, so an error
    # must not depend on the stack it was scored in
    seeds = [17 * k + N for k in range(24)]
    stacked = noisy_eigengate_errors(N, 1.0, eps, seeds)
    assert stacked.shape == (len(seeds),)
    for seed, got in zip(seeds, stacked):
        assert got == noisy_eigengate_errors(N, 1.0, eps, [seed])[0]


def _mapping_table(gate):
    """Per-label route: overlaps <s|_chain U |s> of every label s against
    its own 2^N eigenstate_vector, on the full unitary."""
    basis = build_basis(gate.N - 1, gate.J)
    mags, phases = np.zeros(2**gate.N), np.zeros(2**gate.N, dtype=complex)
    for s in range(2**gate.N):
        amp = complex(eigenstate_vector(basis, occupied_sites(s, gate.N)).conj() @ gate.unitary[:, s])
        mags[s], phases[s] = abs(amp), amp / abs(amp)
    return mags, phases


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_compare_forms_scores_equal_mapping_table_per_gate(N):
    # the sector-wise scores sum the same products as the per-label route
    # in another order, so they agree to roundoff
    report = compare_forms(N)
    n = N - 1
    for variant in VARIANTS:
        form = report["variants"][variant]
        gate = build_eigengate(N, 1.0, variant)
        assert np.array_equal(form["gate"].unitary, gate.unitary)
        mags, phases = _mapping_table(gate)
        assert abs(form["min_overlap"] - float(mags.min())) <= SECTOR_TOL
        assert form["phases"].shape == (2**N,)
        assert np.max(np.abs(form["phases"] - phases)) <= SECTOR_TOL
        dev = max(abs(phases[s] - expected_phase(bin(s).count("1"), n)) for s in range(2**N))
        assert abs(form["max_phase_deviation"] - float(dev)) <= SECTOR_TOL
    three, single = (report["variants"][v]["gate"].unitary for v in VARIANTS)
    assert report["entrywise_difference"] == float(np.max(np.abs(three - single)))


@pytest.mark.parametrize("N", range(2, 9))
def test_compare_forms_within_roundoff_of_dense_reference(N):
    report, dense = compare_forms(N), dense_compare_forms(N)
    assert set(report) == set(dense) == {"N", "variants", "entrywise_difference"}
    for variant in VARIANTS:
        form, ref = report["variants"][variant], dense["variants"][variant]
        assert set(form) == {"gate", "min_overlap", "phases", "max_phase_deviation"}
        assert np.max(np.abs(form["gate"].unitary - ref["unitary"])) <= SECTOR_TOL
        assert abs(form["min_overlap"] - ref["min_overlap"]) <= SECTOR_TOL
        assert np.max(np.abs(form["phases"] - ref["phases"])) <= SECTOR_TOL
        assert abs(form["max_phase_deviation"] - ref["max_phase_deviation"]) <= SECTOR_TOL
    assert abs(report["entrywise_difference"] - dense["entrywise_difference"]) <= SECTOR_TOL


def test_compare_forms_targets_are_eigenstate_vectors_bitwise():
    # a sector's Slater targets, one stacked minors call, hold the entries
    # of each label's own eigenstate_vector bit for bit
    N = 6
    basis = build_basis(N - 1, 1.0)
    for q in range(N + 1):
        states = sector_indices(N, q)
        targets = free_fermion_block(basis.phi, states)
        for state, row in zip(states, targets):
            full = eigenstate_vector(basis, occupied_sites(state, N))
            assert np.array_equal(row, full[states])
            assert not full[np.setdiff1d(np.arange(2**N), states)].any()


def _chain_specs(N):
    """The clean chain and a noisy draw."""
    return [krawtchouk_chain(N, 1.0), krawtchouk_chain(N, 1.0, noise_eps=0.05, seed=N)]


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_sector_eigengate_within_roundoff_of_dense_reference(N, variant):
    for spec in _chain_specs(N):
        gate = build_eigengate(N, 1.0, variant, spec=spec)
        assert np.max(np.abs(gate.unitary - dense_eigengate(N, 1.0, variant, spec))) <= SECTOR_TOL
        # the blocks are the unitary's, which is zero outside them
        rest = gate.unitary.copy()
        for q, block in enumerate(gate.blocks):
            ix = sector_indices(N, q)
            assert np.array_equal(block, gate.unitary[np.ix_(ix, ix)])
            rest[np.ix_(ix, ix)] = 0.0
        assert not rest.any()


@pytest.mark.parametrize("N", [2, 3, 4, 6, 8])
def test_rotation_checks_within_roundoff_of_dense_reference(N):
    thetas = [0.0, np.pi / 2, np.pi, 0.37, -2.1]
    so3, bch = rotation_checks(N, 1.0, thetas)
    dense_so3, dense_bch = dense_rotation_checks(N, 1.0, thetas)
    assert set(so3) == set(dense_so3)
    assert all(abs(so3[key] - dense_so3[key]) <= SECTOR_TOL for key in so3)
    assert len(bch) == len(thetas)
    assert all(abs(a - b) <= SECTOR_TOL for a, b in zip(bch, dense_bch))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(spec=krawtchouk_chain(6, 1.0)), "spec is for N=6, but the gate is for N=4"),
        (dict(hop=np.eye(6)), r"hop has shape \(6, 6\), but the gate is for N=4"),
        (dict(hop=np.zeros((3, 5, 5))), r"hop has shape \(3, 5, 5\), but the gate is for N=4"),
        (dict(hop=np.zeros(4)), r"hop has shape \(4,\), but the gate is for N=4"),
    ],
)
def test_gate_of_another_size_is_rejected(kwargs, message):
    with pytest.raises(ValueError, match=message):
        eigengate_single_particle(4, 1.0, **kwargs)
    if "spec" in kwargs:
        for variant in VARIANTS:
            with pytest.raises(ValueError, match=message):
                build_eigengate(4, 1.0, variant, spec=kwargs["spec"])


@pytest.mark.parametrize("N", [2, 3, 4, 6, 8])
def test_bch_residuals_equal_per_angle_calls_exactly(N):
    thetas = [0.0, np.pi / 2, np.pi, 0.37, -2.1]
    _, batch = rotation_checks(N, 1.0, thetas)
    assert len(batch) == len(thetas)
    for theta, got in zip(thetas, batch):
        assert got == rotation_checks(N, 1.0, [theta])[1][0]


@pytest.mark.parametrize("N", [2, 4, 6])
def test_rotation_checks_equal_separate_calls_exactly(N):
    thetas = [0.0, np.pi / 2, 0.37]
    so3, bch = rotation_checks(N, 1.0, thetas)
    assert so3 == rotation_checks(N, 1.0, ())[0]
    assert bch == [rotation_checks(N, 1.0, [theta])[1][0] for theta in thetas]


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_free_fermion_blocks_match_dense_eigengate(N, variant):
    # a free-fermion unitary's sector block is the matrix of minors of its
    # single-particle matrix
    blocks = build_eigengate(N, 1.0, variant).blocks
    u = eigengate_single_particle(N, 1.0, variant)
    for q in range(N + 1):
        assert np.max(np.abs(free_fermion_block(u, sector_indices(N, q)) - blocks[q])) <= 1e-13
