"""Tests for the eigenbasis-mapping gate and its algebraic identities."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchain import eigengate
from kchain.eigengate import (
    VARIANTS,
    build_eigengate,
    eigengate_report,
    eigengate_single_particle,
    expected_phase,
    free_fermion_block,
    free_fermion_trace_error,
)
from kchain.hamiltonians import (
    chain_block,
    chain_hops,
    hopping_matrices,
    krawtchouk_chain,
)
from kchain.krawtchouk import build_basis, eigenstate_vector
from kchain.linalg import assert_unitary, sector_indices, trace_error

from dense_reference import (
    SECTOR_TOL,
    occupied_sites,
    dense_compare_forms,
    dense_eigengate,
    dense_intertwining,
    dense_rotation_checks,
    noisy_eigengate_errors,
    single_pulse_single_particle,
)


def _report(N, thetas):
    """eigengate_report(N) with its BCH angles (eigengate.BCH_THETAS) set to
    thetas for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(eigengate, "BCH_THETAS", tuple(thetas))
        return eigengate_report(N)


@pytest.mark.parametrize("N", [2, 4, 6, 8])
@pytest.mark.parametrize("variant", VARIANTS)
def test_eigengate_maps_states_with_clean_phases(N, variant):
    form = eigengate_report(N)["variants"][variant]
    assert_unitary(build_eigengate(N, variant).unitary)
    assert form["min_overlap"] > 1.0 - 1e-9
    # the largest deviation of any state's phase from i^(q n)
    assert form["max_phase_deviation"] < 1e-8


def test_expected_phase_is_quarter_cycle():
    assert expected_phase(0, 3) == 1
    assert expected_phase(1, 3) == pytest.approx(1j**3)
    assert expected_phase(2, 5) == pytest.approx((1j) ** 10)
    for q in range(4):
        for n in range(1, 6):
            assert expected_phase(q, n) == pytest.approx(1j ** (q * n))


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_variants_agree_entrywise(N):
    report = eigengate_report(N)
    assert report["entrywise_difference"] < 1e-12
    for variant in VARIANTS:
        assert report["variants"][variant]["min_overlap"] > 1.0 - 1e-9


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_intertwining_swaps_hamiltonians(N):
    hk = chain_block(krawtchouk_chain(N), chain_hops(N))
    residual = eigengate_report(N)["intertwining_residual"]
    assert residual < 1e-9 * np.max(np.abs(hk))
    dense = dense_intertwining(dense_eigengate(N), N)
    assert abs(residual - dense) <= SECTOR_TOL


@pytest.mark.parametrize("N", [2, 4, 6])
def test_so3_structure(N):
    res = eigengate_report(N)["so3_residuals"]
    assert set(res) == {"xy_z", "yz_x", "zx_y"}
    assert max(res.values()) < 1e-9


@pytest.mark.parametrize("theta", [0.0, np.pi / 2, np.pi])
@pytest.mark.parametrize("N", [2, 4, 6])
def test_bch_rotation_identity_grid(N, theta):
    assert _report(N, [theta])["bch_residuals"][str(theta)] < 1e-9


@given(st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_bch_rotation_identity_any_angle(theta):
    assert _report(4, [theta])["bch_residuals"][str(theta)] < 1e-9


@pytest.mark.parametrize("N", [4, 6])
def test_single_particle_shortcut_matches_dense(N):
    # the free-fermion error functional evaluated on N x N mode matrices
    # must reproduce the dense 2^N x 2^N trace error
    spec = krawtchouk_chain(N, noise_eps=0.08, seed=7)
    dense_clean = build_eigengate(N).unitary
    dense_noisy = dense_eigengate(N, "three_step", spec)
    small_clean = eigengate_single_particle(N)
    small_noisy = eigengate_single_particle(N, hop=hopping_matrices(spec.couplings))
    shortcut = free_fermion_trace_error(small_clean, small_noisy)
    dense = trace_error(dense_clean, dense_noisy)
    # the noisy gate must differ from the clean one, or both errors are
    # roundoff zeros and the comparison shows nothing
    assert dense > 1e-3
    assert shortcut == pytest.approx(dense, abs=1e-12)


def test_single_particle_gate_diagonalizes_hopping():
    N = 6
    spec = krawtchouk_chain(N)
    u = eigengate_single_particle(N)
    hop = hopping_matrices(spec.couplings)
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
    got = noisy_eigengate_errors(N, 0.05, [123])[0]
    assert got == pytest.approx(NOISY_FROZEN[N], rel=1e-9)


def test_noise_free_error_vanishes():
    for N in (4, 6):
        assert noisy_eigengate_errors(N, 0.0, [0])[0] < 1e-12


@pytest.mark.parametrize("build", [build_eigengate], ids=lambda f: f.__name__)
def test_unknown_variant_rejected(build):
    with pytest.raises(ValueError, match="variant must be one of"):
        build(4, "bogus")


@pytest.mark.parametrize("N, eps", [(2, 1e-3), (4, 0.05), (8, 1e-2), (12, 3e-3)])
def test_stacked_noisy_errors_equal_single_calls_exactly(N, eps):
    # the fig3 sweep scores a grid point in stacks of FIG3_BATCH, so an error
    # must not depend on the stack it was scored in
    seeds = [17 * k + N for k in range(24)]
    stacked = noisy_eigengate_errors(N, eps, seeds)
    assert stacked.shape == (len(seeds),)
    for seed, got in zip(seeds, stacked):
        assert got == noisy_eigengate_errors(N, eps, [seed])[0]


def _mapping_table(gate):
    """Per-label route: overlaps <s|_chain U |s> of every label s against
    its own 2^N eigenstate_vector, on the full unitary."""
    basis = build_basis(gate.N - 1)
    mags, phases = np.zeros(2**gate.N), np.zeros(2**gate.N, dtype=complex)
    for s in range(2**gate.N):
        amp = complex(eigenstate_vector(basis, occupied_sites(s, gate.N)).conj() @ gate.unitary[:, s])
        mags[s], phases[s] = abs(amp), amp / abs(amp)
    return mags, phases


@pytest.mark.parametrize("N", [2, 4, 6, 8])
def test_compare_forms_scores_equal_mapping_table_per_gate(N):
    # the sector-wise scores sum the same products as the per-label route
    # in another order, so they agree to roundoff; the report scores the
    # gates build_eigengate builds, bit for bit
    report = eigengate_report(N)
    n = N - 1
    for variant in VARIANTS:
        form = report["variants"][variant]
        mags, phases = _mapping_table(build_eigengate(N, variant))
        assert abs(form["min_overlap"] - float(mags.min())) <= SECTOR_TOL
        dev = max(abs(phases[s] - expected_phase(bin(s).count("1"), n)) for s in range(2**N))
        assert abs(form["max_phase_deviation"] - float(dev)) <= SECTOR_TOL
    three, single = (build_eigengate(N, v).unitary for v in VARIANTS)
    assert report["entrywise_difference"] == float(np.max(np.abs(three - single)))


@pytest.mark.parametrize("N", range(2, 9))
def test_compare_forms_within_roundoff_of_dense_reference(N):
    report, dense = eigengate_report(N), dense_compare_forms(N)
    for variant in VARIANTS:
        form, ref = report["variants"][variant], dense["variants"][variant]
        assert set(form) == {"min_overlap", "max_phase_deviation"}
        gate = build_eigengate(N, variant)
        assert np.max(np.abs(gate.unitary - ref["unitary"])) <= SECTOR_TOL
        assert abs(form["min_overlap"] - ref["min_overlap"]) <= SECTOR_TOL
        assert abs(form["max_phase_deviation"] - ref["max_phase_deviation"]) <= SECTOR_TOL
    assert abs(report["entrywise_difference"] - dense["entrywise_difference"]) <= SECTOR_TOL


def test_compare_forms_targets_are_eigenstate_vectors_bitwise():
    # a sector's Slater targets, one stacked minors call, hold the entries
    # of each label's own eigenstate_vector bit for bit
    N = 6
    basis = build_basis(N - 1)
    for q in range(N + 1):
        states = sector_indices(N, q)
        targets = free_fermion_block(basis.phi, states)
        for state, row in zip(states, targets):
            full = eigenstate_vector(basis, occupied_sites(state, N))
            assert np.array_equal(row, full[states])
            assert not full[np.setdiff1d(np.arange(2**N), states)].any()


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_sector_eigengate_within_roundoff_of_dense_reference(N, variant):
    gate = build_eigengate(N, variant)
    assert np.max(np.abs(gate.unitary - dense_eigengate(N, variant))) <= SECTOR_TOL
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
    report = _report(N, thetas)
    so3, bch = report["so3_residuals"], report["bch_residuals"]
    dense_so3, dense_bch = dense_rotation_checks(N, thetas)
    assert set(so3) == set(dense_so3)
    assert all(abs(so3[key] - dense_so3[key]) <= SECTOR_TOL for key in so3)
    assert list(bch) == [str(theta) for theta in thetas]
    assert all(abs(a - b) <= SECTOR_TOL for a, b in zip(bch.values(), dense_bch))


@pytest.mark.parametrize("N", [2, 5, 8])
def test_eigengate_report_builds_the_chain_and_each_sector_once(monkeypatch, N):
    # one pass: the clean chain and its mode basis once, each sector's Hk
    # block and Hz diagonal once, and a number of diagonalizations that
    # does not grow with the BCH angles
    calls, sizes = collections.Counter(), []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "chain_block":
                sizes.append(len(args[1][0]))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("krawtchouk_chain", "build_basis", "chain_block", "hz_diagonal"):
        counted(eigengate, name)
    counted(np.linalg, "eigh")
    _report(N, [0.0])
    eighs = calls.pop("eigh")
    assert calls == {"krawtchouk_chain": 1, "build_basis": 1, "chain_block": N + 1, "hz_diagonal": N + 1}
    assert sizes == [math.comb(N, q) for q in range(N + 1)]
    calls.clear()
    _report(N, [0.0, 0.37, np.pi, -2.1])
    assert calls["eigh"] == eighs == 3 * (N + 1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(hop=np.zeros((4, 5))), r"hop has shape \(4, 5\), but the gate is for N=4"),
        (dict(hop=np.eye(6)), r"hop has shape \(6, 6\), but the gate is for N=4"),
        (dict(hop=np.zeros((3, 5, 5))), r"hop has shape \(3, 5, 5\), but the gate is for N=4"),
        (dict(hop=np.zeros(4)), r"hop has shape \(4,\), but the gate is for N=4"),
    ],
)
def test_gate_of_another_size_is_rejected(kwargs, message):
    # a chain reaches the single-particle gate only as hop
    with pytest.raises(ValueError, match=message):
        eigengate_single_particle(4, **kwargs)


@pytest.mark.parametrize("N", [2, 3, 4, 6, 8])
def test_bch_residuals_equal_per_angle_calls_exactly(N):
    thetas = [0.0, np.pi / 2, np.pi, 0.37, -2.1]
    batch = _report(N, thetas)["bch_residuals"]
    assert len(batch) == len(thetas)
    for theta in thetas:
        key = str(theta)
        assert batch[key] == _report(N, [theta])["bch_residuals"][key]


@pytest.mark.parametrize("N", [2, 4, 6])
def test_rotation_checks_equal_separate_calls_exactly(N):
    thetas = [0.0, np.pi / 2, 0.37]
    report = _report(N, thetas)
    # the thetas change the BCH residuals only
    alone = _report(N, ())
    assert alone.pop("bch_residuals") == {}
    assert {key: value for key, value in report.items() if key != "bch_residuals"} == alone
    bch = [_report(N, [theta])["bch_residuals"][str(theta)] for theta in thetas]
    assert list(report["bch_residuals"].values()) == bch


@pytest.mark.parametrize("N", range(2, 9))
@pytest.mark.parametrize("variant", VARIANTS)
def test_free_fermion_blocks_match_dense_eigengate(N, variant):
    # a free-fermion unitary's sector block is the matrix of minors of its
    # single-particle matrix
    blocks = build_eigengate(N, variant).blocks
    u = eigengate_single_particle(N) if variant == "three_step" else single_pulse_single_particle(N)
    for q in range(N + 1):
        assert np.max(np.abs(free_fermion_block(u, sector_indices(N, q)) - blocks[q])) <= 1e-13
