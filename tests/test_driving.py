"""Tests for the Magnus drive stepper and the resonant swap protocol.

The generic sixth-order Magnus step, the whole step stack exponentiated in
one call, the dense halfway-inversion propagator, the two-level
Hamiltonian and its off-resonant error estimate below are the reference
routes the protocol and its drive stepper are checked against; nothing in
the library uses them.
"""

import dataclasses
import functools
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest

from kchain import driving, eigengate
from kchain.cli import main
from kchain.driving import (
    ProtocolParams,
    default_drive_pairs,
    drive_calibration,
    gate_time_accounting,
    iswap_target,
    resonance_frequency,
    run_iswap_protocol,
)
from kchain.krawtchouk import driving_sign
from kchain.eigengate import build_eigengate
from kchain.hamiltonians import (
    chain_block,
    chain_hops,
    hz_diagonal,
    krawtchouk_chain,
    sector_hops,
    unit_drive,
)
from kchain.linalg import (
    assert_unitary,
    basis_index,
    expm_hermitian,
    max_column_distance,
    sector_indices,
    trace_error,
)


def sea_indices(N):
    a = basis_index("1" * (N // 2) + "0" * (N // 2))
    b = basis_index("0" * (N // 2) + "1" * (N // 2))
    return a, b


# --------------------------------------------------------- reference routes


def _magnus6_generator(h, h1, h2, h3):
    """Hermitian G such that exp(-iG) is the sixth-order Magnus step of
    length h, from H at the three Gauss nodes, its commutators formed
    directly.  In Blanes et al.'s notation, with A_j = -i h H_j: a1 = A2,
    a2 = (sqrt 15/3)(A3 - A1), a3 = (10/3)(A3 - 2 A2 + A1), C1 = [a1, a2],
    C2 = -[a1, 2 a3 + C1]/60 and
    Omega = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240 = -iG."""

    def comm(a, b):
        return a @ b - b @ a

    a1 = -1.0j * h * h2
    a2 = -1.0j * h * (np.sqrt(15.0) / 3.0) * (h3 - h1)
    a3 = -1.0j * h * (10.0 / 3.0) * (h3 - 2.0 * h2 + h1)
    c1 = comm(a1, a2)
    c2 = -comm(a1, 2.0 * a3 + c1) / 60.0
    return 1.0j * (a1 + a3 / 12.0 + comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0)


def _magnus_steps(basis, omega, phase, t_start, duration, nsteps):
    """Whole stack of the nsteps step unitaries of the drive on basis
    (_drive_basis) over [t_start, t_start + duration]: what the protocol's
    _cell_map exponentiates and multiplies chunk by chunk."""
    coeffs = driving._step_coefficients(omega, phase, t_start, duration, nsteps)
    gs = np.empty((nsteps,) + basis.shape[1:], dtype=complex)
    return driving._expm_stack(driving._drive_generators(basis, coeffs, gs))


def _generic_steps(func, t_start, duration, nsteps):
    """Step unitaries of H(t) = func(t), any Hermitian callable of absolute
    time, by the generic sixth-order Magnus step."""
    h = duration / nsteps
    t = t_start + h * np.arange(nsteps)
    nodes = t[:, None] + h * np.array(driving._GAUSS_NODES)
    return driving._expm_stack(np.stack([_magnus6_generator(h, *map(func, row)) for row in nodes]))


def _propagate_callable(func, duration, tol):
    """Propagator of H(t) = func(t) over [0, duration], refined from 64
    steps until halving the step moves it by less than tol."""
    compute = lambda n: [driving._ordered_product(_generic_steps(func, 0.0, duration, n))]
    return _doubling_refine(compute, tol, 64, 14, "generic reference")[0][0]


def _doubling_refine(compute, tol, nsub0, max_refine, where):
    """A refinement loop of its own for the references, independent of the
    protocol's _refine and its acceptance rule: compute(nsub) at nsub0,
    2 nsub0, ... until two results differ by less than tol (max column
    2-norm over the blocks).  Returns the last and the (nsub, delta) of
    every level, the first inf."""
    prev, nsub, history = None, nsub0, []
    for _ in range(max_refine + 1):
        cur = compute(nsub)
        delta = math.inf
        if prev is not None:
            delta = float(np.max([max_column_distance(a, b) for a, b in zip(cur, prev)]))
            if not math.isfinite(delta):
                raise RuntimeError(f"{where} gave a non-finite change ({delta}) at nsub={nsub}")
        history.append((nsub, delta))
        if delta < tol:
            return cur, history
        prev, nsub = cur, 2 * nsub
    raise RuntimeError(f"{where} did not converge below {tol:g}; last change {delta:.3e}")


def _two_level_hamiltonian(A, omega, e1, e2):
    """Callable t -> 2x2 drive Hamiltonian [[e1, A e^{i w t}], [A e^{-i w t}, e2]]."""

    def func(t):
        off = A * np.exp(1.0j * omega * t)
        return np.array([[e1, off], [np.conj(off), e2]], dtype=complex)

    return func


def _dense_inversion_reference(params, calibration, tol):
    """Dense 2^N drive-window propagator with the halfway inversion: drive
    for tau_D/2, exp(-i Hz pi/J), drive for tau_D/2 with its phase shifted
    by -omega pi/J (the drive clock stops while the chain is off), then
    exp(+i Hz pi/J); refined from 64 steps per drive stretch until halving
    the step moves it by less than tol."""
    N, J = params.N, params.J
    omega, j_d, phase = calibration
    vop = j_d * unit_drive(N, driving_sign(N), default_drive_pairs(N))
    basis = driving._drive_basis(chain_block(krawtchouk_chain(N, J), chain_hops(N)), vop)
    hz, half, pulse = np.diag(hz_diagonal(N, J)), params.tau_d / 2.0, np.pi / J
    invert, restore = expm_hermitian(hz, pulse), expm_hermitian(-hz, pulse)

    def compute(nsub):
        first = _magnus_steps(basis, omega, phase, 0.0, half, nsub)
        second = _magnus_steps(basis, omega, phase - omega * pulse, half + pulse, half, nsub)
        return [
            restore @ driving._ordered_product(second) @ invert @ driving._ordered_product(first)
        ]

    return _doubling_refine(compute, tol, 64, 14, "dense reference")[0][0]


# ----------------------------------------------------------- drive stepping


def test_integrator_reports_nonconvergence():
    # one doubling cannot bring the change below 1e-15
    with pytest.raises(RuntimeError, match="did not converge"):
        run_iswap_protocol(ProtocolParams(N=4, M=1), tol=1e-15, max_refine=1)


_GAUSS4 = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)


def _magnus4_coefficients(omega, phase, t_start, duration, nsteps):
    """Coefficients in _drive_basis of the step generators of the fourth-
    order two-node Gauss-Legendre Magnus stepper that the sixth-order one
    replaced, kept here as its reference: G = h (h0 + (ca + cb)/2 vop) -
    (sqrt 3 h^2/12)(ca - cb) i[h0, vop], with ca and cb the drive at the
    two nodes; i[h0, vop] is the basis's third matrix."""
    h = duration / nsteps
    t = t_start + h * np.arange(nsteps)
    ca = np.cos(omega * (t + _GAUSS4[0] * h) + phase)
    cb = np.cos(omega * (t + _GAUSS4[1] * h) + phase)
    coeffs = np.zeros((nsteps, 10))
    coeffs[:, 0] = h
    coeffs[:, 1] = (h / 2.0) * (ca + cb)
    coeffs[:, 2] = -(np.sqrt(3.0) * h * h / 12.0) * (ca - cb)
    return coeffs


# (omega, phase, duration) of the test drive
_TEST_CLOCK = (3.0, 0.1, 2.0)


def _test_drive(rng):
    """(h0, vop) of a 4-level test drive."""
    h0 = np.diag([0.0, 1.0, 3.0, 6.0]) + 0.1 * np.ones((4, 4))
    v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return h0, 0.5 * (v + v.conj().T)


def test_drive_steps_are_sixth_order(rng):
    basis = driving._drive_basis(*_test_drive(rng))
    omega, phase, duration = _TEST_CLOCK
    us = [
        driving._ordered_product(_magnus_steps(basis, omega, phase, 0.0, duration, n))
        for n in (8, 16, 32, 64)
    ]
    deltas = [max_column_distance(fine, coarse) for coarse, fine in zip(us, us[1:])]
    assert deltas[-1] > 1e-11
    for coarse, fine in zip(deltas, deltas[1:]):
        assert 40.0 < coarse / fine < 90.0


def test_drive_basis_steps_match_the_generic_step(rng):
    # the fixed commutator basis expands the same order-six formula that the
    # generic step evaluates with its commutators formed at each step
    h0, vop = _test_drive(rng)
    basis = driving._drive_basis(h0, vop)
    omega, phase, duration = _TEST_CLOCK
    func = lambda t: h0 + np.cos(omega * t + phase) * vop
    for t0, n in ((0.0, 8), (0.3, 5)):
        fast = _magnus_steps(basis, omega, phase, t0, duration, n)
        generic = _generic_steps(func, t0, duration, n)
        assert np.max(np.abs(fast - generic)) <= 1e-13


@pytest.mark.parametrize(
    "params", [ProtocolParams(N=4, M=1), ProtocolParams(N=6, M=4, noise_eps=0.01, seed=3)]
)
def test_sixth_order_protocol_matches_fourth_order_reference(monkeypatch, params):
    fast = run_iswap_protocol(params)
    sixth = run_iswap_protocol(params, tol=3e-11)
    monkeypatch.setattr(driving, "_step_coefficients", _magnus4_coefficients)
    reference = run_iswap_protocol(params, tol=3e-11)
    assert len(reference.refinement) > len(fast.refinement)
    # the patch reached the run: at one tolerance the fourth-order steps
    # need more levels than the sixth-order ones
    assert len(reference.refinement) > len(sixth.refinement)
    assert np.max(np.abs(fast.unitary - reference.unitary)) <= 1e-10


def test_step_coefficients_are_cached_read_only():
    params = ProtocolParams(N=6, M=16, noise_eps=1e-2, seed=3)
    driving._step_coefficients.cache_clear()
    cold = run_iswap_protocol(params)
    info = driving._step_coefficients.cache_info()
    warm = run_iswap_protocol(dataclasses.replace(params, seed=11))
    again = run_iswap_protocol(params)
    # a second sample of the layout steps only stretches already formed
    assert driving._step_coefficients.cache_info().misses == info.misses
    assert info.maxsize is not None and info.currsize <= info.maxsize
    assert warm.error != cold.error
    assert again.unitary.tobytes() == cold.unitary.tobytes()
    coeffs = driving._step_coefficients(3.0, 0.4, 0.0, 1.0, 8)
    assert not coeffs.flags.writeable


@pytest.mark.parametrize("N, M", [(4, 1), (6, 4), (8, 4)])
def test_default_runs_converge_at_the_second_level(N, M):
    res = run_iswap_protocol(ProtocolParams(N=N, M=M))
    assert [n for n, _ in res.refinement] == [8, 64]


# --------------------------------------------------------- step exponentials


@pytest.mark.parametrize("m, theta", driving._TAYLOR_DEGREES)
def test_taylor_thresholds_meet_their_remainder_bound(m, theta):
    assert driving._taylor_remainder_bound(theta, m) <= 2.0**-53
    # and each is the largest such norm, not just a safe one
    assert driving._taylor_remainder_bound(theta * (1.0 + 1e-9), m) > 2.0**-53


def _hermitian_stack(rng, count, n, norm):
    """Random Hermitian stack whose largest 1-norm is ``norm``."""
    a = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    a = a + np.conj(np.swapaxes(a, -1, -2))
    return a * (norm / np.abs(a).sum(axis=-2).max())


def test_taylor8_coefficients_give_the_degree_8_taylor_polynomial():
    x1, x2, x3, x4, x5, x6, x7, y2 = driving._T8_COEFFS
    poly = np.polynomial.Polynomial
    a = poly([0.0, 1.0])
    a2 = a * a
    a4 = a2 * (x1 * a + x2 * a2)
    t8 = 1.0 + a + y2 * a2 + (x3 * a2 + a4) * (x4 + x5 * a + x6 * a2 + x7 * a4)
    assert t8.degree() == 8
    for k, coef in enumerate(t8.coef):
        assert abs(coef * math.factorial(k) - 1.0) <= 1e-15, k


@pytest.mark.parametrize("n", [1, 6, 20, 70])
def test_expm_stack_matches_eigh_oracle(rng, n):
    (_, theta8), (_, theta12) = driving._TAYLOR_DEGREES
    above = 1.0 + 1e-9
    # degree 8 at and below its threshold, with one squaring just above it
    # and up to twice it, degree 12 just above that, then one and many
    # squarings of degree 12
    norms = (1e-4, theta8, theta8 * above, 2.0 * theta8, 2.0 * theta8 * above,
             theta12, 2.0 * theta12, 1.0, 50.0)
    for count in (1, 27, 45):
        for norm in norms:
            gs = np.ascontiguousarray(_hermitian_stack(rng, count, n, norm))
            # the same values in a view that is not C-contiguous
            strided = np.swapaxes(np.conj(gs), -1, -2)
            assert np.array_equal(strided, gs)
            assert n == 1 or not strided.flags.c_contiguous
            want = expm_hermitian(gs)
            for stack in (gs, strided):
                u = driving._expm_stack(stack)
                # and the same in scratch arrays, as the protocol steps
                work = np.empty((5, count, n, n), dtype=complex)
                assert np.array_equal(driving._expm_stack(stack, work), u)
                assert u.shape == gs.shape
                assert np.max(np.abs(u - want)) <= 1e-13, (count, norm)
                gram = u @ np.conj(np.swapaxes(u, -1, -2))
                assert np.max(np.abs(gram - np.eye(n))) <= 1e-13, (count, norm)


def _random_drive_basis(rng, n):
    """_drive_basis of a random n x n drive: h0 of 1-norm 5, vop of 1-norm 1."""
    h0, vop = (_hermitian_stack(rng, 1, n, norm)[0] for norm in (5.0, 1.0))
    return driving._drive_basis(h0, vop)


@pytest.mark.parametrize("n", [6, 15, 20, 70])
def test_chunked_cell_map_equals_the_whole_step_stack(rng, n):
    basis = _random_drive_basis(rng, n)
    omega, phase = 3.0, 0.4
    chunk = driving._chunk_length(n)
    for nsteps in sorted({1, chunk - 1, chunk, chunk + 1, 3 * chunk + 1} - {0}):
        # [0.5, 1] of a cell at 2 nsteps substeps per cell: nsteps steps
        got = driving._cell_map(basis, omega, phase, 2 * nsteps, 0.5, 1)
        whole = _magnus_steps(basis, omega, phase, 0.5 * np.pi / omega, 0.5 * np.pi / omega, nsteps)
        assert len(whole) == nsteps
        assert np.max(np.abs(got - driving._ordered_product(whole))) <= 1e-13, nsteps


@pytest.mark.parametrize("n", [20, 70])
def test_cell_map_memory_does_not_grow_with_the_step_count(rng, n):
    # a chunk holds at most 32 steps at these sizes, so from 32 substeps per
    # cell on, only the chunk count grows with nsub
    assert driving._chunk_length(n) <= 32
    basis = _random_drive_basis(rng, n)

    def peak(nsub):
        tracemalloc.start()
        try:
            driving._cell_map(basis, 3.0, 0.4, nsub, 0, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(256) <= 1.5 * peak(32)


def test_expm_stack_rejects_non_finite_generators():
    gs = np.zeros((3, 2, 2), dtype=complex)
    gs[1, 0, 1] = np.nan
    with pytest.raises(ValueError):
        driving._expm_stack(gs)


@pytest.mark.parametrize(
    "params",
    [ProtocolParams(N=4, M=1), ProtocolParams(N=6, M=4, noise_eps=0.01, seed=3)],
)
def test_taylor_steps_match_eigh_reference_route(monkeypatch, params):
    fast = run_iswap_protocol(params)
    # the eigendecomposition route the Taylor kernel replaced (it needs no
    # scratch arrays)
    monkeypatch.setattr(driving, "_expm_stack", lambda gs, work=None: expm_hermitian(gs))
    reference = run_iswap_protocol(params)
    assert fast.substeps_per_period == reference.substeps_per_period
    assert max_column_distance(fast.unitary, reference.unitary) < 1e-9


# ------------------------------------------------------ particle-hole pairing


def _sector_blocks(N, sign, pairs, eps, seed):
    """Chain and drive blocks of every sector, built independently of
    run_iswap_protocol, and the inversion phases."""
    h = chain_block(krawtchouk_chain(N, 1.0, noise_eps=eps, seed=seed), chain_hops(N))
    v = 0.3 * unit_drive(N, sign, pairs)
    p = np.exp(-1.0j * np.pi * hz_diagonal(N, 1.0))
    sectors = [sector_indices(N, q) for q in range(N + 1)]
    return [(h[np.ix_(ix, ix)], v[np.ix_(ix, ix)], p[ix]) for ix in sectors]


def _window_from_maps(ua, ub, halves, invert):
    """Drive-window propagator of one sector from its half-period maps over
    a whole number of half-periods per window: the composition the
    resonant route used before windows were cut into drive-clock cells."""
    if invert is None:
        return driving._compose_half_periods(ua, ub, 2 * halves, False)
    first = driving._compose_half_periods(ua, ub, halves, False)
    second = driving._compose_half_periods(ua, ub, halves, bool(halves % 2))
    return np.conj(invert)[:, None] * (second @ (invert[:, None] * first))


def _stepped_halves(basis, omega, phase, nsub):
    """A sector's first and second half-period maps, each stepped on its
    own (no transposition or fold)."""
    return tuple(driving._cell_map(basis, omega, phase, nsub, a, a + 1) for a in (0, 1))


def _calibrated_phase(sign):
    """A phase the calibration rule allows: a multiple of pi under '+', an
    odd multiple of pi/2 under '-'."""
    return -np.pi if sign == "+" else -np.pi / 2


def _layout_frequency_and_phase(N, sign, pairs):
    """The drive frequency and phase of the drive on pairs with sign at chain
    size N: the calibration's if it is N's own layout; otherwise (some of
    these couple nothing, so there is no calibrated phase) the resonance and
    a phase the calibration rule allows."""
    if (sign, pairs) == (driving_sign(N), default_drive_pairs(N)):
        omega, _, phase = drive_calibration(ProtocolParams(N=N))
        return omega, phase
    return resonance_frequency(N), _calibrated_phase(sign)


def _step_window_directly(h0, vop, omega, phase, length, invert, nsub):
    """Drive-window propagator stepped end to end on the drive clock, at
    least nsub substeps per half-period, for any drive frequency."""
    n = max(1, int(np.ceil(length * omega / np.pi * nsub)))
    basis = driving._drive_basis(h0, vop)
    if invert is None:
        return driving._ordered_product(
            _magnus_steps(basis, omega, phase, 0.0, 2 * length, 2 * n)
        )
    first = driving._ordered_product(_magnus_steps(basis, omega, phase, 0.0, length, n))
    second = driving._ordered_product(_magnus_steps(basis, omega, phase, length, length, n))
    return np.conj(invert)[:, None] * (second @ (invert[:, None] * first))


@pytest.mark.parametrize(
    "N, sign, pairs, phase, eps, seed",
    [
        (4, "+", (0, 1), -np.pi, 0.05, 1),
        (4, "-", (1,), 0.3, 0.01, 2),
        (6, "-", (1,), -np.pi / 2, 0.01, 3),
        (6, "+", (0, 2), 1.1, 0.05, 4),
        (8, "+", (1,), -np.pi, 0.01, 5),
        (8, "-", (0, 3), 2.0, 0.05, 6),
    ],
)
def test_derived_sector_maps_match_stepped_maps(N, sign, pairs, phase, eps, seed):
    # the partner maps hold at any phase; the window route steps only the
    # phases the calibration gives
    blocks = _sector_blocks(N, sign, pairs, eps, seed)
    omega, nsub, halves = float(N * N) / 4.0, 16, 2 * N + 1
    bases = [driving._drive_basis(h, v) for h, v, _ in blocks]
    stepped = [_stepped_halves(basis, omega, phase, nsub) for basis in bases]
    calibrated = _calibrated_phase(sign)
    for q in range(N // 2 + 1):
        for got, want in zip(driving._partner_maps(*stepped[q], sign), stepped[N - q]):
            assert np.max(np.abs(got - want)) <= 1e-13, (N - q, sign)
        partners = (q,) if 2 * q == N else (q, N - q)
        for inversion in (True, False):
            inverts = [blocks[p][2] if inversion else None for p in partners]
            maps = driving._sector_maps(bases[q], omega, calibrated, nsub, sign == "-" and 2 * q == N)
            windows = driving._drive_window_sector(
                bases[q], omega, calibrated, halves * np.pi / omega, inverts, nsub, sign, maps
            )
            assert len(windows) == len(partners)
            for p, inv, window in zip(partners, inverts, windows):
                maps = _stepped_halves(bases[p], omega, calibrated, nsub)
                want = _window_from_maps(*maps, halves, inv)
                assert np.max(np.abs(window - want)) <= 1e-13, (p, sign, inversion)


def _step_every_sector(params):
    """Stand-in for _drive_window_sector that steps each returned sector
    from its own blocks, the route the particle-hole pairing replaced: a
    resonant window composed from the sector's half-period maps, any other
    window stepped end to end on the drive clock."""
    _, j_d, _ = drive_calibration(params)
    h = chain_block(
        krawtchouk_chain(params.N, params.J, noise_eps=params.noise_eps, seed=params.seed),
        chain_hops(params.N),
    )
    v = j_d * unit_drive(params.N, driving_sign(params.N), default_drive_pairs(params.N))
    sectors = [sector_indices(params.N, q) for q in range(params.N + 1)]
    blocks = [(h[np.ix_(ix, ix)], v[np.ix_(ix, ix)]) for ix in sectors]

    def window(basis, omega, phase, length, inverts, nsub, sign, maps):
        q = next(
            q for q, (hb, vb) in enumerate(blocks)
            if np.array_equal(hb, basis[0]) and np.array_equal(vb, basis[1])
        )
        partners = (q,) if 2 * q == params.N else (q, params.N - q)
        halves = length / (np.pi / omega)
        if abs(halves - round(halves)) < 1e-12:
            maps = [
                _stepped_halves(driving._drive_basis(*blocks[p]), omega, phase, nsub)
                for p in partners
            ]
            return [_window_from_maps(*m, round(halves), inv) for m, inv in zip(maps, inverts)]
        return [
            _step_window_directly(*blocks[p], omega, phase, length, inv, nsub)
            for p, inv in zip(partners, inverts)
        ]

    return window


def _assert_matches_every_sector_stepped(monkeypatch, params, omega=None):
    fast = run_iswap_protocol(params, omega_override=omega)
    monkeypatch.setattr(driving, "_drive_window_sector", _step_every_sector(params))
    reference = run_iswap_protocol(params, omega_override=omega)
    assert [n for n, _ in fast.refinement] == [n for n, _ in reference.refinement]
    assert max_column_distance(fast.unitary, reference.unitary) < 1e-10
    assert abs(fast.error - reference.error) < 1e-12


@pytest.mark.parametrize(
    "params",
    [
        ProtocolParams(N=4, M=1),
        ProtocolParams(N=4, M=2, halfway_inversion=False),
        ProtocolParams(N=6, M=4, noise_eps=0.01, seed=3),
        ProtocolParams(N=6, M=20, noise_eps=0.01, seed=11),
    ],
)
def test_paired_protocol_matches_every_sector_stepped(monkeypatch, params):
    _assert_matches_every_sector_stepped(monkeypatch, params)


@pytest.mark.parametrize(
    "params, omega",
    [
        # '-' pairing (N = 6) with partial half-periods at every window end
        (ProtocolParams(N=6, M=4), 8.9),
        # '+' pairing
        (ProtocolParams(N=4, M=1), 3.7),
        (ProtocolParams(N=4, M=1, noise_eps=0.01, seed=2), 4.3),
        # each window shorter than one half-period
        (ProtocolParams(N=4, M=1), 0.5),
        (ProtocolParams(N=4, M=2, halfway_inversion=False), 3.9),
    ],
)
def test_off_resonant_paired_protocol_matches_every_sector_stepped(monkeypatch, params, omega):
    _assert_matches_every_sector_stepped(monkeypatch, params, omega)


# at 0.3 the second window, [0.3, 0.6] half-periods, lies inside one cell
@pytest.mark.parametrize("omega", [3.7, 1.3, 0.5, 0.3])
def test_off_resonant_protocol_matches_explicit_schedule(omega):
    params = ProtocolParams(N=4, M=1)
    _, j_d, phase = drive_calibration(params)
    window = _dense_inversion_reference(params, (omega, j_d, phase), tol=1e-11)
    uk = build_eigengate(4, 1.0).unitary
    reference = uk.conj().T @ window @ uk
    fast = run_iswap_protocol(params, omega_override=omega)
    assert max_column_distance(fast.unitary, reference) < 1e-9


def _stacks_per_level(N, nsubs, halves_of):
    """Expected matrices stepped per sector per level ((count, n, n), as
    _per_sector_level gives them) of a run whose levels step nsubs substeps
    per half-period: sectors 0 < q <= N/2 in order, halves_of(q, nsub)
    giving the matrix count of each stretch sector q steps."""
    return [
        (sum(halves_of(q, nsub)), n, n)
        for nsub in nsubs
        for q in range(1, N // 2 + 1)
        for n in [len(sector_indices(N, q))]
    ]


def _per_sector_level(calls):
    """The shapes of the _expm_stack calls of a run, (count, n, n), with the
    counts of consecutive calls on one sector size summed: a cell is
    stepped in chunks, one call each, and within a level the sectors
    0 < q <= N/2 are stepped in order of increasing size."""
    out = []
    for count, n, _ in calls:
        if out and out[-1][1] == n:
            count += out.pop()[0]
        out.append((count, n, n))
    return out


@pytest.mark.parametrize("N, per_level", [(4, 2), (6, 3), (8, 4)])
def test_each_level_steps_only_the_unpaired_half_periods(monkeypatch, N, per_level):
    # with the calibrated phase each sector 0 < q <= N/2 steps its first
    # half-period only, the second being its transpose, and under the '-'
    # pairing (N = 6) the half-filled sector steps its first quarter period
    # only, folded over the cell's midpoint; q = 0 and every q > N/2 step none
    calls = _count_expm_stacks(monkeypatch)
    res = run_iswap_protocol(ProtocolParams(N=N, M=4), tol=np.inf, nsub0=4, max_refine=1)
    assert len(res.refinement) == 2
    stepped = _per_sector_level(calls)
    assert len(stepped) == 2 * per_level
    folds = driving_sign(N) == "-"
    assert stepped == _stacks_per_level(
        N, (4, 8), lambda q, nsub: [nsub // 2 if folds and 2 * q == N else nsub]
    )


@pytest.mark.parametrize("N, M, per_level", [(4, 11, 2), (6, 13, 3)])
def test_window_within_roundoff_of_whole_cells_steps_no_partial_cell(monkeypatch, N, M, per_level):
    # on resonance the window's cell count M omega / J misses its integer by
    # roundoff here; it must still be composed from whole half-periods only
    params = ProtocolParams(N=N, M=M)
    cells = (params.tau_d / 2.0) / (np.pi / resonance_frequency(N))
    assert cells != round(cells) and abs(cells - round(cells)) < 1e-12
    calls = _count_expm_stacks(monkeypatch)
    run_iswap_protocol(params, tol=np.inf, nsub0=4, max_refine=1)
    stepped = _per_sector_level(calls)
    assert len(stepped) == 2 * per_level
    folds = driving_sign(N) == "-"
    assert stepped == _stacks_per_level(
        N, (4, 8), lambda q, nsub: [nsub // 2 if folds and 2 * q == N else nsub]
    )


def _count_expm_stacks(monkeypatch):
    calls = []
    kernel = driving._expm_stack

    def counting_kernel(gs, *args):
        calls.append(gs.shape)
        return kernel(gs, *args)

    monkeypatch.setattr(driving, "_expm_stack", counting_kernel)
    return calls


@pytest.mark.parametrize(
    "N, sign, pairs, seed",
    [(4, "+", (0, 1), 1), (6, "-", (1,), 3), (6, "+", (0, 1), 4), (8, "+", (1,), 5), (8, "-", (0, 1), 6)],
)
def test_transposed_second_half_period_matches_stepped(N, sign, pairs, seed):
    omega, phase = _layout_frequency_and_phase(N, sign, pairs)
    blocks = _sector_blocks(N, sign, pairs, 0.01, seed)
    driving._check_sector_symmetries([h for h, _, _ in blocks], [v for _, v, _ in blocks], sign)
    for q, (h, v, _) in enumerate(blocks[: N // 2 + 1]):
        basis = driving._drive_basis(h, v)
        got = driving._half_period_maps(basis, omega, phase, 32)
        for g, want in zip(got, _stepped_halves(basis, omega, phase, 32)):
            assert np.max(np.abs(g - want)) <= 1e-13, q


def _reversal_symmetry(h, v):
    """Whether R h R = h and R v R = -v exactly, R the basis reversal."""
    return np.array_equal(h[::-1, ::-1], h) and np.array_equal(v[::-1, ::-1], -v)


@pytest.mark.parametrize(
    "N, pairs, seed",
    # the '-' layouts of test_transposed_second_half_period_matches_stepped,
    # and N = 10's default
    [(6, (1,), 3), (8, (0, 1), 6), (10, (2,), 7)],
)
def test_folded_half_period_matches_stepped(N, pairs, seed):
    omega, phase = _layout_frequency_and_phase(N, "-", pairs)
    h, v, _ = _sector_blocks(N, "-", pairs, 0.01, seed)[N // 2]
    assert _reversal_symmetry(h, v)
    basis = driving._drive_basis(h, v)
    for nsub in (8, 32):
        stepped = driving._half_period_maps(basis, omega, phase, nsub)
        folded = driving._half_period_maps(basis, omega, phase, nsub, folded=True)
        for got, want in zip(folded, stepped):
            assert np.max(np.abs(got - want)) <= 1e-13, nsub


@pytest.mark.parametrize(
    "params",
    [
        ProtocolParams(N=6, M=16, noise_eps=0.01, seed=3),
        ProtocolParams(N=6, M=20, noise_eps=0.01, seed=11),
        ProtocolParams(N=10, M=4),
    ],
)
def test_folded_protocol_matches_stepping_the_half_filled_sector_whole(monkeypatch, params):
    # N = 10 compares the two routes at one fixed level: refined to
    # convergence it steps two more
    kwargs = {"tol": math.inf, "max_refine": 1} if params.N == 10 else {}
    fast = run_iswap_protocol(params, **kwargs)
    folds, stepped = [], driving._half_period_maps

    def unfolded(basis, omega, phase, nsub, folded=False):
        # every first half-period stepped whole: the route the fold replaced
        folds.append(folded)
        return stepped(basis, omega, phase, nsub)

    monkeypatch.setattr(driving, "_half_period_maps", unfolded)
    reference = run_iswap_protocol(params, **kwargs)
    # one folded sector per level
    assert folds.count(True) == len(reference.refinement)
    assert [n for n, _ in fast.refinement] == [n for n, _ in reference.refinement]
    assert np.max(np.abs(fast.unitary - reference.unitary)) <= 1e-12
    assert abs(fast.error - reference.error) <= 1e-13


@pytest.mark.parametrize("N", [8, 10, 12])
def test_resonant_cell_counts_snap_to_whole_cells(N):
    # the count's roundoff grows with M, past any fixed absolute tolerance
    cell = np.pi / resonance_frequency(N)
    misses = []
    for M in range(1, 2001):
        cells = (ProtocolParams(N=N, M=M).tau_d / 2.0) / cell
        misses.append(abs(cells - round(cells)))
        snapped = driving._snap(cells)
        assert type(snapped) is int and snapped == M * N * N // 4, M
        assert driving._snap(cells * (1.0 + 1e-13)) != snapped
    assert max(misses) >= 1e-12


def test_long_resonant_window_steps_no_partial_cell(monkeypatch):
    params = ProtocolParams(N=8, M=700)
    cells = (params.tau_d / 2.0) / (np.pi / resonance_frequency(8))
    assert abs(cells - round(cells)) >= 1e-12
    calls = _count_expm_stacks(monkeypatch)
    run_iswap_protocol(params, tol=np.inf, nsub0=4, max_refine=1)
    # each sector 0 < q <= 4 steps its first half-period whole, nothing more
    stepped = _per_sector_level(calls)
    assert len(stepped) == 2 * 4
    assert stepped == _stacks_per_level(8, (4, 8), lambda q, nsub: [nsub])


def test_unpaired_sectors_are_rejected(monkeypatch):
    # a real diagonal ramp keeps every chain block real symmetric but breaks
    # the spin-flip symmetry: the run must stop, not silently pair sectors
    # that are not partners
    build = driving.chain_block

    def ramped_block(spec, hops):
        blk = build(spec, hops)
        return blk + np.diag(np.linspace(0.0, 0.1, len(blk)))

    monkeypatch.setattr(driving, "chain_block", ramped_block)
    with pytest.raises(ValueError, match="sectors 1 and 3 are not particle-hole partners"):
        run_iswap_protocol(ProtocolParams(N=4, M=1))


def test_time_reversal_breaking_sectors_are_rejected(monkeypatch):
    # an imaginary antisymmetric term that the basis reversal leaves alone
    # keeps every chain block Hermitian and the sectors paired, but the
    # second half-period map is then not the first's transpose: the run must
    # stop, not step a map it cannot derive
    build = driving.chain_block

    def complex_block(spec, hops):
        blk = build(spec, hops)
        k = np.zeros(blk.shape)
        if len(blk) > 1:
            k[0, 1], k[1, 0] = 1.0, -1.0
        return blk + 0.01j * (k + k[::-1, ::-1])

    monkeypatch.setattr(driving, "chain_block", complex_block)
    with pytest.raises(ValueError, match="sector 1 is not time-reversal symmetric"):
        run_iswap_protocol(ProtocolParams(N=4, M=1))


def _refine_blocks(compute, tol, levels=tuple(1 << k for k in range(11))):
    """driving._refine over levels (by default ten doublings from 1) of
    compute(nsub), a list of blocks, with no maps to bound the change
    from."""
    return driving._refine(compute, lambda nsub, blocks: blocks, tol, levels, "test loop")


def test_refinement_stops_at_a_nan_block():
    # a NaN anywhere among the blocks must stop the loop, also when a finite
    # block comes first (a plain max over the distances would drop the NaN)
    def compute(nsub):
        return [np.eye(2), np.full((2, 2), np.nan)]

    with pytest.raises(RuntimeError, match="non-finite change"):
        _refine_blocks(compute, 1e-9)


def test_refinement_history_ends_at_the_reported_level():
    res = run_iswap_protocol(ProtocolParams(N=6, M=4, noise_eps=0.01, seed=3))
    substeps = [n for n, _ in res.refinement]
    deltas = [d for _, d in res.refinement]
    assert substeps == [8, 64]
    assert deltas[0] == np.inf and all(d >= 1e-9 for d in deltas[:-1])
    assert res.refinement[-1] == (res.substeps_per_period, res.converged_delta)
    assert res.converged_delta < 1e-9


_PROBE_PANEL = [
    *(ProtocolParams(N=N, M=M) for N in (4, 6, 8) for M in (1, 4, 16, 64)),
    ProtocolParams(N=4, M=4, noise_eps=0.01, seed=1),
    ProtocolParams(N=6, M=16, noise_eps=0.01, seed=3),
    ProtocolParams(N=6, M=20, noise_eps=0.01, seed=11),
    ProtocolParams(N=8, M=16, noise_eps=0.01, seed=5),
    ProtocolParams(N=4, M=2, halfway_inversion=False),
    ProtocolParams(N=6, M=4, halfway_inversion=False),
    # the unitarity defect (~2e-9) is above tol/64: the raw changes decide
    ProtocolParams(N=4, M=100000),
]

# the levels a run returns: [8, 64] where the probe decides; a strong
# drive, whose level 128 is accepted on its doubling estimate, and the long
# window, on its raw doubling change, go on; off resonance no probe is
# stepped
_RETURNED_LEVELS = {
    (ProtocolParams(N=8, M=1), None): [8, 64, 128],
    (ProtocolParams(N=4, M=100000), None): [8, 64, 128],
    (ProtocolParams(N=4, M=1), 3.7): [64, 128],
    (ProtocolParams(N=6, M=4, noise_eps=0.01, seed=2), 8.9): [64, 128],
}


@pytest.mark.parametrize(
    "params, omega",
    [(params, None) for params in _PROBE_PANEL]
    + [(ProtocolParams(N=4, M=1), 3.7), (ProtocolParams(N=6, M=4, noise_eps=0.01, seed=2), 8.9)],
)
def test_probed_refinement_returns_the_doubling_loops_level(params, omega):
    # the returned level is within tol/8 of the level three doublings finer,
    # up to the roundoff floor of the two (their unitarity defect), and its
    # estimated error is never below half the distance where the distance
    # stands above that floor
    tol = 1e-9
    levels = _RETURNED_LEVELS.get((params, omega), [8, 64])
    res = run_iswap_protocol(params, tol=tol, omega_override=omega)
    assert [n for n, _ in res.refinement] == levels
    # tol=inf returns the first level compared: nsub0 itself where a probe
    # leads (whole cells), 2 nsub0 otherwise
    nsub0 = 4 * levels[-1] if omega is None else 2 * levels[-1]
    finer = run_iswap_protocol(params, tol=math.inf, nsub0=nsub0, max_refine=1, omega_override=omega)
    assert finer.substeps_per_period == 8 * levels[-1]
    distance = max(max_column_distance(a, b) for a, b in zip(res.blocks, finer.blocks))
    floor = max(res.unitarity_defect, finer.unitarity_defect)
    assert distance <= tol / 8 + floor
    assert res.converged_delta < tol
    if distance > floor:
        assert distance / 2 <= res.converged_delta


@pytest.mark.parametrize("nsub0, first", [(8, 16), (16, 4), (48, 12)])
def test_probe_steps_only_an_even_eighth_of_the_candidate(nsub0, first):
    # N = 6 folds its half-filled sector into ceil(nsub/2) steps per quarter
    # period, so only an even probe level is an exact eighth of nsub0
    res = run_iswap_protocol(ProtocolParams(N=6, M=4), nsub0=nsub0)
    assert res.refinement[0] == (first, math.inf)
    assert res.converged_delta < 1e-9


def _record_refinement(monkeypatch):
    """Record, while the run lasts, the step, compose and cells the protocol
    hands _refine and the nsub of every window _drive_window_sector
    composes."""
    seen, composed = {}, []
    refine, window = driving._refine, driving._drive_window_sector

    def recording_refine(step, compose, tol, levels, where, cells=None):
        seen.update(step=step, compose=compose, cells=cells)
        return refine(step, compose, tol, levels, where, cells)

    def recording_window(*args, nsub, **kwargs):
        composed.append(nsub)
        return window(*args, nsub=nsub, **kwargs)

    monkeypatch.setattr(driving, "_refine", recording_refine)
    monkeypatch.setattr(driving, "_drive_window_sector", recording_window)
    return seen, composed


@pytest.mark.parametrize("params", _PROBE_PANEL)
def test_map_bound_decides_only_above_the_window_change(monkeypatch, params):
    # the bound from the half-period maps lies above the scaled change of
    # the windows it stands in for, at the probe's comparison and at a
    # doubling one (N = 8 M = 1), so it accepts only what that change
    # would; where it accepts, it is the level's delta, and a probe's
    # windows are never composed
    tol = 1e-9
    seen, composed = _record_refinement(monkeypatch)
    res = run_iswap_protocol(params, tol=tol)
    monkeypatch.undo()
    step, compose, cells = seen["step"], seen["compose"], seen["cells"]
    (prev, _), (last, delta) = [(n // 2, d) for n, d in res.refinement[-2:]]
    maps, prev_maps = step(last), step(prev)
    windows = compose(last, maps)
    change = driving._change(windows, compose(prev, prev_maps), "test", last)
    if driving._unitarity_defect(windows) >= tol / 64:
        # ungated (M = 1e5): the raw change decides, and no bound is tried
        assert delta == change < tol
        return
    scale = 1.0 / (driving._error_fall(last // prev) - 1.0)
    bound = scale * cells * driving._map_change(maps, prev_maps)
    assert change * scale <= bound
    if bound < tol:
        assert delta == bound
    else:
        assert delta == change * scale < tol
    if len(res.refinement) == 2:
        assert (prev in composed) == (delta != bound)


@pytest.mark.parametrize("N, M", [(4, 1), (6, 4), (6, 20), (8, 16), (8, 64)])
def test_default_runs_decide_from_the_maps(monkeypatch, N, M):
    # no probe window is composed: only the candidate's
    _, composed = _record_refinement(monkeypatch)
    run_iswap_protocol(ProtocolParams(N=N, M=M, noise_eps=0.01, seed=1))
    assert composed == [32] * (N // 2 + 1)


def test_run_the_map_bound_cannot_decide_steps_each_level_once(monkeypatch):
    # at N = 8 M = 4 the bound is not below tol: the probe's windows are
    # composed from the maps already stepped, not stepped again
    calls = _count_expm_stacks(monkeypatch)
    _, composed = _record_refinement(monkeypatch)
    res = run_iswap_protocol(ProtocolParams(N=8, M=4))
    assert [n for n, _ in res.refinement] == [8, 64]
    assert sorted(set(composed)) == [4, 32]
    assert _per_sector_level(calls) == _stacks_per_level(8, (4, 32), lambda q, nsub: [nsub])


def test_default_run_steps_only_the_probe_and_the_returned_level(monkeypatch):
    # N = 6 folds its half-filled sector: half the steps, over a quarter period
    calls = _count_expm_stacks(monkeypatch)
    res = run_iswap_protocol(ProtocolParams(N=6, M=4))
    assert [n for n, _ in res.refinement] == [8, 64]
    assert _per_sector_level(calls) == _stacks_per_level(
        6, (4, 32), lambda q, nsub: [nsub // 2 if 2 * q == 6 else nsub]
    )


def _scripted_levels(changes, unitary=False):
    """compute(nsub) for _refine whose successive doubling levels from
    nsub = 1 differ by the given changes: 1 x 1 blocks holding their
    running sum, or, unitary, e^i times it, so that the unitarity gate
    holds."""
    values = np.concatenate([[0.0], np.cumsum(changes)])
    if unitary:
        values = np.exp(1.0j * values)
    return lambda nsub: [np.array([[values[nsub.bit_length() - 1]]])]


def test_doubling_levels_are_accepted_on_their_estimated_error():
    # under the unitarity gate a doubling level is accepted once its change
    # over 2^6 - 1 is below tol; without it, only once the raw change is
    changes = [1.0e-6, 3.0e-8, 5.0e-10]
    _, history = _refine_blocks(_scripted_levels(changes, unitary=True), 1e-9)
    assert [n for n, _ in history] == [1, 2, 4]
    assert history[-1][1] == pytest.approx(3.0e-8 / 63.0, rel=1e-6)
    _, history = _refine_blocks(_scripted_levels(changes), 1e-9)
    assert [n for n, _ in history] == [1, 2, 4, 8]
    assert history[-1][1] == pytest.approx(5.0e-10, rel=1e-6)


def test_refinement_stalls_on_a_change_that_does_not_fall():
    # changes as N = 4 M = 1e6 gives them: they grow with the substeps
    with pytest.raises(RuntimeError, match=r"did not converge below 1e-09: the change 2\.300e-08 "):
        _refine_blocks(_scripted_levels([1.0e-8, 2.3e-8, 1.0e-7]), 1e-9)
    # a fall just short of 4x stalls; 4x refines on
    with pytest.raises(RuntimeError, match="fell only 3.9x"):
        _refine_blocks(_scripted_levels([1.0e-6, 1.0e-6 / 3.9]), 1e-9)
    _, history = _refine_blocks(_scripted_levels([1.0e-6, 2.5e-7, 1e-10]), 1e-9)
    assert [n for n, _ in history] == [1, 2, 4, 8]
    # the probe's change (8 against 1) is not a doubling change: the first
    # doubling change may stand level with it
    scripted = _scripted_levels([0.0, 0.0, 1.0e-8, 1.0e-8, 1.0e-11])
    _, history = _refine_blocks(scripted, 1e-9, [1, 8, 16, 32])
    assert [n for n, _ in history] == [1, 8, 16, 32]


def test_refinement_does_not_stall_on_healthy_falls():
    # the changes of N = 10 M = 4 from nsub0 = 4, which fall 105, 62, 65,
    # 61 and 64x
    changes = [4.6e-2, 4.4e-4, 7.1e-6, 1.1e-7, 1.8e-9, 2.8e-11]
    _, history = _refine_blocks(_scripted_levels(changes), 1e-9)
    assert [n for n, _ in history] == [1, 2, 4, 8, 16, 32, 64]


@pytest.mark.parametrize("N, M, cells", [(4, 1000000, 8000000), (6, 30000, 540000), (8, 30000, 960000)])
def test_long_window_stops_on_its_roundoff_floor(monkeypatch, N, M, cells):
    # these windows once stepped all eleven levels before failing (N = 8 in
    # 44 s); refining only adds roundoff there, so the run stops after the
    # probe, the candidate and two doubling levels
    levels, window = set(), driving._drive_window_sector

    def counting_window(*args, nsub, **kwargs):
        levels.add(nsub)
        return window(*args, nsub=nsub, **kwargs)

    monkeypatch.setattr(driving, "_drive_window_sector", counting_window)
    with pytest.raises(RuntimeError) as exc:
        run_iswap_protocol(ProtocolParams(N=N, M=M))
    message = str(exc.value)
    assert levels == {4, 32, 64, 128}
    assert "did not converge" in message and "fell only" in message
    assert f"over {cells} half-period cells" in message
    assert re.search(r"unitarity defect is \d\.\de-0\d\)$", message)


def test_unitarity_defect_reads_the_blocks():
    res = run_iswap_protocol(ProtocolParams(N=4, M=1))
    assert res.unitarity_defect <= 1e-13
    dense = np.abs(res.unitary.conj().T @ res.unitary - np.eye(16)).max()
    assert res.unitarity_defect == pytest.approx(dense, abs=1e-15)
    assert "unitarity_defect" not in [f.name for f in dataclasses.fields(res)]


@pytest.mark.parametrize("N", [4, 6, 8, 10])
@pytest.mark.parametrize("M", [1, 3, 4, 16, 20, 101])
def test_zero_sector_windows_match_the_composed_identity(monkeypatch, N, M):
    # q = 0 and q = N have exactly zero blocks: their windows must be the
    # bits the half-period route composes from identity maps, unstepped
    plan = driving._layout_plan(N, 1.0)
    params = ProtocolParams(N=N, M=M)
    basis = np.zeros((10, 1, 1), dtype=complex)
    eye = np.eye(1, dtype=complex)
    for omega in (plan.omega, 0.9 * plan.omega):
        length, phase = params.tau_d / 2.0, -np.pi / 2.0
        halves = driving._snap(length / (np.pi / omega))
        partial = functools.partial(driving._cell_map, basis, omega, phase, 32)
        # the plan's pulse phases there are 1; a general phase checks the wrap
        for inverts in ([plan.inverts[0], plan.inverts[N]], [np.exp([0.7j]), np.exp([-2.1j])], [None, None]):
            calls = _count_expm_stacks(monkeypatch)
            got = driving._drive_window_sector(
                basis, omega, phase, length, inverts, nsub=32, sign=driving_sign(N),
                maps=driving._sector_maps(basis, omega, phase, 32, False),
            )
            assert calls == []
            want = [driving._window_map(eye, eye, partial, halves, inv) for inv in inverts]
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            monkeypatch.undo()


@pytest.mark.parametrize("J", [1e-300, 1e300, 5e-7, 2e6])
def test_protocol_params_reject_a_coupling_scale_out_of_range(J):
    # 1e-300 once overflowed the step coefficients and 1e300 the commutator
    # basis
    lo, hi = driving._J_RANGE
    with pytest.raises(ValueError, match=r"^J must be a finite number > 0 .* in " + re.escape(f"[{lo:g}, {hi:g}]")):
        ProtocolParams(N=4, M=1, J=J)


@pytest.mark.parametrize("J", [*driving._J_RANGE, 1e-3, 3.7, 1e3])
def test_protocol_runs_across_the_coupling_range(J):
    # times are in 1/J, so the gate error does not depend on J
    res = run_iswap_protocol(ProtocolParams(N=4, M=1, J=J))
    assert res.error == pytest.approx(6.72556e-4, rel=1e-5)


# ---------------------------------------------------------- two-level checks


def test_two_level_resonant_pulse_transfers_population():
    # rotating drive A e^{i w t} flips the qubit exactly at tau = pi/2A
    # when w matches the splitting; the reversed rotation sign does nothing
    gap, amp = 4.0, 0.02
    co = _two_level_hamiltonian(amp, gap, 0.0, gap)
    u = _propagate_callable(co, np.pi / (2.0 * amp), tol=1e-10)
    assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-8)
    counter = _two_level_hamiltonian(amp, -gap, 0.0, gap)
    u = _propagate_callable(counter, np.pi / (2.0 * amp), tol=1e-10)
    assert abs(u[1, 0]) ** 2 < (amp / gap) ** 2


def two_level_error(A: float, delta: float, gap: float) -> tuple:
    """(measured, leading-order) off-resonant error of a pi-pulse.

    measured = 1 - |cos[(pi/4A) sqrt(delta^2 + 4A^2)]|, valid when
    tau_D*gap/2pi and tau_D*delta/2pi are integers (tau_D = pi/2A);
    leading order is (pi^2/8)(A/delta)^2.
    """
    if delta <= 0:
        raise ValueError("off-resonant comparison needs delta > 0")
    tau = math.pi / (2.0 * A)
    for name, value in (("gap", gap), ("delta", delta)):
        cycles = tau * value / (2.0 * math.pi)
        if abs(cycles - round(cycles)) > 1e-9:
            raise ValueError(f"tau_D*{name}/2pi = {cycles:g} is not an integer")
    measured = 1.0 - abs(math.cos((math.pi / (4.0 * A)) * math.hypot(delta, 2.0 * A)))
    predicted = (math.pi**2 / 8.0) * (A / delta) ** 2
    return measured, predicted


def test_two_level_off_resonant_error_frozen():
    measured, predicted = two_level_error(1.0, 100.0, 400.0)
    assert measured == pytest.approx(0.00012334285150927826, rel=1e-9)
    assert predicted == pytest.approx(np.pi**2 / 8.0 * (1.0 / 100.0) ** 2, rel=1e-12)
    assert measured / predicted == pytest.approx(1.0, abs=0.01)


def test_two_level_error_input_validation():
    with pytest.raises(ValueError):
        two_level_error(1.0, -1.0, 400.0)
    with pytest.raises(ValueError):
        two_level_error(1.0, 100.0, 401.0)  # non-integer cycle count


# ------------------------------------------------------------- protocol core


def test_protocol_params_validation():
    with pytest.raises(ValueError):
        ProtocolParams(N=5)
    with pytest.raises(ValueError):
        ProtocolParams(N=2)
    with pytest.raises(ValueError):
        ProtocolParams(N=4, M=0)


def test_protocol_params_hold_no_drive_layout():
    # the chain size fixes the drive's sign and pairs (_layout_plan)
    assert [f.name for f in dataclasses.fields(ProtocolParams)] == [
        "N", "J", "M", "halfway_inversion", "noise_eps", "seed"
    ]


@pytest.mark.parametrize("J", [0.0, -1.0, np.nan, np.inf])
def test_protocol_params_reject_bad_coupling_scale(J):
    with pytest.raises(ValueError, match="J must be a finite number > 0"):
        ProtocolParams(N=4, J=J)


@pytest.mark.parametrize("J", [np.float32(1.0), np.float16(1.0), np.longdouble(1.0)])
def test_protocol_params_reject_numpy_floats_but_float64(J):
    # a float32 J once ran the whole protocol in single precision, silently
    with pytest.raises(ValueError, match=r"^J must be a finite number > 0 \(a numpy float only as float64\)"):
        ProtocolParams(N=4, J=J)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(N=4.0), "N"),
        # bools are ints to Python, but no count, scale, amplitude or seed
        (dict(N=4, M=True), "M"),
        (dict(N=4, M=False), "M"),
        (dict(N=4, J=True), "J"),
        (dict(N=4, J=False), "J"),
        (dict(N=4, seed=True), "seed"),
        (dict(N=4, seed=False), "seed"),
        (dict(N=True), "N"),
        (dict(N=4, noise_eps=True), "noise_eps"),
        (dict(N=4, M=0), "M"),
        (dict(N=4, noise_eps=1.0), "noise_eps"),
        (dict(N=4, M=1.5), "M"),
        (dict(N=4, M=np.inf), "M"),
        (dict(N=4, M=np.nan), "M"),
        (dict(N=4, J="1"), "J"),
        (dict(N=4, halfway_inversion="no"), "halfway_inversion"),
        (dict(N=4, halfway_inversion=0), "halfway_inversion"),
        (dict(N=4, noise_eps="0.1"), "noise_eps"),
        (dict(N=4, noise_eps=2.0), "noise_eps"),
        (dict(N=4, noise_eps=-1e-3), "noise_eps"),
        (dict(N=4, noise_eps=np.nan), "noise_eps"),
        (dict(N=4, noise_eps=False), "noise_eps"),
        (dict(N=4, seed=-1), "seed"),
        (dict(N=4, seed=1.5), "seed"),
    ],
)
def test_protocol_params_reject_bad_fields(kwargs, field):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        ProtocolParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        pytest.param({"nsub0": 0}, "nsub0 must be a positive integer", id="0"),
        pytest.param({"nsub0": -2}, "nsub0 must be a positive integer", id="-2"),
        pytest.param({"nsub0": 1.5}, "nsub0 must be a positive integer", id="1.5"),
        pytest.param({"nsub0": np.nan}, "nsub0 must be a positive integer", id="nan"),
        pytest.param({"max_refine": -1}, "max_refine must be an int >= 1", id="max_refine=-1"),
        pytest.param({"max_refine": 1.5}, "max_refine must be an int >= 1", id="max_refine=1.5"),
        # one level has nothing to be compared with, even at tol = inf
        pytest.param({"max_refine": 0, "tol": math.inf}, "max_refine must be an int >= 1", id="max_refine=0"),
    ],
)
def test_protocol_rejects_nonpositive_initial_substeps(kwargs, message):
    with pytest.raises(ValueError, match=message):
        run_iswap_protocol(ProtocolParams(N=4, M=1), **kwargs)


@pytest.mark.parametrize(
    "nsub0, max_refine",
    [(2**40, 10), (2**16 + 16, 1), (64, 11), (1, 17), (32, 10**300), (np.uint64(2**64 - 1), 10)],
)
def test_protocol_bounds_the_finest_level(monkeypatch, nsub0, max_refine):
    # refused before any stepping, with both fields named; 2^40 once asked
    # numpy for 2 TiB of step coefficients
    calls = _count_expm_stacks(monkeypatch)
    with pytest.raises(ValueError, match=r"^nsub0 and max_refine must keep the finest level"):
        run_iswap_protocol(ProtocolParams(N=4, M=1), nsub0=nsub0, max_refine=max_refine)
    assert calls == []


@pytest.mark.parametrize("nsub0, max_refine", [(64, 10), (1, 16)])
def test_protocol_takes_a_finest_level_at_the_bound(nsub0, max_refine):
    # tol = inf accepts the first level compared, so the bound's edge is
    # taken without stepping it
    res = run_iswap_protocol(ProtocolParams(N=4, M=1), tol=math.inf, nsub0=nsub0, max_refine=max_refine)
    assert res.substeps_per_period == 2 * (nsub0 if nsub0 % 16 == 0 else 2 * nsub0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", "1e-9"),
        ("tol", None),
        ("tol", True),
        ("nsub0", True),
        ("nsub0", np.True_),
        ("nsub0", "32"),
        ("nsub0", None),
        ("max_refine", True),
        ("max_refine", "1"),
        ("max_refine", None),
        ("omega_override", "3"),
        ("omega_override", True),
        ("omega_override", 3.5j),
    ],
)
def test_protocol_rejects_keyword_arguments_that_are_not_numbers(monkeypatch, field, value):
    # bools are not taken as numbers, nor strings parsed: each names its field
    calls = _count_expm_stacks(monkeypatch)
    with pytest.raises(ValueError, match=f"^{field} must be "):
        run_iswap_protocol(ProtocolParams(N=4, M=1), **{field: value})
    assert calls == []


def test_refinement_records_python_ints_for_numpy_substeps():
    res = run_iswap_protocol(ProtocolParams(N=4, M=1), nsub0=np.int64(32), max_refine=np.int64(1))
    plain = run_iswap_protocol(ProtocolParams(N=4, M=1), max_refine=1)
    assert [type(n) for n, _ in res.refinement] == [int, int]
    assert res.refinement == plain.refinement


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, -np.inf, 1e-300, 2.0**-53])
def test_protocol_rejects_bad_tolerance(monkeypatch, tol):
    # rejected before any stepping, not after every refinement level
    calls = _count_expm_stacks(monkeypatch)
    with pytest.raises(ValueError, match="tol must be a number > 0"):
        run_iswap_protocol(ProtocolParams(N=4, M=1), tol=tol)
    assert calls == []


@pytest.mark.parametrize("omega", [0.0, -4.0, np.nan, np.inf])
def test_protocol_rejects_bad_omega_override(omega):
    with pytest.raises(ValueError, match="omega_override must be a finite number > 0"):
        run_iswap_protocol(ProtocolParams(N=4, M=1), omega_override=omega)


@pytest.mark.parametrize("omega", [1e-300, 1e300, 4.0 / 17.0, 4.0 * 17.0])
def test_protocol_rejects_an_omega_override_far_from_the_calibration(omega):
    message = "within a factor of 16 of the calibrated drive frequency 4.0, got "
    with pytest.raises(ValueError, match=f"^omega_override must be .*{re.escape(message + repr(omega))}$"):
        run_iswap_protocol(ProtocolParams(N=4, M=1), omega_override=omega)


@pytest.mark.parametrize("omega", [4.0 / 16.0, 4.0 * 16.0])
def test_protocol_takes_an_omega_override_at_the_range_ends(omega):
    res = run_iswap_protocol(ProtocolParams(N=4, M=1), omega_override=omega)
    assert res.omega == omega
    assert 0.0 <= res.error < 1.0


def test_drive_pair_defaults_and_resonance():
    assert default_drive_pairs(4) == (0, 1)
    assert default_drive_pairs(6) == (1,)
    assert default_drive_pairs(8) == (1,)
    assert resonance_frequency(4) == pytest.approx(4.0)
    assert resonance_frequency(6) == pytest.approx(9.0)
    assert resonance_frequency(8) == pytest.approx(16.0)


def test_iswap_target_structure():
    N = 4
    a, b = sea_indices(N)
    target = iswap_target(N)
    assert target[a, b] == 1j and target[b, a] == 1j
    assert target[a, a] == 0 and target[b, b] == 0
    rest = np.delete(np.arange(16), [a, b])
    assert np.array_equal(target[np.ix_(rest, rest)], np.eye(14))


def test_calibration_exact_values():
    omega, j_d, phase = drive_calibration(ProtocolParams(N=4, M=1))
    assert omega == pytest.approx(4.0)
    assert j_d == pytest.approx(3.0**-0.5, rel=1e-12)
    assert phase == pytest.approx(-np.pi, abs=1e-12)
    vop = unit_drive(4, driving_sign(4), default_drive_pairs(4))
    assert np.max(np.abs(vop - vop.conj().T)) < 1e-14
    omega, j_d, phase = drive_calibration(ProtocolParams(N=6, M=4))
    assert omega == pytest.approx(9.0)
    assert j_d == pytest.approx(0.8, rel=1e-12)
    assert phase == pytest.approx(-np.pi / 2.0, abs=1e-12)
    # drive amplitude J/(4M) equals 5/64 of the calibrated strength at N=6
    assert (1.0 / 16.0) / j_d == pytest.approx(5.0 / 64.0, rel=1e-12)


@pytest.fixture
def layout(monkeypatch):
    """layout(N, sign, pairs) makes the drive on pairs with sign the one
    chain size N takes, for the drives no chain size takes.  The plan cache
    is cleared before and after, so no plan of a patched drive outlives the
    test."""

    def install(N, sign, pairs):
        monkeypatch.setattr(driving, "driving_sign", lambda n: sign if n == N else driving_sign(n))
        monkeypatch.setattr(
            driving, "default_drive_pairs", lambda n: pairs if n == N else default_drive_pairs(n)
        )

    driving._layout_plan.cache_clear()
    yield install
    driving._layout_plan.cache_clear()


@pytest.mark.parametrize(
    "params",
    [ProtocolParams(N=4, M=1), ProtocolParams(N=8, M=4, noise_eps=0.05, seed=3)],
)
def test_drive_that_couples_nothing_is_rejected(layout, params):
    # with N/2 even, pair 0 and its mirror pair N/2 - 1 cancel under '-' in
    # the target element up to roundoff
    pairs = (0, params.N // 2 - 1)
    layout(params.N, "-", pairs)
    message = re.escape(f"pairs {pairs} with sign '-'") + f" .* at N={params.N} "
    with pytest.raises(ValueError, match=message):
        drive_calibration(params)
    with pytest.raises(ValueError, match="does not couple the target states"):
        run_iswap_protocol(params)


def test_weakest_real_coupling_is_calibrated(layout):
    # pair 0 under '+' at N = 12: |V_ab| = 2.0e-8, far above the floor
    layout(12, "+", (0,))
    _, j_d, _ = drive_calibration(ProtocolParams(N=12, M=1))
    assert 1e7 < j_d < 1e8


@pytest.mark.parametrize("N", [4, 6, 8, 10, 12])
def test_default_layouts_couple_far_above_the_floor(N):
    # the ratios _COUPLING_FLOOR's comment cites
    plan = driving._layout_plan(N, 1.0)
    ratio = abs(plan.v_ab) / plan.v_max
    assert ratio >= 1e-5
    assert ratio == pytest.approx({4: 0.87, 6: 0.156, 8: 1.5e-2, 10: 1.1e-3, 12: 2.2e-5}[N], rel=0.05)


def test_headline_gate_errors_frozen():
    res4 = run_iswap_protocol(ProtocolParams(N=4, M=1))
    assert res4.error == pytest.approx(0.000672555999634894, rel=1e-6)
    assert res4.error < 1e-3
    assert res4.omega == pytest.approx(4.0)
    assert res4.amplitude == pytest.approx(0.25)
    res6 = run_iswap_protocol(ProtocolParams(N=6, M=4))
    assert res6.error == pytest.approx(0.00030227647116154444, rel=1e-6)
    assert res6.error < 5e-3
    assert res6.omega == pytest.approx(9.0)
    assert res6.amplitude == pytest.approx(0.0625)
    assert res6.J_D == pytest.approx(0.8, rel=1e-10)


def test_protocol_output_is_unitary_and_sector_blocked():
    res = run_iswap_protocol(ProtocolParams(N=4, M=1))
    assert_unitary(res.unitary, tol=1e-9)
    weights = np.array([bin(i).count("1") for i in range(16)])
    off_sector = weights[:, None] != weights[None, :]
    assert np.max(np.abs(res.unitary[off_sector])) < 1e-12


@pytest.mark.parametrize("params", [ProtocolParams(N=4, M=1), ProtocolParams(N=6, M=4)])
def test_default_runs_swap_the_target_states(params):
    # the trace error's 2^N - 2 spectators outweigh the two targets, so a
    # gate that leaves them in place can still score well on it: check the
    # swap probability P_swap = |U_ab|^2 directly
    res = run_iswap_protocol(params)
    a, b = sea_indices(params.N)
    assert abs(res.unitary[a, b]) ** 2 >= 0.99
    assert abs(res.unitary[b, a]) ** 2 >= 0.99


def test_swapped_pair_picks_up_i_phase():
    res = run_iswap_protocol(ProtocolParams(N=6, M=4))
    a, b = sea_indices(6)
    fwd = res.unitary[a, b]
    rev = res.unitary[b, a]
    for amp in (fwd, rev):
        assert abs(amp) > 0.99
        # both transfers sit near +i; the residual detuning phase is O(1/M)
        assert amp / abs(amp) == pytest.approx(1j, abs=0.15)
    # and the residual phases are opposite, so the product is exactly -1
    assert (fwd / abs(fwd)) * (rev / abs(rev)) == pytest.approx(-1.0, abs=1e-9)


def test_explicit_schedule_route_matches_fast_path():
    params = ProtocolParams(N=4, M=1)
    u_drive = _dense_inversion_reference(params, drive_calibration(params), tol=1e-10)
    uk = build_eigengate(4, 1.0).unitary
    full = uk.conj().T @ u_drive @ uk
    fast = run_iswap_protocol(params).unitary
    assert trace_error(full, fast) < 1e-8
    assert trace_error(iswap_target(4), full) == pytest.approx(0.000672555999634894, rel=1e-4)


def test_error_converged_in_substep_count():
    # tol=inf with one refinement returns the fixed-resolution result at
    # 2*nsub0 substeps per half period; doubling the count again must move
    # the reported gate error by well under 10% of its value.
    import math

    for params in (
        ProtocolParams(N=4, M=1),
        ProtocolParams(N=6, M=4, noise_eps=0.01, seed=3),
    ):
        coarse = run_iswap_protocol(params, tol=math.inf, nsub0=4, max_refine=1)
        fine = run_iswap_protocol(params, tol=math.inf, nsub0=8, max_refine=1)
        assert abs(fine.error - coarse.error) < 0.1 * fine.error


def test_halfway_inversion_beats_plain_drive():
    plain4 = run_iswap_protocol(ProtocolParams(N=4, M=2, halfway_inversion=False))
    inv4 = run_iswap_protocol(ProtocolParams(N=4, M=2))
    assert inv4.error < plain4.error / 2.0
    plain6 = run_iswap_protocol(ProtocolParams(N=6, M=4, halfway_inversion=False))
    inv6 = run_iswap_protocol(ProtocolParams(N=6, M=4))
    assert inv6.error < plain6.error / 5.0
    assert plain6.error == pytest.approx(5.8e-3, rel=0.1)


def test_detuning_degrades_fidelity():
    on_res = run_iswap_protocol(ProtocolParams(N=6, M=4))
    below = run_iswap_protocol(ProtocolParams(N=6, M=4), omega_override=8.9)
    above = run_iswap_protocol(ProtocolParams(N=6, M=4), omega_override=9.1)
    assert below.error > 20.0 * on_res.error
    assert above.error > 20.0 * on_res.error
    assert below.error == pytest.approx(2.3759e-2, rel=0.05)


def test_forward_reverse_amplitudes_balance():
    a6, b6 = sea_indices(6)
    res = run_iswap_protocol(ProtocolParams(N=6, M=2))
    asym = abs(abs(res.unitary[a6, b6]) ** 2 - abs(res.unitary[b6, a6]) ** 2)
    assert asym < 1e-9
    a4, b4 = sea_indices(4)
    weak = run_iswap_protocol(ProtocolParams(N=4, M=16))
    asym_weak = abs(abs(weak.unitary[a4, b4]) ** 2 - abs(weak.unitary[b4, a4]) ** 2)
    assert asym_weak < 1e-6
    # strong driving at N=4 breaks the balance at the 1e-3 level; pinned as a
    # regression guard so a change in the windowing shows up here
    strong = run_iswap_protocol(ProtocolParams(N=4, M=1))
    asym_strong = abs(abs(strong.unitary[a4, b4]) ** 2 - abs(strong.unitary[b4, a4]) ** 2)
    assert 5e-4 < asym_strong < 2e-3


def test_noise_degrades_protocol_deterministically():
    clean = run_iswap_protocol(ProtocolParams(N=4, M=1))
    noisy1 = run_iswap_protocol(ProtocolParams(N=4, M=1, noise_eps=0.05, seed=5))
    noisy2 = run_iswap_protocol(ProtocolParams(N=4, M=1, noise_eps=0.05, seed=5))
    assert noisy1.error == noisy2.error
    # a single draw can land anywhere, but the ensemble mean must grow
    mean = np.mean(
        [run_iswap_protocol(ProtocolParams(N=4, M=1, noise_eps=0.05, seed=s)).error for s in range(8)]
    )
    assert mean > 2.0 * clean.error


def test_gate_time_accounting_frozen():
    assert gate_time_accounting(6, 4) == pytest.approx((10.0 * np.pi, 30.0 * np.pi, 30))
    assert gate_time_accounting(6, 4)[2] == 30
    assert gate_time_accounting(4, 1) == pytest.approx((4.0 * np.pi, 8.0 * np.pi, 8))
    assert gate_time_accounting(4, 1)[2] == 8
    # hypothetical M -> 0 limit leaves only the two eigengates
    assert gate_time_accounting(4, 0)[0] == pytest.approx(2.0 * np.pi)
    # penalty scales the whole protocol by (N/2) J/Jmax
    raw, pen, _ = gate_time_accounting(8, 3, Jmax=2.0)
    assert pen == pytest.approx(raw * 4.0 / 2.0)


def test_protocol_nonconvergence_names_its_coordinates():
    params = ProtocolParams(N=4, M=1, noise_eps=0.01, seed=7)
    with pytest.raises(RuntimeError) as exc:
        run_iswap_protocol(params, tol=1e-15, max_refine=1)
    message = str(exc.value)
    for coordinate in ("N=4", "M=1", "eps=0.01", "seed=7"):
        assert coordinate in message


def test_protocol_builds_no_dense_operator(monkeypatch):
    # every operator of a run is built per sector: a dense (2^N x 2^N)
    # build, or the dense eigengate, fails the run
    N = 6

    def sector_only(build):
        def checked(*args, **kwargs):
            out = build(*args, **kwargs)
            if out.shape == (2**N, 2**N):
                raise AssertionError(f"dense {build.__name__} in the protocol route")
            return out

        return checked

    def no_dense_eigengate(*args, **kwargs):
        raise AssertionError("dense eigengate in the protocol route")

    for name in ("chain_block", "unit_drive"):
        monkeypatch.setattr(driving, name, sector_only(getattr(driving, name)))
    monkeypatch.setattr(eigengate, "build_eigengate", no_dense_eigengate)
    monkeypatch.setattr(driving, "build_eigengate", no_dense_eigengate, raising=False)
    # a cached drive plan would skip the guarded builders
    driving._layout_plan.cache_clear()
    res = run_iswap_protocol(ProtocolParams(N=N, M=4, noise_eps=0.01, seed=3))
    assert res.unitary.shape == (2**N, 2**N)
    with pytest.raises(AssertionError, match="dense chain_block"):
        driving.chain_block(krawtchouk_chain(N, 1.0), chain_hops(N))


def _widest_axis(run) -> int:
    """The longest axis of any array that a kchain frame holds in a local
    (or a tuple in a local) or returns while run() runs."""
    package = os.path.dirname(driving.__file__) + os.sep
    widest = 0

    def look(values):
        nonlocal widest
        for value in values:
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray) and arr.ndim:
                    widest = max(widest, *arr.shape)

    def in_frame(frame, event, arg):
        look(frame.f_locals.values())
        if event == "return":
            look([arg])
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return widest


def test_results_hold_sector_blocks_and_build_the_dense_gate_on_request(monkeypatch, capsys):
    N = 8

    def no_dense_gate(blocks):
        raise AssertionError("dense gate built before .unitary was read")

    monkeypatch.setattr(driving, "block_diagonal", no_dense_gate)
    monkeypatch.setattr(eigengate, "block_diagonal", no_dense_gate)
    results = [run_iswap_protocol(ProtocolParams(N=N, M=4)), build_eigengate(N, 1.0)]
    assert main(["verify-all", "--n-max", str(N)]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    monkeypatch.undo()
    # the eigengate report holds its sectors' arrays only, none spanning
    # the 2^N states, as a dense 2^N builder would
    assert _widest_axis(lambda: hz_diagonal(N, 1.0)) == 2**N
    assert 0 < _widest_axis(lambda: eigengate.eigengate_report(N, 1.0, (0.0, math.pi))) < 2**N
    for res in results:
        stored = [getattr(res, f.name) for f in dataclasses.fields(res)]
        arrays = [a for v in stored for a in (v if isinstance(v, tuple) else (v,))]
        assert not any(np.shape(a) == (2**N, 2**N) for a in arrays)
        assert [blk.shape for blk in res.blocks] == [(math.comb(N, q),) * 2 for q in range(N + 1)]
        dense = np.zeros((2**N, 2**N), dtype=complex)
        for q, blk in enumerate(res.blocks):
            ix = sector_indices(N, q)
            dense[np.ix_(ix, ix)] = blk
        assert np.array_equal(res.unitary, dense)


@pytest.mark.parametrize(
    "build",
    [
        lambda: krawtchouk_chain(4, 1.0),
        lambda: build_eigengate(4, 1.0),
        lambda: run_iswap_protocol(ProtocolParams(N=4, M=1)),
    ],
    ids=["ChainSpec", "EigengateForm", "ProtocolResult"],
)
def test_array_holding_values_compare_by_identity(build):
    # an array field has no single truth value, so == must not compare fields
    a, b = build(), build()
    assert (a == a) is True
    assert (a == b) is False


# ---------------------------------------------------------------- drive plan


def _outcome(params):
    """Every output of a run as comparable values, or its ValueError's message."""
    try:
        res = run_iswap_protocol(params)
    except ValueError as exc:
        return str(exc)
    return (
        res.unitary.tobytes(), res.error, res.omega, res.J_D, res.drive_phase, res.refinement
    )


def test_warm_plan_run_equals_cold_run_byte_for_byte():
    params = ProtocolParams(N=6, M=16, noise_eps=0.01, seed=5)
    driving._layout_plan.cache_clear()
    cold = _outcome(params)
    warm = _outcome(params)
    assert driving._layout_plan.cache_info().hits > 0
    assert warm == cold


def test_plan_arrays_are_read_only():
    N = 6
    plan = driving._layout_plan(N, 1.0)
    sectors = [sector_indices(N, q) for q in range(N + 1)]
    fields = (sectors, plan.unit_blocks, plan.inverts, plan.eigengate_blocks)
    arrays = [arr for field in fields for arr in field]
    assert len(arrays) == len(fields) * (N + 1)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = arr.flat[0]
    # (states, row, col, term) per sector; sectors 0 and N have no hops
    hop_arrays = [arr for q in range(N + 1) for arr in sector_hops(N, q)]
    assert len(hop_arrays) == 4 * (N + 1)
    assert not any(arr.flags.writeable for arr in hop_arrays)


def test_int_float_and_float64_coupling_scales_run_the_same_bits():
    runs = [_outcome(ProtocolParams(N=4, M=1, J=J)) for J in (1, 1.0, np.float64(1.0))]
    assert runs[0] == runs[1] == runs[2]


_CACHED_LAYOUT = ProtocolParams(N=4, M=1, noise_eps=0.01, seed=2)


@pytest.mark.parametrize(
    "change, shares_plan",
    [
        ({"J": 1.5}, False),
        ({"N": 6}, False),
        ({"J": 1}, False),  # an int J gets a plan of its own
        ({"M": 2}, True),
        ({"seed": 7}, True),
        ({"halfway_inversion": False}, True),
    ],
)
def test_run_off_a_cached_layout_equals_its_cold_run(change, shares_plan):
    params = dataclasses.replace(_CACHED_LAYOUT, **change)
    driving._layout_plan.cache_clear()
    cold = _outcome(params)
    driving._layout_plan.cache_clear()
    run_iswap_protocol(_CACHED_LAYOUT)
    assert _outcome(params) == cold
    assert driving._layout_plan.cache_info().misses == (1 if shares_plan else 2)


def test_noisy_samples_of_one_layout_build_its_plan_once(monkeypatch):
    N = 4
    calls = {"eigengate_single_particle": 0, "unit_drive": 0}

    def counted(name):
        build = getattr(driving, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return count

    for name in calls:
        monkeypatch.setattr(driving, name, counted(name))
    driving._layout_plan.cache_clear()
    sector_hops.cache_clear()
    for seed in range(10):
        run_iswap_protocol(ProtocolParams(N=N, M=1, noise_eps=0.01, seed=seed))
    # the unit drive once for the calibration, then once per sector; the
    # chain's hop pattern once per sector, its couplings applied per sample
    assert calls == {"eigengate_single_particle": 1, "unit_drive": 1 + (N + 1)}
    assert sector_hops.cache_info().misses == N + 1


def test_drive_that_couples_nothing_raises_on_every_run(layout):
    params = ProtocolParams(N=4, M=1)
    layout(4, "-", (0, 1))
    for _ in range(3):
        with pytest.raises(ValueError, match="does not couple the target states"):
            run_iswap_protocol(params)
    assert driving._layout_plan.cache_info().misses == 1


@pytest.mark.parametrize(
    "params",
    [
        ProtocolParams(N=4, M=1),
        ProtocolParams(N=6, M=4),
        ProtocolParams(N=8, M=4),
        ProtocolParams(N=6, M=16, noise_eps=0.01, seed=1),
        ProtocolParams(N=6, M=20, noise_eps=0.01, seed=4),
        ProtocolParams(N=8, M=16, noise_eps=0.01, seed=1),
    ],
)
def test_block_trace_error_matches_dense_target(params):
    res = run_iswap_protocol(params)
    assert abs(res.error - trace_error(iswap_target(params.N), res.unitary)) <= 1e-15


@pytest.mark.parametrize("N", [4, 6, 8])
def test_block_trace_error_on_random_sector_blocks(rng, N):
    # any block-diagonal unitary, the target pair's entries included
    blocks = []
    for q in range(N + 1):
        n = len(sector_indices(N, q))
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        blocks.append(np.linalg.qr(z)[0])
    u = np.zeros((2**N, 2**N), dtype=complex)
    for q, blk in enumerate(blocks):
        ix = sector_indices(N, q)
        u[np.ix_(ix, ix)] = blk
    targets = driving._layout_plan(N, 1.0).targets
    want = trace_error(iswap_target(N), u)
    assert abs(driving._swap_trace_error(blocks, targets) - want) <= 1e-15
