"""Acceptance suite: thirteen numbered end-to-end checks.

Each test prints a single PASS line with the measured figures so a
`pytest -v -s tests/test_acceptance.py` run reads as a checklist. The
tolerances are pinned here and nowhere else; loosening one is a
deliberate act, not a test edit in passing.
"""

import time

import numpy as np
import pytest

from kchain.circuits import ctrl_iswap2_circuit, verify_ctrl_iswap2_circuit, verify_ctrl_x_circuit
from kchain.driving import ProtocolParams, gate_time_accounting, run_iswap_protocol
from kchain.eigengate import eigengate_report
from kchain.experiments import (
    FIG3_EPS_GRID,
    SweepConfig,
    ghz_demo,
    pst_demo,
    sweep_fig2,
    sweep_fig3,
    write_table,
)
from kchain.hamiltonians import chain_block, chain_hops, hopping_matrices, krawtchouk_chain
from kchain.krawtchouk import (
    build_basis,
    conjugate_phase,
    m1_closed_form,
    m2_closed_form,
    meixner_identity_check,
)
from kchain.linalg import basis_index, tensor_embed

from dense_reference import SIGMA_MINUS, SIGMA_PLUS, matrix_element_bruteforce


def report(num, label, detail):
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({detail})")


def test_criterion_01_single_particle_spectrum():
    t0 = time.perf_counter()
    worst = 0.0
    for N in range(2, 14):
        n = N - 1
        hop = hopping_matrices(krawtchouk_chain(N).couplings)
        evals = np.linalg.eigvalsh(hop)
        exact = np.array([k - n / 2.0 for k in range(N)])
        worst = max(worst, float(np.max(np.abs(evals - exact))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10, worst
    assert elapsed < 1.0, elapsed
    report(1, "equidistant spectrum N<=13", f"max dev {worst:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_02_eigengate_mapping_and_phases():
    worst_overlap, worst_phase = 1.0, 0.0
    for N in (2, 4, 6, 8):
        for form in eigengate_report(N, ())["variants"].values():
            worst_overlap = min(worst_overlap, form["min_overlap"])
            worst_phase = max(worst_phase, form["max_phase_deviation"])
    assert worst_overlap > 1.0 - 1e-9, worst_overlap
    assert worst_phase < 1e-9, worst_phase
    report(2, "eigengate mapping, both forms", f"min overlap 1-{1-worst_overlap:.1e}, max phase dev {worst_phase:.1e}")


def test_criterion_03_intertwining():
    worst_ratio = 0.0
    for N in range(2, 9):
        hk = chain_block(krawtchouk_chain(N), chain_hops(N))
        residual = eigengate_report(N, ())["intertwining_residual"]
        worst_ratio = max(worst_ratio, residual / np.max(np.abs(hk)))
    assert worst_ratio < 1e-9, worst_ratio
    report(3, "hamiltonian exchange N<=8", f"max residual ratio {worst_ratio:.1e}")


def test_criterion_04_rotation_algebra_and_meixner():
    worst = 0.0
    for N in (2, 4, 6):
        checks = eigengate_report(N, (0.0, np.pi / 2.0, np.pi))
        worst = max(worst, *checks["so3_residuals"].values(), *checks["bch_residuals"].values())
    assert worst < 1e-9, worst
    worst_meixner = max(meixner_identity_check(n) for n in range(2, 10))
    assert worst_meixner < 1e-9, worst_meixner
    report(4, "so(3) algebra and duality identity", f"rotation residual {worst:.1e}, identity residual n<=9 {worst_meixner:.1e}")


def test_criterion_05_transition_elements():
    assert m1_closed_form(2).power_form == pytest.approx(-0.5, abs=1e-12)
    assert m2_closed_form(3, 0) == pytest.approx(np.sqrt(3.0) / 8.0, abs=1e-12)
    assert m2_closed_form(5, 1) == pytest.approx(5.0 / 64.0, abs=1e-12)
    worst = 0.0
    for n in (2, 4, 6):  # one-site elements against dense brute force
        N = n + 1
        basis = build_basis(n)
        op = tensor_embed(SIGMA_MINUS, (n // 2,), N)
        brute = matrix_element_bruteforce(basis, tuple(range(n // 2 + 1)), op, tuple(range(n // 2 + 1, n + 1)))
        worst = max(worst, abs(m1_closed_form(n).power_form - brute.real), abs(brute.imag))
    for n in (3, 5, 7):  # two-site elements against dense brute force
        N = n + 1
        d = (n + 1) // 2
        basis = build_basis(n)
        lower, upper = tuple(range(N // 2)), tuple(range(N // 2, N))
        for j in range(n + 1 - d):
            op = tensor_embed(SIGMA_MINUS, (j,), N) @ tensor_embed(SIGMA_PLUS, (j + d,), N)
            brute = matrix_element_bruteforce(basis, lower, op, upper)
            worst = max(worst, abs(m2_closed_form(n, j) - brute.real), abs(brute.imag))
            swapped = matrix_element_bruteforce(basis, upper, op, lower)
            worst = max(worst, abs(swapped - conjugate_phase(N) * brute))
    assert worst < 1e-12, worst
    # calibrated drive amplitude sits at 5/64 of the drive strength on N=6
    res = run_iswap_protocol(ProtocolParams(N=6, M=4))
    assert res.amplitude / res.J_D == pytest.approx(5.0 / 64.0, rel=1e-12)
    report(5, "transition matrix elements", f"closed vs brute n<=7 max dev {worst:.1e}, A/J_D = 5/64")


def test_criterion_06_protocol_headline_errors():
    t0 = time.perf_counter()
    res4 = run_iswap_protocol(ProtocolParams(N=4, M=1))
    t4 = time.perf_counter() - t0
    t0 = time.perf_counter()
    res6 = run_iswap_protocol(ProtocolParams(N=6, M=4))
    t6 = time.perf_counter() - t0
    assert res4.error < 1e-3, res4.error
    assert res6.error < 5e-3, res6.error
    assert res4.omega == pytest.approx(4.0, abs=1e-12)
    assert res6.omega == pytest.approx(9.0, abs=1e-12)
    assert max(t4, t6) < 60.0, (t4, t6)
    report(6, "resonant swap protocol", f"error N=4 {res4.error:.2e}, N=6 {res6.error:.2e}, slowest run {max(t4, t6):.1f} s")


def test_criterion_07_error_decays_quadratically_in_drive_time():
    m_values = np.arange(2, 21)
    slopes = {}
    for N in (4, 6):
        errs = np.array([run_iswap_protocol(ProtocolParams(N=N, M=int(m))).error for m in m_values])
        slopes[N] = float(np.polyfit(np.log(2.0 * np.pi * m_values), np.log(errs), 1)[0])
    for N, slope in slopes.items():
        assert slope == pytest.approx(-2.0, abs=0.3), (N, slope)
    report(7, "drive-time scaling", f"log-log slopes N=4 {slopes[4]:+.3f}, N=6 {slopes[6]:+.3f}")


def test_criterion_08_noise_floor_plateau():
    cfg = SweepConfig(protocol="fig2", n_values=(6,), m_values=(16, 20), eps_values=(1e-2,), samples=180)
    rows = sweep_fig2(cfg)
    assert all(r[5] >= 180 for r in rows)
    mean16, mean20 = rows[0][3], rows[1][3]
    ratio = mean16 / mean20
    assert 1.0 / 3.0 < ratio < 3.0, ratio
    report(8, "disorder noise floor", f"mean error M=16 {mean16:.2e}, M=20 {mean20:.2e}, ratio {ratio:.2f} in (1/3, 3)")


def test_criterion_09_eigengate_noise_quadratic():
    cfg = SweepConfig(protocol="fig3", n_values=(4, 8, 12), eps_values=FIG3_EPS_GRID, samples=110)
    rows = sweep_fig3(cfg)
    slopes = {}
    for N in (4, 8, 12):
        sel = [(r[1], r[2]) for r in rows if r[0] == N]
        assert len(sel) == len(FIG3_EPS_GRID)
        eps = np.array([s[0] for s in sel])
        err = np.array([s[1] for s in sel])
        slopes[N] = float(np.polyfit(np.log(eps), np.log(err), 1)[0])
        assert slopes[N] == pytest.approx(2.0, abs=0.3), (N, slopes[N])
    detail = ", ".join(f"N={N} {s:+.3f}" for N, s in slopes.items())
    report(9, "eigengate noise scaling", detail)


def test_criterion_10_state_transfer_and_ghz():
    worst_pst = max(pst_demo(N) for N in range(2, 7))
    assert worst_pst < 1e-10, worst_pst
    fid3, fid5 = ghz_demo(3), ghz_demo(5)
    assert fid3 > 1.0 - 1e-10 and fid5 > 1.0 - 1e-10, (fid3, fid5)
    report(10, "state transfer and GHZ", f"transfer infidelity {worst_pst:.1e}, GHZ fidelity N=3 {fid3:.12f}, N=5 {fid5:.12f}")


def test_criterion_11_gate_constructions():
    worst = 0.0
    for N in (4, 6):
        worst = max(worst, verify_ctrl_x_circuit(N), verify_ctrl_iswap2_circuit(N))
    assert worst < 1e-10, worst
    u = ctrl_iswap2_circuit(6)
    inert = basis_index("111111")
    u = u / u[inert, inert]
    src, dst = basis_index("111101"), basis_index("111110")
    walk = abs(u[dst, src] - 1j)
    assert walk < 1e-10, walk
    report(11, "controlled gate circuits", f"max deviation {worst:.1e}, swap walk dev {walk:.1e}")


def test_criterion_12_gate_time_equivalents():
    raw6, _, eq6 = gate_time_accounting(6, 4)
    raw4, _, eq4 = gate_time_accounting(4, 1)
    assert eq6 == 30 and isinstance(eq6, int)
    assert eq4 == 8 and isinstance(eq4, int)
    assert raw6 == pytest.approx(2.0 * np.pi * 5.0, rel=1e-15)
    assert raw4 == pytest.approx(2.0 * np.pi * 2.0, rel=1e-15)
    report(12, "gate time accounting", f"two-qubit-gate equivalents: N=6,M=4 -> {eq6}; N=4,M=1 -> {eq4}")


def test_criterion_13_thread_count_reproducibility(tmp_path):
    header = ("N", "M", "eps", "mean_error", "stderr", "samples")
    blobs = []
    for threads in (1, 2, 4):
        cfg = SweepConfig(
            protocol="fig2", n_values=(4, 6), m_values=(1, 2), eps_values=(0.0, 1e-3),
            samples=8, threads=threads,
        )
        path = tmp_path / f"threads{threads}.csv"
        write_table(str(path), header, sweep_fig2(cfg))
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    report(13, "thread-count reproducibility", f"{len(blobs)} sweep files byte-identical, {len(blobs[0])} bytes each")
