"""Tests for the command line interface."""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kchain import cli, eigengate, hamiltonians, krawtchouk, linalg
from kchain.cli import main
from kchain.driving import ProtocolParams, run_iswap_protocol
from kchain.experiments import point_seed
from kchain.hamiltonians import chain_block, chain_hops, krawtchouk_chain
from kchain.krawtchouk import build_basis, conjugate_phase
from kchain.linalg import tensor_embed

import dense_reference
from dense_reference import (
    SECTOR_TOL,
    SIGMA_MINUS,
    SIGMA_PLUS,
    dense_compare_forms,
    dense_intertwining,
    dense_rotation_checks,
    matrix_element_bruteforce,
)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_spectrum_csv(capsys):
    rc, out = run_cli(capsys, "spectrum", "--n", "6")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,lambda"
    assert len(lines) == 7
    assert "5,0,-2.5" in out and "5,5,2.5" in out


@pytest.mark.parametrize("n", ["4", "64"])
def test_spectrum_check_scales_with_the_spectral_radius(capsys, monkeypatch, n):
    # the tolerance grows with the spectral radius (N - 1)/2 past 1, as the
    # eigenvalues' roundoff does; a spectrum off by a relative 1e-9 still
    # fails at every size
    assert run_cli(capsys, "spectrum", "--n", n)[0] == 0
    hopping = cli.hopping_matrices
    monkeypatch.setattr(cli, "hopping_matrices", lambda couplings: hopping(couplings) * (1.0 + 1e-9))
    assert main(["spectrum", "--n", n]) == 1
    assert "FAIL spectrum deviation" in capsys.readouterr().err


def test_matrix_elements_table(capsys):
    rc, out = run_cli(capsys, "matrix-elements", "--n-max", "5")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,j,d,")
    # rows for n = 3 (j = 0, 1) and n = 5 (j = 0, 1, 2)
    assert len(lines) == 6
    for line in lines[1:]:
        assert float(line.split(",")[-1]) < 1e-12


def test_eigengate_check_json(capsys):
    rc, out = run_cli(capsys, "eigengate-check", "--n", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["N"] == 4
    assert doc["min_overlap"] > 1.0 - 1e-9
    assert doc["max_phase_deviation"] < 1e-9
    assert doc["intertwining_residual"] < doc["intertwining_allowance"]
    assert set(doc["variants"]) == {"three_step", "single_pulse"}


@pytest.mark.parametrize("broken", ["so3", "bch"])
def test_eigengate_check_fails_on_a_rotation_residual(capsys, monkeypatch, broken):
    # the so(3) and BCH residuals it reports count toward its exit code,
    # as they do in verify-all
    def broken_report(N, thetas, inner=cli.eigengate_report):
        report = inner(N, thetas)
        if broken == "so3":
            report["so3_residuals"]["zx_y"] = 1.0
        else:
            report["bch_residuals"] = dict.fromkeys(report["bch_residuals"], 1.0)
        return report

    monkeypatch.setattr(cli, "eigengate_report", broken_report)
    rc, out = run_cli(capsys, "eigengate-check", "--n", "4")
    assert rc == 1
    assert json.loads(out)["N"] == 4


def test_drive_json_report(capsys):
    rc, out = run_cli(capsys, "drive", "--n", "4", "--m", "1", "--out", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["mean_error"] == pytest.approx(0.000672555999634894, rel=1e-6)
    assert doc["omega"] == pytest.approx(4.0)
    assert doc["halfway_inversion"] is True
    assert len(doc["rows"]) == 1


def test_drive_json_rows_report_the_returned_level(capsys):
    rc, out = run_cli(
        capsys, "drive", "--n", "4", "--m", "1", "--eps", "0.01", "--samples", "2", "--out", "json"
    )
    assert rc == 0
    rows = json.loads(out)["rows"]
    for row in rows:
        res = run_iswap_protocol(ProtocolParams(N=4, M=1, noise_eps=0.01, seed=row["seed"]))
        assert row["substeps_per_period"] == res.substeps_per_period == 64
        assert row["converged_delta"] == res.converged_delta < 1e-9
        assert row["unitarity_defect"] == res.unitarity_defect < 1e-13
        assert row["error"] == res.error


def test_drive_csv_schema(capsys):
    rc, out = run_cli(capsys, "drive", "--n", "4", "--m", "1")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,M,tauD_J,eps,seed,error"
    fields = lines[1].split(",")
    assert fields[0] == "4" and fields[1] == "1"
    assert float(fields[5]) < 1e-3


def test_drive_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "drive.json"
    cfg.write_text(json.dumps({"n": 4, "m": 1, "out": "json"}))
    rc, out = run_cli(capsys, "drive", "--config", str(cfg))
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"][0]["N"] == 4
    # explicit flags beat config values
    rc, out = run_cli(capsys, "drive", "--config", str(cfg), "--m", "2")
    doc = json.loads(out)
    assert doc["rows"][0]["M"] == 2


def test_noise_sweep_writes_table_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "mini.csv"
    rc, out = run_cli(
        capsys, "noise-sweep", "--figure", "2", "--n", "4", "--m-min", "1",
        "--m-max", "2", "--eps", "0", "1e-3", "--samples", "4",
        "--out", str(out_path),
    )
    assert rc == 0
    assert f"wrote 4 rows to {out_path}" in out
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "N,M,eps,mean_error,stderr,samples"
    assert len(lines) == 5
    meta = json.loads((tmp_path / "mini.csv.meta.json").read_text())
    assert meta["config"]["samples"] == 4


def test_noise_sweep_fig2_records_its_thread_count(capsys, tmp_path):
    out_path = tmp_path / "fig2.csv"
    rc, _ = run_cli(
        capsys, "--threads", "2", "noise-sweep", "--figure", "2", "--n", "4", "--m-max", "1",
        "--eps", "0.01", "--samples", "2", "--out", str(out_path),
    )
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "N,M,eps,mean_error,stderr,samples"
    assert len(lines) == 2 and lines[1].startswith("4,1,0.01,")
    assert json.loads((tmp_path / "fig2.csv.meta.json").read_text())["config"]["threads"] == 2


def test_noise_sweep_fig3_small_grid(capsys, tmp_path):
    out_path = tmp_path / "fig3.csv"
    rc, out = run_cli(
        capsys, "noise-sweep", "--figure", "3", "--n", "4", "--eps", "0.01", "--samples", "3",
        "--out", str(out_path),
    )
    assert rc == 0
    assert f"wrote 1 rows to {out_path}" in out
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "N,eps,mean_error,stderr,samples"
    assert len(lines) == 2 and lines[1].startswith("4,0.01,")


# sha256 of the default-grid fig3 table (N 2, 4, 8, 12; the nine FIG3_EPS_GRID
# amplitudes; 200 samples; base seed 20260801), frozen from the route that
# seeded one numpy Generator per sample
FIG3_DEFAULT_SHA256 = "3373407ff9b96952e8e741a505901ca12baa55bbca0a4e336a3ff8ce06e7db7f"


def test_noise_sweep_fig3_default_table_is_frozen(capsys, tmp_path):
    out_path = tmp_path / "fig3.csv"
    rc, _ = run_cli(capsys, "noise-sweep", "--figure", "3", "--out", str(out_path))
    assert rc == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == FIG3_DEFAULT_SHA256
    meta = json.loads((tmp_path / "fig3.csv.meta.json").read_text())
    # the draws reproduce numpy's streams, so the sidecar says which numpy
    assert meta["numpy"] == np.__version__
    assert meta["python"] == platform.python_version()


def test_noisy_drive_rows_carry_the_point_seeds(capsys):
    rc, out = run_cli(
        capsys, "drive", "--n", "4", "--m", "1", "--eps", "0.01", "--samples", "3", "--out", "json"
    )
    assert rc == 0
    rows = json.loads(out)["rows"]
    assert [row["seed"] for row in rows] == [point_seed(20260801, 4, 1, 0, i) for i in range(3)]
    # a one-sample drive runs its --seed as given, so a printed row's seed
    # reproduces that row
    row = rows[2]
    rc, out = run_cli(
        capsys, "drive", "--n", "4", "--m", "1", "--eps", "0.01", "--samples", "1",
        "--seed", str(row["seed"]), "--out", "json",
    )
    assert rc == 0
    (again,) = json.loads(out)["rows"]
    assert again == row


def test_drive_seed_is_a_draw_seed_and_a_sweep_seed_any_int(capsys, tmp_path):
    # drive's --seed seeds a run's noise draw, which takes seeds below 2^64;
    # noise-sweep's is the SeedSequence entropy of every point
    rc, out = run_cli(capsys, "drive", "--n", "4", "--m", "1", "--eps", "0.01", "--seed", str(2**64 - 1))
    assert rc == 0 and out.splitlines()[1].split(",")[4] == str(2**64 - 1)
    out_path = tmp_path / "fig3.csv"
    rc, out = run_cli(
        capsys, "noise-sweep", "--figure", "3", "--n", "4", "--eps", "0.01", "--samples", "2",
        "--seed", str(2**70), "--out", str(out_path),
    )
    assert rc == 0 and f"wrote 1 rows to {out_path}" in out


def test_noise_sweep_thread_count_does_not_change_bytes(capsys, tmp_path):
    blobs = []
    for threads in ("1", "3"):
        path = tmp_path / f"t{threads}.csv"
        rc, _ = run_cli(
            capsys, "--threads", threads, "noise-sweep", "--figure", "3",
            "--n", "4", "--eps", "1e-3", "3e-3", "--samples", "6",
            "--out", str(path),
        )
        assert rc == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


@pytest.mark.parametrize("which, n", [("ctrl-x", 4), ("ctrl-x", 6), ("ctrl-iswap2", 4), ("ctrl-iswap2", 6)])
def test_circuit_verify_exact(capsys, which, n):
    rc, out = run_cli(capsys, "circuit-verify", "--which", which, "--n", str(n))
    assert rc == 0
    doc = json.loads(out)
    assert doc["deviation"] < 1e-10


def test_circuit_verify_with_simulated_drive(capsys):
    rc, out = run_cli(capsys, "circuit-verify", "--which", "ctrl-iswap2", "--n", "4", "--use-simulated-drive", "--m", "1")
    assert rc == 0
    doc = json.loads(out)
    assert 1e-7 < doc["deviation"] < 5e-3


def test_ghz_and_pst_commands(capsys):
    rc, out = run_cli(capsys, "ghz", "--n", "3")
    assert rc == 0
    assert json.loads(out)["fidelity"] > 1.0 - 1e-10
    rc, out = run_cli(capsys, "pst", "--n", "4")
    assert rc == 0
    assert json.loads(out)["max_infidelity"] < 1e-10


def test_verify_all_small(capsys):
    rc, out = run_cli(capsys, "verify-all", "--n-max", "4")
    assert rc == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["bogus-command"])
    assert exc.value.code == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kchain.cli", "spectrum", "--n", "4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,k,lambda")


def test_nonconverging_drive_is_reported_not_raised():
    # at the default tolerance the refinement cannot converge over a window
    # this long; the command must say so and exit 1, without a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "kchain.cli", "drive", "--n", "4", "--m", "1000000"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("kchain drive: ")
    assert "did not converge" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_nonpositive_threads_is_a_usage_error(capsys, threads):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", threads, "spectrum", "--n", "4"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_bad_thread_environment_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("KRAW_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--n", "4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "KRAW_THREADS" in err and "'abc'" in err
    monkeypatch.setenv("KRAW_THREADS", "2")
    rc, out = run_cli(capsys, "spectrum", "--n", "2")
    assert rc == 0 and out.startswith("n,k,lambda")


def test_explicit_flag_equal_to_default_beats_config(capsys, tmp_path):
    cfg = tmp_path / "drive.json"
    cfg.write_text(json.dumps({"m": 1, "out": "json"}))
    # --m 4 is also the default value of --m
    rc, out = run_cli(capsys, "drive", "--n", "4", "--m", "4", "--config", str(cfg))
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"][0]["M"] == 4
    assert doc["mean_error"] == pytest.approx(4.1858853624399117e-05, rel=1e-6)


@pytest.mark.parametrize("doc, fragment", [
    ({"n": "6"}, "'n' must be int"),
    ({"eps": "0.01"}, "'eps' must be int or float"),
    ({"m": True}, "'m' must be int"),
    ({"no-inversion": 1}, "'no-inversion' must be bool"),
    ({"out": "xml"}, "'out' must be one of"),
    ({"threads": 0}, "positive integer"),
    ({"bogus": 1}, "unknown config key 'bogus'"),
    ({"omega-override": "3.7"}, "'omega-override' must be int or float"),
    ({"omega-override": 0}, "config key 'omega-override': must be a positive number, got 0"),
])
def test_config_values_of_wrong_type_are_rejected(tmp_path, doc, fragment):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as exc:
        main(["drive", "--config", str(cfg)])
    assert fragment in str(exc.value.code)


def test_noise_sweep_config_lists_are_checked(capsys, tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"n": [4, "6"]}))
    with pytest.raises(SystemExit) as exc:
        main(["noise-sweep", "--figure", "3", "--config", str(cfg)])
    assert "'n' must be int" in str(exc.value.code)
    out_path = tmp_path / "fig3.csv"
    cfg.write_text(json.dumps({"n": [4], "eps": [1e-3, 0.01], "samples": 3, "out": str(out_path)}))
    rc, out = run_cli(capsys, "noise-sweep", "--figure", "3", "--config", str(cfg))
    assert rc == 0
    lines = out_path.read_text().strip().split("\n")
    assert len(lines) == 3 and lines[1].startswith("4,0.001,")


VERIFY_ALL_N6_CHECKS = (
    [f"spectrum N={N}" for N in range(2, 7)]
    + [
        f"{check} N={N}"
        for N in (2, 4, 6)
        for check in ("eigengate mapping", "eigengate phases", "intertwining", "so(3)", "BCH")
    ]
    + [f"Meixner n={n}" for n in range(2, 7)]
    + ["matrix elements n=3", "matrix elements n=5"]
    + ["M1 n=2", "M1 n=4"]
    + [f"PST N={N}" for N in range(2, 7)]
    + ["GHZ N=3", "GHZ N=5"]
    + ["CNS decomposition"]
    + [f"{gate} circuit N={N}" for N in (4, 6) for gate in ("ctrl-X", "ctrl-iSWAP2")]
    + ["gate time N=6 M=4", "gate time N=4 M=1"]
)


VERIFY_ALL_N8_CHECKS = (
    [f"spectrum N={N}" for N in range(2, 9)]
    + [
        f"{check} N={N}"
        for N in (2, 4, 6, 8)
        for check in ("eigengate mapping", "eigengate phases", "intertwining", "so(3)", "BCH")
    ]
    + [f"Meixner n={n}" for n in range(2, 9)]
    + ["matrix elements n=3", "matrix elements n=5", "matrix elements n=7"]
    + ["M1 n=2", "M1 n=4", "M1 n=6"]
    + [f"PST N={N}" for N in range(2, 9)]
    + ["GHZ N=3", "GHZ N=5", "GHZ N=7"]
    + ["CNS decomposition"]
    + [f"{gate} circuit N={N}" for N in (4, 6) for gate in ("ctrl-X", "ctrl-iSWAP2")]
    + ["gate time N=6 M=4", "gate time N=4 M=1"]
)


def test_verify_all_check_list_is_frozen(capsys):
    for n_max, checks in (("6", VERIFY_ALL_N6_CHECKS), ("8", VERIFY_ALL_N8_CHECKS)):
        rc, out = run_cli(capsys, "verify-all", "--n-max", n_max)
        assert rc == 0
        lines = out.strip().split("\n")
        assert lines[-1] == "all checks passed"
        assert all(line.startswith("PASS ") for line in lines[:-1])
        names = [line[len("PASS "):].split(":")[0] for line in lines[:-1]]
        assert names == checks


def test_verify_all_diagonalizes_nothing_wider_than_a_sector(capsys, monkeypatch):
    # every oracle works per excitation sector; the widest at N=8 holds
    # C(8, 4) = 70 states, where a dense oracle would diagonalize 2^8
    widths = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rc, _ = run_cli(capsys, "verify-all", "--n-max", "8")
    assert rc == 0
    assert 0 < max(widths) <= math.comb(8, 4)


@pytest.mark.parametrize("skewed", [False, True])
@pytest.mark.parametrize("N", range(2, 9))
def test_eigengate_report_within_roundoff_of_dense_reference(monkeypatch, N, skewed):
    if skewed:
        # the true residuals are roundoff, which a bound of 1e-13 cannot
        # tell from zero; with H^Z's diagonal doubled everywhere the gate
        # is no eigengate and every reported value is of order one
        doubled = lambda N, states=None, inner=hamiltonians.hz_diagonal: 2.0 * inner(N, states)
        for module in (hamiltonians, eigengate, dense_reference):
            monkeypatch.setattr(module, "hz_diagonal", doubled)
    report = eigengate.eigengate_report(N, cli.BCH_THETAS)
    if skewed:
        assert report["max_phase_deviation"] > 0.1 and report["intertwining_residual"] > 0.1
        assert max(report["so3_residuals"].values()) > 0.1 and report["bch_residuals"]["3.141592653589793"] > 0.1
    forms = dense_compare_forms(N)
    so3, bch = dense_rotation_checks(N, cli.BCH_THETAS)
    for variant, ref in forms["variants"].items():
        for key in ("min_overlap", "max_phase_deviation"):
            assert abs(report["variants"][variant][key] - ref[key]) <= SECTOR_TOL
    assert abs(report["entrywise_difference"] - forms["entrywise_difference"]) <= SECTOR_TOL
    intertwining = dense_intertwining(forms["variants"]["three_step"]["unitary"], N)
    assert abs(report["intertwining_residual"] - intertwining) <= SECTOR_TOL
    hk = chain_block(krawtchouk_chain(N), chain_hops(N))
    assert report["intertwining_allowance"] == 1e-9 * float(np.abs(hk).max())
    assert all(abs(report["so3_residuals"][key] - so3[key]) <= SECTOR_TOL for key in so3)
    assert report["bch_residuals"].keys() == {str(theta) for theta in cli.BCH_THETAS}
    for theta, want in zip(cli.BCH_THETAS, bch):
        assert abs(report["bch_residuals"][str(theta)] - want) <= SECTOR_TOL


@pytest.mark.parametrize("n", [3, 5, 7])
def test_m2_elements_equal_the_two_embed_products_bitwise(n):
    # one embed of the two-site term has the entries of the product of two
    # one-site embeds: each is a single product of zeros and ones
    N = n + 1
    basis = build_basis(n)
    lower, upper = tuple(range(N // 2)), tuple(range(N // 2, N))
    rows = list(cli._m2_elements(n))
    assert len(rows) == n + 1 - (n + 1) // 2
    for j, d, closed, brute, err in rows:
        for a, b in ((SIGMA_MINUS, SIGMA_PLUS), (SIGMA_PLUS, SIGMA_MINUS)):
            product = tensor_embed(a, [j], N) @ tensor_embed(b, [j + d], N)
            assert np.array_equal(tensor_embed(np.kron(a, b), [j, j + d], N), product)
        product = tensor_embed(SIGMA_MINUS, [j], N) @ tensor_embed(SIGMA_PLUS, [j + d], N)
        assert brute == matrix_element_bruteforce(basis, lower, product, upper)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_m2_elements_equal_the_dense_embed_route_bitwise(monkeypatch, n):
    # the route the gather replaced: dense embeds of both terms, applied
    # with matrix_element_bruteforce
    N = n + 1
    basis = build_basis(n)
    lower, upper = tuple(range(N // 2)), tuple(range(N // 2, N))
    want = []
    for j, d, closed, *_ in cli._m2_elements(n):
        op = tensor_embed(np.kron(SIGMA_MINUS, SIGMA_PLUS), [j, j + d], N)
        conj_op = tensor_embed(np.kron(SIGMA_PLUS, SIGMA_MINUS), [j, j + d], N)
        brute = matrix_element_bruteforce(basis, lower, op, upper)
        conj = matrix_element_bruteforce(basis, lower, conj_op, upper)
        err = max(abs(brute - closed), abs(conj - conjugate_phase(N) * closed))
        want.append((j, d, closed, brute, err))

    def refused(*args, **kwargs):
        raise AssertionError("_m2_elements builds a dense operator")

    monkeypatch.setattr(linalg, "tensor_embed", refused)
    monkeypatch.setattr(np, "kron", refused)
    assert list(cli._m2_elements(n)) == want


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_m1_element_equals_the_dense_embed_route_bitwise(monkeypatch, n):
    # the route the gather replaced: a dense embed of sigma^- on site n/2,
    # applied with matrix_element_bruteforce
    N = n + 1
    basis = build_basis(n)
    op = tensor_embed(SIGMA_MINUS, [n // 2], N)
    want = matrix_element_bruteforce(basis, range(n // 2 + 1), op, range(n // 2 + 1, N))

    def refused(*args, **kwargs):
        raise AssertionError("_m1_element builds a dense operator")

    monkeypatch.setattr(linalg, "tensor_embed", refused)
    power, minor, brute = cli._m1_element(n)
    assert brute == want
    assert abs(power - minor) < 1e-12 and abs(brute - power) < 1e-12


@pytest.mark.parametrize("broken", ["m1", "cns"])
def test_verify_all_fails_on_a_broken_m1_or_cns_identity(capsys, monkeypatch, broken):
    if broken == "m1":
        monkeypatch.setattr(cli, "m1_closed_form", lambda n: krawtchouk.M1Result(1.0, 1.0))
    else:
        monkeypatch.setattr(cli, "cns_decomposition", lambda: np.eye(4))
    rc, out = run_cli(capsys, "verify-all", "--n-max", "4")
    assert rc == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    names = ["M1 n=2"] if broken == "m1" else ["CNS decomposition"]
    assert [line[len("FAIL "):].split(":")[0] for line in failed] == names


def test_verify_all_computes_each_sector_once(capsys):
    # two runs share every sector's basis indices and clean hop pattern
    for cached in (linalg.sector_indices, hamiltonians.sector_hops):
        cached.cache_clear()
    for _ in range(2):
        rc, _ = run_cli(capsys, "verify-all", "--n-max", "8")
        assert rc == 0
    for cached in (linalg.sector_indices, hamiltonians.sector_hops):
        info = cached.cache_info()
        # every miss stored a new key and none was evicted, so no key was
        # computed twice
        assert 0 < info.misses == info.currsize < info.maxsize


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


def test_drive_zero_samples_is_a_usage_error(capsys):
    code, err = usage_error(
        capsys, "drive", "--n", "4", "--m", "1", "--eps", "0.01", "--samples", "0", "--out", "json"
    )
    assert code == 2
    assert "argument --samples: must be a positive integer, got '0'" in err


def test_noise_sweep_zero_samples_is_a_usage_error(capsys, tmp_path):
    out = tmp_path / "fig3.csv"
    code, err = usage_error(
        capsys, "noise-sweep", "--figure", "3", "--n", "4", "--samples", "0", "--out", str(out)
    )
    assert code == 2
    assert "argument --samples: must be a positive integer" in err
    assert not out.exists()


@pytest.mark.parametrize("n", ["0", "1"])
def test_spectrum_of_fewer_than_two_sites_is_a_usage_error(capsys, n):
    code, err = usage_error(capsys, "spectrum", "--n", n)
    assert code == 2
    assert f"argument --n: must be an integer >= 2, got '{n}'" in err


def test_drive_odd_chain_is_a_usage_error(capsys):
    code, err = usage_error(capsys, "drive", "--n", "5")
    assert code == 2
    assert "argument --n: must be an even integer >= 4, got '5'" in err


def test_drive_zero_length_is_a_usage_error(capsys):
    code, err = usage_error(capsys, "drive", "--m", "0")
    assert code == 2
    assert "argument --m: must be a positive integer, got '0'" in err


@pytest.mark.parametrize("argv, fragment", [
    (["drive", "--eps", "1.5"], "argument --eps: noise amplitude must lie in [0, 1)"),
    (["noise-sweep", "--figure", "3", "--eps", "-0.1"], "argument --eps: noise amplitude"),
    (["noise-sweep", "--figure", "2", "--n", "5"], "argument --n: fig2 needs even N >= 4, got [5]"),
    (["noise-sweep", "--figure", "2", "--m-min", "3", "--m-max", "2"], "argument --m-max: must be >= --m-min"),
    (["noise-sweep", "--figure", "3", "--n", "4", "1"], "argument --n: must be an integer >= 2"),
    (["eigengate-check", "--n", "1"], "argument --n: must be an integer >= 2"),
    (["ghz", "--n", "4"], "argument --n: must be an odd integer >= 3, got '4'"),
    (["pst", "--n", "1"], "argument --n: must be an integer >= 2"),
    (["circuit-verify", "--which", "ctrl-x", "--n", "3"], "argument --n: must be an even integer >= 4"),
    (["circuit-verify", "--which", "ctrl-iswap2", "--n", "8"], "ctrl-iswap2 is defined for N in {4, 6}"),
    (["drive", "--eps", "0.01", "--seed", "-1"], "argument --seed: must be an integer >= 0, got '-1'"),
    (["noise-sweep", "--figure", "3", "--seed", "-5"], "argument --seed: must be an integer >= 0"),
    (["spectrum", "--n", "1"], "argument --n: must be an integer >= 2, got '1'"),
    (["circuit-verify", "--which", "ctrl-x", "--n", "4", "--m", "0"], "argument --m: must be a positive integer"),
    (["noise-sweep", "--figure", "2", "--m-min", "0"], "argument --m-min: must be a positive integer, got '0'"),
    (["drive", "--omega-override", "0"], "argument --omega-override: must be a positive number, got '0'"),
    (["drive", "--omega-override", "-4"], "argument --omega-override: must be a positive number"),
    (["drive", "--omega-override", "nan"], "argument --omega-override: must be a positive number"),
    (["drive", "--omega-override", "inf"], "argument --omega-override: must be a positive number"),
    (["verify-all", "--n-max", "1"], "argument --n-max: must be an integer >= 2, got '1'"),
    (["verify-all", "--n-max", "-3"], "argument --n-max: must be an integer >= 2"),
    (["matrix-elements", "--n-max", "0"], "argument --n-max: must be an integer >= 3, got '0'"),
    (["ghz", "--n", "13"], "argument --n: must be at most 11, got '13'"),
    (["matrix-elements", "--n-max", "11"], "argument --n-max: must be at most 9, got '11'"),
    (["eigengate-check", "--n", "11"], "argument --n: must be at most 10, got '11'"),
    (["pst", "--n", "21"], "argument --n: must be at most 20, got '21'"),
    (["verify-all", "--n-max", "11"], "argument --n-max: must be at most 10, got '11'"),
    (["verify-all", "--n-max", str(10**9)], f"argument --n-max: must be at most 10, got '{10**9}'"),
    (["drive", "--n", "12"], "argument --n: must be at most 10, got '12'"),
    (["circuit-verify", "--which", "ctrl-x", "--n", "14"], "argument --n: must be at most 10, got '14'"),
    (["noise-sweep", "--figure", "2", "--n", "4", "12"], "argument --n: fig2 needs N <= 10, got [12]"),
    (["spectrum", "--n", "2049"], "argument --n: must be at most 2048, got '2049'"),
    (["spectrum", "--n", "100000"], "argument --n: must be at most 2048, got '100000'"),
    (["noise-sweep", "--figure", "3", "--n", "4", "65"], "argument --n: must be at most 64, got '65'"),
    (["noise-sweep", "--figure", "3", "--n", "100000"], "argument --n: must be at most 64, got '100000'"),
    (["drive", "--m", "1000001"], "argument --m: must be at most 1000000, got '1000001'"),
    (["noise-sweep", "--figure", "2", "--m-max", str(10**10)], f"argument --m-max: must be at most 1000000, got '{10**10}'"),
    (["drive", "--eps", "0.01", "--seed", str(2**64)], f"argument --seed: must be at most {2**64 - 1}, got '{2**64}'"),
    (["drive", "--samples", "1000001"], "argument --samples: must be at most 1000000, got '1000001'"),
    (["noise-sweep", "--figure", "3", "--samples", str(10**9)], f"argument --samples: must be at most 1000000, got '{10**9}'"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv, fragment):
    code, err = usage_error(capsys, *argv)
    assert code == 2
    assert fragment in err


# hostile --n tokens, each drawn for every command
HOSTILE_TOKENS = ["True", "nan", "inf", "-inf", "-0.0", "0", "1e300", "1e-300", "1e307", "abc", "", "0x10"]


def _run_hostile(argv):
    """(exit code, stdout, stderr lines) of main(argv).  Any warning raises,
    and any exception but SystemExit fails the calling test; a SystemExit
    message is an exit 1 with that message on stderr, as the interpreter
    gives it.  An exit 2 is checked here: no output but the usage, its
    continuation lines indented, and one error line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if isinstance(code, str):
        err.write(code + "\n")
        code = 1
    lines = err.getvalue().splitlines()
    if code == 2:
        assert out.getvalue() == "" and len(lines) >= 2, (argv, lines)
        assert lines[0].startswith(f"usage: kchain {argv[0]} ")
        assert all(line.startswith(" ") for line in lines[1:-1]), (argv, lines)
        assert lines[-1].startswith(f"kchain {argv[0]}: error: argument --")
    return code, out.getvalue(), lines


@given(
    st.sampled_from(("spectrum", "pst", "ghz", "eigengate-check")),
    st.sampled_from(["3", *HOSTILE_TOKENS]),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_a_hostile_size_or_coupling_runs_or_is_refused_in_one_line(command, n):
    # exit 0; exit 2 with a usage line and an error line; or exit 1 with one
    # error line, spectrum's FAIL line or the command's own JSON report
    code, out, lines = _run_hostile([command, "--n", n])
    if code == 1 and lines:
        assert len(lines) == 1, (command, n, lines)
        assert lines[0].startswith((f"kchain {command}: ", "FAIL spectrum deviation "))
    elif code == 1:
        assert command != "spectrum"
        json.loads(out)
    else:
        assert code == 2 or (code == 0 and lines == []), (command, n, code, lines)


# drive's and the fig2 sweep's length, noise, seed and frequency flags, each
# with a valid token; every run taken is at N = 4 and M <= 2
DRIVE_FLAGS = {"--m": "1", "--eps": "0.01", "--seed": "3", "--omega-override": "3.7"}
SWEEP_FLAGS = {"--m-min": "1", "--m-max": "2"}


@given(
    st.sampled_from(sorted({**DRIVE_FLAGS, **SWEEP_FLAGS})),
    # None takes the flag's valid token; the 400-digit M once overflowed
    st.sampled_from([None, *HOSTILE_TOKENS, "1" + "0" * 400]),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_a_hostile_drive_flag_runs_or_is_refused_in_one_line(flag, token):
    # exit 0 with no error line, exit 2 with a usage line and an error line,
    # or exit 1 with one error line
    with tempfile.TemporaryDirectory() as tmp:
        if flag in DRIVE_FLAGS:
            command, token = "drive", DRIVE_FLAGS[flag] if token is None else token
            argv = [command, "--n", "4", "--m", "1", "--eps", "0.01", flag, token]
        else:
            command, token = "noise-sweep", SWEEP_FLAGS[flag] if token is None else token
            argv = [command, "--figure", "2", "--n", "4", "--samples", "1", "--eps", "0.01"]
            argv += ["--m-min", "1", "--m-max", "2", "--out", f"{tmp}/fig2.csv", flag, token]
        code, out, lines = _run_hostile(argv)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith(f"kchain {command}: "), (flag, token, lines)
    else:
        assert code == 2 or (code == 0 and lines == []), (flag, token, code, lines)


# the verification commands' flags, each with its valid tokens; every run
# taken is at N = 4, M <= 4 and --n-max <= 4 (verify-all) or 5
# (matrix-elements), 2-15 ms each
VERIFY_FLAGS = {
    "circuit-verify": {"--which": ["ctrl-x", "ctrl-iswap2"], "--n": ["4"], "--m": ["1", "4"]},
    "verify-all": {"--n-max": ["2", "4"]},
    "matrix-elements": {"--n-max": ["3", "5"]},
}
HOSTILE_COUNT = "1" + "0" * 400


@pytest.mark.parametrize("command", sorted(VERIFY_FLAGS))
@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
def test_a_hostile_verification_flag_runs_or_is_refused_in_one_line(command, data):
    # one flag takes a valid or hostile token, the others their first valid
    # one; exit 0 with no error line, exit 2 with a usage line and an error
    # line, or exit 1 with one error line
    flags = VERIFY_FLAGS[command]
    flag = data.draw(st.sampled_from(sorted(flags)))
    tokens = {name: valid[0] for name, valid in flags.items()}
    tokens[flag] = data.draw(st.sampled_from([*flags[flag], *HOSTILE_TOKENS, HOSTILE_COUNT]))
    argv = [command, *(item for pair in tokens.items() for item in pair)]
    if command == "circuit-verify" and data.draw(st.booleans()):
        argv.append("--use-simulated-drive")
    code, out, lines = _run_hostile(argv)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith(f"kchain {command}: "), (argv, lines)
    else:
        assert code == 2 or (code == 0 and lines == []), (argv, code, lines)


# a config file's valid values for drive and the fig2 sweep (figure 2 comes
# from the command line); the hostile ones each replace one key's value
CONFIG_BASES = {
    "drive": {"n": 4, "m": 1, "eps": 0.01, "seed": 3, "omega-override": 3.7, "out": "csv", "no-inversion": False},
    "noise-sweep": {"n": [4], "m-min": 1, "m-max": 1, "eps": [0.01], "samples": 1, "seed": 3, "out": "fig2.csv"},
}
# the hostile tokens as JSON strings, and JSON values of every kind
CONFIG_VALUES = [
    *HOSTILE_TOKENS, HOSTILE_COUNT,
    True, False, None, math.nan, math.inf, -math.inf, -0.0, 0, 1e300, 1e-300, 1e307, 10**400, [], {},
]
# a file that is missing, a directory, malformed JSON, or not an object
CONFIG_FILES = ["missing.json", ".", "{bad", "[1]", "3", "null", ""]


@given(
    st.sampled_from(sorted(CONFIG_BASES)),
    st.one_of(
        st.sampled_from(CONFIG_FILES),
        # a key with a hostile value, as itself or as a list's one entry
        st.tuples(st.integers(0, 6), st.sampled_from(CONFIG_VALUES), st.booleans()),
    ),
)
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_a_hostile_config_file_runs_or_is_refused_in_one_line(command, case):
    # --samples and --threads are not drawn: a valid count past the caps
    # (samples <= 2, threads <= 2) would run, for as long as it asks
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        if isinstance(case, tuple):
            base = dict(CONFIG_BASES[command])
            key, value, listed = case
            base[sorted(base)[key]] = [value] if listed else value
            case = json.dumps(base)
        if case == ".":
            path = tmp
        elif case != "missing.json":
            with open(path, "w") as fh:
                fh.write(case)
        argv = [command, "--config", path] if command == "drive" else [command, "--figure", "2", "--config", path]
        # a table or sidecar is written to the temporary directory only
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code, out, lines = _run_hostile(argv)
        finally:
            os.chdir(cwd)
    if code == 1:
        assert len(lines) == 1, (argv, case, lines)
    else:
        assert code == 2 or (code == 0 and lines == []), (argv, case, code, lines)


@pytest.mark.parametrize(
    "case, reason",
    [("missing", "No such file or directory"), ("directory", "Is a directory"), ("malformed", "Expecting")],
)
def test_a_config_file_that_cannot_be_read_is_one_error_line(tmp_path, case, reason):
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path, "malformed": tmp_path / "bad.json"}[case]
    (tmp_path / "bad.json").write_text("{bad")
    proc = subprocess.run(
        [sys.executable, "-m", "kchain.cli", "drive", "--config", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"config file {str(path)!r}: ") and reason in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_a_table_that_cannot_be_written_is_one_error_line(tmp_path):
    out = tmp_path / "nodir" / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "kchain.cli", "noise-sweep", "--figure", "3", "--n", "2", "--samples", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1 and not out.exists()
    assert proc.stderr == f"kchain noise-sweep: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_config_values_get_the_flag_range_checks(tmp_path):
    cfg = tmp_path / "drive.json"
    cfg.write_text(json.dumps({"samples": 0}))
    with pytest.raises(SystemExit) as exc:
        main(["drive", "--config", str(cfg)])
    assert "config key 'samples': must be a positive integer, got 0" in str(exc.value.code)
    cfg.write_text(json.dumps({"samples": 10**6 + 1}))
    with pytest.raises(SystemExit) as exc:
        main(["noise-sweep", "--figure", "3", "--config", str(cfg)])
    assert "config key 'samples': must be at most 1000000, got 1000001" in str(exc.value.code)


@pytest.mark.parametrize("omega", ["1e-300", "1e300"])
def test_omega_override_far_from_resonance_is_one_error_line(omega):
    proc = subprocess.run(
        [sys.executable, "-m", "kchain.cli", "drive", "--n", "4", "--m", "1", "--omega-override", omega],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "kchain drive: omega_override must be a finite number > 0 (a numpy float only as float64) within a "
        f"factor of 16 of the calibrated drive frequency 4.0, got {float(omega)!r}\n"
    )


def test_omega_override_in_config_runs_off_resonance(capsys, tmp_path):
    cfg = tmp_path / "drive.json"
    cfg.write_text(json.dumps({"omega_override": 3.7, "out": "json"}))
    rc, out = run_cli(capsys, "drive", "--n", "4", "--m", "1", "--config", str(cfg))
    assert rc == 0
    doc = json.loads(out)
    assert doc["omega"] == 3.7
    # 0.3 below the N=4 resonance at 4, the error is ~100x the resonant 6.7e-4
    assert doc["mean_error"] > 0.05
