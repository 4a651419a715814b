"""Tests for Monte Carlo sweeps, seeding discipline, and the demo protocols."""

import dataclasses
import json

import numpy as np
import pytest

from kchain import driving, eigengate, experiments
from kchain.eigengate import noisy_eigengate_errors
from kchain.experiments import (
    DEFAULT_SAMPLES,
    FIG2_EPS_GRID,
    FIG3_EPS_GRID,
    SweepConfig,
    ghz_demo,
    point_seed,
    point_seeds,
    pst_demo,
    sweep_fig2,
    sweep_fig3,
    write_table,
)
from kchain.hamiltonians import krawtchouk_couplings

from dense_reference import SECTOR_TOL, dense_ghz_demo, dense_pst_amplitude


def test_eps_grids():
    assert FIG2_EPS_GRID == (0.0, 1e-3, 3e-3, 1e-2)
    assert len(FIG3_EPS_GRID) == 9
    assert FIG3_EPS_GRID[0] == pytest.approx(1e-3)
    assert FIG3_EPS_GRID[-1] == pytest.approx(1e-2)
    assert DEFAULT_SAMPLES == 200


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(protocol="fig9", n_values=(4,), eps_values=(0.0,))
    with pytest.raises(ValueError):
        SweepConfig(protocol="fig2", n_values=(), eps_values=(0.0,))
    with pytest.raises(ValueError):
        SweepConfig(protocol="fig2", n_values=(4,), eps_values=(0.0,), samples=0)


@pytest.mark.parametrize(
    "field, value",
    [("samples", 1.5), ("samples", 0), ("base_seed", -1), ("base_seed", 2.5)],
)
def test_sweep_config_rejects_bad_sample_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an int >= "):
        SweepConfig(protocol="fig3", n_values=(4,), eps_values=(1e-3,), **{field: value})


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(threads=2.5), "threads must be an int >= 1, got 2.5"),
        (dict(threads=True), "threads must be an int >= 1, got True"),
        (dict(threads="2"), "threads must be an int >= 1, got '2'"),
        (dict(threads=None), "threads must be an int >= 1, got None"),
        (dict(eps_values=(1e-3, -0.1)), "eps_values must be reals in \\[0, 1\\), got -0.1"),
        (dict(eps_values=(float("nan"),)), "eps_values must be reals in \\[0, 1\\), got nan"),
        (dict(eps_values=(1.0,)), "eps_values must be reals in \\[0, 1\\), got 1.0"),
        (dict(eps_values=("0.1",)), "eps_values must be reals in \\[0, 1\\), got '0.1'"),
        (dict(eps_values=(False,)), "eps_values must be reals in \\[0, 1\\), got False"),
        (dict(n_values=(4, 1)), "n_values must be ints >= 2, got 1"),
        (dict(n_values=(4.0,)), "n_values must be ints >= 2, got 4.0"),
        (dict(n_values=(True,)), "n_values must be ints >= 2, got True"),
        (dict(protocol="fig2", m_values=(1,), n_values=(6, 5)), "n_values must be even ints >= 4 for fig2, got 5"),
        (dict(protocol="fig2", m_values=(1,), n_values=(2,)), "n_values must be even ints >= 4 for fig2, got 2"),
    ],
)
def test_sweep_config_rejects_bad_grid_fields(fields, message):
    # rejected when the config is built, before any grid point is computed
    with pytest.raises(ValueError, match=f"^{message}$"):
        SweepConfig(**(dict(protocol="fig3", n_values=(4,), eps_values=(1e-3,)) | fields))


def test_point_seed_is_stable_and_collision_free():
    assert point_seed(1, 4, 1, 0, 0) == 4546508655602652790
    assert point_seed(20260801, 6, 4, 1, 0) == 3103412875494538241
    seen = {
        point_seed(99, N, M, e, s)
        for N in (4, 6)
        for M in (1, 2, 3)
        for e in range(4)
        for s in range(25)
    }
    assert len(seen) == 2 * 3 * 4 * 25


def test_fig2_point_frozen_and_thread_invariant():
    cfg = SweepConfig(protocol="fig2", n_values=(6,), m_values=(4,), eps_values=(1e-2,), samples=12)
    rows = sweep_fig2(cfg)
    assert len(rows) == 1
    N, M, eps, mean, stderr, count = rows[0]
    assert (N, M, eps, count) == (6, 4, 1e-2, 12)
    # relative pins with no absolute slack: pytest.approx's default abs=1e-12
    # would stand for rel 9e-10 and 2.6e-9 at these values
    assert mean == pytest.approx(0.0011098785208222088, rel=5e-10, abs=0.0)
    assert stderr == pytest.approx(0.00038966154549248486, rel=5e-10, abs=0.0)
    threaded = SweepConfig(protocol="fig2", n_values=(6,), m_values=(4,), eps_values=(1e-2,), samples=12, threads=4)
    assert sweep_fig2(threaded) == rows


def test_fig2_threads_building_one_plan_match_one_thread():
    # the worker threads race to build the chain's drive plan, then share it
    cfg = SweepConfig(
        protocol="fig2", n_values=(6,), m_values=(16, 20), eps_values=(1e-2,), samples=8,
        threads=4,
    )
    driving._layout_plan.cache_clear()
    threaded = sweep_fig2(cfg)
    driving._layout_plan.cache_clear()
    assert sweep_fig2(dataclasses.replace(cfg, threads=1)) == threaded


def test_fig2_noiseless_point_is_single_run():
    cfg = SweepConfig(protocol="fig2", n_values=(4,), m_values=(1,), eps_values=(0.0,), samples=50)
    rows = sweep_fig2(cfg)
    N, M, eps, mean, stderr, count = rows[0]
    assert count == 1 and stderr == 0.0
    assert mean == pytest.approx(0.000672555999634894, rel=5e-10, abs=0.0)


def test_fig2_stderr_shrinks_with_samples():
    small = SweepConfig(protocol="fig2", n_values=(6,), m_values=(4,), eps_values=(1e-2,), samples=12)
    large = SweepConfig(protocol="fig2", n_values=(6,), m_values=(4,), eps_values=(1e-2,), samples=48)
    ratio = sweep_fig2(large)[0][4] / sweep_fig2(small)[0][4]
    # quadrupling the sample count roughly halves the standard error
    assert 0.3 < ratio < 0.75


def test_fig3_rows_and_quadratic_scaling():
    cfg = SweepConfig(protocol="fig3", n_values=(4,), eps_values=FIG3_EPS_GRID, samples=24)
    rows = sweep_fig3(cfg)
    assert len(rows) == 9
    eps = np.array([r[1] for r in rows])
    err = np.array([r[2] for r in rows])
    slope = np.polyfit(np.log(eps), np.log(err), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_write_table_format_and_sidecar(tmp_path):
    cfg = SweepConfig(protocol="fig2", n_values=(4,), m_values=(1,), eps_values=(0.0,), samples=3)
    rows = sweep_fig2(cfg)
    out = tmp_path / "sweep.csv"
    write_table(str(out), ("N", "M", "eps", "mean_error", "stderr", "samples"), rows, config=cfg, wall_time=1.25)
    raw = out.read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "N,M,eps,mean_error,stderr,samples"
    assert len(lines) == 2
    # full precision floats survive a round trip
    assert float(lines[1].split(",")[3]) == rows[0][3]
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["wall_time_s"] == 1.25
    assert meta["config"]["samples"] == 3
    assert "created" in meta and "version" in meta


def test_write_table_is_byte_deterministic_across_threads(tmp_path):
    header = ("N", "M", "eps", "mean_error", "stderr", "samples")
    blobs = []
    for threads in (1, 3):
        cfg = SweepConfig(
            protocol="fig2", n_values=(4,), m_values=(1, 2), eps_values=(0.0, 1e-3),
            samples=6, threads=threads,
        )
        out = tmp_path / f"t{threads}.csv"
        write_table(str(out), header, sweep_fig2(cfg))
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_ghz_fidelity_exact_for_odd_chains():
    assert ghz_demo(3) > 1.0 - 1e-12
    assert ghz_demo(5) > 1.0 - 1e-12


def test_ghz_detects_miscalibrated_coupling():
    c = list(krawtchouk_couplings(2, 1.0))
    c[0] *= 1.05
    fid = ghz_demo(3, couplings=tuple(c))
    assert fid == pytest.approx(0.9972355998845928, rel=1e-12)
    assert fid < 1.0 - 1e-4


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_state_transfer_is_perfect(N):
    assert pst_demo(N) < 1e-10


def mirror_amplitude(N, bits):
    """<mirror(bits)| exp(-i pi Hk) |bits> (J = 1) from the sector
    propagator, as pst_demo reads it."""
    return experiments._mirror_amplitude(experiments._pst_propagator(N, 1.0, sum(bits)), bits)


def test_mirror_amplitude_of_domain_wall():
    amp = mirror_amplitude(4, [1, 1, 0, 0])
    assert abs(amp - 1.0) < 1e-10


def test_each_sweep_refuses_the_other_figures_config():
    # a fig3 config once made sweep_fig2 return no rows, and a fig2 config
    # ran as fig3
    fig2 = SweepConfig(protocol="fig2", n_values=(4,), m_values=(1,), eps_values=(0.0,))
    fig3 = SweepConfig(protocol="fig3", n_values=(4,), eps_values=(0.0,))
    with pytest.raises(ValueError, match="^sweep_fig2 needs a 'fig2' config, got protocol 'fig3'"):
        sweep_fig2(fig3)
    with pytest.raises(ValueError, match="^sweep_fig3 needs a 'fig3' config, got protocol 'fig2'"):
        sweep_fig3(fig2)


def test_sweep_config_rejects_nonpositive_threads():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            SweepConfig(protocol="fig3", n_values=(4,), eps_values=(1e-3,), threads=threads)


# sweep_fig3 rows frozen from the per-sample implementation this stacked
# one replaced; the stacked route must reproduce them bit for bit
FIG3_SMALL_FROZEN = [
    (2, 0.001, 5.275817704236685e-08, 1.2944678152379576e-08, 16),
    (2, 0.01, 5.787027326314975e-06, 1.3476971080286752e-06, 16),
    (12, 0.001, 6.435815201877304e-06, 7.646052193981801e-07, 16),
    (12, 0.01, 0.0006781098795590815, 5.802981748679482e-05, 16),
]


def test_fig3_rows_frozen_exactly():
    cfg = SweepConfig(protocol="fig3", n_values=(2, 12), eps_values=(1e-3, 1e-2), samples=16)
    assert sweep_fig3(cfg) == FIG3_SMALL_FROZEN


def test_fig3_rows_do_not_depend_on_stack_size(monkeypatch):
    monkeypatch.setattr(experiments, "FIG3_BATCH", 5)
    cfg = SweepConfig(protocol="fig3", n_values=(2, 12), eps_values=(1e-3, 1e-2), samples=16)
    assert sweep_fig3(cfg) == FIG3_SMALL_FROZEN


def reference_fig3_rows(cfg):
    """sweep_fig3 point by point: one point_seeds and one
    noisy_eigengate_errors call per grid point."""
    rows = []
    for N in cfg.n_values:
        for eps_idx, eps in enumerate(cfg.eps_values):
            count = 1 if eps == 0.0 else cfg.samples
            seeds = point_seeds(cfg.base_seed, N, 0, eps_idx, np.arange(count))
            errors = noisy_eigengate_errors(N, 1.0, eps, seeds)
            rows.append((N, eps, *experiments._mean_and_stderr(errors), count))
    return rows


@pytest.mark.parametrize("batch, draw_rows", [(7, 10), (7, 4096), (256, 3)])
def test_fig3_stacked_draws_equal_per_point_calls(monkeypatch, batch, draw_rows):
    # gate stacks and draw stacks straddle eps points, the noiseless point's
    # single sample among them
    monkeypatch.setattr(experiments, "FIG3_BATCH", batch)
    monkeypatch.setattr(experiments, "FIG3_DRAW_ROWS", draw_rows)
    cfg = SweepConfig(
        protocol="fig3", n_values=(3, 6), eps_values=(1e-3, 0.0, 2e-2, 0.0, 0.3), samples=17,
        base_seed=2**40 + 7,
    )
    assert sweep_fig3(cfg) == reference_fig3_rows(cfg)


def test_fig3_builds_one_clean_gate_per_chain_size(monkeypatch):
    clean = []
    inner = eigengate.eigengate_single_particle

    def counted(N, J, *args, **kwargs):
        if kwargs.get("hop") is None:
            clean.append(N)
        return inner(N, J, *args, **kwargs)

    for module in (eigengate, experiments):
        monkeypatch.setattr(module, "eigengate_single_particle", counted)
    cfg = SweepConfig(protocol="fig3", n_values=(2, 4, 8, 12), eps_values=FIG3_EPS_GRID, samples=30)
    rows = sweep_fig3(cfg)
    assert len(rows) == 36
    assert clean == [2, 4, 8, 12]


def test_fig3_noiseless_point_is_single_exact_sample():
    cfg = SweepConfig(protocol="fig3", n_values=(4,), eps_values=(0.0,), samples=30)
    (row,) = sweep_fig3(cfg)
    assert row[0:2] == (4, 0.0) and row[3:] == (0.0, 1)
    assert row[2] < 1e-12


@pytest.mark.parametrize("N", [3, 6])
def test_pst_demo_equals_worst_single_state_amplitude(N):
    amps = []
    for x in range(N):
        bits = [0] * N
        bits[x] = 1
        amps.append(mirror_amplitude(N, bits))
    assert pst_demo(N) == max(0.0, *(1.0 - abs(a) for a in amps))


@pytest.mark.parametrize("N", range(2, 9))
def test_pst_within_roundoff_of_dense_reference(N):
    singles = [[int(y == x) for y in range(N)] for x in range(N)]
    dense = [dense_pst_amplitude(N, bits) for bits in singles]
    assert abs(pst_demo(N) - max(1.0 - abs(a) for a in dense)) <= SECTOR_TOL
    # every sector's propagator, not only the one-excitation one
    wall = [1] * (N // 2) + [0] * (N - N // 2)
    for bits in singles + [wall, [1] * N, [0] * N, [1, 0] * (N // 2) + [1] * (N % 2)]:
        assert abs(mirror_amplitude(N, bits) - dense_pst_amplitude(N, bits)) <= SECTOR_TOL


@pytest.mark.parametrize("N", [3, 5, 7])
def test_ghz_within_roundoff_of_dense_reference(N):
    assert abs(ghz_demo(N) - dense_ghz_demo(N)) <= SECTOR_TOL
    couplings = krawtchouk_couplings(N - 1, 1.0) * np.linspace(1.05, 0.97, N - 1)
    assert abs(ghz_demo(N, couplings=couplings) - dense_ghz_demo(N, couplings=couplings)) <= SECTOR_TOL

