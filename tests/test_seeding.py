"""The stacked seeds and coupling draws against NumPy's SeedSequence and
default_rng, their oracle: equal bit for bit, or this fails (say, if NumPy
ever changes either stream)."""

import re

import numpy as np
import pytest

from kchain.experiments import SweepConfig, point_seed, point_seeds, sweep_fig3
from kchain.hamiltonians import coupling_noises, krawtchouk_chain

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def numpy_draw(N, eps, seed) -> np.ndarray:
    """The relative coupling errors krawtchouk_chain(N, eps, seed) draws,
    one NumPy generator per seed."""
    return np.random.default_rng(seed).uniform(-eps, eps, N - 1)


def reference_point_seed(base_seed, N, M, eps_idx, sample_idx) -> int:
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(N, M, eps_idx, sample_idx))
    lo, hi = ss.generate_state(2)
    return (int(hi) << 32) | int(lo)


@pytest.mark.parametrize(
    "base_seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**70 + 3, 20260801]
)
def test_point_seeds_equal_seed_sequence(base_seed):
    # (2, 2**33, 5): a spawn key of more than one word per entry
    for N, M, eps_idx, count in ((6, 4, 1, 2048), (12, 0, 8, 256), (2, 2**33, 5, 256)):
        got = point_seeds(base_seed, N, M, eps_idx, np.arange(count))
        assert got.dtype == np.uint64
        want = [reference_point_seed(base_seed, N, M, eps_idx, i) for i in range(count)]
        assert got.tolist() == want, (N, M, eps_idx)


def test_point_seeds_take_any_int_sequence_and_the_last_index():
    want = [reference_point_seed(7, 4, 1, 0, i) for i in (5, 0, 2**32 - 1)]
    for indices in ([5, 0, 2**32 - 1], (5, np.uint32(0), 2**32 - 1), np.array([5, 0, 2**32 - 1])):
        assert point_seeds(7, 4, 1, 0, indices).tolist() == want
    assert point_seed(7, 4, 1, 0, 2**32 - 1) == want[2]
    assert point_seeds(7, 4, 1, 0, []).shape == (0,)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.0056, 0.5])
def test_coupling_noises_equal_coupling_noise(eps):
    seeds = list(EDGE_SEEDS) + point_seeds(20260801, 8, 0, 3, np.arange(4096)).tolist()
    # a draw of N - 1 values is the first N - 1 of the longest one's stream
    # (checked directly on the edge seeds below), so NumPy draws each seed once
    longest = np.array([numpy_draw(13, eps, s) for s in seeds])
    for N in range(2, 14):
        got = coupling_noises(N, eps, seeds)
        assert got.shape == (len(seeds), N - 1)
        assert got.tobytes() == np.ascontiguousarray(longest[:, : N - 1]).tobytes(), N
        direct = np.array([numpy_draw(N, eps, s) for s in EDGE_SEEDS])
        assert got[: len(EDGE_SEEDS)].tobytes() == direct.tobytes(), N


@pytest.mark.parametrize("base_seed", [20260801, 2**40 + 7])
def test_point_seeds_of_several_points_equal_per_point_calls(base_seed):
    # one stack over (eps point, sample) pairs, eps points mixed in any order
    eps_idx = np.array([0, 0, 3, 1, 3, 2**32 - 1, 0])
    samples = np.array([0, 5, 2, 0, 2**32 - 1, 9, 4])
    got = point_seeds(base_seed, 8, 0, eps_idx, samples)
    want = [point_seed(base_seed, 8, 0, int(e), int(k)) for e, k in zip(eps_idx, samples)]
    assert got.dtype == np.uint64 and got.tolist() == want
    assert point_seeds(base_seed, 8, 0, [3, 3], [2, 2]).tolist() == want[2:3] * 2


@pytest.mark.parametrize(
    "eps_idx, samples, message",
    [
        ([0, 2**32], [0, 1], f"eps_idx must be an int in \\[0, {2**32}\\), got {2**32}"),
        ([0, -1], [0, 1], f"eps_idx must be an int in \\[0, {2**32}\\), got -1"),
        ([0, 1.5], [0, 1], f"eps_idx must be an int in \\[0, {2**32}\\), got 1.5"),
        ([0, 1, 2], [0, 1], "eps_idx has 3 values, but there are 2 sample indices"),
    ],
)
def test_point_seeds_reject_bad_eps_index_stacks(eps_idx, samples, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        point_seeds(1, 4, 0, eps_idx, samples)


def test_coupling_noises_with_one_eps_per_seed_equal_per_eps_calls():
    seeds = list(EDGE_SEEDS) + point_seeds(7, 6, 0, 1, np.arange(50)).tolist()
    eps = np.resize([0.0, 1e-3, 0.0056, 0.5], len(seeds))
    got = coupling_noises(6, eps, seeds)
    for value in np.unique(eps):
        rows = np.flatnonzero(eps == value)
        want = coupling_noises(6, float(value), [seeds[k] for k in rows])
        assert got[rows].tobytes() == want.tobytes(), value
    want = np.array([numpy_draw(6, e, s) for e, s in zip(eps, seeds)])
    assert got.tobytes() == want.tobytes()
    assert coupling_noises(6, list(eps), seeds).tobytes() == got.tobytes()


@pytest.mark.parametrize(
    "noise_eps, message",
    [
        ([0.01, -0.1], "noise_eps must be a finite number in [0, 1), got -0.1"),
        ([0.01, np.nan], "noise_eps must be a finite number in [0, 1), got nan"),
        (["0.1", 0.1], "noise_eps must be a finite number in [0, 1), got '0.1'"),
        ([0.01, 0.02, 0.03], "noise_eps has 3 values, but there are 2 seeds"),
        ([True, True], "noise_eps must be a finite number in [0, 1), got True"),
    ],
)
def test_coupling_noises_reject_bad_eps_stacks(noise_eps, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        coupling_noises(4, noise_eps, [1, 2])


@pytest.mark.parametrize("noise_eps", [1.0, 1.5])
def test_noise_of_one_or_more_is_rejected_in_every_form(noise_eps):
    # 1.5 once drew a factor 1 + eps_x of -0.07, flipping a coupling's sign
    message = f"^{re.escape(f'noise_eps must be a finite number in [0, 1), got {noise_eps!r}')}"
    for form in (noise_eps, [0.01, noise_eps], np.array([noise_eps, 0.01])):
        with pytest.raises(ValueError, match=message):
            coupling_noises(4, form, [1, 2])
    with pytest.raises(ValueError, match=message):
        krawtchouk_chain(4, noise_eps=noise_eps, seed=1)


def test_coupling_noises_take_a_uint64_stack():
    seeds = point_seeds(1, 4, 1, 0, np.arange(5))
    want = np.array([numpy_draw(6, 0.03, int(s)) for s in seeds])
    assert coupling_noises(6, 0.03, seeds).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "seeds, shown",
    [
        ([3, -1], "-1"),
        ([2**64], str(2**64)),
        ([1.5], "1.5"),
        (["3"], "'3'"),
        ([True], "True"),
        (np.array([-2, 4]), "-2"),
        (np.array([0.5]), "0.5"),
    ],
)
def test_coupling_noises_reject_bad_seeds(seeds, shown):
    with pytest.raises(ValueError, match=rf"^seed must be an int in \[0, {2**64}\), got .*{shown}"):
        coupling_noises(4, 0.01, seeds)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(N=0), "N must be an int >= 2 (at most 2048), got 0"),
        (dict(noise_eps=-0.1), "noise_eps must be a finite number in [0, 1), got -0.1"),
        (dict(noise_eps=np.inf), "noise_eps must be a finite number in [0, 1), got inf"),
        (dict(seeds=5), "seed must be a 1-D sequence of ints, got 5"),
        (dict(noise_eps=True), "noise_eps must be a finite number in [0, 1), got True"),
    ],
)
def test_coupling_noises_reject_bad_arguments(kwargs, message):
    args = dict(N=4, noise_eps=0.01, seeds=[1]) | kwargs
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        coupling_noises(**args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 4, 1, 0, [0]), "base_seed must be an int >= 0, got -1"),
        ((1.0, 4, 1, 0, [0]), "base_seed must be an int >= 0, got 1.0"),
        ((1, -4, 1, 0, [0]), "N must be an int >= 0, got -4"),
        ((1, 4, 1, "0", [0]), "eps_idx must be an int >= 0, got '0'"),
        ((1, 4, 1, 0, [0, 2**32]), f"sample index must be an int in \\[0, {2**32}\\), got {2**32}"),
        ((1, 4, 1, 0, np.array([3, -1])), f"sample index must be an int in \\[0, {2**32}\\), got -1"),
    ],
)
def test_point_seeds_reject_bad_arguments(args, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        point_seeds(*args)


def test_fig3_sweep_builds_no_numpy_seeding_object(monkeypatch):
    counts = {}

    def counted(name):
        inner = getattr(np.random, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.random, name, wrapper)

    for name in ("SeedSequence", "default_rng", "Generator", "PCG64"):
        counted(name)
    cfg = SweepConfig(protocol="fig3", n_values=(4, 8), eps_values=(1e-3, 1e-2), samples=40)
    rows = sweep_fig3(cfg)
    assert [row[4] for row in rows] == [40] * 4
    assert counts == {}
    # the counters see the per-run draw, which keeps NumPy's generator
    krawtchouk_chain(4, 0.01, seed=3)
    assert counts == {"default_rng": 1}

