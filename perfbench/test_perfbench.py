"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

import dataclasses
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Tally, protocol_problems, reference_problems  # noqa: E402
from spans import SpanRecorder, metric_values  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and a [6, 8]
    rec = SpanRecorder("pkg", clock=FakeClock([0, 1, 2, 3, 4, 6, 8, 10]))
    outer = rec.open("outer")
    first = rec.open("a")
    inner = rec.open("b")
    rec.close(inner)
    rec.close(first)
    second = rec.open("a")
    rec.close(second)
    rec.close(outer)
    own = rec.self_times()
    assert own[outer] == pytest.approx(10 - 3 - 2)
    assert own[first] == pytest.approx(3 - 1)
    assert own[inner] == pytest.approx(1)
    assert own[second] == pytest.approx(2)
    assert rec.totals() == {"outer": (5.0, 1), "a": (4.0, 2), "b": (1.0, 1)}
    assert rec.ancestor(inner, "outer") == outer
    assert rec.ancestor(outer, "a") is None


def test_self_time_counts_overlapping_children_once():
    rec = SpanRecorder("pkg")
    for lo, hi, parent in ((0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (20.0, 30.0, 0)):
        rec.name_id.append(rec._intern("x"))
        rec.parent.append(parent)
        rec.thread.append(0)
        rec.start.append(lo)
        rec.end.append(hi)
    # children cover [1, 7] inside the parent; the third lies outside it
    assert rec.self_times()[0] == pytest.approx(4.0)


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")
    exec("def leaf(x):\n    return x + 1\n", mod.__dict__)
    mod.leaf.__module__ = "fakepkg.mod"
    exec("def outer(x):\n    return leaf(x) * 2\n", user.__dict__)
    user.outer.__module__ = "fakepkg.user"
    user.leaf = mod.leaf
    for name, module in (("fakepkg", pkg), ("fakepkg.mod", mod), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return mod, user


def test_recorder_wraps_every_binding_and_restores_them(fake_package):
    mod, user = fake_package
    original = mod.leaf
    rec = SpanRecorder("fakepkg")
    rec.install()
    try:
        assert user.outer(1) == 4
        assert mod.leaf(1) == 2
        assert user.leaf is mod.leaf is not original
    finally:
        rec.uninstall()
    assert mod.leaf is original and user.leaf is original
    assert rec.totals()["mod.leaf"][1] == 2
    assert rec.totals()["user.outer"][1] == 1


def test_missing_function_is_reported_absent(fake_package):
    rec = SpanRecorder("fakepkg")
    rec.install()
    try:
        fake_package[1].outer(1)
    finally:
        rec.uninstall()
    values, absent = metric_values(
        rec,
        ["mod.leaf.calls", "mod.gone.self_s", "mod.gone.calls", "mod.gone.extra"],
        ops=1,
        derived={"mod.gone.extra": ("mod.gone", 0.0)},
    )
    assert values["mod.leaf.calls"] == 1.0
    assert absent == ["mod.gone.self_s", "mod.gone.calls", "mod.gone.extra"]
    assert values["mod.gone.self_s"] == values["mod.gone.calls"] == 0.0


@pytest.fixture(scope="module")
def kchain():
    run.pin_threads()
    return run.import_kchain()


def test_perturbed_error_fails_the_op(kchain):
    res = kchain.run_iswap_protocol(kchain.ProtocolParams(N=4, M=1))
    bad = dataclasses.replace(res, error=res.error * (1.0 + 1e-5))
    tally = Tally()
    assert tally.record(protocol_problems(res, 4), "clean")
    assert not tally.record(protocol_problems(bad, 4), "perturbed")
    assert tally.fail_frac == 0.5
    assert reference_problems("mean", [bad.error], [res.error])
    assert not reference_problems("mean", [res.error], [0.000672555999634894])


def test_headline_check_rejects_a_perturbed_error(kchain):
    _, results = run.setup()
    assert run.headline_problems(results) == [[], []]
    results[0] = dataclasses.replace(results[0], error=results[0].error * (1.0 + 1e-5))
    assert run.headline_problems(results)[0]


def test_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_kchain()
    assert exc.value.code != 0
