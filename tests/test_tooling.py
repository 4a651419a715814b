"""The tooling around the package: the test configuration, under which a
failing test must be reported as one failure among the others' results,
not end the session, the names the benchmark's tracer hooks on, the
package's one unit, the chain coupling J, and the public signatures the
README states."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib
import re
import subprocess
import sys

import pytest

import kchain
from kchain import ProtocolParams, driving
from kchain.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the package and the modules whose __all__ make up the public API
PUBLIC_MODULES = ("kchain", "hamiltonians", "krawtchouk", "eigengate", "experiments", "driving")

INNER_TESTS = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_a_failing_property(x):
    assert x < 1


def test_first():
    pass


def test_second():
    pass
'''


def test_a_failing_property_leaves_the_other_tests_reported(tmp_path):
    # an inner session under this repository's pytest configuration (its
    # warning filters among it), whose one property test fails
    (tmp_path / "pyproject.toml").write_text((ROOT / "pyproject.toml").read_text())
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_inner.py").write_text(INNER_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 2 passed" in proc.stdout.splitlines()[-1]


def _benchmark_runner():
    """perfbench/run.py, imported as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_hooks_name_functions_that_exist(monkeypatch, ladder):
    # a renamed function leaves the benchmark's per-layer metrics absent
    # without an error, so every name it tags must resolve, and the drive
    # window's hook must find nsub among the keyword arguments
    hooks = _benchmark_runner().trace_hooks(kchain)
    assert set(hooks) >= {"driving._expm_stack", "driving._drive_window_sector", "driving.run_iswap_protocol"}
    for name in hooks:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"kchain.{module}"), function, None)), name
    calls, window = [], driving._drive_window_sector

    def recording_window(*args, **kwargs):
        result = window(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(driving, "_drive_window_sector", recording_window)
    ladder(tol=float("inf"), nsub0=16, max_refine=1)
    driving.run_iswap_protocol(ProtocolParams(N=6, M=1))
    assert calls
    for args, kwargs, result in calls:
        assert "nsub" in kwargs
        assert hooks["driving._drive_window_sector"](args, kwargs, result) == kwargs["nsub"]


def _module(name: str):
    """The package for "kchain", else its module of that name."""
    return kchain if name == "kchain" else importlib.import_module(f"kchain.{name}")


def test_no_public_callable_or_command_takes_a_coupling_scale(capsys):
    # every chain is the engineered chain at J = 1, the unit all energies
    # and times are quoted in, so no coupling scale J may come back as a
    # parameter, a dataclass field or a command's --j
    offenders = []
    for name in PUBLIC_MODULES:
        module = _module(name)
        for attr in module.__all__:
            obj = getattr(module, attr)
            if dataclasses.is_dataclass(obj):
                names = [field.name for field in dataclasses.fields(obj)]
            elif callable(obj):
                names = list(inspect.signature(obj).parameters)
            else:
                continue
            if "J" in names:
                offenders.append(f"{name}.{attr}")
    assert offenders == []
    # ghz takes odd chains only, so its --n is the smallest odd one
    for command, n in (("spectrum", "4"), ("eigengate-check", "4"), ("ghz", "3"), ("pst", "4")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--n", n, "--j", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --j 1" in capsys.readouterr().err


def _public(attr: str):
    """The callable attr, exported by kchain or by a module's __all__."""
    for name in PUBLIC_MODULES:
        module = _module(name)
        if attr in module.__all__:
            return getattr(module, attr)
    raise AssertionError(f"{attr} is exported by no module")


def test_the_readme_states_the_public_signatures():
    # the README's sentence "The signatures are `f(a, b=1)`, ..." read as
    # calls: each positional name is a parameter without a default, and
    # each keyword a parameter with that default, in the function's order
    text = " ".join((ROOT / "README.md").read_text().split())
    sentence = re.search(r"The signatures are (.*?\)`)\.", text).group(1)
    stated = [ast.parse(sig, mode="eval").body for sig in re.findall(r"`([^`]*)`", sentence)]
    assert len(stated) >= 12
    for call in stated:
        want = [(arg.id, inspect.Parameter.empty) for arg in call.args]
        want += [(kw.arg, ast.literal_eval(kw.value)) for kw in call.keywords]
        params = inspect.signature(_public(call.func.id)).parameters.values()
        assert [(p.name, p.default) for p in params] == want, call.func.id
