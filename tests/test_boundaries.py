"""The numeric boundaries: every constructor of a run's or a sweep's
parameters, every noise amplitude, a protocol run's frequency override,
and the size arguments of the gate-time count, the resonance frequency,
the target gate, the GHZ demo and the Krawtchouk basis take a value or
refuse it with a ValueError naming the field."""

import dataclasses
import inspect
import itertools
import math
import re
import warnings

import numpy as np
import pytest

from kchain.driving import (
    ProtocolParams,
    gate_time_accounting,
    iswap_target,
    resonance_frequency,
    run_iswap_protocol,
)
from kchain.experiments import SweepConfig, format_table, ghz_demo, sweep_fig3
from kchain.hamiltonians import ChainSpec, coupling_noises, krawtchouk_chain, krawtchouk_couplings
from kchain.krawtchouk import build_basis

with warnings.catch_warnings():
    # a float16 of 1e300 overflows to inf, with a warning, as it is made
    warnings.simplefilter("ignore")
    NUMPY_SCALARS = [
        dtype(value)
        for dtype in (np.float16, np.float32, np.float64, np.longdouble)
        for value in (0.01, 1.0, 4.0, 1e300, math.nan)
    ]
HOSTILE = [
    True, False, math.nan, math.inf, -math.inf, -0.0, 1e300, -1e300, 1e-300,
    *NUMPY_SCALARS,
    np.int8(4), np.int8(-3), np.int64(4), np.int64(-1), np.uint64(4), np.uint64(2**64 - 1),
    np.array(0.01), np.array(4), np.array(True), np.array([0.01, 0.02]),
    "0.01", "4", "abc", "",
    # a count float64 cannot hold; 4 M and 2 pi M once overflowed on it
    10**400,
]

# each boundary: (build, the valid arguments, the fields that take hostile values)
BOUNDARIES = {
    "ProtocolParams": (
        ProtocolParams,
        dict(N=4, M=1, halfway_inversion=True, noise_eps=0.01, seed=3),
        ("N", "M", "halfway_inversion", "noise_eps", "seed"),
    ),
    "SweepConfig": (
        SweepConfig,
        dict(
            protocol="fig2", n_values=(4,), eps_values=(0.01,), m_values=(1,), samples=4, base_seed=1, threads=1
        ),
        ("protocol", "n_values", "eps_values", "m_values", "samples", "base_seed", "threads"),
    ),
    "ChainSpec": (ChainSpec, dict(N=4, couplings=krawtchouk_couplings(3)), ("N", "couplings")),
    "krawtchouk_chain": (krawtchouk_chain, dict(N=4, noise_eps=0.01, seed=3), ("N", "noise_eps", "seed")),
    "coupling_noises": (coupling_noises, dict(N=4, noise_eps=0.01, seeds=[3, 5]), ("N", "noise_eps")),
    "gate_time_accounting": (gate_time_accounting, dict(N=4, M=1), ("N", "M")),
    "resonance_frequency": (resonance_frequency, dict(N=4), ("N",)),
}
# the parameters of a boundary that take no hostile value here, each with
# the reason
UNLISTED = {
    ("coupling_noises", "seeds"): "a sequence whose every entry uint_stack checks as a seed (tests/test_seeding.py)",
}
# a sequence field takes the hostile value as itself and as every entry of
# a sequence of this length
SEQUENCES = {
    ("SweepConfig", "n_values"): 1,
    ("SweepConfig", "eps_values"): 1,
    ("SweepConfig", "m_values"): 1,
    ("ChainSpec", "couplings"): 3,
    ("coupling_noises", "noise_eps"): 2,
}
CASES = [
    (boundary, field, None) for boundary, (_, _, fields) in BOUNDARIES.items() for field in fields
] + [(boundary, field, length) for (boundary, field), length in SEQUENCES.items()]


def _parameters(build) -> list:
    """The fields of a dataclass, or the parameters of a function."""
    if dataclasses.is_dataclass(build):
        return [f.name for f in dataclasses.fields(build)]
    return list(inspect.signature(build).parameters)


def test_the_table_lists_every_parameter_of_each_boundary():
    # a parameter added to a boundary, or a listed one it no longer has,
    # fails here until the table says what it takes
    table = {(boundary, field) for boundary, (_, _, fields) in BOUNDARIES.items() for field in fields}
    parameters = {(boundary, name) for boundary, (build, _, _) in BOUNDARIES.items() for name in _parameters(build)}
    assert table.isdisjoint(UNLISTED)
    assert parameters == table | UNLISTED.keys()


def _offence(build, field, value):
    """None if build(value) returns or raises a ValueError naming field,
    else what it did instead; a warning counts as an offence."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            build(value)
        except ValueError as exc:
            return None if re.search(rf"\b{field}\b", str(exc)) else f"ValueError: {exc}"
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"
    return None


def test_a_hostile_value_builds_or_is_refused_by_name():
    # every case with every hostile value, the offenders collected
    offenders = []
    for (boundary, field, length), value in itertools.product(CASES, HOSTILE):
        build, valid, _ = BOUNDARIES[boundary]
        hostile = value if length is None else [value] * length
        offence = _offence(lambda v: build(**{**valid, field: v}), field, hostile)
        if offence:
            offenders.append((boundary, field, value, offence))
    assert offenders == []


# run_iswap_protocol's one keyword argument; N = 4 M = 1 keeps every run
# that is taken short
RUN_FIELDS = ("omega_override",)


def test_a_hostile_run_argument_runs_or_is_refused_by_name():
    offenders = []
    for field, value in itertools.product(RUN_FIELDS, HOSTILE):
        results = []
        run = lambda v: results.append(run_iswap_protocol(ProtocolParams(N=4, M=1), **{field: v}))
        offence = _offence(run, field, value)
        if not offence and results and not (0.0 <= results[0].error < 1.0 and results[0].converged_delta < 1e-9):
            offence = f"error {results[0].error}, delta {results[0].converged_delta}"
        if offence:
            offenders.append((field, value, offence))
    assert offenders == []


def _sweep(**fields):
    return SweepConfig(**{**BOUNDARIES["SweepConfig"][1], **fields})


# (boundary, field, value, build): the noise amplitude of each of the four
# boundaries as a numpy float narrower or wider than float64, which each
# used to take and compute with at its own precision, then the values the
# property test above found to fail with another exception or a ValueError
# naming no field, and the values ChainSpec and SweepConfig used to take
# without a word
REFUSED = [
    *(
        (boundary, field, dtype(0.01), build)
        for boundary, field, build in [
            ("ProtocolParams", "noise_eps", lambda eps: ProtocolParams(N=4, M=1, noise_eps=eps, seed=3)),
            ("SweepConfig", "eps_values", lambda eps: _sweep(protocol="fig3", eps_values=(eps,))),
            ("krawtchouk_chain", "noise_eps", lambda eps: krawtchouk_chain(4, eps, seed=3)),
            ("coupling_noises", "noise_eps", lambda eps: coupling_noises(4, eps, [3, 5])),
            ("coupling_noises array", "noise_eps", lambda eps: coupling_noises(4, np.full(2, eps), [3, 5])),
            ("coupling_noises list", "noise_eps", lambda eps: coupling_noises(4, [0.02, eps], [3, 5])),
        ]
        for dtype in (np.float16, np.float32, np.longdouble)
    ),
    ("SweepConfig", "protocol", np.array([0.01, 0.02]), lambda value: _sweep(protocol=value)),
    ("SweepConfig", "n_values", math.nan, lambda value: _sweep(n_values=value)),
    ("SweepConfig", "n_values", np.array(4), lambda value: _sweep(n_values=value)),
    ("SweepConfig", "n_values", False, lambda value: _sweep(n_values=value)),
    ("SweepConfig", "eps_values", 0.01, lambda value: _sweep(eps_values=value)),
    ("SweepConfig", "m_values", True, lambda value: _sweep(m_values=value)),
    ("SweepConfig", "m_values", (1, math.nan), lambda value: _sweep(m_values=value)),
    ("ChainSpec", "couplings", "abc", lambda value: ChainSpec(4, value)),
    ("ChainSpec", "couplings", ["abc"] * 3, lambda value: ChainSpec(4, value)),
    ("ChainSpec", "couplings", [True] * 3, lambda value: ChainSpec(4, value)),
    ("ChainSpec", "couplings", [1j] * 3, lambda value: ChainSpec(4, value)),
    ("ChainSpec", "couplings", np.ones(3, np.float32), lambda value: ChainSpec(4, value)),
    # omega_override as a numpy float other than float64, which it used to
    # take (a float16 omega_override ran at 3.69921875), and an M float64
    # cannot hold
    *(
        (
            "run_iswap_protocol",
            "omega_override",
            dtype(3.7),
            lambda omega: run_iswap_protocol(ProtocolParams(N=4, M=1), omega_override=omega),
        )
        for dtype in (np.float16, np.float32, np.longdouble)
    ),
    # a chain size past the bound, which resonance_frequency and a fig2
    # sweep once took and failed on deep inside numpy (at N = 64)
    *(
        row
        for N in (14, 64)
        for row in [
            ("ProtocolParams", "N", N, lambda value: ProtocolParams(N=value, M=1)),
            ("resonance_frequency", "N", N, resonance_frequency),
            ("gate_time_accounting", "N", N, lambda value: gate_time_accounting(value, 1)),
            ("SweepConfig", "n_values", N, lambda value: _sweep(n_values=(4, value))),
        ]
    ),
    ("ProtocolParams", "M", 10**400, lambda value: ProtocolParams(N=4, M=value)),
    ("ProtocolParams", "M", 2**53 + 1, lambda value: ProtocolParams(N=4, M=value)),
    ("gate_time_accounting", "M", 10**400, lambda value: gate_time_accounting(4, value)),
    ("SweepConfig", "m_values", (1, 10**400), lambda value: _sweep(m_values=value)),
    # a chain past the chain bound (2048), which a fig3 sweep once took and
    # failed on after scoring the chain sizes before it, and which
    # coupling_noises once took and failed on in numpy (a MemoryError for
    # 8 TiB at 2^40)
    ("SweepConfig", "n_values", 4096, lambda value: _sweep(protocol="fig3", n_values=(4, value))),
    ("coupling_noises", "N", 2**40, lambda value: coupling_noises(value, 0.01, [3, 5])),
    # a noisy chain without a seed would draw other couplings on every call
    ("ProtocolParams", "seed", None, lambda value: ProtocolParams(N=4, M=1, noise_eps=0.01, seed=value)),
    ("krawtchouk_chain", "seed", None, lambda value: krawtchouk_chain(4, 0.01, seed=value)),
    # seeds outside the draws' one domain, ints in [0, 2^64), which the
    # per-sample draw once took (a Generator gave other couplings per call)
    *(
        row
        for seed in (2**64, 2**70, True, [1, 2], np.random.default_rng(3), np.random.SeedSequence(4), "3")
        for row in [
            ("ProtocolParams", "seed", seed, lambda value: ProtocolParams(N=4, M=1, noise_eps=0.01, seed=value)),
            ("krawtchouk_chain", "seed", seed, lambda value: krawtchouk_chain(4, 0.01, seed=value)),
        ]
    ),
    # a seed given to a clean chain, which it once ignored
    ("krawtchouk_chain", "seed", "abc", lambda value: krawtchouk_chain(4, 0.0, seed=value)),
    # exported size arguments that once failed in a TypeError or in numpy,
    # or built a basis, or a target gate for a chain no run takes
    ("ghz_demo", "N", "3", ghz_demo),
    ("ghz_demo", "N", None, ghz_demo),
    *(("iswap_target", "N", N, iswap_target) for N in (4.0, "4", 3, 0, 40)),
    *(("build_basis", "n", n, build_basis) for n in (True, "3", 3.0)),
]


def _shown(value) -> str:
    """value as a test id shows it: a NumPy seeding object by its type, as
    its repr holds an address or spans lines."""
    if isinstance(value, (np.random.Generator, np.random.SeedSequence)):
        return type(value).__name__
    return f"{value!r:.40}"


@pytest.mark.parametrize(
    "boundary, field, value, build", REFUSED, ids=[f"{b}-{f}-{_shown(v)}" for b, f, v, _ in REFUSED]
)
def test_a_refused_value_names_its_field(boundary, field, value, build):
    with pytest.raises(ValueError, match=rf"^{field} must "):
        build(value)


def test_a_float64_noise_amplitude_gives_the_bits_of_a_python_float():
    a, b = np.float64(0.01), 0.01
    assert run_iswap_protocol(ProtocolParams(N=4, M=1, noise_eps=a, seed=3)).error == (
        run_iswap_protocol(ProtocolParams(N=4, M=1, noise_eps=b, seed=3)).error
    )
    header = ("N", "eps", "mean_error", "stderr", "samples")
    tables = [
        format_table(header, sweep_fig3(SweepConfig("fig3", n_values=(4,), eps_values=(eps,), samples=4)))
        for eps in (a, b)
    ]
    assert tables[0] == tables[1]
    chains = [krawtchouk_chain(4, eps, seed=3) for eps in (a, b)]
    assert np.array_equal(chains[0].couplings, chains[1].couplings)
    for form in (lambda eps: eps, lambda eps: np.full(2, eps)):
        assert np.array_equal(coupling_noises(4, form(a), [3, 5]), coupling_noises(4, form(b), [3, 5]))


def test_a_numpy_integer_chain_size_runs_as_its_int():
    # an np.uint64 N once built params whose run raised a TypeError in the
    # sectors' bit shifts
    reference = run_iswap_protocol(ProtocolParams(N=4, M=1)).error
    for N in (np.uint64(4), np.int64(4)):
        params = ProtocolParams(N=N, M=1)
        assert type(params.N) is int
        assert run_iswap_protocol(params).error == reference
        assert resonance_frequency(N) == resonance_frequency(4)
