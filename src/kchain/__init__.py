"""Krawtchouk spin-chain simulator and gate-synthesis verification suite.

The package is organized bottom-up:

- :mod:`kchain.linalg` -- dense helpers, basis-index conventions, metrics.
- :mod:`kchain.hamiltonians` -- chain and drive Hamiltonians with disorder.
- :mod:`kchain.krawtchouk` -- exact mode data: polynomials, minors,
  transition matrix elements, many-body energies.
- :mod:`kchain.eigengate` -- the eigenbasis-mapping gate and its identities.
- :mod:`kchain.driving` -- the resonant multi-qubit swap protocol and its
  sixth-order Magnus drive stepper.
- :mod:`kchain.circuits` -- controlled gates assembled from the swap.
- :mod:`kchain.experiments` -- seeded Monte Carlo sweeps and demos.
- :mod:`kchain.cli` -- the ``kchain`` command line tool.

Site 0 is the leftmost ket symbol and the most significant bit of a state
index; energies are quoted in units of the coupling scale J.
"""

__version__ = "0.1.0"

from .driving import (
    ProtocolParams,
    ProtocolResult,
    gate_time_accounting,
    iswap_target,
    resonance_frequency,
    run_iswap_protocol,
)
from .eigengate import build_eigengate
from .experiments import SweepConfig, ghz_demo, pst_demo, sweep_fig2, sweep_fig3
from .hamiltonians import ChainSpec, krawtchouk_chain
from .krawtchouk import build_basis, m1_closed_form, m2_closed_form

__all__ = [
    "ChainSpec",
    "ProtocolParams",
    "ProtocolResult",
    "SweepConfig",
    "build_basis",
    "build_eigengate",
    "gate_time_accounting",
    "ghz_demo",
    "iswap_target",
    "krawtchouk_chain",
    "m1_closed_form",
    "m2_closed_form",
    "pst_demo",
    "resonance_frequency",
    "run_iswap_protocol",
    "sweep_fig2",
    "sweep_fig3",
    "__version__",
]
