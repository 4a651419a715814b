"""Gate constructions built around the N-qubit swap.

Qubit 0 is the leftmost ket symbol everywhere; two-qubit gates act on
adjacent sites.  Every circuit is a dense product of unitaries, small
enough for direct verification against its target truth table.
"""

import numpy as np

from .driving import iswap_target
from .linalg import PAULI_X, basis_index, tensor_embed, trace_error

__all__ = [
    "HADAMARD",
    "S_GATE",
    "iswap2",
    "cns_unitary",
    "cns_decomposition",
    "scn_unitary",
    "phase_gate",
    "ctrl_x_circuit",
    "ctrl_x_target",
    "verify_ctrl_x_circuit",
    "ctrl_iswap2_circuit",
    "ctrl_iswap2_target",
    "verify_ctrl_iswap2_circuit",
]

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]])


def iswap2() -> np.ndarray:
    """Two-qubit swap with phase i on the swapped pair (|01>, |10>)."""
    u = np.eye(4, dtype=complex)
    u[1, 1] = u[2, 2] = 0.0
    u[1, 2] = u[2, 1] = 1.0j
    return u


def cns_unitary() -> np.ndarray:
    """CNOT (control = qubit 0) followed by a swap, as a truth table."""
    u = np.zeros((4, 4), dtype=complex)
    for c in (0, 1):
        for t in (0, 1):
            src = basis_index([c, t])
            dst = basis_index([t ^ c, c])
            u[dst, src] = 1.0
    return u


def cns_decomposition() -> np.ndarray:
    """CNS built from the phased swap and single-qubit gates.

    Reading right to left: Hadamard on the target, S^-1 on both, the
    phased swap, Hadamard on the new target position.
    """
    sdg = S_GATE.conj().T
    h_first = np.kron(HADAMARD, np.eye(2))
    h_second = np.kron(np.eye(2), HADAMARD)
    return h_first @ iswap2() @ np.kron(sdg, sdg) @ h_second


def scn_unitary() -> np.ndarray:
    """Swap followed by CNOT (control ends on qubit 0); inverse of CNS."""
    return cns_unitary().conj().T


def phase_gate(N: int, iswap_n: np.ndarray | None = None) -> np.ndarray:
    """Square of the N-qubit swap: -1 on the two half-filled domain states."""
    u = iswap_target(N) if iswap_n is None else iswap_n
    return u @ u


def ctrl_x_target(N: int) -> np.ndarray:
    """X on qubit N-2 controlled on qubits 0..N-3, identity on the ancilla."""
    dim = 2**N
    u = np.eye(dim, dtype=complex)
    controls = list(range(N - 2))
    target = N - 2
    for src in range(dim):
        bits = [(src >> (N - 1 - x)) & 1 for x in range(N)]
        if all(bits[c] for c in controls):
            dst = src ^ (1 << (N - 1 - target))
            u[src, src] = 0.0
            u[dst, src] = 1.0
    return u


def ctrl_x_circuit(N: int, phase_n: np.ndarray | None = None) -> np.ndarray:
    """Multi-controlled X from one N-qubit phase gate plus local gates.

    Qubit N-1 is an ancilla prepared in |0>.  Sandwiching the phase gate
    with X on sites N/2..N-2 moves its -1 onto exactly the all-ones
    working pattern, and the Hadamard pair on qubit N-2 turns that phase
    flip into a bit flip.
    """
    if N % 2 or N < 4:
        raise ValueError("construction needs even N >= 4")
    pg = phase_gate(N) if phase_n is None else phase_n
    h_edge = tensor_embed(HADAMARD, [N - 2], N)
    flips = np.eye(2**N, dtype=complex)
    for x in range(N // 2, N - 1):
        flips = tensor_embed(PAULI_X, [x], N) @ flips
    return h_edge @ flips @ pg @ flips @ h_edge


def verify_ctrl_x_circuit(N: int, circuit: np.ndarray | None = None) -> float:
    """Deviation from the controlled-X truth table on the ancilla-0 block.

    Also demands the ancilla return exactly to |0>: any column amplitude
    ending with ancilla 1 counts toward the deviation.
    """
    u = ctrl_x_circuit(N) if circuit is None else circuit
    target = ctrl_x_target(N)
    cols = [i for i in range(2**N) if not (i & 1)]  # ancilla (qubit N-1) = 0
    diff = u[:, cols] - target[:, cols]
    return float(np.abs(diff).max())


def ctrl_iswap2_target(N: int) -> np.ndarray:
    """Phased swap of the last two qubits, controlled on the first N-2."""
    dim = 2**N
    u = np.eye(dim, dtype=complex)
    a = basis_index([1] * (N - 2) + [0, 1])
    b = basis_index([1] * (N - 2) + [1, 0])
    u[a, a] = u[b, b] = 0.0
    u[a, b] = u[b, a] = 1.0j
    return u


def _conjugation_layer(N: int) -> np.ndarray:
    """Product of local gates mapping the controlled-swap pair onto the
    two domain-wall states exchanged by the N-qubit swap."""
    def scn_on(i):
        return tensor_embed(scn_unitary(), [i, i + 1], N)

    def x_on(i):
        return tensor_embed(PAULI_X, [i], N)

    if N == 6:
        return x_on(0) @ scn_on(0) @ scn_on(1) @ x_on(2) @ scn_on(2) @ scn_on(3)
    if N == 4:
        return x_on(0) @ scn_on(0) @ x_on(1) @ scn_on(1)
    raise ValueError("conjugation layer defined for N in {4, 6}")


def ctrl_iswap2_circuit(N: int, iswap_n: np.ndarray | None = None) -> np.ndarray:
    """Controlled two-qubit phased swap from a single N-qubit swap.

    The conjugation layer L maps |1..101> and |1..110> onto the two
    domain-wall states; U = L^-1 iSWAP_N L then acts as the controlled
    gate on the computational basis.
    """
    core = iswap_target(N) if iswap_n is None else iswap_n
    layer = _conjugation_layer(N)
    return layer.conj().T @ core @ layer


def verify_ctrl_iswap2_circuit(N: int, circuit: np.ndarray | None = None) -> float:
    """Global-phase-invariant deviation from the controlled phased swap."""
    u = ctrl_iswap2_circuit(N) if circuit is None else circuit
    return float(trace_error(ctrl_iswap2_target(N), u))
