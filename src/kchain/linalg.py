"""Dense linear-algebra helpers for small multi-qubit Hilbert spaces."""

import functools
import math

import numpy as np

__all__ = [
    "PAULI_X",
    "basis_index",
    "sector_indices",
    "block_diagonal",
    "minors",
    "tensor_embed",
    "assert_hermitian",
    "assert_unitary",
    "expm_hermitian",
    "expm_hermitian_times",
    "trace_error",
    "max_column_distance",
]

# Pauli X in the |0>, |1> basis; |1> is the excited state.
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# ---------------------------------------------------------------- basis maps

def basis_index(bits) -> int:
    """Index of the computational state |b_0 b_1 ... b_n>.

    Qubit 0 is the leftmost symbol and the most significant bit, so the
    index is sum_x b_x * 2**(N-1-x).
    """
    idx = 0
    for b in bits:
        idx = (idx << 1) | int(b)
    return idx


@functools.lru_cache(maxsize=128)
def sector_indices(nqubits: int, weight: int) -> np.ndarray:
    """Basis indices with the given excitation number, in increasing order.

    Every sector-wise routine asks for the same few sectors, so each is
    computed once (a popcount pass over all 2^nqubits states) and shared:
    the array is read only.
    """
    idx = np.arange(2**nqubits, dtype=np.int64)
    pop = np.zeros(2**nqubits, dtype=np.int64)
    v = idx.copy()
    while v.any():
        pop += v & 1
        v >>= 1
    states = idx[pop == weight]
    states.flags.writeable = False
    return states


def block_diagonal(blocks) -> np.ndarray:
    """The 2^N x 2^N matrix whose block on sector_indices(N, q) is blocks[q],
    q = 0..N with N = len(blocks) - 1, and zero off the sectors."""
    N = len(blocks) - 1
    mat = np.zeros((2**N, 2**N), dtype=complex)
    for q, block in enumerate(blocks):
        states = sector_indices(N, q)
        mat[np.ix_(states, states)] = block
    return mat


def minors(mat: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(R, C) array of det mat[rows[r]][:, cols[c]], from (R, q) and (C, q)
    index arrays; one stacked det, equal to each minor's own det bit for bit."""
    return np.linalg.det(mat[rows[:, None, :, None], cols[None, :, None, :]])


# ------------------------------------------------------------ operator tools

def tensor_embed(op: np.ndarray, sites, nqubits: int) -> np.ndarray:
    """Embed a k-qubit operator acting on ``sites`` into the full register.

    ``op`` is a 2^k x 2^k matrix whose tensor factors correspond to the
    listed sites in order.  The result follows the global convention that
    qubit 0 is the most significant tensor factor.
    """
    sites = list(sites)
    k = len(sites)
    if op.shape != (2**k, 2**k):
        raise ValueError("operator shape does not match number of sites")
    if len(set(sites)) != k or any(s < 0 or s >= nqubits for s in sites):
        raise ValueError("sites must be distinct and in range")
    rest = [x for x in range(nqubits) if x not in sites]
    full = np.kron(op, np.eye(2 ** (nqubits - k), dtype=complex))
    # full acts on (sites..., rest...); permute tensor axes to natural order
    order = sites + rest
    perm = [order.index(x) for x in range(nqubits)]
    t = full.reshape((2,) * (2 * nqubits))
    t = t.transpose(perm + [nqubits + p for p in perm])
    return np.ascontiguousarray(t.reshape(2**nqubits, 2**nqubits))


def _adjoint(mat: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes; leading axes are batch axes."""
    return mat.conj().swapaxes(-1, -2)


def assert_hermitian(mat: np.ndarray, tol: float = 1e-12) -> None:
    dev = float(np.max(np.abs(mat - _adjoint(mat))))
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")


def assert_unitary(mat: np.ndarray, tol: float = 1e-10) -> None:
    dim = mat.shape[0]
    dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
    if dev > tol:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")


def expm_hermitian(ham: np.ndarray, t: float = 1.0) -> np.ndarray:
    """exp(-i*ham*t) for Hermitian ham, via eigendecomposition.

    Exactly unitary up to roundoff for any step size, unlike truncated
    series methods.  Leading axes of ham are batch axes: a stack of
    matrices gives the stack of their exponentials, each equal bit for bit
    to its own 2-D call.  The Hermitian check covers the whole stack.
    """
    return next(expm_hermitian_times(ham, (t,)))


def expm_hermitian_times(ham: np.ndarray, times):
    """Generator of exp(-i*ham*t) for each t in times, from one eigendecomposition.

    Each result equals expm_hermitian(ham, t) bit for bit.  They are made
    one at a time, so only one is held unless the caller keeps them.
    """
    assert_hermitian(ham, tol=1e-10 * max(1.0, float(np.max(np.abs(ham)))))
    w, v = np.linalg.eigh(ham)
    for t in times:
        phases = np.exp(-1.0j * w * t)
        yield (v * phases[..., None, :]) @ _adjoint(v)


# ----------------------------------------------------------------- distances

def trace_error(target: np.ndarray, actual: np.ndarray) -> float:
    """Global-phase-invariant gate error 1 - |Tr(target @ actual^dagger)| / dim."""
    dim = target.shape[0]
    return 1.0 - abs(np.trace(target @ actual.conj().T)) / dim


def max_column_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest 2-norm difference between corresponding columns."""
    return float(math.sqrt(np.max(np.sum(np.abs(a - b) ** 2, axis=0))))
