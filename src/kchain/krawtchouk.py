"""Exact Krawtchouk eigenbasis, Slater-determinant eigenstates, and matrix elements."""

import dataclasses
import itertools
import math
import numbers
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .hamiltonians import _is_number
from .linalg import minors

__all__ = [
    "krawtchouk_poly",
    "kmatrix",
    "int_det",
    "kminor_det",
    "KrawtchoukBasis",
    "build_basis",
    "manybody_energy",
    "eigenstate_vector",
    "phi_minor_exact",
    "M1Result",
    "m1_closed_form",
    "m2_closed_form",
    "conjugate_phase",
    "meixner_identity_check",
]


def krawtchouk_poly(n: int, k: int, x: int) -> int:
    """Exact integer K^(n)_{k,x} = sum_j (-1)^j C(x,j) C(n-x,k-j)."""
    if not (0 <= k <= n and 0 <= x <= n):
        raise ValueError("indices must lie in [0, n]")
    return sum((-1) ** j * comb(x, j) * comb(n - x, k - j) for j in range(k + 1))


def kmatrix(n: int) -> np.ndarray:
    """(n+1)x(n+1) integer matrix K_{k,x}, exact (object dtype), n an int
    in [0, _BASIS_N_MAX]."""
    n = _take_int(n, "n", range(_BASIS_N_MAX + 1), f"an int >= 0 (at most {_BASIS_N_MAX})")
    mat = np.empty((n + 1, n + 1), dtype=object)
    for k in range(n + 1):
        for x in range(n + 1):
            mat[k, x] = krawtchouk_poly(n, k, x)
    return mat


def int_det(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a small integer matrix (fraction-free Bareiss)."""
    a = [[int(v) for v in row] for row in mat]
    q = len(a)
    if any(len(row) != q for row in a):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for i in range(q - 1):
        if a[i][i] == 0:
            for r in range(i + 1, q):
                if a[r][i] != 0:
                    a[i], a[r] = a[r], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, q):
            for c in range(i + 1, q):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[q - 1][q - 1] if q else 1


def kminor_det(n: int, rows: Sequence[int], cols: Sequence[int]) -> int:
    """Exact determinant of the K-matrix minor with the given rows/columns."""
    if len(rows) != len(cols):
        raise ValueError("minor must be square")
    return int_det([[krawtchouk_poly(n, k, x) for x in cols] for k in rows])


@dataclasses.dataclass(frozen=True)
class KrawtchoukBasis:
    """Single-particle eigenbasis of the engineered chain on N = n+1 sites.

    phi[k, x] is the real orthogonal (and symmetric) eigenvector matrix;
    row k is the eigenvector with eigenvalue lambdas[k] = k - n/2.
    """

    n: int
    phi: np.ndarray
    lambdas: np.ndarray


# The largest n a basis or a closed form takes: build_basis's cost grows
# faster than n^4, and every closed form is checked against its basis.
_BASIS_N_MAX = 40


def _take_int(value, name: str, allowed: range, what: str) -> int:
    """value as an int, or a ValueError naming name, saying it must be
    what, unless value is a number (_is_number) in allowed."""
    if not (_is_number(value, numbers.Integral) and value in allowed):
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return int(value)


def build_basis(n: int) -> KrawtchoukBasis:
    """Construct phi_{k,x} = sqrt(C(n,x) / (C(n,k) 2^n)) K_{k,x} exactly.

    Binomial ratios are kept exact (Fraction) until the final square root,
    which keeps the matrix orthogonal to machine precision for n <= 40,
    the largest n taken (_BASIS_N_MAX).
    """
    n = _take_int(n, "n", range(1, _BASIS_N_MAX + 1), f"an int >= 1 (at most {_BASIS_N_MAX})")
    kmat = kmatrix(n)
    phi = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        for x in range(n + 1):
            ratio = Fraction(comb(n, x), comb(n, k) * 2**n)
            phi[k, x] = int(kmat[k, x]) * math.sqrt(ratio)
    lambdas = np.arange(n + 1) - n / 2.0
    return KrawtchoukBasis(n=n, phi=phi, lambdas=lambdas)


def _check_modes(n: int, modes: Sequence[int]) -> tuple:
    modes = tuple(modes)
    if list(modes) != sorted(set(modes)):
        raise ValueError("modes must be strictly ascending")
    if modes and (modes[0] < 0 or modes[-1] > n):
        raise ValueError("mode index out of range")
    return modes


def manybody_energy(basis: KrawtchoukBasis, modes: Sequence[int]) -> float:
    """Energy of the free-fermion eigenstate with the given occupied modes."""
    modes = _check_modes(basis.n, modes)
    return float(sum(basis.lambdas[k] for k in modes))


def eigenstate_vector(basis: KrawtchoukBasis, modes: Sequence[int]) -> np.ndarray:
    """Full 2^N eigenstate with the given modes occupied.

    The amplitude on the configuration with sites x_1 < ... < x_q excited is
    det phi[modes, xs], both index sets ascending.  With this convention the
    fermionic string signs all come out +1, because each creation operator
    only crosses empty sites when the configuration is built left to right.

    All C(N, q) minors are taken in one stacked det (linalg.minors).
    """
    modes = _check_modes(basis.n, modes)
    N = basis.n + 1
    sites = np.array(list(itertools.combinations(range(N), len(modes))), dtype=int)
    rows = np.array([modes], dtype=int)
    vec = np.zeros(2**N)
    vec[np.sum(1 << (N - 1 - sites), axis=1)] = minors(basis.phi, rows, sites)[0]
    return vec


def phi_minor_exact(n: int, rows: Sequence[int], cols: Sequence[int]) -> float:
    """det of the phi minor, via the exact integer K-minor and exact norms.

    det phi[rows, cols] = det K[rows, cols] * sqrt(prod_cols C(n,x) /
    (prod_rows C(n,k) * 2^(n*q))), evaluated with exact big integers under
    the square root.
    """
    if len(rows) != len(cols):
        raise ValueError("minor must be square")
    q = len(rows)
    kdet = kminor_det(n, rows, cols)
    num = math.prod(comb(n, x) for x in cols)
    den = math.prod(comb(n, k) for k in rows) * 2 ** (n * q)
    return kdet * math.sqrt(Fraction(num, den))


@dataclasses.dataclass(frozen=True)
class M1Result:
    power_form: float
    minor_form: float


def m1_closed_form(n: int) -> M1Result:
    """One-site transition amplitude between the two half-filled bands (N odd).

    power_form is (-2)^(-n^2/4); minor_form is the determinant-product
    expression 2^(n/2) * det phi[{0..n/2},{0..n/2}]
                       * det phi[{0..n/2-1},{n/2+1..n}].
    """
    n = _take_int(
        n, "n", range(2, _BASIS_N_MAX + 1, 2), f"an even int in [2, {_BASIS_N_MAX}] (an odd qubit count)"
    )
    h = n // 2
    power = float((-2.0) ** (-(n * n) // 4))
    minor = (
        2.0 ** (n / 2.0)
        * phi_minor_exact(n, range(0, h + 1), range(0, h + 1))
        * phi_minor_exact(n, range(0, h), range(h + 1, n + 1))
    )
    return M1Result(power_form=power, minor_form=minor)


def m2_closed_form(n: int, j: int) -> float:
    """Two-site transition amplitude between the half-filled bands (N even).

    2^((n-1)/2) * det phi[{j..j+d-1},{0..d-1}] * det phi[{j+1..j+d},{d..n}]
    with d = (n+1)/2, evaluated through exact integer minors.
    """
    n = _take_int(
        n, "n", range(1, _BASIS_N_MAX, 2), f"an odd int in [1, {_BASIS_N_MAX - 1}] (an even qubit count)"
    )
    d = (n + 1) // 2
    j = _take_int(j, "j", range(n - d + 1), f"an int in [0, {n - d}] at n={n}")
    first = phi_minor_exact(n, range(j, j + d), range(0, d))
    second = phi_minor_exact(n, range(j + 1, j + d + 1), range(d, n + 1))
    return 2.0 ** ((n - 1) / 2.0) * first * second


def conjugate_phase(N: int) -> int:
    """Relative phase (-1)^(N/2) of the conjugate-ordered two-site element,
    N an even int in [2, _BASIS_N_MAX] (m2_closed_form's chains)."""
    N = _take_int(N, "N", range(2, _BASIS_N_MAX + 1, 2), f"an even int in [2, {_BASIS_N_MAX}]")
    return -1 if (N // 2) % 2 else 1


def meixner_identity_check(n: int) -> float:
    """Max residual of sum_k (-i)^k K_{x,k} K_{k,y} = i^(x+y-n/2) 2^(n/2) K_{x,y}."""
    n = _take_int(n, "n", range(1, _BASIS_N_MAX + 1), f"an int >= 1 (at most {_BASIS_N_MAX})")
    kmat = kmatrix(n).astype(float)
    lhs = (kmat * (-1.0j) ** np.arange(n + 1)[None, :]) @ kmat
    xs = np.arange(n + 1)
    pref = 1.0j ** (xs[:, None] + xs[None, :] - n / 2.0)
    rhs = pref * 2.0 ** (n / 2.0) * kmat
    return float(np.max(np.abs(lhs - rhs)))
