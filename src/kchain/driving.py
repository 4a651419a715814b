"""The resonant multi-qubit swap protocol and its sixth-order Magnus drive stepper."""

import cmath
import dataclasses
import functools
import math
import numbers

import numpy as np

from .hamiltonians import (
    _check_noise_eps,
    _check_seed,
    _is_number,
    chain_block,
    drive_layout,
    hz_diagonal,
    krawtchouk_chain,
    sector_hops,
    unit_drive,
)
from .krawtchouk import build_basis, eigenstate_vector, manybody_energy
from .eigengate import eigengate_single_particle, free_fermion_block
from .linalg import basis_index, block_diagonal, max_column_distance, sector_indices

__all__ = [
    "ProtocolParams",
    "ProtocolResult",
    "resonance_frequency",
    "drive_calibration",
    "iswap_target",
    "run_iswap_protocol",
    "gate_time_accounting",
]

# Gauss-Legendre nodes on [0, 1] of the sixth-order Magnus integrator
# (Blanes, Casas and Ros, BIT 40 (2000) 434; Blanes, Casas, Oteo and Ros,
# Phys. Rep. 470 (2009) 151): three evaluations per step give global O(h^6)
# error while every step stays unitary to roundoff (backward error <= 2^-53).
_GAUSS_NODES = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)


def _taylor_remainder_bound(theta: float, m: int) -> float:
    """Bound on ||exp(X) - sum_{k<=m} X^k/k!|| for ||X|| <= theta < m + 2:
    theta^(m+1)/(m+1)! / (1 - theta/(m+2)), the tail summed as a geometric
    series."""
    return theta ** (m + 1) / math.factorial(m + 1) / (1.0 - theta / (m + 2))


def _taylor_threshold(m: int) -> float:
    """Largest norm (to bisection precision) whose degree-m remainder bound
    is at most the unit roundoff 2^-53."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _taylor_remainder_bound(mid, m) <= 2.0**-53:
            lo = mid
        else:
            hi = mid
    return lo


# (degree m, threshold theta_m) of the step exponential's Taylor series, by
# increasing degree: theta_8 ~ 0.0699, theta_12 ~ 0.335
_TAYLOR_DEGREES = tuple((m, _taylor_threshold(m)) for m in (8, 12))

# Bytes of the complex step arrays one _cell_map holds at once, for
# _CHUNK_ARRAYS stacks of one chunk's length (_chunk_length): the generators
# and _expm_stack's _EXPM_STACKS.  One chunk's arrays thus stay in cache,
# whatever a level's step count.
_STEP_BYTES = 1024 * 1024
_CHUNK_ARRAYS = 8
_EXPM_STACKS = _CHUNK_ARRAYS - 1


def _t8_tables() -> tuple:
    """x4 and the tables of Bader, Blanes and Casas's degree-8 Taylor
    polynomial of exp(A) (Mathematics 7 (2019) 1174), I + A + y2 A2 + A8 in
    three products: A4 = A2 (x1 A + x2 A2), A8 = (x3 A2 + A4)(x4 I + x5 A +
    x6 A2 + x7 A4).  One table row per combination, over (A, A2), (A4, A,
    A2) and (A, A2, A8)."""
    r, x3 = math.sqrt(177.0), 2.0 / 3.0
    x1, x2, x4 = x3 * (1.0 + r) / 88.0, x3 * (1.0 + r) / 352.0, (-271.0 + 29.0 * r) / (315.0 * x3)
    x5, x6 = 11.0 * (-1.0 + r) / (1260.0 * x3), 11.0 * (-9.0 + r) / (5040.0 * x3)
    x7, y2 = (89.0 - r) / (5040.0 * x3**2), (857.0 - 58.0 * r) / 630.0
    return x4, (np.array([[x1, x2]]), np.array([[1.0, 0.0, x3], [x7, x5, x6]]), np.array([[1.0, y2, 1.0]]))


_T8_X4, _T8_TABLES = _t8_tables()
_T12_TABLE = np.array([[1.0 / math.factorial(3 * q + j) for j in (3, 1, 2)] for q in range(4)])


def _add_to_diagonal(stack: np.ndarray, value) -> np.ndarray:
    """stack += value I, for a C-contiguous stack of square matrices (on any
    other layout the reshape would copy and the update would be lost), and
    return stack."""
    n = stack.shape[-1]
    stack.reshape(-1, n * n)[:, :: n + 1] += value
    return stack


def _combine(table: np.ndarray, powers: np.ndarray, out: np.ndarray) -> None:
    """out[r] = sum_j table[r, j] powers[j]: one real product over the
    C-contiguous complex stacks' real and imaginary parts."""
    rows, k = table.shape
    np.matmul(table, powers.reshape(k, -1).view(np.float64), out=out.reshape(rows, -1).view(np.float64))


def _taylor8(p):
    """exp(A) to degree 8 in three products (_t8_tables), for A and A^2 in
    p[1] and p[2] of the scratch stacks p.  A4 goes to p[0] and A8 to p[3],
    so each combination reads adjacent stacks.  Returns p[4]."""
    t1, t2, t3 = _T8_TABLES
    _combine(t1, p[1:3], p[3])
    np.matmul(p[2], p[3], out=p[0])  # A4
    _combine(t2, p[0:3], p[4:6])
    _add_to_diagonal(p[5], _T8_X4)
    np.matmul(p[4], p[5], out=p[3])  # A8
    _combine(t3, p[1:4], p[4])
    return _add_to_diagonal(p[4], 1.0)


def _taylor12(p):
    """exp(A) to degree 12 by Paterson and Stockmeyer's scheme (1973) in
    five products, for A and A^2 in p[1] and p[2] of the scratch stacks p:
    I + B0 + Y(B1 + Y(B2 + Y B3)), Y = A^3 in p[0], with every B_q = sum_j
    A^j / (3q + j)!, j = 1..3, formed at once in p[3:7].  Returns p[1]."""
    np.matmul(p[2], p[1], out=p[0])
    _combine(_T12_TABLE, p[0:3], p[3:7])
    for acc, out, b in ((6, 1, 5), (1, 2, 4), (2, 1, 3)):  # Y acc + B_q
        np.matmul(p[0], p[acc], out=p[out])
        p[out] += p[b]
    return _add_to_diagonal(p[1], 1.0)


def _expm_stack(gs: np.ndarray) -> np.ndarray:
    """exp(-i G) for a stack of Hermitian matrices, each unitary to roundoff
    (backward error <= 2^-53).

    One truncated Taylor series serves the stack, chosen for the fewest
    products by theta, the largest ||A^2||_1^(1/2) over its A = -i G: A is
    normal, so ||A||_2^2 = ||A^2||_2 <= ||A^2||_1, and A^2 is both kernels'
    first product.  Degree 8 in three products (_taylor8) serves up to
    theta_8, with one squaring up to 2 theta_8; above, degree 12 in five
    (_taylor12), theta halved s times until it fits theta_12, A and A^2
    scaled exactly by 2^-s and 4^-s and the result squared s times (as in
    Al-Mohy and Higham, SIAM J. Matrix Anal. Appl. 2009).  The kernels work
    in _EXPM_STACKS fresh stacks of gs's shape, of which the result is a
    view.
    """
    n = gs.shape[-1]
    flat = gs.reshape(-1, n, n)
    p = np.empty((_EXPM_STACKS,) + flat.shape, dtype=complex)
    a, a2 = p[1], p[2]
    np.multiply(flat, -1.0j, out=a)
    np.matmul(a, a, out=a2)
    # A^2 is Hermitian, so its 1-norm is its largest row sum: one product
    theta = math.sqrt(float((np.abs(a2) @ np.ones(n)).max(initial=0.0)))
    if not math.isfinite(theta):
        raise ValueError("step generators must be finite")
    (_, theta8), (_, theta12) = _TAYLOR_DEGREES
    taylor, squarings = _taylor8, int(theta > theta8)
    if theta > 2.0 * theta8:
        taylor, squarings = _taylor12, 0
        while theta > theta12:
            theta /= 2.0
            squarings += 1
    if squarings:
        a *= 0.5**squarings
        a2 *= 0.25**squarings
    u, spare = taylor(p), p[0]
    for _ in range(squarings):
        np.matmul(u, u, out=spare)
        u, spare = spare, u
    return u.reshape(gs.shape)


def _ordered_product(us: np.ndarray) -> np.ndarray:
    """Product us[-1] @ ... @ us[0] by pairwise tree reduction."""
    while us.shape[0] > 1:
        if us.shape[0] % 2 == 1:
            head, us = us[0], us[1:]
            us = np.concatenate([(us[0] @ head)[None], us[1:]])
        else:
            us = us[1::2] @ us[0::2]
    return us[0]


def _commutator(a, b):
    return a @ b - b @ a


def _drive_basis(h0: np.ndarray, vop: np.ndarray) -> np.ndarray:
    """The ten Hermitian matrices that every sixth-order Magnus generator of
    H(t) = h0 + c(t) vop is a real combination of (_step_coefficients).

    With K = [h0, vop], the formula's nested commutators are all among K,
    [h0, K], [vop, K], [h0, [h0, K]], [h0, [vop, K]], [vop, [vop, K]],
    [K, [h0, K]] and [K, [vop, K]], in this order after h0 and vop; the
    Jacobi identity gives [vop, [h0, K]] = [h0, [vop, K]].  The
    anti-Hermitian ones (K and the triple commutators with h0 or vop
    outermost) are stored times i.
    """
    n = h0.shape[-1]
    basis = np.empty((10, n, n), dtype=complex)
    basis[0], basis[1] = h0, vop
    basis[2] = _commutator(h0, vop)
    basis[3:5] = _commutator(basis[:2], basis[2])
    basis[5:] = _commutator(basis[[0, 0, 1, 2, 2]], basis[[3, 4, 4, 3, 4]])
    basis[[2, 5, 6, 7]] *= 1.0j
    return basis


@functools.lru_cache(maxsize=32, typed=True)
def _step_coefficients(omega, phase, t_start, duration, nsteps) -> np.ndarray:
    """The sixth-order Magnus generators of the nsteps steps of H(t) = h0 +
    cos(omega t + phase) vop over [t_start, t_start + duration], as a
    read-only (nsteps, 10) array of real coefficients in _drive_basis(h0,
    vop).  They depend on the drive clock only, not on h0 and vop, so they
    are cached: every noisy sample of a chain steps the same stretches.

    With the drive's values c at a step's three Gauss nodes: Blanes et
    al.'s -iG = a1 + a3/12 + [-20 a1 - a3 + C1, a2 + C2]/240, where A_j =
    -i h H(node j), a1 = A2, a2 = (sqrt 15/3)(A3 - A1), a3 = (10/3)(A3 -
    2 A2 + A1), C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1]/60, for steps of
    length h."""
    h = duration / nsteps
    t = t_start + h * np.arange(nsteps)
    nodes = t[:, None] + h * np.array(_GAUSS_NODES)
    c1, c2, c3 = np.cos(omega * nodes + phase).T
    b = (math.sqrt(15.0) / 3.0) * (c3 - c1)
    d = (10.0 / 3.0) * (c3 - 2.0 * c2 + c1)
    e = 20.0 * c2 + d
    bb = b * b
    coeffs = np.empty((nsteps, 10))
    coeffs[:, 0] = h
    coeffs[:, 1] = h * (c2 + d / 12.0)
    coeffs[:, 2] = h**2 / 12.0 * b
    coeffs[:, 3] = -(h**3) / 360.0 * d
    coeffs[:, 4] = -(h**3) / 240.0 * (e * d / 30.0 - bb)
    coeffs[:, 5] = h**4 / 720.0 * b
    coeffs[:, 6] = h**4 / 14400.0 * b * (20.0 * c2 + e)
    coeffs[:, 7] = h**4 / 14400.0 * b * e * c2
    coeffs[:, 8] = -(h**5) / 14400.0 * bb
    coeffs[:, 9] = -(h**5) / 14400.0 * bb * c2
    coeffs.flags.writeable = False
    return coeffs


def _drive_generators(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The stack of step generators whose real coefficients in basis
    (_drive_basis) are the rows of coeffs (_step_coefficients)."""
    n = basis.shape[-1]
    flat = basis.reshape(len(basis), n * n).view(np.float64)
    # real coefficients times the basis's real and imaginary parts at once
    return (coeffs @ flat).view(complex).reshape(len(coeffs), n, n)


def _error_fall(factor: int) -> float:
    """How many times a level's error falls when its substeps grow factor
    times, once discretization dominates: factor^6 for the sixth-order
    Magnus step.  Healthy runs' successive doubling changes fall 47-105x."""
    return float(factor) ** 6


# A change that falls less than 1/16 of _error_fall(2) (4x) from the one
# before it comes from roundoff, which refining only adds to: a long window
# amplifies each half-period map's roundoff by its cell count.
_STALL_MARGIN = 16.0


def _unitarity_defect(blocks) -> float:
    """Largest max|U^dagger U - I| over the square blocks."""
    return max(float(np.abs(_add_to_diagonal(b.conj().T @ b, -1.0)).max()) for b in blocks)


def _change(cur, prev, where: str, nsub: int) -> float:
    """Largest column 2-norm change between two lists of blocks; a
    non-finite one raises at once."""
    # np.max, unlike max, keeps a NaN wherever it falls among the blocks
    delta = float(np.max([max_column_distance(a, b) for a, b in zip(cur, prev)]))
    if not math.isfinite(delta):
        raise RuntimeError(f"{where} gave a non-finite change ({delta}) at nsub={nsub}")
    return delta


def _map_change(cur, prev) -> float:
    """Largest Frobenius norm of the change in the first half-period map
    between two lists of sector maps; a NaN anywhere is kept."""
    return float(np.max([np.linalg.norm(a - b) for a, b in zip(cur, prev)]))


def _refine(step, compose, tol: float, levels, where: str, cells=None):
    """Step the levels nsub in levels, by increasing nsub, until one's
    estimated error is below tol.  Returns that level's blocks, the (nsub,
    delta) of every level stepped, delta being its estimated error (inf for
    the first, which is compared with none), and its blocks' unitarity
    defect d, which its delta includes.

    step(nsub) steps a level's maps and compose(nsub, maps) its blocks.
    Each level is compared with the one before, f = 8 or 2 times coarser,
    by the largest column 2-norm change over the blocks (_change).  Once
    discretization dominates, a level's error falls f^6 times
    (_error_fall), so the change over f^6 - 1 estimates the finer level's
    own error.  Every estimate adds the finer level's unitarity defect d,
    the roundoff floor under any change, so no level whose blocks' defect
    is tol or more is accepted.

    cells, when given, says every window is a product of cells maps, each
    a sector's first half-period map ua (_half_period_map), its transpose
    or the reversal of either, with diagonal pulses of modulus 1 between
    them that both levels share.  By the triangle inequality two levels' windows then differ in
    operator norm by at most B(1 + D), B being cells times the largest
    ||ua - ua'||_2 over the sectors (the Frobenius norm bounds it,
    _map_change, as the operator norm bounds each column's 2-norm) and D
    about the windows' defect.  Once B/(f^6 - 1) < 1 the scaled change is
    at most B/(f^6 - 1) + D, so B/(f^6 - 1) + d is tried first, and when
    it is below tol it is the level's delta; only otherwise are the windows
    compared, the level before's composed if they were not yet.

    A non-finite change raises at once, as does running out of levels, and
    a doubling change that fell less than _error_fall(2) / _STALL_MARGIN
    times from the doubling change before it."""
    first, *rest = levels
    history, prev, last = [(first, math.inf)], (first, step(first), None), math.inf
    for nsub in rest:
        maps = step(nsub)
        cur = compose(nsub, maps)
        prev_nsub, prev_maps, prev_blocks = prev
        factor = nsub // prev_nsub
        scale = 1.0 / (_error_fall(factor) - 1.0)
        d = _unitarity_defect(cur)
        delta = scale * cells * _map_change(maps, prev_maps) + d if cells is not None else math.inf
        if not delta < tol:
            if prev_blocks is None:
                prev_blocks = compose(prev_nsub, prev_maps)
            change = _change(cur, prev_blocks, where, nsub)
            delta = change * scale + d
        history.append((nsub, delta))
        if delta < tol:
            return cur, history, d
        # last is inf until a doubling change exists; the probe's is none
        if factor == 2:
            if last < change * _error_fall(2) / _STALL_MARGIN:
                raise RuntimeError(
                    f"{where} did not converge below {tol:g}: the change {change:.3e} at nsub={nsub} "
                    f"fell only {last / change:.2g}x from {last:.3e}, so roundoff "
                    f"dominates (the windows' unitarity defect is {d:.1e})"
                )
            last = change
        prev = (nsub, maps, cur)
    raise RuntimeError(f"{where} did not converge below {tol:g}; last estimated error {delta:.3e}")


# ------------------------------------------------------------- swap protocol

# The largest M a run or a gate-time count accepts: the integers float64
# holds exactly, so 2 pi M and 4 M stay finite.
_COUNT_MAX = 2**53


@dataclasses.dataclass(frozen=True)
class ProtocolParams:
    """Resonant-drive protocol configuration for the N-qubit swap gate."""

    N: int
    M: int = 1
    halfway_inversion: bool = True
    noise_eps: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        drive_layout(self.N)  # N is a chain with a drive layout, or it raises
        # as a numpy uint64, N would turn the sectors' bit shifts into floats
        object.__setattr__(self, "N", int(self.N))
        if not (_is_number(self.M, numbers.Integral) and 1 <= self.M <= _COUNT_MAX):
            raise ValueError(f"M must be a positive integer (at most 2^53), got {self.M!r}")
        if not isinstance(self.halfway_inversion, (bool, np.bool_)):
            raise ValueError(f"halfway_inversion must be a bool, got {self.halfway_inversion!r}")
        _check_noise_eps(self.noise_eps)
        _check_seed(self.seed, self.noise_eps)

    @property
    def tau_d(self) -> float:
        return 2.0 * math.pi * self.M


@dataclasses.dataclass(frozen=True, eq=False)
class ProtocolResult:
    # the gate's block on sector_indices(N, q), q = 0..N
    blocks: tuple
    error: float
    omega: float
    J_D: float
    drive_phase: float
    # (substeps_per_period, delta) of every refinement level stepped, by
    # increasing substeps; the last entry is the returned level.  delta is
    # the level's estimated error (_refine), inf for the first level and
    # never below the unitarity defect of the windows it was taken on.
    refinement: tuple
    # largest max|W^dagger W - I| over the drive windows W the returned level
    # was taken on (_refine): the roundoff floor its delta includes, which a
    # long window raises with its cell count
    unitarity_defect: float

    @property
    def converged_delta(self) -> float:
        return self.refinement[-1][1]

    @property
    def substeps_per_period(self) -> int:
        return self.refinement[-1][0]

    @property
    def unitary(self) -> np.ndarray:
        """The gate on the full 2^N space, built from the blocks."""
        return block_diagonal(self.blocks)


def resonance_frequency(N: int) -> float:
    """Energy difference between the two half-filled band states (= N^2/4)
    of the chain of N sites, N an even int >= 4: its _DrivePlan's omega."""
    return _layout_plan(ProtocolParams(N=N).N).omega


def _target_states(N: int) -> tuple:
    """Basis indices of |1..10..0> and |0..01..1>, the states the protocol swaps."""
    half = N // 2
    return basis_index([1] * half + [0] * half), basis_index([0] * half + [1] * half)


def iswap_target(N: int) -> np.ndarray:
    """Swap of |1..10..0> and |0..01..1> with phase i, identity elsewhere."""
    N = ProtocolParams(N=N).N
    a, b = _target_states(N)
    target = np.eye(2**N, dtype=complex)
    target[a, a] = target[b, b] = 0.0
    target[a, b] = target[b, a] = 1.0j
    return target


@dataclasses.dataclass(frozen=True, eq=False)
class _DrivePlan:
    """What every protocol run on the chain of N sites shares, noise aside: a
    sweep redraws only the couplings, and M and the inversion are applied
    per run.

    Built with the plan: the drive frequency, the two target states'
    positions in the half-filled sector, and the unit drive's transition
    element V_ab between them.
    Built on first use, per sector q = 0..N: the drive at J_D = 1, the
    inversion pulse's phases and the eigengate's block, so a calibration
    alone builds no other sector's blocks.  Every array is read only.  The
    sector indices and the chain's hop patterns are shared per (N, q) by
    sector_indices and sector_hops.
    """

    N: int
    targets: tuple
    omega: float
    v_ab: complex

    def _per_sector(self, build) -> tuple:
        """build(states) on each sector's basis indices states, q = 0..N, read only."""
        arrays = tuple(build(sector_indices(self.N, q)) for q in range(self.N + 1))
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    @functools.cached_property
    def unit_blocks(self) -> tuple:
        return self._per_sector(functools.partial(unit_drive, self.N))

    @functools.cached_property
    def inverts(self) -> tuple:
        p_diag = np.exp(-1.0j * math.pi * hz_diagonal(self.N))
        return self._per_sector(lambda states: p_diag[states])

    @functools.cached_property
    def eigengate_blocks(self) -> tuple:
        u_sp = eigengate_single_particle(self.N)
        return self._per_sector(functools.partial(free_fermion_block, u_sp))


@functools.lru_cache(maxsize=8)
def _layout_plan(N: int) -> _DrivePlan:
    """The _DrivePlan of the chain of N sites, built once per chain."""
    basis = build_basis(N - 1)
    half = sector_indices(N, N // 2)
    bra = eigenstate_vector(basis, range(N // 2, N))[half]
    ket = eigenstate_vector(basis, range(N // 2))[half]
    v_half = unit_drive(N, half)
    return _DrivePlan(
        N=N,
        targets=tuple(int(np.searchsorted(half, t)) for t in _target_states(N)),
        # the energy difference between the two half-filled band states
        omega=manybody_energy(basis, range(N // 2, N)) - manybody_energy(basis, range(N // 2)),
        v_ab=complex(bra.conj() @ (v_half @ ket)),
    )


def drive_calibration(params: ProtocolParams) -> tuple:
    """(omega, J_D, phase) for the protocol.

    The drive strength is set so the half Rabi coupling A equals 1/(4M),
    making the drive window an exact pi-pulse.  The drive phase is chosen
    from the argument of the transition matrix element so that both special
    states acquire the phase +i.  omega and the element come from the
    chain's cached _DrivePlan, whose layout couples the target states at
    every N a run takes.
    """
    M = params.M
    plan = _layout_plan(params.N)
    v_ab = plan.v_ab
    j_d = (1.0 / (4.0 * M)) / (abs(v_ab) / 2.0)
    return plan.omega, j_d, cmath.phase(v_ab) - math.pi


def _half_period_map(basis, omega, phase, nsub, folded=False):
    """Unitary ua over the first half-period of the drive whose commutator
    basis (_drive_basis) is basis, at the calibrated phase and an even
    nsub.  The second half-period's map is ua.T, exact because the drive is
    time symmetric about the half-period boundary
    (_check_sector_symmetries), so it is never stepped.

    folded steps only the first quarter period, X, in nsub/2 steps, and
    takes the first half-period as R X^T R X, R the reversal of the basis
    order: exact when moreover R h0 R = h0 and R vop R = -vop, as in the
    half-filled sector under a '-' pairing (_check_sector_symmetries).
    There h0 is real symmetric and vop^T = -vop, so R H(t)^T R = H(t), and
    the calibrated phase, an odd multiple of pi/2, makes the drive even
    about the cell's midpoint; hence U(pi/omega, pi/(2 omega)) = R X^T R.
    The Magnus step is time symmetric, so the folded map equals the stepped
    one to roundoff, and its steps are the unfolded map's.
    """
    if folded:
        x = _cell_map(basis, omega, phase, nsub, 0, 0.5)
        return x.T[::-1, ::-1] @ x
    return _cell_map(basis, omega, phase, nsub, 0, 1)


def _half_window_cells(M: int, omega: float):
    """Half-period cells in each half of the window tau_d = 2 pi M, M omega:
    the exact int at a whole omega (the resonance N^2/4, a difference of
    half-integer band energies), else the float product, an int if whole."""
    if omega.is_integer():
        return int(M) * int(omega)
    cells = M * omega
    return int(cells) if cells.is_integer() else cells


def _chunk_length(n: int) -> int:
    """Steps per chunk of an n x n sector: the largest power of two whose
    _CHUNK_ARRAYS complex stacks fit _STEP_BYTES, and at least one."""
    fit = _STEP_BYTES // (_CHUNK_ARRAYS * 16 * n * n)
    return 1 << max(fit.bit_length() - 1, 0)


def _cell_map(basis, omega, phase, nsub, a, b):
    """Unitary over [a, b] on the drive clock, in half-period cells, for a
    stretch of at most one cell; stepped at nsub substeps per cell on the
    drive's commutator basis (_drive_basis).

    The steps' coefficients are formed once; the steps themselves are
    exponentiated in chunks of _chunk_length(n), and each chunk's ordered
    product is multiplied into the running one from the left.  So the
    matrices held at once fit _STEP_BYTES whatever the step count, unless a
    single step's do not.
    """
    cell = math.pi / omega
    nsteps = max(1, math.ceil((b - a) * nsub))
    coeffs = _step_coefficients(omega, phase, a * cell, (b - a) * cell, nsteps)
    size = _chunk_length(basis.shape[-1])
    u = None
    for lo in range(0, nsteps, size):
        step = _ordered_product(_expm_stack(_drive_generators(basis, coeffs[lo : lo + size])))
        # a one-step chunk's product is a view of the kernel's stacks: copied
        # and dropped, so they are freed before the next chunk allocates its own
        u = step.copy() if u is None else step @ u
        del step
    return u


def _interval_map(ua, partial, s, e):
    """Unitary over the drive-clock interval [s, e], in half-period cells:
    the whole cells composed from the first half-period map ua and its
    transpose, the second, by parity, and partial(a, b) over a partial
    cell at either end."""
    k0, k1 = math.ceil(s), math.floor(e)
    if k0 > k1:
        return partial(s, e)
    first = ua.T if k0 % 2 else ua
    u = np.linalg.matrix_power(first.T @ first, (k1 - k0) // 2)
    if (k1 - k0) % 2:
        u = first @ u
    if s < k0:
        u = u @ partial(s, k0)
    if e > k1:
        u = partial(k1, e) @ u
    return u


def _window_map(ua, partial, halves, invert):
    """Drive-window propagator of one sector over [0, 2 halves] cells, or,
    with the inversion, over [0, halves] and [halves, 2 halves] with the
    diagonal pulse (invert; it reverses the chain's spectrum) and its
    inverse wrapped around the second, so every spectator phase cancels."""
    if invert is None:
        return _interval_map(ua, partial, 0, 2 * halves)
    first = _interval_map(ua, partial, 0, halves)
    # an even whole number of cells: the second window has the first's cell
    # count and start parity and no partial cells, so the same product
    second = first if halves % 2 == 0 else _interval_map(ua, partial, halves, 2 * halves)
    return np.conj(invert)[:, None] * (second @ (invert[:, None] * first))


def _drive_window_sector(basis, omega, phase, halves, inverts, nsub, sign: str, ua):
    """Drive-window propagators on a sector 0 < q <= N/2 and its partner N-q.

    basis is _drive_basis of sector q's chain and drive blocks, and halves
    is each window's span in half-period cells.  inverts holds the pulse
    phases (None without the inversion) of each sector to return: q, then
    N-q unless q = N/2.  ua is sector q's first half-period map at nsub
    (_half_period_map), stepped by the caller, which decides whether it
    folds.  Whole half-period cells come from it, and the partial cells at
    a window's ends are stepped; a resonant window has none.  The spin flip
    reverses the partner's basis order and, under a '-' pairing, shifts its
    drive by one cell, so the partner's first half-period map is q's
    second, ua.T, reversed.
    """
    partial = functools.cache(functools.partial(_cell_map, basis, omega, phase, nsub))
    shift = 0 if sign == "+" else 1

    def partner_partial(a, b):
        return partial(a + shift, b + shift)[::-1, ::-1]

    partner = (ua.T if shift else ua)[::-1, ::-1]
    sectors = ((ua, partial), (partner, partner_partial))
    return [_window_map(a, p, halves, inv) for (a, p), inv in zip(sectors, inverts)]


def _check_sector_symmetries(h_blocks, v_blocks, sign: str) -> None:
    """Raise ValueError unless each sector q <= N/2 of the chain blocks h
    and drive blocks v has, exactly, the two symmetries the protocol steps
    by, with s = +1 under a '+' pairing and -1 under '-'.

    Particle-hole pairing: sector N-q's blocks are q's in reverse basis
    order, the drive's times s, so only q <= N/2 is stepped.

    Time reversal: h is real symmetric and v^T = s v.  The calibrated phase
    arg(V_ab) - pi is then a multiple of pi (V real symmetric) or an odd
    multiple of pi/2 (V imaginary antisymmetric; the eigenstates are real),
    so H(pi/omega + u) = H(pi/omega - u)^T and U(2 pi/omega, pi/omega) =
    U(pi/omega, 0)^T; the sixth-order Magnus step is time symmetric, so the
    stepped maps keep this to roundoff (_half_period_map).
    """
    N = len(h_blocks) - 1
    s = 1.0 if sign == "+" else -1.0

    def equal(x, y):  # np.array_equal without its conversions
        return x.shape == y.shape and bool((x == y).all())

    for q in range(N // 2 + 1):
        h, v = h_blocks[q], v_blocks[q]
        if not (equal(h_blocks[N - q], h[::-1, ::-1]) and equal(v_blocks[N - q], s * v[::-1, ::-1])):
            raise ValueError(
                f"sectors {q} and {N - q} are not particle-hole partners under "
                f"the '{sign}' drive pairing"
            )
        if np.imag(h).any() or not (equal(h, h.T) and equal(v.T, s * v)):
            raise ValueError(
                f"sector {q} is not time-reversal symmetric under the '{sign}' drive pairing "
                f"(a real symmetric chain block, a drive block with V^T = {sign}V)"
            )


def _swap_trace_error(blocks, targets) -> float:
    """trace_error(iswap_target(N), U) from U's sector blocks q = 0..N.

    The target is the identity but on the two states at positions targets
    of the half-filled sector, which it swaps with phase i.  So Tr(T U^dagger)
    is the conjugate of the sum of the blocks' traces with, in that sector,
    the targets' diagonal entries U_aa, U_bb replaced by -i U_ab, -i U_ba.
    """
    N = len(blocks) - 1
    traces = [np.trace(blk) for blk in blocks]
    half, (a, b) = blocks[N // 2], targets
    diag = np.diagonal(half).copy()
    diag[[a, b]] = -1.0j * half[[a, b], [b, a]]
    traces[N // 2] = diag.sum()
    return 1.0 - abs(sum(traces)) / 2**N


# How far omega_override may stray from the calibrated drive frequency,
# either way.  A far smaller frequency makes the step coefficients' powers of
# the step length overflow (1e-300 did, in h**2), and a far larger one steps
# a window of countless half-periods; 16 leaves room for the probes down to
# 0.3 at N = 4, 13x below its resonance.
_OMEGA_OVERRIDE_RANGE = 16.0

# The refinement ladder of every run, read at call time: levels of _NSUB0,
# 2 _NSUB0, ..., _NSUB0 2^_MAX_REFINE substeps per half-period (32768 at the
# finest), led by a probe at _NSUB0/8 on whole-cell windows, until one's
# estimated error is below _TOL (_refine).  _NSUB0 is a multiple of 16, so
# the probe is an even eighth that a folded sector halves exactly.
_TOL = 1e-9
_NSUB0 = 32
_MAX_REFINE = 10


def run_iswap_protocol(params: ProtocolParams, omega_override: float | None = None) -> ProtocolResult:
    """Complete protocol: eigengate, resonant drive window, inverse eigengate.

    The drive evolves under the (possibly noisy) chain plus the oscillatory
    term; the eigengates and the inversion pulses are exact.  Every piece
    is built per excitation sector (the eigengate's blocks as minors), and
    each window is composed on the drive clock from half-period maps, so on
    resonance (a whole number of half-periods) the cost is independent of
    M up to a logarithm; an off-resonant omega_override, within a factor of
    _OMEGA_OVERRIDE_RANGE of the calibrated frequency, adds only the
    partial half-periods at the windows' ends.

    Only the sectors 0 < q <= N/2 are stepped: q = 0 and N are exactly
    zero, so their windows are the identity.  The chain has zero fields
    and the drive pairs sites (j, j+N/2) with one sign (drive_layout), so the
    global spin flip, which maps sector q onto sector N-q in reverse basis
    order, leaves the chain unchanged and the drive unchanged ('+') or
    negated ('-', the drive half a period later).  Each stepped sector steps only
    its first half-period, the second being its transpose at the calibrated
    phase; under a '-' pairing the half-filled sector, its own partner,
    steps only its first quarter period and folds it over the cell's
    midpoint (_half_period_map).  The pairing and the time reversal this
    rests on are checked exactly on every run's sector blocks, and a
    ValueError is raised if they fail (_check_sector_symmetries).

    The drive is refined on the fixed ladder (_NSUB0) until a level's
    estimated error, its scaled change plus its windows' unitarity defect,
    is below _TOL, or raises once its changes stall on roundoff (_refine).

    What does not depend on the noise, M or the inversion (the unit drive
    blocks, the inversion phases and the eigengate's blocks) comes from the
    chain's cached _DrivePlan; a sample builds its chain blocks by applying
    its couplings to the shared hop patterns (sector_hops).  The result
    holds the gate's sector blocks.
    """
    N, M = params.N, params.M
    omega, j_d, phase = drive_calibration(params)
    if omega_override is not None:
        lo, hi = omega / _OMEGA_OVERRIDE_RANGE, omega * _OMEGA_OVERRIDE_RANGE
        if not (_is_number(omega_override, numbers.Real) and lo <= omega_override <= hi):
            raise ValueError(
                f"omega_override must be a finite number > 0 (a numpy float only as float64) within a "
                f"factor of {_OMEGA_OVERRIDE_RANGE:g} of the calibrated drive frequency {omega!r}, "
                f"got {omega_override!r}"
            )
        omega = float(omega_override)
    plan, sign = _layout_plan(N), drive_layout(N)[0]

    spec = krawtchouk_chain(N, noise_eps=params.noise_eps, seed=params.seed)
    h_blocks = [chain_block(spec, sector_hops(N, q)) for q in range(N + 1)]
    v_blocks = [j_d * unit for unit in plan.unit_blocks]
    _check_sector_symmetries(h_blocks, v_blocks, sign)
    inverts = plan.inverts if params.halfway_inversion else [None] * (N + 1)
    # the sectors q = 0 and N are 1 x 1 and exactly zero (no hop, no drive,
    # and hz_diagonal is 0.0 there, so each pulse is 1): their windows are
    # the identity
    eye = np.eye(1, dtype=complex)
    bases = [_drive_basis(h_blocks[q], v_blocks[q]) for q in range(1, N // 2 + 1)]
    # each window's span in half-period cells; a whole number makes each
    # window 2 halves half-period maps, and only then is a probe stepped
    halves = _half_window_cells(M, omega)

    def sector_maps(nsub):
        # the half-filled sector, its own partner, folds under a '-' pairing
        return [
            _half_period_map(basis, omega, phase, nsub, sign == "-" and 2 * q == N)
            for q, basis in enumerate(bases, start=1)
        ]

    def drive_window(nsub, maps):
        windows = [eye, *[None] * (N - 1), eye]
        for q, (basis, ua) in enumerate(zip(bases, maps), start=1):
            partners = (q,) if 2 * q == N else (q, N - q)
            blocks = _drive_window_sector(
                basis, omega, phase, halves, [inverts[p] for p in partners], nsub=nsub, sign=sign, ua=ua
            )
            for p, blk in zip(partners, blocks):
                windows[p] = blk
        return windows

    where = (
        f"protocol integrator at N={N} M={M} eps={params.noise_eps} seed={params.seed} "
        f"over {2 * halves} half-period cells"
    )
    whole = isinstance(halves, int)
    levels = [_NSUB0 << k for k in range(_MAX_REFINE + 1)]
    if whole:
        levels.insert(0, _NSUB0 // 8)
    windows, history, defect = _refine(sector_maps, drive_window, _TOL, levels, where, 2 * halves if whole else None)
    refinement = tuple((2 * nsub, delta) for nsub, delta in history)

    blocks = tuple(u_k.conj().T @ window @ u_k for window, u_k in zip(windows, plan.eigengate_blocks))
    return ProtocolResult(
        blocks=blocks,
        error=_swap_trace_error(blocks, plan.targets),
        omega=omega,
        J_D=j_d,
        drive_phase=float(phase),
        refinement=refinement,
        unitarity_defect=defect,
    )


def gate_time_accounting(N: int, M: int):
    """(raw time, penalized time, two-qubit-gate equivalents), in 1/J.

    raw = two eigengate pulses plus the drive window; the penalty factor
    N/2 normalizes the largest chain coupling to J/2, and the reference
    two-qubit swap takes pi/J.  The equivalent count N*(M+1) is exact.  N
    is checked as ProtocolParams checks it, and M is an int in [0, 2^53].
    """
    N = ProtocolParams(N=N).N
    if not (_is_number(M, numbers.Integral) and 0 <= M <= _COUNT_MAX):
        raise ValueError(f"M must be an int >= 0 (at most 2^53), got {M!r}")
    raw = 2.0 * math.pi + 2.0 * math.pi * M
    penalized = raw * (N / 2.0)
    equivalents = N * (int(M) + 1)
    return raw, penalized, equivalents
