"""NumPy's SeedSequence and PCG64 on stacks of seeds, bit for bit.

``np.random.SeedSequence`` and ``np.random.default_rng`` build one Python
object per seed, which costs more than the noisy eigengate a sample then
scores.  Both are fixed algorithms, so this module computes a whole stack
of them at once in integer arithmetic:

- SeedSequence (NumPy's ``bit_generator.pyx``): the entropy words are hashed
  into a pool of four 32-bit words (``mix_entropy``), from which
  ``generate_state`` hashes the output words.  The hash constants advance
  the same way whatever the data, so a word may be a Python int or a uint64
  array of 32-bit words, one per stacked seed, and entropy words shared by
  the whole stack are mixed once.
- PCG64 (O'Neill, HMC-CS-2014-0905, as NumPy seeds it from
  ``SeedSequence(seed).generate_state(4, np.uint64)``): a 128-bit LCG with
  the XSL-RR output, here on four 32-bit limbs held in uint64 arrays, least
  significant first.  ``Generator.uniform(low, high)`` is
  low + (high - low) * ((x >> 11) * 2^-53) for each output x.

Arrays, never NumPy scalars, carry the wrapping arithmetic: an overflowing
scalar warns.  tests/test_seeding.py gates every result here against NumPy.
"""

import numbers

import numpy as np

__all__ = ["uint_stack", "assembled_entropy", "mix_entropy", "generate_state", "uniform_stack"]

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's LCG multiplier as 32-bit limbs, least significant first
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG_MULT_LIMBS = tuple(_PCG_MULT >> (32 * k) & _MASK32 for k in range(4))


def uint_stack(values, bound: int, what: str) -> np.ndarray:
    """values, a 1-D sequence of ints each in [0, bound), as a uint64 array;
    a ValueError names the first value that is not such an int."""
    if np.ndim(values) != 1:
        raise ValueError(f"{what} must be a 1-D sequence of ints, got {values!r}")
    arr = np.asarray(values)
    if arr.dtype.kind in "iu" and (not arr.size or 0 <= int(arr.min()) <= int(arr.max()) < bound):
        return arr.astype(np.uint64)
    for value in values.tolist() if isinstance(values, np.ndarray) else values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not 0 <= int(value) < bound:
            raise ValueError(f"{what} must be an int in [0, {bound}), got {value!r}")
    return np.array([int(v) for v in values], dtype=np.uint64)


def _int_words(value) -> list:
    """SeedSequence's 32-bit words of an int >= 0, least significant first
    (one zero word for 0); a uint64 array of values below 2^32 stands for
    one word of each."""
    if isinstance(value, np.ndarray):
        return [value]
    value = int(value)
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def assembled_entropy(entropy, spawn_key: tuple) -> list:
    """SeedSequence's entropy words of an int entropy and spawn key, each
    key an int or a stack of them (_int_words): a run entropy shorter than
    the pool is zero-padded to it only when a spawn key follows."""
    words = _int_words(entropy)
    spawn = [word for key in spawn_key for word in _int_words(key)]
    if spawn and len(words) < _POOL_SIZE:
        words += [0] * (_POOL_SIZE - len(words))
    return words + spawn


def _hashmix(value, const) -> tuple:
    """(hashed value, next hash constant) of SeedSequence's hashmix."""
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    """SeedSequence's mix(x, y) = (L x - R y) mod 2^32, xor-shifted."""
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return value ^ (value >> _XSHIFT)


def mix_entropy(entropy: list) -> list:
    """The four pool words SeedSequence mixes from the entropy words."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, const = _hashmix(entropy[i] if i < len(entropy) else 0, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool


def generate_state(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words) of the pool, as 32-bit words;
    a uint64 output is words (2k, 2k + 1), little end first."""
    const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    return words


def _add128(a: list, b: list) -> list:
    """a + b mod 2^128 on 32-bit limbs."""
    out, carry = [], 0
    for x, y in zip(a, b):
        total = x + y + carry
        out.append(total & _MASK32)
        carry = total >> 32
    return out


def _lcg_step(state: list, inc: list) -> list:
    """PCG64's state * multiplier + inc mod 2^128 on 32-bit limbs: each
    column sums 32-bit halves of the limb products, so no sum wraps except
    the top one, which is taken mod 2^32 anyway."""
    a0, a1, a2, a3 = state
    m0, m1, m2, m3 = _PCG_MULT_LIMBS
    p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
    p02, p11, p20 = a0 * m2, a1 * m1, a2 * m0
    c0 = (p00 & _MASK32) + inc[0]
    c1 = (p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32) + inc[1] + (c0 >> 32)
    c2 = (p01 >> 32) + (p10 >> 32) + (p02 & _MASK32) + (p11 & _MASK32) + (p20 & _MASK32)
    c2 += inc[2] + (c1 >> 32)
    c3 = (p02 >> 32) + (p11 >> 32) + (p20 >> 32) + a0 * m3 + a1 * m2 + a2 * m1 + a3 * m0
    c3 += inc[3] + (c2 >> 32)
    return [c0 & _MASK32, c1 & _MASK32, c2 & _MASK32, c3 & _MASK32]


def _xsl_rr(state: list) -> np.ndarray:
    """PCG64's output of a state: (high ^ low) rotated right by high >> 58."""
    high = state[3] << 32 | state[2]
    value = high ^ (state[1] << 32 | state[0])
    rot = high >> 58
    # (64 - rot) & 63, not 64 - rot: a rotation by 0 must not shift by 64
    return value >> rot | value << ((64 - rot) & 63)


def uniform_stack(seeds: np.ndarray, low, high, size: int) -> np.ndarray:
    """Row k is np.random.default_rng(seeds[k]).uniform(low[k], high[k], size),
    for a uint64 array of seeds; low and high are floats (the same bounds
    for every row) or float arrays of one bound per seed."""
    # SeedSequence(seed): the seed's two words, no spawn key, so no padding;
    # a seed below 2^32 hashes the same with a zero high word
    words = generate_state(mix_entropy([seeds & _MASK32, seeds >> 32]), 8)
    # PCG64 seeds from the uint64 words (u0, u1, u2, u3) the initial state
    # u0 2^64 + u1 and the stream u2 2^64 + u3; its increment is 2 stream + 1
    initstate = [words[2], words[3], words[0], words[1]]
    stream = [words[6], words[7], words[4], words[5]]
    inc = [(stream[0] << 1 | 1) & _MASK32]
    inc += [(stream[k] << 1 | stream[k - 1] >> 31) & _MASK32 for k in range(1, 4)]
    # srandom: from state 0 a step gives inc; add the initial state, step
    state = _lcg_step(_add128(inc, initstate), inc)
    out = np.empty((len(seeds), size))
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    span = high - low
    for k in range(size):
        # the output is that of the state after the step
        state = _lcg_step(state, inc)
        out[:, k] = low + span * ((_xsl_rr(state) >> 11) * 2.0**-53)
    return out
