"""Block-derived ``SeedSequence`` states for per-item substreams.

The trace generator gives every session its own substream,
``default_rng(SeedSequence(seed, spawn_key=(domain, epoch, k)))``.
Building one ``SeedSequence`` per session costs ~14 µs, nearly all of it
numpy's entropy-pool hash run in Python-level loops.  That hash is a
fixed sequence of uint32 multiply/xor/shift steps (frozen by NEP 19's
stream-compatibility policy), so :func:`spawn_words` runs it once,
column-wise over uint32 arrays, for a whole block of consecutive ``k``.
:class:`~repro.workload.draws.StreamLanes` seeds one PCG64 stream per
row from them — the same streams, bit for bit, with no ``SeedSequence``
or ``Generator`` object per session.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash constants.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as little-endian 32-bit words (at least one)."""
    return [value >> s & _MASK32 for s in range(0, max(value.bit_length(), 1), 32)]


def spawn_words(
    seed: int, key_prefix: tuple[int, ...], first: int, count: int
) -> np.ndarray:
    """PCG64 seed words for spawn keys ``(*key_prefix, k)``, one row per k.

    Row ``i`` equals ``SeedSequence(seed, spawn_key=(*key_prefix, first
    + i)).generate_state(4, np.uint64)`` for ``k = first + i`` below
    2**32.  Every entropy word but the last is the same down the block,
    so the columns broadcast; wrapping uint32 arithmetic is the hash's.
    """
    run = _uint32_words(seed)
    prefix = [word for key in key_prefix for word in _uint32_words(key)]
    columns = [
        np.full(count, word, dtype=np.uint32)
        for word in run + [0] * (4 - len(run)) + prefix
    ]
    columns.append(np.arange(first, first + count, dtype=np.uint32))
    const = [_INIT_A]

    def hashmix(value: np.ndarray, mult: int = _MULT_A) -> np.ndarray:
        value = value ^ const[0]
        const[0] = const[0] * mult & _MASK32
        value = value * const[0]
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    # SeedSequence.mix_entropy: fill the 4-word pool, cross-mix it,
    # then fold in the remaining entropy words.
    pool = [hashmix(column) for column in columns[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for column in columns[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(column))
    # SeedSequence.generate_state(4, uint64): 8 words cycled off the pool.
    const[0] = _INIT_B
    state = np.stack([hashmix(pool[i % 4], _MULT_B) for i in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)

