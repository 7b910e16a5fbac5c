"""Block-derived session seeds equal numpy's per-session SeedSequence.

The trace generator derives every session's PCG64 seed words for a
whole block of sessions in one vectorised pass of numpy's SeedSequence
hash.  These checks pin that pass to ``SeedSequence`` itself, so they
also catch a numpy release that changed the hash (NEP 19 forbids it).
"""

import numpy as np
import pytest

from repro.workload.generator import _DOMAIN_SESSION, _SESSION_BLOCK
from repro.workload.seeds import spawn_words

from .oracles.session_walk import SeedWords

SEEDS = [0, 1, 2**40 + 3]
EPOCHS = [0, 5]
FAR_SESSIONS = [65535, 65536, 2**20]


def session_seed_words(seed, epoch, first, count):
    return spawn_words(seed, (_DOMAIN_SESSION, epoch), first, count)


def reference_words(seed, epoch, session):
    return np.random.SeedSequence(
        seed, spawn_key=(4, epoch, session)
    ).generate_state(4, np.uint64)


@pytest.mark.parametrize("epoch", EPOCHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_block_words_match_seed_sequence(seed, epoch):
    block = session_seed_words(seed, epoch, 0, 200)
    assert block.shape == (200, 4) and block.dtype == np.uint64
    for session in range(200):
        assert np.array_equal(block[session], reference_words(seed, epoch, session))
    for session in FAR_SESSIONS:
        (row,) = session_seed_words(seed, epoch, session, 1)
        assert np.array_equal(row, reference_words(seed, epoch, session))


@pytest.mark.parametrize("seed", SEEDS)
def test_words_do_not_depend_on_block_boundaries(seed):
    first = _SESSION_BLOCK - 3
    straddling = session_seed_words(seed, 2, first, 6)
    for offset, row in enumerate(straddling):
        assert np.array_equal(row, reference_words(seed, 2, first + offset))
    whole = session_seed_words(seed, 2, 0, 2 * _SESSION_BLOCK)
    halves = np.concatenate(
        [
            session_seed_words(seed, 2, 0, _SESSION_BLOCK),
            session_seed_words(seed, 2, _SESSION_BLOCK, _SESSION_BLOCK),
        ]
    )
    assert np.array_equal(whole, halves)


@pytest.mark.parametrize("session", [0, 1, 199, 4096, _SESSION_BLOCK, 2**20])
@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_generator_draws_match_default_rng(seed, session):
    (row,) = session_seed_words(seed, 5, session, 1)
    fast = np.random.Generator(np.random.PCG64(SeedWords(row)))
    reference = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(4, 5, session))
    )
    assert fast.random() == reference.random()
    assert fast.integers(7) == reference.integers(7)
    assert fast.exponential(4.0) == reference.exponential(4.0)
    assert fast.integers(1000) == reference.integers(1000)
    assert fast.random() == reference.random()
