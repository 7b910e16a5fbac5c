"""Lockstep PCG64 draws equal numpy's ``Generator`` draws, bit for bit.

:class:`repro.workload.draws.StreamLanes` restates numpy's PCG64 and
three of ``Generator``'s draws over arrays of streams.  Every check here
compares against numpy itself: per-stream ``Generator`` objects seeded
from the same words, and the ziggurat tables recovered from the
installed numpy by forcing raw words, so a numpy release that changed
any of it fails here, not as a drifted trace.
"""

import numpy as np
import pytest

from repro.workload import draws
from repro.workload.draws import StreamLanes
from repro.workload.seeds import spawn_words

from .oracles.session_walk import SeedWords

MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
MULT_INV = pow(MULT, -1, 1 << 128)
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

#: Bounds for ``integers``: the no-draw case, small bounds with and
#: without Lemire rejection, and one whose rejection zone is ~half of
#: all words.
BOUNDS = [1, 2, 3, 7, 2**31 + 1]


def generators(rows):
    """numpy's own generator per seed row."""
    return [np.random.Generator(np.random.PCG64(SeedWords(row))) for row in rows]


def forced_row(word, inc_words=(0x1234_5678_9ABC_DEF0, 0x0FED_CBA9_8765_4321)):
    """Seed words whose stream's first raw word is ``word``.

    A stepped state ``(0:word)`` outputs ``word`` (``hi = 0``: no
    rotation).  Seeding is ``step(inc + initstate)``, so invert the step
    twice and solve for ``initstate``.
    """
    inc = ((inc_words[0] << 64 | inc_words[1]) << 1 | 1) & MASK128
    seeded = ((word - inc) * MULT_INV) & MASK128
    initstate = (((seeded - inc) * MULT_INV) - inc) & MASK128
    return np.array(
        [initstate >> 64, initstate & MASK64, *inc_words], dtype=np.uint64
    )


def force_next_word(bits, word, inc=1):
    """Set a scalar ``PCG64`` so that its next raw word is ``word``."""
    bits.state = {
        "bit_generator": "PCG64",
        "state": {"state": ((word - inc) * MULT_INV) & MASK128, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


@pytest.fixture(scope="module")
def rows():
    return spawn_words(2024, (4, 0), 0, 500)


class TestPCG64:
    def test_words_equal_random_raw(self, rows):
        lanes = StreamLanes(rows)
        every = np.arange(len(rows))
        got = np.stack([lanes.words(every) for __ in range(40)], axis=1)
        want = np.stack([g.bit_generator.random_raw(40) for g in generators(rows)])
        assert np.array_equal(got, want)

    def test_lanes_advance_only_when_drawn(self, rows):
        lanes = StreamLanes(rows)
        odd = np.arange(1, len(rows), 2)
        lanes.words(odd)
        got = lanes.words(np.arange(len(rows)))
        want = [
            g.bit_generator.random_raw(2)[-1] if k % 2 else g.bit_generator.random_raw()
            for k, g in enumerate(generators(rows))
        ]
        assert np.array_equal(got, np.array(want, dtype=np.uint64))


class TestDraws:
    def test_a_million_interleaved_draws_equal_numpy(self, rows):
        """Rounds of one draw kind over a random subset of lanes; numpy
        makes the same draws with its array calls, which numpy fills
        with the same per-element routine as its scalar calls."""
        lanes, gens = StreamLanes(rows), generators(rows)
        plan = np.random.default_rng(11)
        drawn = {"random": 0, "integers": 0, "exponential": 0}
        while sum(drawn.values()) < 1_000_000:
            subset = np.flatnonzero(plan.random(len(rows)) < 0.6)
            run = int(plan.integers(1, 9))
            kind = ("random", "integers", "exponential")[int(plan.integers(3))]
            if kind == "random":
                got = [lanes.random(subset) for __ in range(run)]
                want = [gens[k].random(run) for k in subset]
            elif kind == "exponential":
                got = [lanes.exponential(subset, 4.0) for __ in range(run)]
                want = [gens[k].exponential(4.0, run) for k in subset]
            else:
                if plan.random() < 0.5:
                    bound = np.full(len(subset), int(plan.choice(BOUNDS)))
                else:  # one bound per lane
                    bound = plan.choice(BOUNDS, size=len(subset))
                got = [lanes.integers(subset, bound) for __ in range(run)]
                want = [gens[k].integers(n, size=run) for k, n in zip(subset, bound)]
            assert np.array_equal(np.stack(got, axis=1), np.stack(want)), kind
            drawn[kind] += len(subset) * run
        assert min(drawn.values()) > 200_000

    def test_uint32_buffer_survives_other_draws(self, rows):
        # integers(3) takes the low half of a word and keeps the high
        # half; random() and exponential() in between must not drop it.
        lanes, gens = StreamLanes(rows), generators(rows)
        every = np.arange(len(rows))
        got = [
            lanes.integers(every, 3),
            lanes.random(every),
            lanes.exponential(every, 2.0),
            lanes.integers(every, 3),
            lanes.integers(every, 3),
        ]
        for k, g in enumerate(gens):
            want = [g.integers(3), g.random(), g.exponential(2.0)]
            want += [g.integers(3), g.integers(3)]
            assert [column[k] for column in got] == want

    def test_bound_one_draws_nothing(self, rows):
        lanes = StreamLanes(rows)
        every = np.arange(len(rows))
        assert not lanes.integers(every, 1).any()
        want = [g.bit_generator.random_raw() for g in generators(rows)]
        assert np.array_equal(lanes.words(every), np.array(want, dtype=np.uint64))


class TestZigguratSlowPath:
    @pytest.mark.parametrize(
        "level, ri",
        [
            (0, int(draws._KE[0])),  # the tail: idx 0
            (0, (1 << 53) - 1),
            (1, 0),  # ke[1] == 0: idx 1 always misses the fast path
            (1, 12345),
            (7, int(draws._KE[7])),  # the first ri past the fast path
            (200, (1 << 53) - 1),
        ],
    )
    def test_forced_slow_words_equal_numpy(self, level, ri):
        row = forced_row(ri << 11 | level << 3 | 0b101)
        lanes = StreamLanes(row[None, :])
        (numpy_gen,) = generators([row])
        assert lanes.exponential(np.array([0]), 3.0)[0] == numpy_gen.exponential(3.0)
        # The slow path consumed what numpy consumed.
        assert lanes.words(np.array([0]))[0] == numpy_gen.bit_generator.random_raw()

    def test_last_fast_word_takes_the_fast_path(self):
        level = 7
        ri = int(draws._KE[level]) - 1
        row = forced_row(ri << 11 | level << 3)
        lanes = StreamLanes(row[None, :])
        (numpy_gen,) = generators([row])
        assert lanes.exponential(np.array([0]), 1.0)[0] == ri * draws._WE[level]
        assert lanes.exponential(np.array([0]), 1.0)[0] == numpy_gen.exponential(
            1.0, 2
        )[1]

    def test_tables_equal_the_installed_numpy(self):
        """Recover ``we``/``ke`` from numpy by forcing raw words.

        ``standard_exponential`` at a word with ``ri = 1`` returns
        ``we[idx]``; ``ke[idx]`` is the first ``ri`` whose draw consumes
        more than one word (bisection on ``ri``).
        """
        bits = np.random.PCG64(0)
        gen = np.random.Generator(bits)

        def one_word(level, ri):
            word = ri << 11 | level << 3
            force_next_word(bits, word)
            value = gen.standard_exponential()
            return value, bits.state["state"]["state"] == word

        for level in range(256):
            value, __ = one_word(level, 1)
            assert value == draws._WE[level], level
            low, high = 0, 1 << 53
            while low < high:
                middle = (low + high) // 2
                if one_word(level, middle)[1]:
                    low = middle + 1
                else:
                    high = middle
            assert low == draws._KE[level], level
        assert draws._KE[1] == 0
