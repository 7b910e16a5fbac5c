"""Scalar reference for the trace generator's session walk.

The generator walks a block of sessions in lockstep, stepping every
session's PCG64 stream in numpy (:mod:`repro.workload.draws`).  This
module is the walk as it was written before that: one session at a
time, each on its own ``numpy.random.Generator``, a ``set`` as the
in-session browser cache and numpy's own draws.  The property tests in
``tests/test_workload_stream.py`` compare the two request for request.

It shares the generator's schedule, churn replay and site tables (those
are not what the lockstep walk changed), and nothing of the walk.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections.abc import Iterable, Iterator

import numpy as np

from repro.trace.records import Request
from repro.trace.sampling import client_hash
from repro.workload.generator import (
    _DOMAIN_SCHEDULE,
    _DOMAIN_SESSION,
    _DOMAIN_CHURN,
    SyntheticTraceGenerator,
)
from repro.workload.seeds import spawn_words


class SeedWords(np.random.bit_generator.ISeedSequence):
    """One precomputed :func:`spawn_words` row, as a ``PCG64`` seed.

    ``np.random.Generator(np.random.PCG64(SeedWords(row)))`` is the
    generator ``default_rng`` builds from the matching ``SeedSequence``.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The row itself (``PCG64`` asks for exactly 4 uint64 words)."""
        return self.words


def session_rng(seed: int, epoch: int, k: int) -> np.random.Generator:
    """Session ``k``'s own generator: ``default_rng`` of its spawn key."""
    row = spawn_words(seed, (_DOMAIN_SESSION, epoch), k, 1)[0]
    return np.random.Generator(np.random.PCG64(SeedWords(row)))


class ScalarWalk:
    """The per-session walk over one generator's site and population."""

    def __init__(self, generator: SyntheticTraceGenerator):
        self.generator = generator
        site = generator.site
        documents = site.documents()
        code = {d.doc_id: index for index, d in enumerate(documents)}
        self.pages = [
            (code[p.doc_id], tuple(code[e] for e in p.embedded)) for p in site.pages
        ]
        self.cdf = site.popularity.cdf.tolist()
        self.refresh()

    def refresh(self) -> None:
        """Re-read born pages and live links from the generator."""
        born = self.born = self.generator._born.tolist()
        self.live_links = [
            tuple(t for t in links if born[t]) for links in self.generator._links
        ]

    def entry_page(self, client, rng: np.random.Generator) -> int:
        """An entry page that already exists (born)."""
        generator = self.generator
        affinity = generator.config.region_affinity
        for __ in range(64):
            page_index = bisect_left(self.cdf, rng.random())
            if client.local:
                page_index = int(generator._local_page_order[page_index])
            elif affinity > 0 and rng.random() < affinity:
                page_index = int(generator._region_order(client.region)[page_index])
            if self.born[page_index]:
                return page_index
        born_indices = np.nonzero(self.born)[0]
        return int(born_indices[int(rng.integers(len(born_indices)))])

    def walk(
        self, client, start_time: float, rng: np.random.Generator
    ) -> tuple[list[float], list[int]]:
        """One browsing session's ``(timestamps, document codes)``."""
        config = self.generator.config
        times: list[float] = []
        codes: list[int] = []
        fetched: set[int] = set()
        now = start_time
        page_index = self.entry_page(client, rng)
        while True:
            code, embedded = self.pages[page_index]
            if code not in fetched:
                fetched.add(code)
                times.append(now)
                codes.append(code)
            inline_time = now
            for code in embedded:
                if code in fetched:
                    continue
                fetched.add(code)
                inline_time += config.embedded_gap
                times.append(inline_time)
                codes.append(code)
            links = self.live_links[page_index]
            if not links or rng.random() >= config.continue_probability:
                break
            if rng.random() < config.jump_probability:
                page_index = self.entry_page(client, rng)
            else:
                page_index = links[int(rng.integers(len(links)))]
            now = inline_time + rng.exponential(config.think_time_mean)
        return times, codes


def sessions(
    generator: SyntheticTraceGenerator,
    epoch: int = 0,
    shard_index: int = 0,
    shard_count: int = 1,
) -> Iterator[tuple[float, int, list[float], list[int]]]:
    """``(start, client code, timestamps, document codes)`` per walked
    session, in start order — the generator's session loop, scalar."""
    config = generator.config
    schedule_rng = generator._substream(_DOMAIN_SCHEDULE, epoch)
    churn_rng = generator._substream(_DOMAIN_CHURN, epoch)
    starts = generator._session_schedule(schedule_rng)
    uniforms = schedule_rng.random(len(starts))
    population = generator.population
    client_cdf = population._cdf.tolist()
    generator._links = [p.links for p in generator.site.pages]
    generator._born = generator._birth_day == 0
    walker = ScalarWalk(generator)
    current_day = 0
    for k, start in enumerate(starts.tolist()):
        day = int(start // 86_400.0)
        if current_day < day:
            days = range(current_day + 1, day + 1)
            if any([generator._advance_day(d, churn_rng) for d in days]):
                walker.refresh()
            current_day = day
        client = bisect_left(client_cdf, uniforms[k])
        client_id = population.clients[client].client_id
        if shard_count > 1 and client_hash(client_id) % shard_count != shard_index:
            continue
        rng = session_rng(config.seed, epoch, k)
        times, codes = walker.walk(population.clients[client], start, rng)
        yield start, client, times, codes


def requests(
    generator: SyntheticTraceGenerator,
    epoch: int = 0,
    shard_index: int = 0,
    shard_count: int = 1,
) -> list[Request]:
    """The reference trace: session-major requests, stable-sorted by time."""
    documents = generator.site.documents()
    clients = generator.population.clients
    return sorted(
        (
            Request(
                timestamp,
                clients[client].client_id,
                documents[code].doc_id,
                documents[code].size,
                remote=not clients[client].local,
            )
            for __, client, times, codes in sessions(
                generator, epoch, shard_index, shard_count
            )
            for timestamp, code in zip(times, codes)
        ),
        key=lambda request: request.timestamp,
    )


def merge_streams(*streams: Iterable[Request]) -> Iterator[Request]:
    """Merge time-ordered request streams into one time-ordered stream.

    The inverse of sharded generation: merging the ``shard_count``
    shard streams of one epoch yields the exact unsharded trace.  Each
    input must already be sorted by timestamp (what
    :meth:`SyntheticTraceGenerator.stream` produces).
    """
    return heapq.merge(*streams, key=lambda request: request.timestamp)
