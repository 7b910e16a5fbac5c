"""The synthetic trace generator.

This is the repository's substitute for the paper's ``cs-www.bu.edu``
HTTP logs.  It generates a server-side access trace by simulating
browsing sessions over a :class:`~repro.workload.sitegraph.SiteGraph`:

1. Sessions arrive as a Poisson process over the trace duration; each
   session belongs to a client drawn by activity weight.
2. A session enters at a page drawn from the site's Zipf popularity,
   requests the page and its embedded objects (embedding dependencies),
   then repeatedly follows a uniformly chosen hyperlink of the current
   page with probability ``continue_probability`` (traversal
   dependencies with the 1/k anchor-choice structure of Figure 4).
3. Within a session the client never re-fetches an object it already
   fetched (a browser cache), so shared inline images are requested once
   per session — exactly the effect that makes some dependencies
   "sometimes" rather than "always".
4. Local clients (inside the server's organisation) enter the site
   through a *permuted* popularity ranking: the pages the local audience
   favours differ from the remote audience's favourites.  This produces
   the paper's three-way split into remotely, globally and locally
   popular documents.

Think times are exponential; inline objects follow their page within
fractions of a second, so the paper's ``StrideTimeout = 5 s`` cleanly
separates embedding from cross-page gaps.

**Randomness discipline.**  Construction (site, population, local page
ranking, page birth days) consumes the one classic stream
``default_rng(seed)``.  Everything drawn *during* generation comes from
domain-separated substreams derived with
``np.random.SeedSequence(seed, spawn_key=...)``:

* region page rankings — one substream per region, fixed at
  construction (so the site a region sees never depends on which
  client happens to arrive first);
* the session schedule (arrival times, diurnal thinning, client
  assignment) — one substream per generation epoch;
* daily link churn — one substream per epoch, consumed day by day;
* each session's browsing walk — one substream per ``(epoch, session)``.

Because session *k*'s randomness is a pure function of
``(seed, epoch, k)``, the stream can be **sharded by client hash**:
every shard replays the shared schedule and churn and generates only
its member sessions, and the N shard streams merge back to the exact
unsharded trace (:func:`merge_streams`).

Session seeds skip the per-session ``SeedSequence``: one vectorised
pass of its hash (:mod:`repro.workload.seeds`) yields a block's PCG64
seed words, bit for bit.  One session loop feeds both outputs.  A
session is a client code plus ``(timestamp, document code)`` columns;
:meth:`~SyntheticTraceGenerator.generate` appends them to the trace's
columns and stable-sorts once, building no :class:`Request`, while
:meth:`SyntheticTraceGenerator.stream` turns them into requests in a
bounded heap of in-flight sessions (peak memory: the site, the
schedule, the overlapping sessions).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from ..trace.records import Request, Trace, TraceColumns
from ..trace.sampling import client_hash
from .clients import Client, ClientPopulation
from .seeds import SeedWords, spawn_words
from .sitegraph import SiteGraph

#: ``SeedSequence`` spawn-key domains for the generator's substreams.
#: Kept distinct so no two kinds of draw can ever alias.
_DOMAIN_REGION = 1
_DOMAIN_SCHEDULE = 2
_DOMAIN_CHURN = 3
_DOMAIN_SESSION = 4

#: Sessions whose seed words and client draws are derived together; a
#: fixed block keeps the per-stream buffers flat in ``n_sessions``.
_SESSION_BLOCK = 4_096


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of the synthetic workload.

    The defaults produce a small-but-faithful trace (useful in tests);
    :meth:`paper_scale` returns the configuration calibrated to the
    statistics the paper reports for its Jan-Mar 1995 trace.
    """

    seed: int = 0
    #: Number of HTML pages on the site (documents ≈ 3-4× this).
    n_pages: int = 300
    #: Number of distinct clients.
    n_clients: int = 200
    #: Number of browsing sessions over the trace.
    n_sessions: int = 2_000
    #: Trace duration in days.
    duration_days: float = 30.0
    #: Probability of following another link after each page visit.
    continue_probability: float = 0.72
    #: Given the session continues, probability the next page is a fresh
    #: jump (bookmark, search, typed URL) instead of a followed link —
    #: jumps are what the dependency model cannot predict.
    jump_probability: float = 0.15
    #: Mean inline objects per page (embedding dependencies).
    mean_embedded: float = 1.7
    #: Probability an inline slot reuses a site-wide shared object.
    shared_embed_probability: float = 0.35
    #: Mean hyperlink out-degree of a page (traversal dependencies).
    mean_links: float = 6.0
    #: Per-day probability that a page's links are rewritten (site
    #: evolution).  0 keeps the dependency structure stationary; the
    #: paper's update-cycle experiments need slow drift (~0.02-0.05).
    link_churn_per_day: float = 0.0
    #: Fraction of pages that do not exist at trace start and appear at
    #: uniform-random days during the trace (new content — the other
    #: drift mechanism behind the paper's update-cycle findings).
    new_page_fraction: float = 0.0
    #: Geographic locality of reference: probability that a remote
    #: client enters/jumps through its *region's own* page ranking
    #: instead of the global one.  0 disables the property; positive
    #: values make nearby clients share interests, which is what the
    #: footnote-5 per-proxy dissemination exploits.
    region_affinity: float = 0.0
    #: Strength of the day/night cycle in session arrivals: 0 is a
    #: homogeneous Poisson process; 1 silences the quietest hour
    #: completely.  Real server logs show strong diurnal cycles.
    diurnal_amplitude: float = 0.0
    #: Mean think time between page visits (seconds, exponential).
    think_time_mean: float = 4.0
    #: Gap between a page and each of its inline objects (seconds).
    embedded_gap: float = 0.15
    #: Fraction of clients inside the server's organisation.
    local_fraction: float = 0.15
    #: Zipf exponent of page popularity.
    popularity_alpha: float = 1.05
    #: Probability a hyperlink targets a popularity-ranked page.
    popular_link_bias: float = 0.55
    #: Zipf exponent of per-client activity weights.
    activity_alpha: float = 0.9
    #: Geographic regions for the client population.
    n_regions: int = 16

    def __post_init__(self) -> None:
        if self.n_sessions <= 0:
            raise CalibrationError("n_sessions must be positive")
        if self.duration_days <= 0:
            raise CalibrationError("duration_days must be positive")
        if not 0.0 <= self.continue_probability < 1.0:
            raise CalibrationError("continue_probability must be in [0, 1)")
        if not 0.0 <= self.jump_probability <= 1.0:
            raise CalibrationError("jump_probability must be in [0, 1]")
        if not 0.0 <= self.link_churn_per_day <= 1.0:
            raise CalibrationError("link_churn_per_day must be in [0, 1]")
        if not 0.0 <= self.new_page_fraction < 1.0:
            raise CalibrationError("new_page_fraction must be in [0, 1)")
        if not 0.0 <= self.region_affinity <= 1.0:
            raise CalibrationError("region_affinity must be in [0, 1]")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise CalibrationError("diurnal_amplitude must be in [0, 1]")
        if self.think_time_mean <= 0 or self.embedded_gap < 0:
            raise CalibrationError("timing parameters out of range")

    @classmethod
    def paper_scale(cls, seed: int = 0) -> "GeneratorConfig":
        """Configuration calibrated to the paper's trace statistics.

        Targets: ~2,000+ documents, thousands of active clients,
        >20,000 sessions, roughly the paper's 205,925 accesses over
        three months (90 days), the top 10% of documents carrying ~91%
        of requests, all three popularity classes populated, and the
        speculative-service knee near the paper's "+5% traffic buys a
        ~30% load reduction".  Calibrated empirically:

        * alpha = 1.8 with a 0.7 popular-link bias lands the top-10%
          share at ~0.93;
        * a 0.5 local client fraction with the permuted local page
          ranking yields the remote/global/local class split;
        * a text-heavy page mix (0.2 inline objects/page), out-degree 3
          links and a 0.3 jump probability land the speculation
          trade-off curve near the paper's (ours: +4.6% traffic →
          −25% server load, −25% service time, −24% miss rate).
        """
        return cls(
            seed=seed,
            n_pages=950,
            n_clients=8_474,
            n_sessions=28_000,
            duration_days=90.0,
            continue_probability=0.84,
            jump_probability=0.3,
            mean_embedded=0.2,
            shared_embed_probability=0.3,
            mean_links=3.0,
            popularity_alpha=1.8,
            popular_link_bias=0.7,
            activity_alpha=0.6,
            local_fraction=0.5,
        )


class SyntheticTraceGenerator:
    """Generates server traces from a site graph and client population.

    Args:
        config: Workload parameters.
        site: Site structure; built from ``config`` when omitted.
        population: Client population; built from ``config`` when
            omitted.  Passing these explicitly lets cluster experiments
            share one population across several servers.
    """

    def __init__(
        self,
        config: GeneratorConfig = GeneratorConfig(),
        *,
        site: SiteGraph | None = None,
        population: ClientPopulation | None = None,
    ):
        self.config = config
        self._rng = np.random.default_rng(config.seed)
        self.site = site or SiteGraph(
            config.n_pages,
            self._rng,
            popularity_alpha=config.popularity_alpha,
            popular_link_bias=config.popular_link_bias,
            mean_embedded=config.mean_embedded,
            shared_embed_probability=config.shared_embed_probability,
            mean_links=config.mean_links,
        )
        self.population = population or ClientPopulation(
            config.n_clients,
            self._rng,
            n_regions=config.n_regions,
            local_fraction=config.local_fraction,
            activity_alpha=config.activity_alpha,
        )
        # Local clients rank pages differently from remote clients: a
        # fixed permutation maps the shared Zipf ranks onto the local
        # audience's own favourites.
        self._local_page_order: list[int] = self._rng.permutation(
            self.site.n_pages
        ).tolist()
        # Live link table (mutated by churn); starts as the site's links.
        self._links: list[tuple[int, ...]] = [p.links for p in self.site.pages]
        # Birth day per page (0 = exists from the start).
        self._birth_day = np.zeros(self.site.n_pages, dtype=np.int64)
        if config.new_page_fraction > 0:
            n_new = min(
                self.site.n_pages - 1,
                int(round(self.site.n_pages * config.new_page_fraction)),
            )
            newborn = self._rng.choice(self.site.n_pages, size=n_new, replace=False)
            self._birth_day[newborn] = self._rng.integers(
                1, max(2, int(config.duration_days)), size=n_new
            )
        self._born = self._birth_day == 0
        # Per-region page rankings (geographic locality).  Each region's
        # permutation comes from its own SeedSequence substream, fixed
        # at construction: the ranking a region sees is a pure function
        # of (seed, region), never of which client arrives first — the
        # property client-sampled and sharded generation depend on.
        self._region_page_order: dict[int, np.ndarray] = {
            region: self._substream(_DOMAIN_REGION, region).permutation(
                self.site.n_pages
            )
            for region in range(self.population.n_regions)
        }
        # Generation epoch: repeated stream()/generate() calls on one
        # instance produce fresh (but reproducible) traffic.
        self._epoch = 0
        # Interned id tables: documents in catalog order, clients in
        # population order.  The walk emits document codes; the page
        # table holds (page code, embedded codes) per page.
        documents = self.site.documents()
        self._doc_ids = tuple(d.doc_id for d in documents)
        self._doc_sizes = np.array([d.size for d in documents], dtype=np.int64)
        code = {doc_id: index for index, doc_id in enumerate(self._doc_ids)}
        self._page_table = [
            (code[p.doc_id], tuple(code[e] for e in p.embedded))
            for p in self.site.pages
        ]
        clients = self.population.clients
        self._client_ids = tuple(c.client_id for c in clients)
        self._client_remote = np.array([not c.local for c in clients], dtype=bool)
        self._refresh_live_links()

    def _substream(self, *key: int) -> np.random.Generator:
        """A domain-separated RNG substream of the generator's seed."""
        return np.random.default_rng(
            np.random.SeedSequence(self.config.seed, spawn_key=tuple(key))
        )

    def _region_order(self, region: int) -> np.ndarray:
        order = self._region_page_order.get(region)
        if order is None:
            # Foreign region index (only possible with an explicitly
            # passed population): derive it the same seeded way.
            order = self._substream(_DOMAIN_REGION, region).permutation(
                self.site.n_pages
            )
            self._region_page_order[region] = order
        return order

    def _refresh_live_links(self) -> None:
        """Rebuild the walk's view of the site: born flags and, per
        page, the born targets of its live links as plain ints."""
        born = self._born_pages = self._born.tolist()
        self._live_links = [
            tuple(t for t in links if born[t]) for links in self._links
        ]

    def _sample_entry_page(
        self, client: Client, rng: np.random.Generator
    ) -> int:
        """An entry page that already exists (born)."""
        affinity = self.config.region_affinity
        sample = self.site.popularity.sample
        born = self._born_pages
        for __ in range(64):
            page_index = sample(rng=rng)
            if client.local:
                page_index = self._local_page_order[page_index]
            elif affinity > 0 and rng.random() < affinity:
                page_index = int(self._region_order(client.region)[page_index])
            if born[page_index]:
                return page_index
        born_indices = np.nonzero(self._born)[0]
        return int(born_indices[int(rng.integers(len(born_indices)))])

    def _advance_day(self, day: int, rng: np.random.Generator) -> bool:
        """One day of evolution: the day's new pages are born and a
        random subset of pages' links is rewired.  Returns whether
        either happened (the walk's link table is then stale)."""
        newborn = self._birth_day == day
        self._born |= newborn
        churn = self.config.link_churn_per_day
        if churn <= 0:
            return bool(newborn.any())
        hits = np.nonzero(rng.random(self.site.n_pages) < churn)[0].tolist()
        for page_index in hits:
            self._links[page_index] = self.site.resample_links(page_index, rng)
        return bool(hits) or bool(newborn.any())

    def _session_walk(
        self,
        client: Client,
        start_time: float,
        rng: np.random.Generator | None = None,
    ) -> tuple[list[float], list[int]]:
        """One browsing session's ``(timestamps, document codes)``.

        Args:
            client: The session's client.
            start_time: Virtual start time of the session.
            rng: The session's dedicated substream; defaults to the
                construction stream (convenient for structural tests).
        """
        config = self.config
        rng = self._rng if rng is None else rng
        random = rng.random
        gap = config.embedded_gap
        continue_probability = config.continue_probability
        jump_probability = config.jump_probability
        think_time_mean = config.think_time_mean
        pages = self._page_table
        live_links = self._live_links
        times: list[float] = []
        codes: list[int] = []
        fetched: set[int] = set()
        now = start_time
        page_index = self._sample_entry_page(client, rng)

        while True:
            code, embedded = pages[page_index]
            if code not in fetched:
                fetched.add(code)
                times.append(now)
                codes.append(code)
            inline_time = now
            for code in embedded:
                if code in fetched:
                    continue
                fetched.add(code)
                inline_time += gap
                times.append(inline_time)
                codes.append(code)

            links = live_links[page_index]
            if not links or random() >= continue_probability:
                break
            if random() < jump_probability:
                page_index = self._sample_entry_page(client, rng)
            else:
                page_index = links[int(rng.integers(len(links)))]
            now = inline_time + rng.exponential(think_time_mean)
        return times, codes

    def _session_schedule(self, rng: np.random.Generator) -> np.ndarray:
        """Sorted session start times for one generation epoch.

        The schedule is drawn entirely from the epoch's schedule
        substream, so every shard of the same epoch reproduces it
        bit-identically.  This array is the one O(n_sessions) buffer a
        streamed generation keeps (8 bytes per session).
        """
        config = self.config
        duration = config.duration_days * 86_400.0
        if config.diurnal_amplitude <= 0:
            return np.sort(rng.random(config.n_sessions) * duration)
        # Thin homogeneous arrivals against a sinusoidal daily
        # intensity (peak mid-afternoon), then resample rejected
        # sessions to keep the configured volume.
        amplitude = config.diurnal_amplitude
        kept: list[float] = []
        while len(kept) < config.n_sessions:
            candidates = rng.random(config.n_sessions) * duration
            hour = (candidates % 86_400.0) / 3_600.0
            intensity = 1.0 + amplitude * np.sin(
                (hour - 9.0) / 24.0 * 2.0 * np.pi
            )
            accept = rng.random(len(candidates)) * (1.0 + amplitude) < intensity
            kept.extend(candidates[accept].tolist())
        return np.sort(np.array(kept[: config.n_sessions]))

    def stream(
        self,
        *,
        shard_index: int = 0,
        shard_count: int = 1,
        epoch: int | None = None,
    ) -> Iterator[Request]:
        """The trace as a time-ordered request iterator, constant memory.

        Sessions are generated in start order; their requests sit in a
        small heap until no earlier-starting session can still emit
        before them, so the iterator yields in exact timestamp order
        (ties broken by generation order — the order a stable sort of
        the materialized trace produces).  Peak memory holds the site,
        the schedule array and the briefly overlapping sessions, not
        the trace: it is flat in ``n_sessions`` up to the 8-byte-per-
        session schedule.

        Args:
            shard_index: This shard's index in ``0..shard_count-1``.
            shard_count: Partition the client population into this many
                hash buckets (:func:`~repro.trace.sampling.client_hash`)
                and generate only sessions of bucket ``shard_index``'s
                clients.  Every shard replays the shared schedule,
                churn and client assignment, so the ``shard_count``
                streams of the same epoch merge back
                (:func:`merge_streams`) to the exact unsharded trace.
            epoch: Generation epoch; None uses (and advances) the
                instance's epoch counter, so repeated calls produce
                fresh traffic.  Shards of one logical trace must be
                generated from fresh instances (or pass the same epoch
                explicitly), since all shards must replay the same
                schedule.

        Yields:
            :class:`~repro.trace.records.Request` records in timestamp
            order.

        Note:
            Iteration mutates the instance's site-evolution state
            (links, born pages) — run one stream of an instance at a
            time, and read ``_links``/``_born`` only after exhaustion.
        """
        if shard_count < 1:
            raise CalibrationError("shard_count must be at least 1")
        if not 0 <= shard_index < shard_count:
            raise CalibrationError(
                "shard_index must be in [0, shard_count)"
            )
        return self._stream(shard_index, shard_count, self._claim_epoch(epoch))

    def _claim_epoch(self, epoch: int | None) -> int:
        """``epoch``, or the instance's next one (advancing the counter)."""
        if epoch is None:
            epoch = self._epoch
            self._epoch += 1
        return epoch

    def _sessions(
        self, epoch: int, shard_index: int = 0, shard_count: int = 1
    ) -> Iterator[tuple[float, int, list[float], list[int]]]:
        """The one session loop, in start order: ``(start, client code,
        timestamps, document codes)`` per session.

        Replays the epoch's schedule, day-by-day churn and page births
        and the client assignment — shared by every shard — and walks
        only the sessions of shard ``shard_index``'s clients.
        """
        schedule_rng = self._substream(_DOMAIN_SCHEDULE, epoch)
        churn_rng = self._substream(_DOMAIN_CHURN, epoch)
        starts = self._session_schedule(schedule_rng)
        population = self.population
        client_ids = self._client_ids

        # Start from the site's original link structure and birth state.
        self._links = [p.links for p in self.site.pages]
        self._born = self._birth_day == 0
        self._refresh_live_links()
        current_day = 0
        for first in range(0, len(starts), _SESSION_BLOCK):
            block_starts = starts[first : first + _SESSION_BLOCK].tolist()
            count = len(block_starts)
            # The client draws follow the schedule on its substream, one
            # double per session: a block of them is the same doubles as
            # ``count`` scalar draws, and every shard consumes them all.
            uniforms = schedule_rng.random(count).tolist()
            seed_words = spawn_words(
                self.config.seed, (_DOMAIN_SESSION, epoch), first, count
            )
            for offset, start in enumerate(block_starts):
                day = int(start // 86_400.0)
                if current_day < day:
                    days = range(current_day + 1, day + 1)
                    if any([self._advance_day(d, churn_rng) for d in days]):
                        self._refresh_live_links()
                    current_day = day
                client = population.index_at(uniforms[offset])
                if (
                    shard_count > 1
                    and client_hash(client_ids[client]) % shard_count != shard_index
                ):
                    continue
                session_rng = np.random.Generator(
                    np.random.PCG64(SeedWords(seed_words[offset]))
                )
                times, codes = self._session_walk(
                    population.clients[client], start, session_rng
                )
                yield start, client, times, codes

    def _stream(
        self, shard_index: int, shard_count: int, epoch: int
    ) -> Iterator[Request]:
        """Generator body behind :meth:`stream` (epoch already fixed)."""
        # In-flight requests: (timestamp, generation order, request).
        # The sequence number reproduces the tie order of a stable sort
        # over session-major generation order.
        pending: list[tuple[float, int, Request]] = []
        sequence = 0
        doc_ids, sizes = self._doc_ids, self._doc_sizes.tolist()
        sessions = self._sessions(epoch, shard_index, shard_count)
        for start, client, times, codes in sessions:
            # Everything timestamped at or before this session's start
            # can no longer be preceded by anything: emit it.
            while pending and pending[0][0] <= start:
                yield heapq.heappop(pending)[2]
            client_id = self._client_ids[client]
            remote = bool(self._client_remote[client])
            for timestamp, code in zip(times, codes):
                request = Request(
                    timestamp, client_id, doc_ids[code], sizes[code], remote=remote
                )
                heapq.heappush(pending, (timestamp, sequence, request))
                sequence += 1
        while pending:
            yield heapq.heappop(pending)[2]

    def generate(self) -> Trace:
        """Generate the full trace (sorted by time, catalog attached).

        Appends the sessions' columns in generation order and
        stable-sorts them once by timestamp — the order :meth:`stream`
        yields for the same epoch, which it advances the same way.  No
        :class:`Request` is built.
        """
        times: list[float] = []
        codes: list[int] = []
        clients: list[int] = []
        lengths: list[int] = []
        for __, client, session_times, session_codes in self._sessions(
            self._claim_epoch(None)
        ):
            times += session_times
            codes += session_codes
            clients.append(client)
            lengths.append(len(session_times))
        timestamp = np.array(times, dtype=np.float64)
        order = np.argsort(timestamp, kind="stable")
        doc = np.array(codes, dtype=np.int64)[order]
        client = np.repeat(np.array(clients, dtype=np.int64), lengths)[order]
        columns = TraceColumns(
            doc_ids=self._doc_ids,
            client_ids=self._client_ids,
            methods=("GET",),
            timestamp=timestamp[order],
            doc=doc,
            client=client,
            size=self._doc_sizes[doc],
            remote=self._client_remote[client],
            status=np.full(doc.size, 200, dtype=np.int64),
            method=np.zeros(doc.size, dtype=np.int64),
        )
        return Trace.from_columns(columns, self.site.documents())


def merge_streams(*streams: Iterable[Request]) -> Iterator[Request]:
    """Merge time-ordered request streams into one time-ordered stream.

    The inverse of sharded generation: merging the ``shard_count``
    shard streams of one epoch yields the exact unsharded trace.  Each
    input must already be sorted by timestamp (what
    :meth:`SyntheticTraceGenerator.stream` produces); the merge is lazy
    and keeps only one pending request per stream.
    """
    return heapq.merge(*streams, key=lambda request: request.timestamp)


def generate_trace(seed: int = 0, **overrides) -> Trace:
    """Convenience wrapper: build a generator and return its trace.

    Keyword overrides are applied to the default
    :class:`GeneratorConfig`, e.g. ``generate_trace(7, n_pages=100)``.
    """
    config = GeneratorConfig(seed=seed, **overrides)
    return SyntheticTraceGenerator(config).generate()
