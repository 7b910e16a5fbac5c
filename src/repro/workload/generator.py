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
its member sessions, and the N shard streams merge back (a
timestamp-keyed ``heapq.merge``) to the exact unsharded trace.

**The lockstep walk.**  Sessions are walked a block at a time, all of a
block's sessions at once: one pass of the ``SeedSequence`` hash
(:mod:`repro.workload.seeds`) yields the block's PCG64 seed words, and
:class:`~repro.workload.draws.StreamLanes` steps every session's stream
as uint64 arrays, making numpy's ``random``/``integers``/
``exponential`` draws bit for bit.  Each round moves every live session
one page on; a ``(session, document)`` bitmap is the browser cache.  A
session draws exactly what a walk on its own ``Generator`` would, so
the trace is the same request for request (the scalar walk is the test
oracle, ``tests/oracles/session_walk.py``).  One block walk feeds both
outputs: :meth:`~SyntheticTraceGenerator.generate` appends the blocks'
columns and stable-sorts once, building no :class:`Request`, while
:meth:`SyntheticTraceGenerator.stream` turns them into requests in a
bounded heap of in-flight sessions (peak memory: the site, the
schedule, one block).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..errors import CalibrationError
from ..trace.records import Request, Trace, TraceColumns
from ..trace.sampling import client_hash
from .clients import ClientPopulation
from .draws import StreamLanes
from .seeds import spawn_words
from .sitegraph import SiteGraph

#: ``SeedSequence`` spawn-key domains for the generator's substreams.
#: Kept distinct so no two kinds of draw can ever alias.
_DOMAIN_REGION = 1
_DOMAIN_SCHEDULE = 2
_DOMAIN_CHURN = 3
_DOMAIN_SESSION = 4

#: Sessions walked together: their seed words, client draws and walk
#: state are derived at once, and a fixed block keeps those buffers
#: flat in ``n_sessions``.
_SESSION_BLOCK = 16_384

#: The bit of a document code's byte in the fetched-documents bitmap.
_BITS = np.left_shift(1, np.arange(8)).astype(np.uint8)


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


@dataclass(frozen=True)
class _SiteView:
    """The site as a session walks it on one day: born flags per page,
    and per page its live links (born targets) in CSR order."""

    born: np.ndarray
    link_count: np.ndarray
    link_target: np.ndarray


@dataclass(frozen=True)
class _Block:
    """A walked block: per session its start, client code and row
    count; its rows' timestamps and document codes, session-major."""

    starts: np.ndarray
    clients: np.ndarray
    lengths: np.ndarray
    times: np.ndarray
    codes: np.ndarray


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
        self._local_page_order = self._rng.permutation(self.site.n_pages)
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
        # population order.  The walk reads pages as document codes:
        # each page's own code and its embedded codes (CSR).
        documents = self.site.documents()
        self._doc_ids = tuple(d.doc_id for d in documents)
        self._doc_sizes = np.array([d.size for d in documents], dtype=np.int64)
        code = {doc_id: index for index, doc_id in enumerate(self._doc_ids)}
        pages = self.site.pages
        self._page_code = np.array([code[p.doc_id] for p in pages], dtype=np.int64)
        self._embedded_count = np.array(
            [len(p.embedded) for p in pages], dtype=np.int64
        )
        self._embedded_first = np.cumsum(self._embedded_count) - self._embedded_count
        self._embedded_code = np.array(
            [code[e] for p in pages for e in p.embedded], dtype=np.int64
        )
        clients = self.population.clients
        self._client_ids = tuple(c.client_id for c in clients)
        self._client_remote = np.array([not c.local for c in clients], dtype=bool)
        self._client_region = np.array([c.region for c in clients], dtype=np.int64)

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

    def _advance_day(self, day: int, rng: np.random.Generator) -> bool:
        """One day of evolution: the day's new pages are born and a
        random subset of pages' links is rewired.  Returns whether
        either happened (the walk's view of the site is then stale)."""
        newborn = self._birth_day == day
        self._born |= newborn
        churn = self.config.link_churn_per_day
        if churn <= 0:
            return bool(newborn.any())
        hits = np.nonzero(rng.random(self.site.n_pages) < churn)[0].tolist()
        for page_index in hits:
            self._links[page_index] = self.site.resample_links(page_index, rng)
        return bool(hits) or bool(newborn.any())

    def _site_view(self) -> _SiteView:
        """The walk's view of today's site: born flags and live links."""
        counts = np.fromiter(map(len, self._links), np.int64, len(self._links))
        targets = np.fromiter(
            chain.from_iterable(self._links), np.int64, int(counts.sum())
        )
        owner = np.repeat(np.arange(len(counts)), counts)
        live = self._born[targets]
        return _SiteView(
            born=self._born.copy(),
            link_count=np.bincount(owner[live], minlength=len(counts)),
            link_target=targets[live],
        )

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
        the schedule array and one block of sessions, not the trace: it
        is flat in ``n_sessions`` up to the 8-byte-per-session schedule.

        Args:
            shard_index: This shard's index in ``0..shard_count-1``.
            shard_count: Partition the client population into this many
                hash buckets (:func:`~repro.trace.sampling.client_hash`)
                and generate only sessions of bucket ``shard_index``'s
                clients.  Every shard replays the shared schedule,
                churn and client assignment, so the ``shard_count``
                streams of the same epoch merge back (a timestamp-keyed
                ``heapq.merge``) to the exact unsharded trace.
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

    def _blocks(
        self, epoch: int, shard_index: int = 0, shard_count: int = 1
    ) -> Iterator[_Block]:
        """The one session loop, a block of sessions at a time.

        Replays the epoch's schedule, day-by-day churn and page births
        and the client assignment — shared by every shard — and walks
        only the sessions of shard ``shard_index``'s clients.
        """
        schedule_rng = self._substream(_DOMAIN_SCHEDULE, epoch)
        churn_rng = self._substream(_DOMAIN_CHURN, epoch)
        starts = self._session_schedule(schedule_rng)
        member = None
        if shard_count > 1:
            member = np.array(
                [client_hash(c) % shard_count == shard_index for c in self._client_ids]
            )

        # Start from the site's original link structure and birth state.
        self._links = [p.links for p in self.site.pages]
        self._born = self._birth_day == 0
        view = self._site_view()
        current_day = 0
        for first in range(0, len(starts), _SESSION_BLOCK):
            block_starts = starts[first : first + _SESSION_BLOCK]
            count = len(block_starts)
            # The client draws follow the schedule on its substream, one
            # double per session: a block of them is the same doubles as
            # ``count`` scalar draws, and every shard consumes them all.
            clients = self.population.index_at(schedule_rng.random(count))
            # Replay the site's evolution up to each day the block
            # spans; a session walks the view of its start day.
            days, day_of_session = np.unique(
                (block_starts // 86_400.0).astype(np.int64), return_inverse=True
            )
            views = [view]
            view_of_day = []
            for day in days.tolist():
                if current_day < day:
                    changed = [
                        self._advance_day(d, churn_rng)
                        for d in range(current_day + 1, day + 1)
                    ]
                    if any(changed):
                        view = self._site_view()
                        views.append(view)
                    current_day = day
                view_of_day.append(len(views) - 1)
            day_view = np.array(view_of_day, dtype=np.int64)[day_of_session]
            seed_words = spawn_words(
                self.config.seed, (_DOMAIN_SESSION, epoch), first, count
            )
            if member is not None:
                walked = member[clients]
                block_starts, clients = block_starts[walked], clients[walked]
                day_view, seed_words = day_view[walked], seed_words[walked]
            yield self._walk(block_starts, clients, day_view, views, seed_words)

    def _walk(
        self,
        starts: np.ndarray,
        clients: np.ndarray,
        day_view: np.ndarray,
        views: list[_SiteView],
        seed_words: np.ndarray,
    ) -> _Block:
        """Walk a block of sessions in lockstep.

        Session ``i`` starts at ``starts[i]`` as client ``clients[i]``,
        reads ``views[day_view[i]]`` of the site and draws from the PCG64
        stream seeded by ``seed_words[i]``.  Each round advances every
        live session by one page visit, and each draw advances each
        drawing session's own stream (:class:`StreamLanes`) by what the
        scalar walk's draw would consume, so every session makes the
        same draws in the same order as a walk on its own
        ``Generator``.
        """
        config = self.config
        lanes = StreamLanes(seed_words)
        n_pages = self.site.n_pages
        # The views' page tables, flattened view-major: a session reads
        # page ``p`` at ``base + p``.
        base = day_view * n_pages
        born = np.concatenate([v.born for v in views])
        link_count = np.concatenate([v.link_count for v in views])
        link_target = np.concatenate([v.link_target for v in views])
        link_first = np.cumsum(link_count) - link_count
        # Each view's born pages, for the entry draw's fallback.
        born_lists = [np.flatnonzero(v.born) for v in views]
        born_count = np.array([len(p) for p in born_lists], dtype=np.int64)
        born_first = np.cumsum(born_count) - born_count
        born_pages = np.concatenate(born_lists)
        local = ~self._client_remote[clients]
        affinity = config.region_affinity
        if affinity > 0:
            region = self._client_region[clients]
            region_order = np.stack(
                [self._region_order(r) for r in range(int(region.max(initial=0)) + 1)]
            )
        cdf = self.site.popularity.cdf
        local_order = self._local_page_order

        def entry_pages(sessions: np.ndarray) -> np.ndarray:
            """An entry page that already exists (born), per session."""
            chosen = np.empty(len(sessions), dtype=np.int64)
            pending = np.arange(len(sessions))
            for __ in range(64):
                drawing = sessions[pending]
                pages = np.searchsorted(cdf, lanes.random(drawing), side="left")
                at_home = local[drawing]
                pages[at_home] = local_order[pages[at_home]]
                if affinity > 0:
                    away = np.flatnonzero(~at_home)
                    near = away[lanes.random(drawing[away]) < affinity]
                    pages[near] = region_order[region[drawing[near]], pages[near]]
                ok = born[base[drawing] + pages]
                chosen[pending[ok]] = pages[ok]
                pending = pending[~ok]
                if not pending.size:
                    return chosen
            drawing = sessions[pending]
            view = day_view[drawing]
            pick = lanes.integers(drawing, born_count[view])
            chosen[pending] = born_pages[born_first[view] + pick]
            return chosen

        # The in-session browser cache: one bit per (session, document).
        stride = (len(self._doc_ids) + 7) >> 3
        row = np.arange(len(starts)) * stride
        fetched = np.zeros(len(starts) * stride, dtype=np.uint8)
        out_session: list[np.ndarray] = []
        out_time: list[np.ndarray] = []
        out_code: list[np.ndarray] = []

        def fetch(sessions: np.ndarray, codes: np.ndarray) -> np.ndarray:
            """Mark ``codes`` fetched; returns which were not already."""
            cell = row[sessions] + (codes >> 3)
            bit = _BITS[codes & 7]
            new = (fetched[cell] & bit) == 0
            fetched[cell[new]] |= bit[new]
            return new

        def emit(sessions: np.ndarray, times: np.ndarray, codes: np.ndarray) -> None:
            out_session.append(sessions)
            out_time.append(times)
            out_code.append(codes)

        gap = config.embedded_gap

        def visit(sessions: np.ndarray, now: np.ndarray) -> np.ndarray:
            """Fetch each session's page, then its inline objects one
            slot at a time; returns the time of each one's last inline."""
            pages = page[sessions]
            codes = self._page_code[pages]
            new = fetch(sessions, codes)
            emit(sessions[new], now[new], codes[new])
            inline = now.copy()
            count = self._embedded_count[pages]
            first = self._embedded_first[pages]
            for slot in range(int(count.max(initial=0))):
                has = np.flatnonzero(count > slot)
                codes = self._embedded_code[first[has] + slot]
                new = fetch(sessions[has], codes)
                hit = has[new]
                inline[hit] += gap
                emit(sessions[hit], inline[hit], codes[new])
            return inline

        active = np.arange(len(starts))
        page = entry_pages(active)
        inline = visit(active, starts.astype(np.float64))
        while active.size:
            where = base[active] + page[active]
            count = link_count[where]
            going = np.flatnonzero(count > 0)
            going = going[lanes.random(active[going]) < config.continue_probability]
            active, inline = active[going], inline[going]
            where, count = where[going], count[going]
            if not active.size:
                break
            jump = lanes.random(active) < config.jump_probability
            if jump.any():
                page[active[jump]] = entry_pages(active[jump])
            follow = np.flatnonzero(~jump)
            if follow.size:
                pick = lanes.integers(active[follow], count[follow])
                page[active[follow]] = link_target[link_first[where[follow]] + pick]
            now = inline + lanes.exponential(active, config.think_time_mean)
            inline = visit(active, now)

        session = np.concatenate(out_session)
        order = np.argsort(session, kind="stable")
        return _Block(
            starts=starts,
            clients=clients,
            lengths=np.bincount(session, minlength=len(starts)),
            times=np.concatenate(out_time)[order],
            codes=np.concatenate(out_code)[order],
        )

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
        for block in self._blocks(epoch, shard_index, shard_count):
            ends = np.cumsum(block.lengths).tolist()
            row = 0
            for start, client, end in zip(
                block.starts.tolist(), block.clients.tolist(), ends
            ):
                # Everything timestamped at or before this session's
                # start can no longer be preceded by anything: emit it.
                while pending and pending[0][0] <= start:
                    yield heapq.heappop(pending)[2]
                client_id = self._client_ids[client]
                remote = bool(self._client_remote[client])
                # Per-session slices keep a block's rows out of Python
                # objects until the session is pushed.
                times, codes = block.times[row:end], block.codes[row:end]
                for timestamp, code in zip(times.tolist(), codes.tolist()):
                    request = Request(
                        timestamp, client_id, doc_ids[code], sizes[code], remote=remote
                    )
                    heapq.heappush(pending, (timestamp, sequence, request))
                    sequence += 1
                row = end
        while pending:
            yield heapq.heappop(pending)[2]

    def generate(self) -> Trace:
        """Generate the full trace (sorted by time, catalog attached).

        Appends the blocks' columns in generation order and
        stable-sorts them once by timestamp — the order :meth:`stream`
        yields for the same epoch, which it advances the same way.  No
        :class:`Request` is built.
        """
        blocks = list(self._blocks(self._claim_epoch(None)))
        timestamp = np.concatenate([b.times for b in blocks])
        order = np.argsort(timestamp, kind="stable")
        doc = np.concatenate([b.codes for b in blocks])[order]
        client = np.concatenate(
            [np.repeat(b.clients, b.lengths) for b in blocks]
        )[order]
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

