"""Synthetic web-site structure.

The speculative-service protocol exploits two kinds of document
dependency (section 3.1 of the paper):

* **Embedding** — an inline object is *always* fetched with its page
  (conditional probability 1).
* **Traversal** — a linked page is *sometimes* fetched after its
  referrer; with ``k`` anchors followed uniformly, each link is taken
  with probability about ``1/k``, which is exactly the shape of the
  paper's Figure 4 histogram.

:class:`SiteGraph` builds a site with both dependency kinds: ``n_pages``
HTML pages, each with embedded objects (some drawn from a shared pool,
like a site-wide logo) and hyperlinks to other pages.  Link targets mix
preferential attachment toward popular pages with uniform choice, giving
a connected, popularity-correlated link structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CalibrationError
from ..trace.records import Document
from .distributions import BoundedZipf, HeavyTailedSizes


@dataclass(frozen=True, slots=True)
class Page:
    """One HTML page of the synthetic site.

    Attributes:
        doc_id: Identifier of the page document itself.
        embedded: Identifiers of inline objects fetched with the page.
        links: Indices (into ``SiteGraph.pages``) of linked pages.
    """

    doc_id: str
    embedded: tuple[str, ...]
    links: tuple[int, ...]


class SiteGraph:
    """A synthetic site: pages, embedded objects, and hyperlinks.

    Args:
        n_pages: Number of HTML pages.
        rng: Randomness source (construction is deterministic per seed).
        mean_embedded: Mean number of inline objects per page (Poisson).
        shared_pool_size: Number of site-wide shared inline objects
            (logos, bullets); 0 disables sharing.
        shared_embed_probability: Probability that an embedded slot
            references a shared object instead of a page-private one.
        mean_links: Mean hyperlink out-degree (Poisson, min 1).
        popular_link_bias: Probability that a link targets a page chosen
            by popularity rank rather than uniformly.
        popularity_alpha: Zipf exponent of page popularity; also used to
            bias link targets.
        sizes: Size distribution; a default :class:`HeavyTailedSizes`
            (seeded from ``rng``) is built when omitted.
        home_server: Home-server label stamped on every document.
    """

    def __init__(
        self,
        n_pages: int,
        rng: np.random.Generator,
        *,
        mean_embedded: float = 1.7,
        shared_pool_size: int = 12,
        shared_embed_probability: float = 0.35,
        mean_links: float = 6.0,
        popular_link_bias: float = 0.55,
        popularity_alpha: float = 1.05,
        sizes: HeavyTailedSizes | None = None,
        home_server: str = "origin",
    ):
        if n_pages <= 1:
            raise CalibrationError("SiteGraph needs at least 2 pages")
        if mean_embedded < 0 or mean_links <= 0:
            raise CalibrationError("mean_embedded/mean_links out of range")
        if not 0.0 <= shared_embed_probability <= 1.0:
            raise CalibrationError("shared_embed_probability must be in [0, 1]")
        if not 0.0 <= popular_link_bias <= 1.0:
            raise CalibrationError("popular_link_bias must be in [0, 1]")

        self.n_pages = n_pages
        self.home_server = home_server
        self._popular_link_bias = popular_link_bias
        self.popularity = BoundedZipf(n_pages, popularity_alpha, rng)
        sizes = sizes or HeavyTailedSizes(rng)

        page_sizes = sizes.sample(n_pages)
        # Embedded objects are mostly small inline images: reuse the size
        # model but cap at 64 KB so pages, not icons, carry the tail.
        def embedded_size() -> int:
            return int(min(sizes.sample(1)[0], 65_536))

        shared_ids: list[str] = []
        documents: dict[str, Document] = {}
        for index in range(shared_pool_size):
            doc_id = f"/shared/common-{index}.gif"
            shared_ids.append(doc_id)
            documents[doc_id] = Document(
                doc_id=doc_id,
                size=embedded_size(),
                kind="embedded",
                home_server=home_server,
            )

        pages: list[Page] = []
        for index in range(n_pages):
            page_id = f"/page/{index:05d}.html"
            documents[page_id] = Document(
                doc_id=page_id,
                size=int(page_sizes[index]),
                kind="page",
                home_server=home_server,
            )

            n_embedded = int(rng.poisson(mean_embedded))
            embedded: list[str] = []
            for slot in range(n_embedded):
                if shared_ids and rng.random() < shared_embed_probability:
                    embedded.append(shared_ids[int(rng.integers(len(shared_ids)))])
                else:
                    doc_id = f"/img/{index:05d}-{slot}.gif"
                    documents[doc_id] = Document(
                        doc_id=doc_id,
                        size=embedded_size(),
                        kind="embedded",
                        home_server=home_server,
                    )
                    embedded.append(doc_id)

            out_degree = max(1, int(rng.poisson(mean_links)))
            links = self._draw_link_targets(index, out_degree, rng)
            pages.append(
                Page(doc_id=page_id, embedded=tuple(embedded), links=tuple(links))
            )

        self.pages: list[Page] = pages
        self._documents = documents

    def _draw_link_targets(
        self, source: int, count: int, rng: np.random.Generator
    ) -> tuple[int, ...]:
        links: list[int] = []
        seen = {source}
        attempts = 0
        while len(links) < count and attempts < count * 10:
            attempts += 1
            if rng.random() < self._popular_link_bias:
                # Draw through the caller's rng: during construction it
                # is the same stream the popularity table is bound to,
                # and during link churn it keeps the resample fully on
                # the caller's substream instead of half on the site's.
                target = self.popularity.sample(rng=rng)
            else:
                target = int(rng.integers(self.n_pages))
            if target not in seen:
                seen.add(target)
                links.append(target)
        return tuple(links)

    def resample_links(
        self, page_index: int, rng: np.random.Generator
    ) -> tuple[int, ...]:
        """Draw a fresh link set for one page (site evolution).

        Used by the generator's link-churn process: the page keeps its
        out-degree but points at newly chosen targets, modelling edits
        that slowly invalidate previously learned traversal
        dependencies (the drift behind the paper's update-cycle study).
        """
        count = max(1, len(self.pages[page_index].links))
        return self._draw_link_targets(page_index, count, rng)

    def documents(self) -> list[Document]:
        """Every document of the site (pages, private and shared objects)."""
        return list(self._documents.values())

    def document(self, doc_id: str) -> Document:
        """Look up one document by id."""
        return self._documents[doc_id]

    def total_bytes(self) -> int:
        """Total size of the site in bytes (the paper's "50+ MB")."""
        return sum(d.size for d in self._documents.values())

    def page_and_embedded_bytes(self, page_index: int) -> int:
        """Bytes fetched by a cold visit to one page (page + inlines)."""
        page = self.pages[page_index]
        total = self._documents[page.doc_id].size
        for doc_id in page.embedded:
            total += self._documents[doc_id].size
        return total
