"""Golden digests for the synthetic trace generator.

Recorded on the generator *before* its hot path was rewritten
(precomputed page tables, block-derived session seeds, one stable
sort): every request of every trace below must survive any refactor of
``repro.workload`` unchanged.  A digest is the sha256 over one line per
request, ``f"{timestamp!r} {client} {doc_id} {size} {remote}\\n"``.

The stream-versus-batch checks in ``test_workload_stream.py`` compare
two paths of one implementation, so they would still pass if both
drifted together; these pin the requests themselves.
"""

import hashlib

import pytest

from repro.workload import GeneratorConfig, SyntheticTraceGenerator

from .test_workload_stream import CONFIGS

PAPER = {
    0: "cb5216a829c87d6183418fb9c73704542c70caa0121750740eeda82e45aaea7e",
    1: "d1a340468edbe54f5eb83f81eeaeddf510802f3e93e2446e15985370a5cd32a5",
}

#: The four stream-test configurations, keyed by their (distinct) seeds.
SMALL = {
    3: "d3ab4eaeb1c3440f93a1e4016080c9fa2e7263a5ad3057234bea63f44ba7327f",
    7: "3f6d52e32c87a473ade01ec9ac0c318bbe44686fadd8d5aaa91db76d9da6f551",
    11: "7ddf9354c9609564eb49c92b9e6f916f35fe34a65606054535c6a9bde7d40997",
    0: "38c9a3d5a6ee64817f435c34160f62f8f5817a899b5d66513ae053f50164d389",
}


def trace_digest(requests) -> str:
    """sha256 over one ``timestamp client doc_id size remote`` line per request."""
    digest = hashlib.sha256()
    for r in requests:
        digest.update(
            f"{r.timestamp!r} {r.client} {r.doc_id} {r.size} {r.remote}\n".encode()
        )
    return digest.hexdigest()


@pytest.mark.parametrize("seed", [0, 1])
def test_paper_scale_trace_matches_golden(seed):
    config = GeneratorConfig.paper_scale(seed=seed)
    assert trace_digest(SyntheticTraceGenerator(config).generate()) == PAPER[seed]


@pytest.mark.parametrize("path", ["generate", "stream"])
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"seed{c.seed}")
def test_small_trace_matches_golden(config, path):
    generator = SyntheticTraceGenerator(config)
    requests = generator.generate() if path == "generate" else generator.stream()
    assert trace_digest(requests) == SMALL[config.seed]
