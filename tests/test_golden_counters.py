"""Golden counter digests for every in-process live shape.

The digests below were recorded at the commit *before* the cache-node /
assembly unification and must survive any refactor of the serving core
unchanged: they pin every integer counter, the virtual run time, the
request-latency summary and the four ratios of each arm at two seeds.
The deploy shape needs no digest — its smoke already requires its
ratios to ``==`` the single loop's.
"""

import dataclasses
import hashlib

import pytest

from repro.fleet import execute_fleet_smoke
from repro.runtime import execute_chaos_smoke, execute_smoke

GOLDEN = {
    ("chaos", 0): {
        "clean.baseline": "3276383103f08528650a2cc22b8739070f5817fc90c71793f355954b3e1588f2",
        "clean.speculative": "a70e225182b553041fec9bc02185f19b5b4ee3cbb5e31484ddc9b790f1c997f3",
        "faulted.baseline": "cf42d2163b28e476556e88a764d89f8496889efb152aa557cc52052af3def7c5",
        "faulted.speculative": "45d4daf9778595b81f779c119dcf9adf62dfbc3c6ff8eb9fff1daf189973a466",
    },
    ("chaos", 1): {
        "clean.baseline": "cdaa5321e015b67f2de98e767fb93062a0db393b511a8a72248ae3b79d3a7da1",
        "clean.speculative": "22897598271d487ff203874c6d2535d25d0ed1f1eb02659c7f0a4abe5d6ae721",
        "faulted.baseline": "136cae04efa4431510680a495dd4be0837f2ff643fbeeb8023f0a4543d5f554c",
        "faulted.speculative": "525081e66df96d2a3e2720b186743c01ac8cfb12f29c951f17cbffab0581572e",
    },
    ("fleet", 0): {
        "demand": "25ab99ec984078f1cf6fc6a188010f4a6598eb117000f6bb5c23d80a7b214b7b",
        "fleet": "06e7795936699b2b73ad00616fa38c82673a6ffad1bc702c161eb3a5dda19fa5",
        "single": "7baf06cf47d4676f0fe976369877b6386121d3691fba37e7c62394b4c2cba297",
    },
    ("fleet", 1): {
        "demand": "2f3b2dec675b079ed228a5346161b534d45313cf35d4d140a15e3b4cc5bc1b4f",
        "fleet": "67fb4c19aa4fdc5434c233c5bde02c21b6487466f6dbed9d1ce11dc68a50aafc",
        "single": "b615132b7d4c8f72fb3d4bf453f79ad12f5910e07f36e9615bbd48ffc26c1e9e",
    },
    ("smoke", 0): {
        "baseline": "3276383103f08528650a2cc22b8739070f5817fc90c71793f355954b3e1588f2",
        "speculative": "a70e225182b553041fec9bc02185f19b5b4ee3cbb5e31484ddc9b790f1c997f3",
    },
    ("smoke", 1): {
        "baseline": "cdaa5321e015b67f2de98e767fb93062a0db393b511a8a72248ae3b79d3a7da1",
        "speculative": "22897598271d487ff203874c6d2535d25d0ed1f1eb02659c7f0a4abe5d6ae721",
    },
}


def arm_digest(snapshot, ratios=None) -> str:
    """sha256 over the sorted ``name=repr(value)`` lines of one arm."""
    counters = snapshot["counters"]
    values = {
        name: value
        for name, value in counters.items()
        if isinstance(value, int) or name == "run.virtual_seconds"
    }
    latency = snapshot.get("histograms", {}).get("request_latency", {})
    values.update({f"request_latency.{k}": v for k, v in latency.items()})
    if ratios is not None:
        values.update(
            {f"ratio.{k}": v for k, v in dataclasses.asdict(ratios).items()}
        )
    lines = sorted(f"{name}={value!r}" for name, value in values.items())
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def smoke_arms(seed):
    report = execute_smoke(seed)
    return {
        "baseline": arm_digest(report.baseline),
        "speculative": arm_digest(report.speculative, report.ratios),
    }


def chaos_arms(seed):
    report = execute_chaos_smoke(seed)
    arms = {}
    for name, pair in (("clean", report.clean), ("faulted", report.faulted)):
        arms[f"{name}.baseline"] = arm_digest(pair.baseline)
        arms[f"{name}.speculative"] = arm_digest(pair.speculative, pair.ratios)
    return arms


def fleet_arms(seed):
    report = execute_fleet_smoke(seed)
    return {
        "demand": arm_digest(report.demand),
        "single": arm_digest(report.single, report.single_ratios),
        "fleet": arm_digest(report.fleet, report.ratios),
    }


SHAPES = {"smoke": smoke_arms, "chaos": chaos_arms, "fleet": fleet_arms}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_counters_match_the_recorded_digests(shape, seed):
    assert SHAPES[shape](seed) == GOLDEN[shape, seed]
