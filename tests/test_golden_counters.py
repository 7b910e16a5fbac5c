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
        "clean.baseline": "f8242ef56330efb3dd608652d347816a236a6eee964ba00f2d13aaccdc6cc0b5",
        "clean.speculative": "976356e73181a44a216fe3877bf8c7b5b196b3b0f13763fd09d41ccbe13ccd68",
        "faulted.baseline": "e3b1c52fed8b79bdafbee70b0bac62224beeb07d5a246ea4a08ee05bf811a377",
        "faulted.speculative": "21704a1164b112a82a2730d60696e08af98fb75813eec3d0994757ec65150537",
    },
    ("chaos", 1): {
        "clean.baseline": "a390ff890777521f122fad3b6d73ee35ccceb4e1bb06d1d389091dbad1901aa6",
        "clean.speculative": "647f5a4f8bc4c7359ef6fdf130c643fcdc857d9ba36f0dec0f9e6b7335a7f516",
        "faulted.baseline": "deced4dae03973061a381a0af9b586b3b1f307ffb781bc29247c5d0041be2bd2",
        "faulted.speculative": "911a5f5f729c8bf28d7d484008dfad6d0dab15562bce30603f0a5f7b16f2b564",
    },
    ("fleet", 0): {
        "demand": "0ce9fa2c73258f39c7da6a401d070ae4ffdab26ef60a8e405d4e9902d4dfd065",
        "fleet": "ab5dfa6f697a3a258c1b24807c6698ac162b0a84be3746919e0e01236b58314d",
        "single": "21b8bd9b188c8a3381632991c6d6276a5ed5666bbba12aa51ba0f1926358a231",
    },
    ("fleet", 1): {
        "demand": "44ab802cd11cfd34a16cec6904b83e0a6466d69ac87b40caf0737091a7a9d6d4",
        "fleet": "b4f7bf350675087f70424ce1efb7a5f07630a88bb96999934b38f8efcb5e9cd7",
        "single": "0c3800d3ad88079853c1ea2143e3ccb438bf0b012099493d08b0388b5f0e9c99",
    },
    ("smoke", 0): {
        "baseline": "f8242ef56330efb3dd608652d347816a236a6eee964ba00f2d13aaccdc6cc0b5",
        "speculative": "976356e73181a44a216fe3877bf8c7b5b196b3b0f13763fd09d41ccbe13ccd68",
    },
    ("smoke", 1): {
        "baseline": "a390ff890777521f122fad3b6d73ee35ccceb4e1bb06d1d389091dbad1901aa6",
        "speculative": "647f5a4f8bc4c7359ef6fdf130c643fcdc857d9ba36f0dec0f9e6b7335a7f516",
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
