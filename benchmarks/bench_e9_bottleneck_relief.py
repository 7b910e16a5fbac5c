"""E9 (section 2.3 text) — the proxy-bottleneck question and its remedies.

"If 96% of all remote accesses to 100 servers ... are now to be served
by one proxy, isn't that proxy going to become a performance
bottleneck?  The answer is yes, unless the process of disseminating
popular information continues for another level ... If that is not
possible, then another solution would be for the proxy to dynamically
adjust the level of shielding."

This bench quantifies both remedies with the paper's own numbers
(λ = 6.247×10⁻⁷, 100 servers, 500 MB proxy):

* an extra dissemination level divides the absorbed traffic;
* dynamic shielding bounds the proxy's load through an overload spike.
"""

from _harness import emit
from repro.core import format_table
from repro.dissemination import (
    DynamicShield,
    HierarchicalShielding,
    ProxyLevel,
)
from repro.popularity.expmodel import PAPER_LAMBDA

N_SERVERS = 100
OFFERED = 1_000_000.0


def test_e9_bottleneck_relief(benchmark):
    def run_all():
        single = HierarchicalShielding(
            [ProxyLevel(1, 500e6, N_SERVERS)],
            lam=PAPER_LAMBDA,
            n_home_servers=N_SERVERS,
        )
        layered = HierarchicalShielding(
            [
                ProxyLevel(10, 100e6, N_SERVERS),
                ProxyLevel(1, 500e6, N_SERVERS),
            ],
            lam=PAPER_LAMBDA,
            n_home_servers=N_SERVERS,
        )
        shield = DynamicShield(
            n_servers=N_SERVERS,
            lam=PAPER_LAMBDA,
            max_budget=500e6,
            capacity=600_000.0,
        )
        snapshots = shield.run([400_000.0, 1_200_000.0, 1_800_000.0, 600_000.0])
        return single, layered, snapshots

    single, layered, snapshots = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    rows = [
        ["single 500MB proxy", f"{single.peak_node_load(OFFERED):,.0f}"],
        ["(+) 10 outer 100MB proxies", f"{layered.peak_node_load(OFFERED):,.0f}"],
        ["home servers, no dissemination", f"{OFFERED / N_SERVERS:,.0f}"],
    ]
    emit(
        "e9",
        format_table(
            ["configuration", "peak per-machine load"],
            rows,
            title="E9a: 'disseminate another level' relieves the bottleneck",
        ),
    )

    shield_rows = [
        [
            s.period,
            f"{s.offered_requests:,.0f}",
            f"{s.budget / 1e6:.0f} MB",
            f"{s.proxy_load:,.0f}",
        ]
        for s in snapshots
    ]
    emit(
        "e9",
        format_table(
            ["period", "offered", "budget", "proxy load"],
            shield_rows,
            title="E9b: dynamic shielding through an overload spike",
        ),
    )

    # The extra level strictly reduces the peak machine load.
    assert layered.peak_node_load(OFFERED) < single.peak_node_load(OFFERED)
    # Dynamic shielding reacts: after the spike periods, the budget has
    # been cut and the proxy's load falls back under capacity.
    assert snapshots[-1].budget < 500e6
    assert snapshots[-1].proxy_load < 600_000.0
    # The single proxy at 500 MB indeed absorbs ~96% (paper's number).
    absorbed = single.distribute(OFFERED)[0].absorbed_fraction
    assert abs(absorbed - 0.956) < 0.01
