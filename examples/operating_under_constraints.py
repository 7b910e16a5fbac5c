"""Operating a speculative server under real-world constraints.

The paper shows what speculation *can* buy; an operator has to buy it
under constraints: a bandwidth budget and digest overhead on every
request.  This example runs the production-shaped configuration end to
end:

* the self-tuning policy holds a stated traffic budget,
* cooperative clients piggyback Bloom-filter digests (bytes counted).

Run:  python examples/operating_under_constraints.py
"""

from repro.config import BASELINE
from repro.core import Experiment, format_table
from repro.speculation import AdaptiveBudgetPolicy, digest_size_bytes
from repro.workload import SyntheticTraceGenerator, preset


def main() -> None:
    generator = SyntheticTraceGenerator(preset("small", 13))
    trace = generator.generate()
    experiment = Experiment(trace, BASELINE, train_days=18)
    print(f"workload: {trace}\n")

    # --- hold a 5% bandwidth budget, cooperatively, with Bloom digests ---
    rows = []
    for budget in (0.03, 0.08, 0.20):
        policy = AdaptiveBudgetPolicy(
            target_traffic_increase=budget,
            warmup_bytes=20_000,
            window_bytes=300_000,
            adjust_rate=0.05,
        )
        ratios, run = experiment.evaluate(
            policy, cooperative=True, digest_fp_rate=0.01
        )
        rows.append(
            [
                f"{budget:.0%}",
                f"{ratios.traffic_increase:+.1%}",
                f"{ratios.server_load_reduction:.1%}",
                f"{policy.threshold:.2f}",
            ]
        )
    print(
        format_table(
            ["stated budget", "achieved traffic", "load reduction", "final T_p"],
            rows,
            title="self-tuning speculation with Bloom-digest cooperation",
        )
    )

    # --- what does the digest itself cost? -----------------------------------
    mean_cache = 60  # typical documents per client cache in this workload
    print(
        f"\ndigest overhead at ~{mean_cache} cached documents: "
        f"exact list {digest_size_bytes(mean_cache):.0f} B/request, "
        f"Bloom(1%) {digest_size_bytes(mean_cache, fp_rate=0.01):.0f} B/request"
    )


if __name__ == "__main__":
    main()
