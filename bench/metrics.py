"""How each metric is computed from a run's records.

The metric names and units are those of BENCHMARK.json at the repository root.
Every per-layer value is a per-op median over the timed ops.
"""

from __future__ import annotations

import statistics


def layer_values(trace: dict) -> dict:
    """Per-layer metrics of one op from its span totals and counters."""
    spans, counts = trace["spans"], trace["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0, 0.0])[1] for n in names)

    iterations = counts.get("optimize.iterations", 0)
    trials = calls("optimize.objective") - calls("optimize.minimize_product")
    minimize_s = spans.get("optimize.minimize_product", [0, 0.0, 0.0])[2]
    return {
        "cli.main.self_s": self_s("cli.main"),
        "cli.load_problem.self_s": self_s("cli.load_problem"),
        "serialize.render.self_s": self_s(
            "serialize.dumps", "serialize.csv_row", "evolution.FlowTrace.write_csv"
        ),
        "canonical.build.self_s": self_s("canonical.position_op", "canonical.momentum_op"),
        "canonical.operator_mb": counts.get("canonical.operator_bytes", 0) / 1e6,
        "hilbert.Observable.calls": calls("hilbert.Observable.__post_init__"),
        "hilbert.Observable.self_s": self_s("hilbert.Observable.__post_init__"),
        "hilbert.centered.calls": calls("hilbert.centered"),
        "hilbert.brackets.self_s": self_s("hilbert.brackets"),
        "hilbert.spectral.calls": calls("hilbert.spectral"),
        "hilbert.spectral.self_s": self_s("hilbert.spectral"),
        "uncertainty.relations_report.self_s": self_s("uncertainty.relations_report"),
        "uncertainty.std_dev.calls": calls("uncertainty.std_dev"),
        "projective.eigenset_distance.self_s": self_s("projective.eigenset_distance"),
        "projective.dist_to_eigenset.self_s": self_s("projective.dist_to_eigenset"),
        "projective.eigenspace_pairs": counts.get("projective.eigenspace_pairs", 0),
        "evolution.flow.calls": calls("evolution.flow"),
        "evolution.flow.self_s": self_s("evolution.flow"),
        "evolution.default_dt.calls": calls("evolution.default_dt"),
        "evolution.trace_flow.self_s": self_s("evolution.trace_flow"),
        "optimize.iterations": iterations,
        "optimize.objective.calls": calls("optimize.objective"),
        "optimize.riemannian_grad.calls": calls("optimize.riemannian_grad"),
        "optimize.minimize_product.self_s": self_s("optimize.minimize_product"),
        "optimize.s_per_iteration": minimize_s / iterations if iterations else 0.0,
        "optimize.accepted_step_ratio": (
            counts.get("optimize.accepted_steps", 0) / trials if trials > 0 else 0.0
        ),
    }


def latency_summary(latencies: list) -> dict:
    """Op-time figures of one run.

    ops_per_s, the ops completed per second of timed ops with one caller in
    a closed loop (1 / mean op time), is the end-to-end metric.  The median
    and the 10th percentile of the op times and, from forty ops up, the
    highest percentile with ten samples beyond it are printed and recorded
    for reference only: the host switches between a fast and a slow speed
    for seconds to minutes at a time, and a quantile jumps between the two
    modes from run to run where the mean moves in proportion (README.md,
    Machine noise).
    """
    n = len(latencies)
    out = {
        "timed_ops": n,
        "ops_per_s": n / sum(latencies),
        "latency_p10_s": statistics.quantiles(latencies, n=10)[0],
        "latency_p50_s": statistics.median(latencies),
    }
    if n >= 40:
        out[f"latency_p{(100 * (n - 10)) // n}_s"] = sorted(latencies)[n - 11]
    return out
