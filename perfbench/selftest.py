#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark, then runs every workload of the benchmark program (the
ones BENCHMARK.json lists and the ones it leaves out) on truncated traces,
untraced and traced, twice each. Checks that every run
passes its own correctness checks, that the metrics it prints are exactly the
ones BENCHMARK.json lists, with the same units, and that the deterministic
metrics (decision quality and work counts) repeat exactly. Exits non-zero on
any failure.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Metrics that are functions of the seed alone and must repeat bit for bit.
DETERMINISTIC = {
    "utility_usd", "sla_violation_pct", "mean_power_w", "modeled_self_cost_s",
    "failed_decision_pct", "core.controller.invoke_ratio", "core.search.expansions",
    "core.search.generated", "core.search.stay_ratio", "core.search.pruned_ratio",
    "core.search.searches_per_step", "core.evaluator.memo_hit_rate",
    "core.evaluator.app_hit_rate", "lqn.solves_per_decision",
    "core.coordinator.broker_moves", "core.snapshot.checkpoint_bytes",
    "core.lookahead.preprovision_commits", "core.controller.fault_replans",
    "core.controller.repairs", "sim.aborted_actions",
}
INTERVALS = "24"  # long enough for a checkpoint and the mid-run warm restart
# Every workload the benchmark program knows; BENCHMARK.json lists a subset.
WORKLOADS = ["paper_day_4x2", "replan_8x4", "pods_64x16", "crowd_faults_k3"]


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    error = run.build()
    if error is not None:
        sys.stderr.write(error)
        print("selftest: build failed")
        return 1
    failures = [f"BENCHMARK.json lists unknown workload {w['name']}"
                for w in spec["workloads"] if w["name"] not in WORKLOADS]
    for name in WORKLOADS:
        for trace, listed in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            want = {m["name"]: m["unit"] for m in listed}
            results = []
            for _ in range(2):
                code, out = run.run_binary(["--workload", name, "--seed", "3",
                                            "--seconds", "0.1", "--trace", trace,
                                            "--intervals", INTERVALS])
                tag = f"{name} trace={trace}"
                lines = out.strip().splitlines()
                if code != 0 or not lines:
                    failures.append(f"{tag}: exit code {code}")
                    break
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{tag}: run reports incorrect output")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    failures.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                    f"{sorted(set(got.items()) ^ set(want.items()))}")
                results.append(result["metrics"])
            if len(results) == 2:
                for metric in DETERMINISTIC & results[0].keys():
                    a, b = results[0][metric]["value"], results[1][metric]["value"]
                    if a != b:
                        failures.append(f"{tag}: {metric} does not repeat ({a} vs {b})")
            print(f"selftest: {name} trace={trace}: "
                  f"{'ok' if not any(f.startswith(tag) for f in failures) else 'FAILED'}")
    for f in failures:
        print("selftest: FAILED:", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
