#!/usr/bin/env python3
"""Compare two benchmark results files, one row per (workload, metric).

    python3 benchmark/compare.py BASE.json NEW.json

Both files are results.json files written by benchmark/run.py. Each row shows
the two medians with their quartiles and a verdict against the metric's bound
from BENCHMARK.json:

  better / worse  the median moved by more than the bound;
  same            it moved by no more than the bound;
  unresolved      either side's spread (q3 - q1 as a share of its median) is
                  wider than the bound, unless every run of one side beats
                  every run of the other (then better or worse).

walk_fail_ratio has no bound: any increase is worse. The exit code is 1 when
any row is worse or unresolved.

The simulated metrics repeat exactly for a seed. BENCHMARK.json's bounds for
them cover the difference between seeds, so when both files were run with
the same seed and scale, the tighter same-seed bounds below apply instead.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Reported beside the end-to-end metrics but kept out of BENCHMARK.json,
# whose metrics must never read 0.
FAIL_RATIO = {"name": "walk_fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}
SAME_SEED_BOUNDS = {"sim_exec_ms": 0.01, "sim_energy_mj": 0.01, "job_latency_p50_ms": 0.01,
                    "job_latency_p80_ms": 0.01, "fairness_ratio": 0.02}


def same_inputs(base, new):
    """True when both results were run with the same seed and scale."""
    b, n = base.get("env", {}), new.get("env", {})
    return "seed" in b and all(b.get(k) == n.get(k) for k in ("seed", "quick"))


def relative(new, base):
    """(new - base) / |base|, with a zero base handled as 0 or +-inf."""
    if base == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, new)
    return (new - base) / abs(base)


def spread(m):
    """Quartile distance as a share of the median."""
    width = m["q3"] - m["q1"]
    if m["value"] == 0:
        return 0.0 if width == 0 else math.inf
    return width / abs(m["value"])


def verdict(base, new, better, bound):
    """Verdict for one metric; base/new hold value, q1, q3, min and max."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * relative(new["value"], base["value"])
    if max(spread(base), spread(new)) > bound:
        above, below = new["min"] > base["max"], new["max"] < base["min"]
        new_wins, base_wins = (below, above) if better == "lower" else (above, below)
        if new_wins:
            return "better"
        if base_wins:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(base, new, metrics):
    """Rows (workload, metric, unit, base, new, change, bound, verdict)."""
    same_seed = same_inputs(base, new)
    rows = []
    for workload in sorted(set(base["workloads"]) | set(new["workloads"])):
        b_metrics = base["workloads"].get(workload, {}).get("metrics", {})
        n_metrics = new["workloads"].get(workload, {}).get("metrics", {})
        for spec in metrics:
            name = spec["name"]
            bound = spec["bound"]
            if same_seed:
                bound = min(bound, SAME_SEED_BOUNDS.get(name, bound))
            b, n = b_metrics.get(name), n_metrics.get(name)
            if b is None or n is None:
                rows.append((workload, name, spec["unit"], b, n, None, bound, "unresolved"))
                continue
            rows.append((workload, name, spec["unit"], b, n,
                         relative(n["value"], b["value"]), bound,
                         verdict(b, n, spec["better"], bound)))
    return rows


def fmt(m):
    if m is None:
        return "missing"
    return f"{m['value']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(base, new, spec["end_to_end"] + [FAIL_RATIO])
    if same_inputs(base, new):
        print(f"same seed ({base['env']['seed']}) and scale: simulated metrics "
              "use the same-seed bounds")
    print(f"{'workload':16s} {'metric':20s} {'unit':8s} {'base median [q1, q3]':36s} "
          f"{'new median [q1, q3]':36s} {'change':>9s} {'bound':>7s}  verdict")
    for workload, name, unit, b, n, change, bound, v in rows:
        change_s = "n/a" if change is None else f"{change * 100:+.2f}%"
        print(f"{workload:16s} {name:20s} {unit:8s} {fmt(b):36s} {fmt(n):36s} "
              f"{change_s:>9s} {bound * 100:6.1f}%  {v}")
    return 1 if any(r[-1] in ("worse", "unresolved") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
