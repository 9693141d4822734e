#!/usr/bin/env python3
"""Compare a fresh bench/sim_hotpath report against the committed baseline.

Usage:
    python3 bench/regression.py --baseline BENCH_sim.json \
        --current /tmp/current.json

Exit status 0 = within budget, 1 = regression, 2 = bad input.

What is gated, and why
----------------------
1. `sim_exec_ns` (when the e2e configs match): the simulated exec time for
   a fixed (dataset, scale, walks, seed) is bit-deterministic — it must
   EQUAL the baseline on any machine. A mismatch means either a
   determinism bug or an intentional timing-model change; for the latter,
   refresh the baseline in the same PR (see docs/MODELING.md, "The DES
   kernel").

2. `service_mix` (when both reports carry the section): every mix's
   simulated makespan_ns is deterministic and must EQUAL the baseline
   (same refresh rule as sim_exec_ns), and uniform equal-priority mixes
   must hold the weighted-fair scheduler's <= 2x fairness bound. The
   section's per-model block is gated too: `deterministic` must be true
   for EVERY registered walk model (new models included — this is the
   check_models gate), and models marked `legacy` (pre-plugin,
   byte-identity-pinned) must reproduce the baseline makespan exactly.

3. `parallel` (when the current report carries the section, i.e. the
   bench ran with --parallel): `determinism_ok` must be true — identical
   checksums and event counts across 1/2/4/8 workers are the whole
   contract of the conservative-lookahead design. The 8-worker speedup
   floor (--parallel-floor, default 3.0x over the serial sharded
   baseline) is gated only when the *current* machine reports
   `hw_threads >= 8`; on smaller hosts real parallel speedup is
   physically unobservable, so the number prints as informational.
   Both this section and `engine_parallel` also print the speedup at
   min(hw_threads, 8) workers, the host's own thread count, as an
   informational line.

4. `engine_parallel` (same trigger as 3): the full FlashWalker engine at
   1/2/4/8 DES workers. `determinism_ok` (identical sim_exec_ns / hop /
   walk totals across worker counts) is gated unconditionally — it holds
   even on a single-core host. The 8-worker walks/sec speedup floor
   (--engine-floor, default 2.5x over the 1-worker run) is gated only
   when `hw_threads >= 8`, like the raw-DES floor.

5. `array_scaling` (multi-SSD array): `determinism_ok` (byte-identical
   array reports across --sim-threads 1/8 at every device count) is gated
   unconditionally. The 4-device aggregate walks/sec ratio over the
   single-device run (--array-floor, default 2.0) is gated only when
   `hw_threads >= 8`, like the other scaling floors.

6. `board_hub` (same trigger as 3): the shard-audit breakdown of the
   board-shard serial hub — event share, windowed handoff batches,
   cross-shard sends per hop. `determinism_ok` (the audit stream itself
   identical across 1/2/4/8 workers) is gated unconditionally; the share
   numbers print as informational trend lines. With --serial-floor N the
   1-worker concurrent-engine walks/sec is also gated as an absolute
   same-machine floor, so parallel speedup cannot be bought by slowing
   the serial path.

Missing-section rule: a section the BASELINE carries is a promise — if
the candidate report lacks it, that is a FAILURE (a silently skipped
gate), not a skip. Sections absent from both reports are skipped with a
notice.

Reports must declare `"schema": "fw-bench-sim/2"`; unknown or missing
versions are rejected (exit 2) instead of silently parsed.
"""

import argparse
import json
import sys

SCHEMA = "fw-bench-sim/2"
FAIRNESS_BOUND = 2.0


def load(path):
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"regression: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if report.get("schema") != SCHEMA:
        print(f"regression: {path}: unexpected schema {report.get('schema')!r} "
              f"(this tool understands {SCHEMA!r})", file=sys.stderr)
        sys.exit(2)
    return report


def e2e_config(report):
    e2e = report.get("e2e", {})
    return (e2e.get("dataset"), e2e.get("scale"), e2e.get("walks"),
            report.get("seed"))


def mix_config(report):
    sm = report.get("service_mix", {})
    return (sm.get("dataset"), sm.get("scale"), sm.get("seed"))


def section_or_fail(name, base, cur, failures):
    """Missing-section rule: a section the baseline carries must exist in the
    candidate (else a gate silently vanishes — that is a failure, not a
    skip). Returns the candidate section, or None when checks should stop."""
    if name not in base:
        print(f"{name}: no section in baseline report, checks skipped")
        return None
    if name not in cur:
        print(f"{name}: baseline has the section but the current report "
              f"does not [MISSING]")
        failures.append(f"{name}.missing")
        return None
    return cur[name]


def check_service_mix(base, cur, failures):
    """Gate the walk-service section: deterministic makespans + fairness."""
    if section_or_fail("service_mix", base, cur, failures) is None:
        return
    cur_mixes = {m["name"]: m for m in cur["service_mix"].get("mixes", [])}
    configs_match = mix_config(base) == mix_config(cur)
    if not configs_match:
        print(f"service_mix: configs differ ({mix_config(base)} vs "
              f"{mix_config(cur)}), makespan determinism check skipped")
    for bm in base["service_mix"].get("mixes", []):
        name = bm["name"]
        cm = cur_mixes.get(name)
        if cm is None:
            print(f"service_mix[{name}]: missing from current report [MISSING]")
            failures.append(f"service_mix.{name}")
            continue
        if configs_match:
            b_ns, c_ns = bm["makespan_ns"], cm["makespan_ns"]
            verdict = "ok" if b_ns == c_ns else "MISMATCH"
            print(f"service_mix[{name}].makespan_ns: baseline {b_ns}  "
                  f"current {c_ns}  [{verdict}]")
            if b_ns != c_ns:
                failures.append(f"service_mix.{name}.makespan_ns")
        if cm.get("uniform"):
            ratio = cm["fairness_ratio"]
            verdict = "ok" if ratio <= FAIRNESS_BOUND else "UNFAIR"
            print(f"service_mix[{name}].fairness_ratio: {ratio:.3g} "
                  f"(bound {FAIRNESS_BOUND}) [{verdict}]")
            if ratio > FAIRNESS_BOUND:
                failures.append(f"service_mix.{name}.fairness_ratio")
    check_models(base, cur, configs_match, failures)


def check_models(base, cur, configs_match, failures):
    """Gate the per-model block inside service_mix: every model the bench
    ran must be deterministic across DES worker counts (gated always, new
    models included), and the legacy (pre-plugin, byte-identity-pinned)
    models must reproduce the baseline makespan exactly. A model the
    baseline carries must not vanish from the candidate."""
    cur_models = {m["name"]: m for m in cur["service_mix"].get("models", [])}
    base_models = {m["name"]: m for m in base["service_mix"].get("models", [])}
    if not cur_models and not base_models:
        print("service_mix.models: no per-model block in either report, "
              "checks skipped")
        return
    for name, cm in sorted(cur_models.items()):
        ok = cm.get("deterministic")
        verdict = "ok" if ok else "NONDETERMINISTIC"
        print(f"service_mix.models[{name}].deterministic: {ok}  [{verdict}]")
        if not ok:
            failures.append(f"service_mix.models.{name}.deterministic")
    for name, bm in sorted(base_models.items()):
        cm = cur_models.get(name)
        if cm is None:
            print(f"service_mix.models[{name}]: missing from current report "
                  "[MISSING]")
            failures.append(f"service_mix.models.{name}")
            continue
        if bm.get("legacy") and configs_match:
            b_ns, c_ns = bm["makespan_ns"], cm["makespan_ns"]
            verdict = "ok" if b_ns == c_ns else "MISMATCH"
            print(f"service_mix.models[{name}].makespan_ns: baseline {b_ns}  "
                  f"current {c_ns}  [{verdict}]")
            if b_ns != c_ns:
                failures.append(f"service_mix.models.{name}.makespan_ns")


def print_host_speedup(name, sect, rates, base_rate):
    """Informational: the speedup at min(hw_threads, 8) workers, the host's
    own thread count (speedup_8w on a smaller host measures threads sharing
    cores). Uses the largest measured worker count not above it."""
    hw = sect.get("hw_threads", 0)
    target = min(hw, 8)
    counts = [int(k) for k in rates if int(k) <= target]
    if not counts or not base_rate:
        print(f"{name}: no point at <= {target} workers (hw_threads {hw}) "
              "[informational]")
        return
    w = max(counts)
    print(f"{name}.speedup_{w}w: {rates[str(w)] / base_rate:.3g} "
          f"(min(hw_threads {hw}, 8) workers) [informational]")


def check_parallel(base, cur, floor, failures):
    """Gate the parallel-DES section: hard determinism, conditional speedup."""
    par = section_or_fail("parallel", base, cur, failures)
    if par is None:
        return
    ok = par.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"parallel.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("parallel.determinism_ok")

    speedup = par.get("speedup_8w", 0.0)
    hw = par.get("hw_threads", 0)
    if hw >= 8:
        verdict = "ok" if speedup >= floor else "REGRESSION"
        print(f"parallel.speedup_8w: {speedup:.3g} (floor {floor}, "
              f"hw_threads {hw}) [{verdict}]")
        if speedup < floor:
            failures.append("parallel.speedup_8w")
    else:
        # Fewer hardware threads than workers: the barrier protocol still
        # proves determinism, but speedup cannot manifest. Report, don't gate.
        print(f"parallel.speedup_8w: {speedup:.3g} (hw_threads {hw} < 8) "
              "[informational]")
    print_host_speedup("parallel", par, par.get("workers", {}),
                       par.get("serial_events_per_sec", 0))


def check_engine_parallel(base, cur, floor, serial_floor, failures):
    """Gate the concurrent-engine section: hard determinism, conditional
    speedup, and (opt-in) a serial-throughput floor so parallel wins cannot
    be bought by slowing the 1-worker path down."""
    par = section_or_fail("engine_parallel", base, cur, failures)
    if par is None:
        return
    ok = par.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"engine_parallel.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("engine_parallel.determinism_ok")

    speedup = par.get("speedup_8w", 0.0)
    hw = par.get("hw_threads", 0)
    if hw >= 8:
        verdict = "ok" if speedup >= floor else "REGRESSION"
        print(f"engine_parallel.speedup_8w: {speedup:.3g} (floor {floor}, "
              f"hw_threads {hw}) [{verdict}]")
        if speedup < floor:
            failures.append("engine_parallel.speedup_8w")
    else:
        print(f"engine_parallel.speedup_8w: {speedup:.3g} (hw_threads {hw} < 8) "
              "[informational]")
    rates = par.get("workers_walks_per_sec", {})
    print_host_speedup("engine_parallel", par, rates, rates.get("1", 0))

    serial = cur.get("engine_parallel", {}).get(
        "workers_walks_per_sec", {}).get("1", 0)
    if serial_floor is not None:
        # Explicit absolute floor: same-machine runs only.
        verdict = "ok" if serial >= serial_floor else "REGRESSION"
        print(f"engine_parallel.workers_walks_per_sec[1]: {serial} "
              f"(floor {serial_floor}) [{verdict}]")
        if serial < serial_floor:
            failures.append("engine_parallel.serial_floor")
    else:
        base_serial = base.get("engine_parallel", {}).get(
            "workers_walks_per_sec", {}).get("1", 0)
        print(f"engine_parallel.workers_walks_per_sec[1]: baseline {base_serial}  "
              f"current {serial}  [informational]")


def check_board_hub(base, cur, failures):
    """Gate the board-hub breakdown: the audit stream must be identical
    across worker counts (determinism_ok), and the per-hop cross-shard
    traffic must not regress past the batching win the baseline recorded."""
    hub = section_or_fail("board_hub", base, cur, failures)
    if hub is None:
        return
    ok = hub.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"board_hub.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("board_hub.determinism_ok")

    share = hub.get("board_share_ppm", 0)
    print(f"board_hub.board_share_ppm: {share} "
          f"(baseline {base['board_hub'].get('board_share_ppm', 0)}) "
          "[informational]")


def check_array(base, cur, floor, failures):
    """Gate the multi-SSD array section: hard determinism, conditional scaling."""
    arr = section_or_fail("array_scaling", base, cur, failures)
    if arr is None:
        return
    ok = arr.get("determinism_ok")
    verdict = "ok" if ok else "NONDETERMINISTIC"
    print(f"array_scaling.determinism_ok: {ok}  [{verdict}]")
    if not ok:
        failures.append("array_scaling.determinism_ok")

    scaling = arr.get("scaling_4dev", 0.0)
    hw = arr.get("hw_threads", 0)
    if hw >= 8:
        verdict = "ok" if scaling >= floor else "REGRESSION"
        print(f"array_scaling.scaling_4dev: {scaling:.3g} (floor {floor}, "
              f"hw_threads {hw}) [{verdict}]")
        if scaling < floor:
            failures.append("array_scaling.scaling_4dev")
    else:
        print(f"array_scaling.scaling_4dev: {scaling:.3g} (hw_threads {hw} < 8) "
              "[informational]")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--parallel-floor", type=float, default=3.0,
                    help="minimum 8-worker speedup over the serial sharded "
                         "baseline, gated only on hosts with >= 8 hardware "
                         "threads (default 3.0)")
    ap.add_argument("--engine-floor", type=float, default=2.5,
                    help="minimum 8-worker concurrent-engine walks/sec speedup "
                         "over the 1-worker run, gated only on hosts with >= 8 "
                         "hardware threads (default 2.5)")
    ap.add_argument("--array-floor", type=float, default=2.0,
                    help="minimum 4-device array walks/sec ratio over the "
                         "single-device run, gated only on hosts with >= 8 "
                         "hardware threads (default 2.0)")
    ap.add_argument("--serial-floor", type=float, default=None,
                    help="absolute floor on the 1-worker concurrent-engine "
                         "walks/sec (same-machine runs only); "
                         "guards against buying parallel speedup by slowing "
                         "the serial path. Off by default.")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    failures = []

    if e2e_config(base) == e2e_config(cur):
        b_ns, c_ns = base["e2e"]["sim_exec_ns"], cur["e2e"]["sim_exec_ns"]
        verdict = "ok" if b_ns == c_ns else "MISMATCH"
        print(f"sim_exec_ns: baseline {b_ns}  current {c_ns}  [{verdict}]")
        if b_ns != c_ns:
            failures.append("sim_exec_ns")
            print("  simulated time diverged for an identical config+seed: either a\n"
                  "  determinism bug or an intentional model change. If intentional,\n"
                  "  regenerate the baseline (bench/sim_hotpath --quick --parallel\n"
                  "  --out BENCH_sim.json, then bench/service_mix --merge-into\n"
                  "  BENCH_sim.json and bench/array_scaling --walks 5000\n"
                  "  --merge-into BENCH_sim.json) and commit it with the change.",
                  file=sys.stderr)
    else:
        print(f"sim_exec_ns: configs differ ({e2e_config(base)} vs {e2e_config(cur)}), "
              "determinism check skipped")

    check_service_mix(base, cur, failures)
    check_parallel(base, cur, args.parallel_floor, failures)
    check_engine_parallel(base, cur, args.engine_floor, args.serial_floor, failures)
    check_board_hub(base, cur, failures)
    check_array(base, cur, args.array_floor, failures)

    if failures:
        print(f"regression: FAILED ({', '.join(failures)})", file=sys.stderr)
        return 1
    print("regression: all checks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
