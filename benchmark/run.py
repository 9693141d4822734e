#!/usr/bin/env python3
"""The FlashWalker benchmark: builds fwbench and runs the workloads.

One workload, as the benchmark contract runs it (the last stdout line is the
result object; --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones):

    python3 benchmark/run.py --workload tt_deepwalk --seed 42 --seconds 10 --trace 0

Every workload, one after another (10 timed reps each, plus the audit,
traced and replay runs). A workload runs as two fwbench processes: a short
one that measures peak RSS, then the timed one.

    python3 benchmark/run.py [--seed 42] [--workloads a,b] [--reps 10] [--quick]

Both modes print every metric with its unit and write results.json and
spans.json (default: build-bench/). See benchmark/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["tt_deepwalk", "tt_deepwalk_4w", "cw_deepwalk", "fs_service_mix"]
# A contract run must end within 180 s of the build; leave room for output.
RUN_DEADLINE_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build(build_dir):
    """Configure and build fwbench (Release); returns the binary path."""
    subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "fwbench",
                    "-j", str(nproc())], check=True, stdout=sys.stderr)
    return build_dir / "fwbench"


def fwbench(cmd, out, deadline):
    """Run one fwbench process; returns (exit code, its result dict)."""
    if out.exists():
        out.unlink()
    log(f"== {' '.join(cmd[1:])}")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    if not out.exists():
        raise RuntimeError(f"fwbench exited {proc.returncode} without a result")
    return proc.returncode, json.loads(out.read_text())


def run_workload(exe, name, args, scale, out_dir, deadline):
    """Run one workload: a peak-RSS process, then the timed process."""
    pins = json.loads((BENCH_DIR / "fingerprints.json").read_text())[scale]
    cmd = [str(exe), "--workload", name, "--seed", str(args.seed),
           "--fingerprint", pins[name]]
    if args.quick:
        cmd.append("--quick")
    rss_out = out_dir / f"{name}.rss.json"
    rss_code, rss = fwbench(cmd + ["--peak-rss", "--out", str(rss_out)], rss_out, deadline)
    out = out_dir / f"{name}.json"
    timed = cmd + ["--seconds", str(args.seconds), "--reps", str(args.reps), "--out", str(out)]
    if args.layers:
        timed.append("--layers")
    code, result = fwbench(timed, out, deadline)

    value = rss["peak_rss_mib"]
    result["metrics"]["peak_rss_mib"] = {"value": value, "unit": "MiB", "q1": value,
                                         "q3": value, "min": value, "max": value, "n": 1}
    result["checks"] += [dict(c, name="peak_rss." + c["name"]) for c in rss["checks"]]
    result["exit_code"] = code or rss_code
    result["correct"] = result["exit_code"] == 0 and all(c["ok"] for c in result["checks"])
    if rss_code != 0:
        fail_all(result)
    return result


def fail_all(result):
    """A check failed outside the timed reps: void every timed walk."""
    result["correct"] = False
    result["failed_walks"] = result["attempted_walks"]
    result["metrics"]["walk_fail_ratio"].update(value=1.0, q1=1.0, q3=1.0, min=1.0, max=1.0)


def environment(build_dir, args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Ceiling: never pick up a repository above the checkout.
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, env=git_env,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    build_type = "unknown"
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    return {"nproc": nproc(), "hw_threads": os.cpu_count(), "cpu_model": cpu,
            "build_type": build_type, "git_commit": commit, "seed": args.seed,
            "reps": args.reps, "seconds": args.seconds, "quick": args.quick,
            "layers": args.layers}


def check_worker_counts(results):
    """tt_deepwalk_4w runs tt_deepwalk's inputs at 4 DES workers: when both
    ran, every instance's simulated digest must match. A mismatch fails the
    4-worker workload and all of its walks."""
    one, four = results.get("tt_deepwalk"), results.get("tt_deepwalk_4w")
    if one is None or four is None:
        return
    ok = one["instance_digests"] == four["instance_digests"]
    four["checks"].append({"name": "instance_digests_match_tt_deepwalk", "ok": ok,
                           "detail": f"{four['instance_digests']} vs {one['instance_digests']}"})
    if not ok:
        fail_all(four)


def print_metrics(name, result):
    log(f"-- {name}: {result['timed_reps']} timed reps, sim_threads "
        f"{result['sim_threads']}, correct={result['correct']}")
    for check in result["checks"]:
        if not check["ok"]:
            log(f"   FAILED {check['name']}: {check['detail']}")
    for metric, m in sorted(result["metrics"].items()):
        spread = "" if m["n"] == 1 else f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']}]"
        log(f"   {metric:34s} {m['value']:>16.6g} {m['unit']}{spread}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", help="run this one workload (contract mode)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--seed", type=int, default=42, help="workload seed (default 42)")
    ap.add_argument("--seconds", type=float, help="time reps for at least S seconds")
    ap.add_argument("--reps", type=int, help="at least N timed reps")
    ap.add_argument("--trace", type=int, choices=[0, 1],
                    help="1: add the per-layer runs and report per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="test-scale inputs, 2 reps (the ctest preset)")
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build-bench")
    ap.add_argument("--out", type=Path, help="results directory (default: build dir)")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    single = args.workload is not None
    names = [args.workload] if single else (
        args.workloads.split(",") if args.workloads else WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; choose from {WORKLOADS}")
    if args.reps is None:
        args.reps = 2 if args.quick else (3 if single else 10)
    if args.seconds is None:
        args.seconds = 0.0
    # The full run measures every layer; a single contract run only when asked.
    args.layers = args.trace == 1 if single else args.trace != 0
    scale = "test" if args.quick else "bench"

    build_dir = args.build_dir.resolve()
    out_dir = (args.out or build_dir).resolve()
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"run.py: build failed: {e}")
        return 1
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    deadline = time.monotonic() + RUN_DEADLINE_S if single else None
    for name in names:
        try:
            results[name] = run_workload(exe, name, args, scale, out_dir, deadline)
        except (OSError, RuntimeError, subprocess.SubprocessError) as e:
            log(f"run.py: {name}: {e}")
            return 1
    check_worker_counts(results)
    for name, result in results.items():
        print_metrics(name, result)

    spans = {name: r.pop("spans") for name, r in results.items()}
    (out_dir / "results.json").write_text(json.dumps(
        {"env": environment(build_dir, args), "workloads": results}, indent=1) + "\n")
    (out_dir / "spans.json").write_text(json.dumps(spans, indent=1) + "\n")
    log(f"wrote {out_dir / 'results.json'} and {out_dir / 'spans.json'}")

    kind = "per_layer" if args.layers and single else "end_to_end"
    wanted = [m["name"] for m in spec[kind]]
    metrics = {}
    for name, r in results.items():
        for metric in wanted:
            key = metric if single else f"{name}.{metric}"
            m = r["metrics"].get(metric)
            if m is None:
                log(f"run.py: {name} did not report {metric}")
                return 1
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted_walks"] for r in results.values()),
        "failed": sum(r["failed_walks"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
