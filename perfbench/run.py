#!/usr/bin/env python3
"""Campaign benchmark: seeded Hobbit campaigns timed end to end.

Run from the repository root:

    python3 perfbench/run.py --workload paper-static --seed 1 --seconds 40 --trace 0

It builds the benchmark package (`perfbench/Cargo.toml`, release, into
`$CARGO_TARGET_DIR`, default `.bench_build`), then runs closed-batch
campaigns one at a time, each in a fresh process so that every campaign's
memory high-water mark is its own. A seed names a batch of `WORLDS`
worlds, world seeds `WORLDS * seed + i`: one cycle runs one campaign on
each, and the run repeats whole cycles while `--seconds` allow (at least
one). Averaging over several worlds keeps one world's size and shape from
setting the run's figures. Every campaign's outputs are checked: the
conformance oracle finds no mismatch, and each world's `hobbit-report/v1`
canonical report and Hobbit dataset are byte-identical across its
campaigns.

`--trace 0` prints the end-to-end metrics; `--trace 1` also runs one traced
campaign on the first world afterwards and prints the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Metric names and units come from `BENCHMARK.json` at the
repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORLDS = 4
CAMPAIGN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target_dir, binaries):
    """Build the named benchmark binaries; returns their directory or exits.

    Each binary builds on its own, so the untraced benchmark still runs
    when the traced one no longer compiles against the program.
    """
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    cmd += [flag for b in binaries for flag in ("--bin", b)]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"error: build failed: {e}")
        sys.exit(2)
    if done.returncode != 0:
        log(f"error: build failed with exit code {done.returncode}")
        sys.exit(2)
    return os.path.join(target_dir, "release")


def campaign(binary, workload, seed, run_dir):
    """Run one campaign process; returns its summary (errors listed)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--run-dir", run_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CAMPAIGN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"campaign timed out after {CAMPAIGN_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"errors": [f"exit code {done.returncode}: {' | '.join(tail)}"]}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError) as e:
        return {"errors": [f"unreadable campaign output: {e}"]}


def quartiles(values):
    if len(values) < 2:
        return values * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"error: unknown workload {args.workload}")
        sys.exit(2)
    target_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    bin_dir = build(target_dir,
                    ["campaign", "traced"] if args.trace else ["campaign"])
    run_dir = os.path.join(target_dir, "perfbench-runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")

    worlds = [WORLDS * args.seed + i for i in range(WORLDS)]
    runs = {w: [] for w in worlds}
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for w in worlds:
            runs[w].append(campaign(os.path.join(bin_dir, "campaign"),
                                    args.workload, w, run_dir))
        cycle = time.monotonic() - t
        if time.monotonic() - start + cycle > args.seconds:
            break
    traced = None
    if args.trace:
        traced = campaign(os.path.join(bin_dir, "traced"), args.workload,
                          worlds[0], run_dir)

    counted = {w: runs[w] + ([traced] if traced and w == worlds[0] else [])
               for w in worlds}
    errors = [e for w in worlds for r in counted[w] for e in r.get("errors", [])]
    ok = {w: [r for r in runs[w] if not r.get("errors")] for w in worlds}
    # Every deterministic output must repeat exactly across the campaigns
    # of one world, traced run included.
    for w in worlds:
        for key in ("report", "dataset", "probes", "homog_verdicts",
                    "homog_confirmed", "selected"):
            if len({json.dumps(r.get(key), sort_keys=True)
                    for r in counted[w]}) > 1:
                errors.append(f"{key} differs between campaigns of world {w}")

    # A block fails if it is quarantined or missing from the report; when
    # a campaign errors or a check fails, every block of the run fails.
    first = {w: ok[w][0] if ok[w] else {} for w in worlds}
    fallback = max((f.get("selected", 0) for f in first.values()), default=0)
    selected = {w: first[w].get("selected", 0) or fallback or 1 for w in worlds}
    attempted = sum(selected[w] * len(counted[w]) for w in worlds)
    failed = sum(r.get("failed", 0) for w in worlds for r in counted[w])
    if errors:
        failed = attempted
        for e in errors[:10]:
            log(f"check failed: {e}")

    # A world's time is the median of its campaigns; the run's, the mean
    # over its worlds (every world runs the same number of campaigns).
    times = {w: [r["campaign_s"] for r in ok[w]] for w in worlds}
    campaign_s = statistics.fmean(
        [statistics.median(times[w] or [0.0]) for w in worlds])
    setups = [s for w in worlds for r in ok[w] for s in r["setup_s"]]
    every = [t for w in worlds for t in times[w]]
    log(f"{args.workload} seed {args.seed}: {len(every)} campaigns on "
        f"worlds {worlds}, campaign_s min/q1/median/q3/max = "
        + "/".join(f"{v:.3f}" for v in
                   [min(every or [0.0])] + quartiles(every or [0.0])
                   + [max(every or [0.0])])
        + f", mean over worlds {campaign_s:.3f}, setups {len(setups)}")

    if args.trace:
        for span in (traced or {}).get("spans", []):
            indent = "  " if span["parent"] else ""
            log(f"span {indent}{span['name']}: "
                f"{span['end_s'] - span['start_s']:.6f} s")
        values = {}
        if traced and "layers" in traced:
            values = {k: v["value"] for k, v in traced["layers"].items()}
            values["obs.overhead_s"] = (
                traced["campaign_s"]
                - statistics.median(times[worlds[0]] or [0.0]))
        wanted = spec["per_layer"]
    else:
        probes = sum(first[w].get("probes", {}).get("methodology", 0)
                     for w in worlds)
        verdicts = sum(first[w].get("homog_verdicts", 0) for w in worlds)
        confirmed = sum(first[w].get("homog_confirmed", 0) for w in worlds)
        values = {
            "campaign_s": campaign_s,
            "setup_s": statistics.median(setups or [0.0]),
            "probes_per_block": probes / sum(selected.values()),
            "peak_rss_mb": statistics.median(
                [r["peak_rss_mb"] for w in worlds for r in ok[w]] or [0.0]),
            "homog_precision": confirmed / verdicts if verdicts else 0.0,
            "ok_share": 1.0 - failed / attempted,
        }
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
