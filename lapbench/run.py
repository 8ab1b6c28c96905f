#!/usr/bin/env python3
"""End-to-end benchmark of the paper-scale simulator.

    python3 lapbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lapbench/run.py --self-test

Run from the repository root. It builds `lapbench` (this directory's
package) and the `experiments` binary in release mode under
$CARGO_TARGET_DIR (default `.bench_build`), then repeats whole rounds of
the workload, one process per round and one simulation at a time, for
about S seconds. Each round's wall time, CPU time and peak RSS are taken
from the finished process (wait4), so they cover exactly the work a user
of that command pays for. Every process of a round runs on one vCPU,
beside `lapbench probe`, which times a fixed kernel there; the round's
times are scaled by the host speed it reports (see README.md). Every
metric is the median over the run's rounds.

With --trace 1 the rounds are traced runs instead (`lapbench traced`),
which give the per-layer metrics. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. See README.md for
the workloads, metrics and checks.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("charisma-xfs", "sprite-figures")
# Set-ups timed after each round, each in a fresh process as a user pays
# it; with three to five rounds a run, setup_s is a median of 9-15.
SETUPS = 3
# The probe kernel's median time at the host speed that times are scaled
# to: about its time on a quiet host of the kind this was tuned on.
KERNEL_S = 400e-6
# The vCPU that every timed process and its probe run on.
CPU = max(os.sched_getaffinity(0))


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build both binaries; exit 1 without a result if either fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "bench", "--bin", "experiments"],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("lapbench: build failed: " + " ".join(cmd))
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "lapbench"), os.path.join(release, "experiments")


def run_process(cmd, out_path):
    """Run `cmd` with stdout to `out_path`; return its stdout, wall
    seconds, CPU seconds (user + system) and peak RSS in MB."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, preexec_fn=pin)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"lapbench: {' '.join(cmd)} exited with {proc.returncode}")
    with open(out_path) as f:
        stdout = f.read()
    return stdout, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def pin():
    os.sched_setaffinity(0, {CPU})


def probed(lapbench, one_round):
    """Run `one_round` beside the probe; add the host speed it saw as
    `speed`, the quiet host's kernel time over the probe's median (1
    on a quiet host, below 1 on a slow one)."""
    probe = subprocess.Popen([lapbench, "probe"], cwd=ROOT, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, preexec_fn=pin)
    try:
        r = one_round()
    finally:
        out, _ = probe.communicate()
    r["speed"] = KERNEL_S / last_json(out.decode())["kernel_s"]
    return r


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def repeat(seconds, min_rounds, one_round):
    """Whole rounds until the next one would end past `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(one_round())
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def sprite_seed(lapbench, seed):
    """The generator seed `lapbench` draws for the Sprite input."""
    out = subprocess.run([lapbench, "seed", "sprite-figures", "--seed", str(seed)],
                         cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return last_json(out)["seed"]


def experiments_round(experiments, generator_seed, out_dir, scratch):
    """`experiments fig6 fig10` at paper scale on one worker, into a
    fresh `out_dir` so stale CSVs cannot pass the checks."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [experiments, "fig6", "fig10", "--scale", "paper", "--workers", "1",
           "--seed", str(generator_seed), "--obs", "--out", out_dir]
    stdout, wall, cpu, rss = run_process(cmd, os.path.join(scratch, "experiments.out"))
    simulations = sum(int(n) for n in re.findall(r"^\((\d+) runs,", stdout, re.M))
    return wall, cpu, rss, simulations


def end_to_end(workload, seed, seconds, lapbench, experiments, scratch):
    out = os.path.join(scratch, "round.out")
    fig_dir = os.path.join(scratch, "figures")

    def setups():
        cmd = [lapbench, "setup", workload, "--seed", str(seed)]
        return [last_json(run_process(cmd, out)[0])["setup_s"] for _ in range(SETUPS)]

    def charisma_round():
        stdout, wall, cpu, rss = run_process(
            [lapbench, "round", workload, "--seed", str(seed)], out)
        r = last_json(stdout)
        return dict(wall=wall, cpu=cpu, rss=rss, setup=setups(), reads=r["reads"],
                    attempted=r["attempted"], failed=r["failed"])

    def sprite_round():
        wall, cpu, rss, _ = experiments_round(experiments, generator_seed, fig_dir, scratch)
        r = last_json(run_process([lapbench, "figures", fig_dir, "--seed", str(seed)], out)[0])
        return dict(wall=wall, cpu=cpu, rss=rss, setup=setups(), reads=r["reads"],
                    attempted=r["attempted"], failed=r["failed"])

    def one():
        return probed(lapbench, sprite_round if workload == "sprite-figures" else charisma_round)

    if workload == "sprite-figures":
        generator_seed = sprite_seed(lapbench, seed)
    rounds = repeat(seconds, 2, one)
    # Times at the quiet host's speed.
    scaled = lambda key: statistics.median(r[key] * r["speed"] for r in rounds)
    metrics = {
        "wall_s": scaled("wall"),
        "cpu_s": scaled("cpu"),
        "setup_s": statistics.median(s * r["speed"] for r in rounds for s in r["setup"]),
        "sim_reads_per_s": statistics.median(r["reads"] / (r["wall"] * r["speed"])
                                             for r in rounds),
        "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
    }
    return rounds, metrics


def per_layer(workload, seed, seconds, lapbench, experiments, scratch):
    out = os.path.join(scratch, "traced.out")
    fig_dir = os.path.join(scratch, "figures")

    def traced_round():
        stdout, *_ = run_process([lapbench, "traced", workload, "--seed", str(seed)], out)
        r = last_json(stdout)
        if workload == "sprite-figures":
            # The simulations `experiments` itself ran for the figures.
            r["metrics"]["bench.simulations"] = experiments_round(
                experiments, generator_seed, fig_dir, scratch)[3]
        return r

    if workload == "sprite-figures":
        generator_seed = sprite_seed(lapbench, seed)
    rounds = repeat(seconds, 1, traced_round)
    names = rounds[0]["metrics"].keys()
    metrics = {k: statistics.median(r["metrics"][k] for r in rounds) for k in names}
    return rounds, metrics


def self_test(lapbench, experiments, scratch):
    """Every check at small scale, plus corrupted results that must be
    caught. Seconds, not minutes."""
    fig_dir = os.path.join(scratch, "selftest")
    shutil.rmtree(fig_dir, ignore_errors=True)
    subprocess.run([experiments, "fig6", "fig10", "--scale", "small", "--workers", "1",
                    "--seed", "42", "--obs", "--out", fig_dir],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
    return subprocess.run([lapbench, "self-test", fig_dir, "--seed", "42"], cwd=ROOT).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    lapbench, experiments = build()
    scratch = os.path.join(target_dir(), "lapbench-run")
    os.makedirs(scratch, exist_ok=True)
    if args.self_test:
        sys.exit(self_test(lapbench, experiments, scratch))

    measure = per_layer if args.trace else end_to_end
    rounds, values = measure(args.workload, args.seed, seconds,
                             lapbench, experiments, scratch)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    walls = " ".join(f"{r['wall']:.2f}s@{r['speed']:.3f}" for r in rounds if "speed" in r)
    print(f"{args.workload}: {len(rounds)} round(s) {walls}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
