"""The multicat benchmark: end-to-end metrics, a traced run, and a comparison.

Measure one workload (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out results.jsonl]

Each run starts fresh child processes, one at a time: with ``--trace 0``,
six that only set up (for the set-up time), one that sets up and computes
the known answers, and one that loads that prepared work and runs the
workload as a closed loop with one client for ``--seconds`` seconds,
checking every output outside the timed region.
Times are reported in reference seconds (see speed.py).
With ``--trace 1`` the run child alternates untraced and traced passes and
the run reports the per-layer metrics instead.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out`` also appends the full record (with the seed) to a
JSON-lines file.

Compare two result sets (JSON-lines files written with ``--out``):

    python3 perfbench/run.py compare BASE.jsonl CHANGE.jsonl --claim METRIC@WORKLOAD

The claimed metric counts as improved only if at least ten run pairs were
measured, the change wins at least 9/10 of them, the medians differ by more
than the base's interquartile range, and the change fails no more
operations than the base on any workload; every other metric and workload,
and the failed operations of each workload, are reported as
unchanged, regressed, improved or unresolved against the bounds in
BENCHMARK.json.  baseline_seed.json holds the figures of the commit the
benchmark was first measured on.

The benchmark uses only the standard library, and imports ``multicat``
from ``src/`` and the oracles from ``tests/`` of the checkout it runs in.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_REPEATS = 7  # set-up samples per untraced run; setup_s is their median
RUN_LIMIT_S = 170  # the whole run, children included, ends within this


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- children ------------------------------------------------------------------


def run_child(mode: str, spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; return its report and peak RSS in MB."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, WORKER, mode, json.dumps(spec)],
                            stdout=sys.stderr, env=env, cwd=ROOT)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"{mode} child ran past the run's time limit")
            time.sleep(0.02)
    except BaseException:  # a time-out or a signal: stop the child, then go on
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited with code {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(args) -> dict:
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        base = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "trace": args.trace, "scale": args.scale, "wrong_answer": args.wrong_answer}
        setup_samples, setup_raw = [], []
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                sub = os.path.join(workdir, f"setup{i}")
                os.mkdir(sub)
                spec = dict(base, workdir=sub, result=os.path.join(sub, "result.json"))
                report, _ = run_child("setup", spec, deadline)
                setup_samples.append(report["setup_s"])
                setup_raw.append(report["setup_raw_s"])
                shutil.rmtree(sub)  # every set-up writes into the same file-system state
        # the last set-up also computes the known answers; the run child
        # only loads its work, so the run child's peak RSS is the passes'
        sub = os.path.join(workdir, "run")
        os.mkdir(sub)
        spec = dict(base, workdir=sub, result=os.path.join(workdir, "result.json"))
        prepared, prepare_peak_rss_mb = run_child("prepare", spec, deadline)
        setup_samples.append(prepared["setup_s"])
        setup_raw.append(prepared["setup_raw_s"])
        report, peak_rss_mb = run_child("run", spec, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    per_pass = report["op_times_s"]
    attempted, failed = report["attempted"], report["failed"]
    if args.trace:
        metrics = report["layers"]
    else:
        metrics = {
            "wall_s": statistics.median(report["pass_s"]),
            # each pass's percentile, then the median over the passes.  The
            # heavy workloads run a few operations of a few classes a pass,
            # so a percentile over all passes at once would sit on the edge
            # of a class and read its fastest or slowest run.  The upper
            # median is a measured operation, where an interpolated one
            # would average the two classes in the middle.
            "op_p50_ms": statistics.median(statistics.median_high(p) for p in per_pass) * 1e3,
            "op_p99_ms": statistics.median(quantile(p, 99) for p in per_pass) * 1e3,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_samples),
            "ops_ok_frac": (attempted - failed) / attempted,
        }
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "python": sys.version.split()[0],
        "passes": len(report["pass_s"]), "ops_timed": sum(map(len, per_pass)),
        "pass_s": report["pass_s"], "pass_raw_s": report["pass_raw_s"],
        "setup_samples_s": setup_samples, "setup_raw_samples_s": setup_raw,
        "prepare_peak_rss_mb": prepare_peak_rss_mb,
        "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "metrics": metrics,
    }


def print_run(record: dict, spec: dict):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"scale={record['scale']} passes={record['passes']} ops_timed={record['ops_timed']}")
    print(f"attempted={record['attempted']} failed={record['failed']} "
          f"ops_failed_frac={record['ops_failed_frac']:.6g}")
    print(f"raw wall times (not scaled to the reference speed): "
          f"pass median {statistics.median(record['pass_raw_s']):.6g} s, "
          f"set-up median {statistics.median(record['setup_raw_samples_s']):.6g} s")
    print(f"peak RSS of set-up and known answers (not of the timed passes): "
          f"{record['prepare_peak_rss_mb']:.6g} MB")
    for name, value in record["metrics"].items():
        print(f"{name} = {value:.6g} {units.get(name, '')}")
    if record["trace"]:
        m = record["metrics"]
        gap = m["trace.self_total_s"] / m["trace.untraced_wall_s"] - 1
        print(f"coverage: the layer spans' self times add up to {m['trace.self_total_s']:.6g} s, "
              f"{gap:+.4f} of the untraced wall_s {m['trace.untraced_wall_s']:.6g} s "
              f"(trace.overhead_frac {m['trace.overhead_frac']:.4f})")
    line = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }
    print(json.dumps(line))


# -- comparison ----------------------------------------------------------------


def read_results(path: str) -> tuple[dict, dict]:
    """(workload, metric) -> [(seed, value)] in file order, and
    workload -> [attempted, failed] summed over the file's runs."""
    out: dict = {}
    ops: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, value in rec["metrics"].items():
                    out.setdefault((rec["workload"], name), []).append((rec["seed"], value))
                tally = ops.setdefault(rec["workload"], [0, 0])
                tally[0] += rec["attempted"]
                tally[1] += rec["failed"]
    return out, ops


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs_of(base: list, change: list) -> list[tuple[float, float]]:
    """Pair runs by seed where both sides ran it, else by position."""
    by_seed = dict(change)
    if all(seed in by_seed for seed, _ in base):
        return [(value, by_seed[seed]) for seed, value in base]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


MIN_PAIRS = 10  # run pairs a claim needs (choosing-metrics, section 8)


def compare(base_path: str, change_path: str, claim: str | None) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    (base, base_ops), (change, change_ops) = read_results(base_path), read_results(change_path)
    claim_key = tuple(reversed(claim.split("@", 1))) if claim else None
    verdict = 0
    # a change that fails more operations than the base regressed, whatever
    # its times, and meets no claim
    more_failures = []
    for workload in sorted(set(base_ops) & set(change_ops)):
        (b_att, b_fail), (c_att, c_fail) = base_ops[workload], change_ops[workload]
        status = "regressed" if c_fail > b_fail else "unchanged"
        if c_fail > b_fail:
            more_failures.append(workload)
            verdict = 1
        print(f"{status:13} {workload:15} {'failed operations':40} "
              f"base {b_fail}/{b_att} change {c_fail}/{c_att}")
    for key in sorted(set(base) & set(change)):
        workload, name = key
        meta = metrics[name]
        sign = 1 if meta["better"] == "lower" else -1
        b = [v for _, v in base[key]]
        c = [v for _, v in change[key]]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        pairs = pairs_of(base[key], change[key])
        wins = sum(1 for bv, cv in pairs if sign * (cv - bv) < 0)
        row = (f"{workload:15} {name:40} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}] "
               f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] wins {wins}/{len(pairs)}")
        if key == claim_key:
            gained = (len(pairs) >= MIN_PAIRS and not more_failures
                      and wins >= 0.9 * len(pairs) and sign * (bmed - cmed) > bq3 - bq1)
            status = "CLAIM MET" if gained else "CLAIM NOT MET"
            verdict |= 0 if gained else 1
            if len(pairs) < MIN_PAIRS:
                row += f" (needs {MIN_PAIRS} pairs)"
            if more_failures:
                row += f" (more failed operations on {', '.join(more_failures)})"
        elif "bound" not in meta:
            status = "per-layer"
        else:
            bound = meta["bound"] * abs(bmed)
            spread = bq3 - bq1
            worse = sign * (cmed - bmed)
            every_run_better = max(c) < min(b) if sign > 0 else min(c) > max(b)
            if every_run_better:
                status = "improved"
            elif spread > bound:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
                verdict |= 1
            else:
                status = "unchanged"
        print(f"{status:13} {row}")
    if claim_key and claim_key not in base:
        print(f"no results for the claimed {claim}")
        verdict = 1
    return verdict


# -- entry point ---------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        parser.add_argument("--claim", help="METRIC@WORKLOAD the change claims to improve")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.change, args.claim)

    spec = load_spec()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    # the smoke tests run every workload at a tiny scale, and with one
    # deliberately wrong known answer
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--wrong-answer", action="store_true")
    args = parser.parse_args(argv)

    # a terminated benchmark stops its child and removes its files first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for needed in ("src/multicat/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found under {ROOT}", file=sys.stderr)
            return 2
    try:
        record = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print_run(record, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
