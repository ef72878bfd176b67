"""One workload in one child process; started by run.py, not by hand.

    worker.py setup    SPEC   set up only; report the set-up time
    worker.py prepare  SPEC   set up, report the set-up time, compute the
                              known answers and save the workload to the
                              workdir
    worker.py run      SPEC   load the prepared workload, run passes, check

The run child does no set-up and computes no answers, so its peak resident
memory is that of the timed passes (and of loading the prepared workload).

SPEC is a JSON object with workload, seed, seconds, trace, scale,
wrong_answer, workdir and result (the file the report is written to).
Times are reported in reference seconds (see speed.py), raw wall times
alongside.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time starts before the library is imported

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import multicat  # noqa: E402

if not os.path.abspath(multicat.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"multicat was imported from {multicat.__file__}, not from this checkout")

from speed import Sampler  # noqa: E402
from tracing import COUNT, OP, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, call  # noqa: E402


def setup(spec: dict, sampler: Sampler):
    """Set the workload up; return it and (start, end, time less sampling)."""
    wl = WORKLOADS[spec["workload"]]()
    wl.setup(spec["workdir"], spec["seed"], spec["scale"])
    end = time.perf_counter()
    return wl, (T0, end, end - T0 - sampler.spent)


def run_pass(ops, tracer: Tracer | None, sampler: Sampler) -> tuple[list[tuple], int]:
    """Time every operation of one pass; checks run outside the timing.

    Returns (start, end, wall time less sampling) of each operation and the
    number of operations whose output failed its check.
    """
    timed, failed = [], 0
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        with tracer.span(OP) if tracer is not None else nullcontext():
            spent = sampler.spent
            t0 = time.perf_counter()
            got = call(op.run)
            t1 = time.perf_counter()
        timed.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
        try:
            ok = op.check(got)
        except Exception:  # a malformed output is a wrong answer
            ok = False
        failed += not ok
    return timed, failed


def layer_metrics(rows: dict, counts: dict, scale: float) -> dict:
    """Per-layer metrics of one traced pass, times scaled like the pass."""

    def time_of(name, what):
        return rows.get(name, {}).get(what, 0.0) * scale

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    return {
        "serialize.parse_s": time_of("serialize.parse", "incl"),
        "serialize.serialize_s": time_of("serialize.serialize", "incl"),
        "serialize.bytes": counts.get("serialize.bytes", 0),
        "cli.main_self_s": time_of("cli.main", "self"),
        "core.validate_multiple_set_s": time_of("core.validate_multiple_set", "incl"),
        "core.validate_multiple_set_calls": calls("core.validate_multiple_set"),
        "reflexive.validate_reflexive_s": time_of("reflexive.validate_reflexive", "incl"),
        "reflexive.validate_reflexive_calls": calls("reflexive.validate_reflexive"),
        "magma.validate_magma_s": time_of("magma.validate_magma", "incl"),
        "magma.validate_magma_calls": calls("magma.validate_magma"),
        "magma.validate_reflexive_magma_self_s": time_of("magma.validate_reflexive_magma", "self"),
        "magma.composable_pairs_s": time_of("magma.composable_pairs", "incl"),
        "magma.pairs_returned": counts.get("magma.pairs_returned", 0),
        "stretching.validate_stretching_self_s": time_of("stretching.validate_stretching", "self"),
        "strictcat.saturate_s": time_of("strictcat.saturate", "incl"),
        "strictcat.saturate_calls": calls("strictcat.saturate"),
        "strictcat.free_strict_self_s": time_of("strictcat.free_strict", "self"),
        "strictcat.nodes": counts.get("strictcat.nodes", 0),
        "strictcat.classes": counts.get("strictcat.classes", 0),
        "strictcat.quotient_s": time_of("strictcat.quotient", "incl"),
        "strictcat.validate_strict_self_s": time_of("strictcat.validate_strict", "self"),
        "reversors.search_s": time_of("reversors.search", "incl"),
        "reversors.structures_found": counts.get("reversors.structures_found", 0),
        "reflexive.free_reflexive_s": time_of("reflexive.free_reflexive", "incl"),
        "reflexive.cells_built": counts.get("reflexive.cells_built", 0),
        "stretching.free_weak_self_s": time_of("stretching.free_weak", "self"),
        "stretching.cells_built": counts.get("stretching.cells_built", 0),
        "stretching.cells_logged": counts.get("stretching.cells_logged", 0),
        # layer spans only: the operation wrapper's self time is time no
        # layer covers, and the counters' time is the tracer's own
        "trace.self_total_s": sum(r["self"] for name, r in rows.items()
                                  if name not in (OP, COUNT)) * scale,
        "trace.uncovered_s": time_of(OP, "self"),
    }


def state_path(spec: dict) -> str:
    return os.path.join(spec["workdir"], "prepared.pickle")


def prepare(spec: dict, sampler: Sampler) -> tuple:
    """Set up, then compute the known answers and save the workload."""
    wl, interval = setup(spec, sampler)
    wl.answers()
    with open(state_path(spec), "wb") as fh:
        pickle.dump(wl, fh)
    return interval


def run(spec: dict, sampler: Sampler) -> dict:
    with open(state_path(spec), "rb") as fh:
        wl = pickle.load(fh)
    ops = wl.ops()
    if spec["wrong_answer"]:
        right = ops[0].check
        ops[0].check = lambda got: not right(got)

    tracer = Tracer() if spec["trace"] else None
    passes = []  # (traced, timed operations, span summary, counts)
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # in a traced run, every other pass is traced
        tracing = tracer is not None and len(passes) % 2 == 1
        if tracing:
            tracer.spans, tracer.counts = [], {}
            tracer.install()
        gc.collect()
        pass_start = time.perf_counter()
        timed, bad = run_pass(ops, tracer if tracing else None, sampler)
        if tracing:
            tracer.uninstall()
            passes.append((True, timed, summarize(tracer.spans), tracer.counts))
        else:
            passes.append((False, timed, None, None))
        attempted += len(timed)
        failed += bad
        now = time.perf_counter()
        # stop before a pass like the last one would overrun the run length
        need_more = tracer is not None and len(passes) < 2
        if not need_more and (now - start) + (now - pass_start) > spec["seconds"]:
            break
    sampler.settle()

    untraced, untraced_raw, traced, layers, op_times = [], [], [], [], []
    for tracing, timed, rows, counts in passes:
        scaled = [dt * sampler.scale(t0, t1) for t0, t1, dt in timed]
        if tracing:
            traced.append(sum(scaled))
            # spans include sampling time; spread the scaling over them evenly
            layers.append(layer_metrics(rows, counts,
                                        sum(scaled) / sum(t1 - t0 for t0, t1, _ in timed)))
        else:
            untraced.append(sum(scaled))
            untraced_raw.append(sum(dt for _, _, dt in timed))
            op_times.append(scaled)
    result = {
        "attempted": attempted,
        "failed": failed,
        "pass_s": untraced,
        "pass_raw_s": untraced_raw,
        "op_times_s": op_times,  # per untraced pass
    }
    if tracer is not None:
        per_pass = {k: statistics.fmean(row[k] for row in layers) for k in layers[0]}
        built = per_pass.pop("stretching.cells_built")
        logged = per_pass.pop("stretching.cells_logged")
        # means, like the per-layer figures, so that self times add up to traced_wall
        untraced_wall, traced_wall = statistics.fmean(untraced), statistics.fmean(traced)
        per_pass.update({
            "stretching.cells_built": built,
            "stretching.logged_over_built": logged / built if built else 0.0,
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / untraced_wall - 1,
        })
        result["traced_passes"] = len(traced)
        result["layers"] = per_pass
    return result


def main(argv: list[str]) -> int:
    mode, spec = argv[0], json.loads(argv[1])
    sampler = Sampler()
    sampler.start()
    if mode == "run":
        result = run(spec, sampler)
    else:
        if mode == "setup":
            _, (t0, t1, setup_raw_s) = setup(spec, sampler)
        else:
            t0, t1, setup_raw_s = prepare(spec, sampler)
        sampler.settle()
        result = {"setup_s": setup_raw_s * sampler.scale(t0, t1), "setup_raw_s": setup_raw_s}
    sampler.stop()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
