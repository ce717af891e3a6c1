"""Benchmark of the sociolens CLI stages.

    python3 perfbench/run.py --workload demo-pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. With `--trace 0` the stages run
as child processes, one at a time, and the end-to-end metrics are
printed; with `--trace 1` one untraced run is followed by a traced
in-process run that gives the per-layer metrics. The last line of
standard output is one JSON object with the results. The exit code is 0
when every run passed its output checks, 1 when one did not, and 2 when
the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from stats import median, tail  # noqa: E402
from workloads import WORKLOADS, Context, output_digest  # noqa: E402

# setup_s is the median of this many set-ups, half of them before the timed
# runs and half after, so that it samples both ends of the invocation.
SETUP_REPEATS = 6
# A stage still running this long after start is killed, so a hung program fails within 180 s.
TIME_LIMIT_S = 170.0
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# Metrics named in BENCHMARK.json's end_to_end list, which every workload reports.
BOUNDED = ("setup_s", "wall_s", "peak_rss_mb")
UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "cpu_s": "s",
    "train_samples_per_s": "rows/s", "eval_rows_per_s": "rows/s",
    "homophily_draws_per_s": "draws/s", "failed_run_ratio": "ratio",
}


def blas_info() -> dict:
    """BLAS name, version and thread count as this process (and so every stage child) sees them."""
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        pass
    try:  # the OpenBLAS numpy loaded; its thread count follows the inherited environment
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "sociolens")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith(".py"):
            with open(os.path.join(src_dir, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
    }


def timed_run(workload, ctx: Context) -> dict:
    """Every timed stage as a child process, then the output checks and the digest."""
    ctx.clear_timed_outputs()
    stages = []
    start = time.perf_counter()
    for stage in workload.stages:
        result = ctx.run_stage(stage)
        stages.append(result)
        if result.exit_code != 0:
            break
    wall = time.perf_counter() - start
    errors = [f"{r.stage}: exit code {r.exit_code}" for r in stages if r.exit_code != 0]
    if not errors:
        errors = check_outputs(workload, ctx)
    return {
        "wall_s": wall,
        "stages": {r.stage: {"wall_s": r.wall_s, "maxrss_mb": r.maxrss_mb, "cpu_s": r.cpu_s} for r in stages},
        "peak_rss_mb": max(r.maxrss_mb for r in stages),
        "cpu_s": sum(r.cpu_s for r in stages),
        "errors": errors,
        "digest": output_digest(ctx.out) if not errors else None,
    }


def check_outputs(workload, ctx: Context) -> list[str]:
    try:
        return workload.check(ctx)
    except (OSError, KeyError, IndexError, ValueError, TypeError) as exc:
        return [f"output check could not read the outputs: {type(exc).__name__}: {exc}"]


def traced_run(workload, ctx: Context) -> dict:
    """The timed stages in this process under the tracer; spans are written when it ends."""
    sys.path.insert(0, os.path.join(ctx.root, "src"))
    from tracing import Tracer, layer_metrics, span_cost_s, traced_main

    ctx.clear_timed_outputs()
    tracer = Tracer()
    with open(ctx.log, "a", encoding="utf-8") as log, contextlib.redirect_stderr(log):
        start = time.perf_counter()
        try:
            codes = traced_main(tracer, [[stage, "--config", ctx.config] for stage in workload.stages])
            errors = [f"{stage}: exit code {code}" for stage, code in zip(workload.stages, codes) if code != 0]
        except Exception:  # a crash in the program fails this run, like a non-zero exit of a stage
            traceback.print_exc()
            errors = ["traced run raised; see the stage log"]
        wall = time.perf_counter() - start
    if not errors:
        errors = check_outputs(workload, ctx)
    metrics, tails = layer_metrics(tracer.spans)
    metrics["trace.span_cost_s"] = (span_cost_s() * len(tracer.spans), "s")
    return {
        "wall_s": wall,
        "errors": errors,
        "digest": output_digest(ctx.out) if not errors else None,
        "layers": metrics,
        "tails": tails,
        "spans": [s.to_dict() for s in tracer.spans],
    }


def stage_throughputs(workload, ctx: Context, runs: list[dict]) -> dict[str, float]:
    """Work units of the workload over the median wall time of the stage that does them."""
    units = workload.work_units(ctx)
    out = {}
    for metric, unit_key, stage in (
        ("train_samples_per_s", "train_samples", "train"),
        ("eval_rows_per_s", "eval_rows", "eval"),
        ("homophily_draws_per_s", "homophily_draws", "homophily"),
    ):
        if unit_key in units and stage in workload.stages:
            out[metric] = units[unit_key] / median(r["stages"][stage]["wall_s"] for r in runs)
    return out


def describe(name: str, samples: list[float], unit: str) -> str:
    pct, value = tail(samples)
    tail_text = f"p{pct:g} {value:.6g} {unit}" if pct is not None else "no percentile has 10 samples beyond"
    return f"{name} = {median(samples):.6g} {unit} (median of n={len(samples)}; {tail_text})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement budget of the timed runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "sociolens", "cli.py")) or not os.path.isfile(
        os.path.join(ROOT, "configs", "demo.json")
    ):
        print(f"no sociolens source checkout at {ROOT} (need src/sociolens and configs/demo.json)",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, "work", f"{label}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ctx = Context(ROOT, work, args.seed, deadline=started + TIME_LIMIT_S)
    env = environment(args.seed)
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(env, sort_keys=True))

    try:
        return measure(workload, ctx, args, env, label)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(workload, ctx: Context, setup_times: list[float]) -> list[str]:
    """One timed set-up; the errors of the stages that failed."""
    start = time.perf_counter()
    results = workload.setup(ctx)
    setup_times.append(time.perf_counter() - start)
    return [f"setup {r.stage}: exit code {r.exit_code}" for r in results if r.exit_code != 0]


def measure(workload, ctx: Context, args, env: dict, label: str) -> int:
    setup_times: list[float] = []
    for _ in range(SETUP_REPEATS // 2):
        errors = set_up(workload, ctx, setup_times)
        if errors:
            for e in errors:
                print(f"FAILED {e}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": len(setup_times), "failed": 1, "metrics": {}}))
            return 1

    runs = []
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        runs.append(timed_run(workload, ctx))
        finished = time.perf_counter()
        # one run in trace mode; otherwise stop at a failure or before a run would overrun the budget
        if args.trace or runs[-1]["errors"] or finished + (finished - start) > deadline:
            break
    traced = traced_run(workload, ctx) if args.trace else None
    late_setups = [set_up(workload, ctx, setup_times) for _ in range(SETUP_REPEATS - len(setup_times))]
    failed_setups = sum(1 for errors in late_setups if errors)

    attempted = runs + ([traced] if traced else [])
    passed = [r for r in attempted if not r["errors"]]
    reference = passed[0]["digest"] if passed else None
    for r in passed:
        if r["digest"] != reference:
            r["errors"].append(f"output digest {r['digest']} differs from the first run's {reference}")
    for i, r in enumerate(attempted):
        for e in r["errors"]:
            print(f"FAILED run {i}: {e}", file=sys.stderr)
    for e in (e for errors in late_setups for e in errors):
        print(f"FAILED {e}", file=sys.stderr)
    good = [r for r in runs if not r["errors"]]
    failed = sum(1 for r in attempted if r["errors"])
    correct = failed == 0 and failed_setups == 0
    print(f"digest {workload.name} seed {args.seed}: {reference or 'none (no run passed)'}")
    e2e = {"setup_s": median(setup_times), "failed_run_ratio": failed / len(attempted)}
    samples = {"setup_s": setup_times}
    if good:
        samples.update({key: [r[key] for r in good] for key in ("wall_s", "peak_rss_mb", "cpu_s")})
        for r in good:
            for stage, s in r["stages"].items():
                samples.setdefault(f"stage.{stage}_s", []).append(s["wall_s"])
        e2e.update({key: median(values) for key, values in samples.items()})
        e2e.update(stage_throughputs(workload, ctx, good))
    for name, value in e2e.items():
        if name in samples:
            print(describe(name, samples[name], UNITS.get(name, "s")))
        else:
            print(f"{name} = {value:.6g} {UNITS[name]}")

    result = {"label": label, "env": env, "correct": correct, "digest": reference, "runs": runs,
              "end_to_end": e2e, "setup_times": setup_times}
    if traced:
        overhead = traced["wall_s"] - e2e.get("wall_s", traced["wall_s"])
        traced["layers"]["trace.wall_s"] = (traced["wall_s"], "s")
        traced["layers"]["trace.overhead_s"] = (overhead, "s")
        for name, (value, unit) in traced["layers"].items():
            note = ""
            if name in traced["tails"]:
                pct, n = traced["tails"][name]
                note = f" (p{pct:g} of n={n})" if pct is not None else f" (n={n}: no tail percentile)"
            print(f"{name} = {value:.6g} {unit}{note}")
        result["traced"] = {k: v for k, v in traced.items() if k != "spans"}
        write_json(os.path.join(OUT_DIR, "results", f"{label}-spans.json"), traced["spans"])
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in traced["layers"].items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in BOUNDED if name in e2e}
    write_json(os.path.join(OUT_DIR, "results", f"{label}.json"), result)
    # set-ups count as operations beside the runs; failed_run_ratio counts runs only
    print(json.dumps({"correct": correct, "attempted": len(attempted) + len(setup_times),
                      "failed": failed + failed_setups, "metrics": metrics}))
    return 0 if correct else 1


def write_json(path: str, payload) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
