"""Benchmark of the `pinchpas` sweep CLI: time to solution, memory, failures.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-golden

A pass runs every op of a workload through `pinchpas.cli.main` in one fresh
child interpreter (child.py), since a CLI user pays import and first-call
costs on every run. Passes run one at a time with the BLAS thread pools
pinned to one thread, and repeat until `--seconds` is spent. Every table a
pass writes is checked against the golden tables (golden.py). Set-up time
is the median import time of `pinchpas` over fresh interpreters.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
alternates plain and traced passes and reports its per-layer metrics.
The last line of standard output is the result as one JSON object;
a record with the machine, the samples and the metrics goes to
.bench_out/. `--write-golden` re-records the golden tables at seed
GOLDEN_SEED instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from golden import OpCheck, check_op, store
from tracing import SPAN_NAMES
from workloads import GOLDEN_SEED, WORKLOADS, sim_seed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# Fewest fresh-interpreter import times whose median is setup_s.
SETUP_SAMPLES = 15
# Fewest passes a run makes: plain passes with --trace 0, and pairs of a
# plain and a traced pass with --trace 1 (two traced passes, so the
# counts can be compared).
MIN_PASSES = 3
MIN_PAIRS = 2
# A run must end within 180 s whatever --seconds asks for.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Counters the tracer keeps besides spans; the first two, like every call
# count, must repeat exactly between traced passes.
COUNTERS = (
    "sweep.points",
    "montecarlo.antenna_user_pairs",
    "montecarlo.user_samples",
    "sweep.emit_table.bytes",
)
STEADY_COUNTERS = COUNTERS[:2]
ALL_OPS = {op.id for ops in WORKLOADS.values() for op in ops}


class BenchError(RuntimeError):
    """The benchmark cannot run here; it exits non-zero without a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(request: dict, deadline: float) -> dict:
    """Run child.py on `request` and return the JSON line it prints."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(request)],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {request} did not end within {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"child {request} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    """One child's result and the golden check of each op it ran."""

    result: dict
    checks: dict[str, OpCheck]

    @property
    def rows(self) -> int:
        return sum(c.rows for c in self.checks.values())


def run_pass(workload: str, seed: int, trace: bool, deadline: float) -> Pass:
    pass_dir = WORK_DIR / workload
    shutil.rmtree(pass_dir, ignore_errors=True)
    result = run_child(
        {
            "src": str(SRC),
            "workload": workload,
            "seed": seed,
            "work_dir": str(pass_dir),
            "trace": trace,
            "spans_path": str(OUT_DIR / f"spans-{workload}.tsv.gz"),
        },
        deadline,
    )
    checks = {}
    for op in WORKLOADS[workload]:
        check = check_op(workload, op.id, pass_dir / op.id)
        if result["codes"][op.id] != 0:
            check.ok, check.reason = False, f"exit code {result['codes'][op.id]}"
        checks[op.id] = check
    return Pass(result, checks)


def measure(
    workload: str, seed: int, seconds: int, trace: bool, deadline: float
) -> tuple[list[float], list[Pass], list[Pass]]:
    """Set-up samples, plain passes and (with `trace`) traced passes.

    Passes run until one more round would overrun `seconds`. Every pass
    child times its own import, and import-only children top the set-up
    samples up as the run goes, so they spread over the whole run as the
    passes do.
    """
    setup: list[float] = []
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.monotonic()
    while True:
        plain.append(run_pass(workload, seed, False, deadline))
        if trace:
            traced.append(run_pass(workload, seed, True, deadline))
        setup.extend(p.result["import_s"] for p in (plain[-1], *traced[-1:]))
        rounds = len(plain)
        elapsed = time.monotonic() - start
        # Stop when one more round would overrun the budget.
        stop = rounds >= (MIN_PAIRS if trace else MIN_PASSES) and (
            elapsed * (rounds + 1) / rounds > seconds or time.monotonic() > deadline
        )
        share = 1.0 if stop else min(1.0, elapsed / seconds)
        while len(setup) < SETUP_SAMPLES * share:
            setup.append(run_child({"src": str(SRC)}, deadline)["import_s"])
        if stop:
            return setup, plain, traced


def end_to_end(setup_samples: list[float], plain: list[Pass]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(p.result["wall_s"] for p in plain),
        "points_per_s": statistics.median(p.rows / p.result["wall_s"] for p in plain),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(p.result["peak_rss_mb"] for p in plain),
    }


def steady_counts(summary: dict) -> dict:
    """The counts that must repeat exactly between traced passes."""
    counts = {f"{name}.calls": n for name, n in summary["calls"].items()}
    counts.update((name, summary["counters"].get(name, 0)) for name in STEADY_COUNTERS)
    return counts


def per_layer_metric(name: str, plain: list[Pass], traced: list[Pass]) -> float:
    """Value of one per-layer metric named in BENCHMARK.json."""
    summaries = [p.result["trace"] for p in traced]
    checks = [c for p in plain + traced for c in p.checks.values()]
    if name == "trace.overhead_s":
        return statistics.median(p.result["wall_s"] for p in traced) - statistics.median(
            p.result["wall_s"] for p in plain
        )
    if name == "failed_share":
        return sum(not c.ok for c in checks) / len(checks)
    if name == "sweep.tables_byte_identical":
        return sum(c.identical for c in checks) / max(1, sum(c.tables for c in checks))
    if name == "sweep.max_rel_dev":
        return max(c.max_rel_dev for c in checks)
    if name == "regions.partition_reuse":
        calls = summaries[0]["calls"].get("regions.optimize_partition", 0)
        return summaries[0]["counters"].get("sweep.points", 0) / calls if calls else 0.0
    if name in COUNTERS:
        return summaries[0]["counters"].get(name, 0)
    op_id = name[len("op."):-len(".s")]
    if name.startswith("op.") and name.endswith(".s") and op_id in ALL_OPS:
        return statistics.median(p.result["op_s"].get(op_id, 0.0) for p in plain)
    span, _, kind = name.rpartition(".")
    if span in SPAN_NAMES and kind == "calls":
        return summaries[0]["calls"].get(span, 0)
    if span in SPAN_NAMES and kind in ("s", "self_s"):
        return statistics.median(s[kind].get(span, 0.0) for s in summaries)
    raise BenchError(f"BENCHMARK.json names per-layer metric {name!r}, which run.py does not define")


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def write_golden() -> None:
    for workload, ops in WORKLOADS.items():
        codes = run_pass(workload, GOLDEN_SEED, False, time.monotonic() + DEADLINE_S).result["codes"]
        for op in ops:
            if codes[op.id] != 0:
                raise BenchError(f"{workload}/{op.id} exited {codes[op.id]}")
            store(workload, op.id, WORK_DIR / workload / op.id)
        print(f"stored golden tables of {workload} ({len(ops)} ops)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=int, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")

    run_start = time.monotonic()
    deadline = run_start + DEADLINE_S
    try:
        if not (SRC / "pinchpas" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'pinchpas'}")
        if args.write_golden:
            write_golden()
            return 0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        OUT_DIR.mkdir(exist_ok=True)
        # A first import writes the bytecode caches; it is not timed.
        numpy_version = run_child({"src": str(SRC)}, deadline)["numpy"]
        setup_samples, plain, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), deadline
        )
        e2e = end_to_end(setup_samples, plain)
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values = {n: per_layer_metric(n, plain, traced) for n in names}
        else:
            values = {m["name"]: e2e[m["name"]] for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    failures = [
        f"{op_id}: {c.reason}"
        for p in plain + traced
        for op_id, c in p.checks.items()
        if not c.ok
    ]
    attempted = sum(len(p.checks) for p in plain + traced)
    correct = not failures
    if args.trace and any(
        steady_counts(p.result["trace"]) != steady_counts(traced[0].result["trace"])
        for p in traced
    ):
        print("bench: unsteady: call counts differ between traced passes", file=sys.stderr)
        correct = False
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    walls = [p.result["wall_s"] for p in plain]
    machine = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "seed": args.seed,
        "simulate_seed": sim_seed(args.seed),
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "run_s": time.monotonic() - run_start,
        "machine": machine,
        "samples": {
            "setup_s": setup_samples,
            "wall_s": walls,
            "traced_wall_s": [p.result["wall_s"] for p in traced],
            "peak_rss_mb": [p.result["peak_rss_mb"] for p in plain],
        },
        "end_to_end": e2e,
        "failures": failures,
        "metrics": metrics,
    }
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in failures:
        print(f"bench: failed op {failure}", file=sys.stderr)
    q1, q3 = quartiles(walls)
    print(
        f"bench: {args.workload}, seed {args.seed}, {len(walls)} plain and "
        f"{len(traced)} traced passes; machine {json.dumps(machine)}\n"
        f"  wall_s        {e2e['wall_s']:.4f} s  (quartiles {q1:.4f} .. {q3:.4f}, n = {len(walls)})\n"
        f"  points_per_s  {e2e['points_per_s']:.2f} 1/s\n"
        f"  setup_s       {e2e['setup_s']:.4f} s  (median of {len(setup_samples)} imports)\n"
        f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB\n"
        f"  failed_share  {len(failures) / attempted:.4f} ({len(failures)} of {attempted} ops)"
    )
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
