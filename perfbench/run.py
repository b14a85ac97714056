#!/usr/bin/env python3
"""End-to-end benchmark of the hyparr CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository: hyparr is imported from its `src`
directory.  One process builds the workload's inputs from the seed, writes
them to files, and then calls `hyparr.cli.main` in-process on each
operation (one command on one input file), one at a time, over repeated
passes until S seconds have gone by (at least MIN_PASSES passes).  Every
operation starts with the caches a fresh `hyparr` process has.  The first
pass's outputs are checked by `checks.py`; later passes must print the same
bytes.

The last line of stdout is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With --trace 0 the metrics are the end-to-end ones (sums of
per-operation medians, peak RSS, set-up time); with --trace 1 every
operation also runs with the layer wrappers of `layers.py` installed, and the
metrics are the per-layer split.  A fuller report goes to
.perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 3
MIN_TRACED_PASSES = 1
SETUP_REPEATS = 3

# Times are reported in reference-normalised seconds: each measured time is
# scaled by REF_SECONDS over the wall time of a fixed reference computation
# run just before and just after it.  On a shared 2-core virtual machine the
# same work ran up to 1.8x slower in some stretches of a minute than in
# others, and the reference slowed with it (see README.md).  REF_SECONDS is
# the reference's median time on that machine, so there normalised and raw
# seconds agree at typical speed.
REF_SECONDS = 0.040
REF_ROUNDS = 16
WARMUP_REFS = 5

END_TO_END = {
    "total_s": "s",
    "total_cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _import_hyparr():
    """Import hyparr from this checkout's src; None when it is not there."""
    src = ROOT / "src"
    if not (src / "hyparr" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import hyparr
    import hyparr.cli
    if not Path(hyparr.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return hyparr


def _clear_caches(hyparr) -> None:
    """Drop the process-wide caches, as a fresh `hyparr` invocation has them."""
    hyparr.lattice.build_lattice.cache_clear()
    hyparr.chambers._wall_set.cache_clear()
    hyparr.chambers._hyperplane_basis.cache_clear()
    hyparr.arrangement.primitive_rows.cache_clear()


def _reference_matrix() -> list[list[int]]:
    state = 12345
    rows = []
    for _ in range(10):
        row = []
        for _ in range(10):
            state = (state * 1103515245 + 12345) % 2 ** 31
            row.append(state % 19 - 9)
        rows.append(row)
    return rows


REF_MATRIX = _reference_matrix()


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of REF_ROUNDS exact eliminations of REF_MATRIX,
    the same kind of Fraction and small-integer work hyparr does."""
    w0, c0 = time.perf_counter(), time.process_time()
    for _ in range(REF_ROUNDS):
        a = [[Fraction(x) for x in row] for row in REF_MATRIX]
        for c in range(len(a)):
            p = next(i for i in range(c, len(a)) if a[i][c] != 0)
            a[c], a[p] = a[p], a[c]
            for i in range(c + 1, len(a)):
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return time.perf_counter() - w0, time.process_time() - c0


def _prepare(hyparr) -> None:
    _clear_caches(hyparr)
    gc.collect()


def _execute(hyparr, op, path, tracer=None):
    """Run one prepared operation; returns (wall s, cpu s, output text, error or None)."""
    main = hyparr.cli.main
    if tracer is not None:
        tracer.install()
        main = tracer.span("cli.main", main)
    buf = io.StringIO()
    error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(op.argv(path))
        if rc != 0:
            error = f"exit code {rc}"
    except SystemExit as exc:  # a usage error: argparse exits with code 2
        error = f"exit code {exc.code}"
    except Exception:  # the operation failed; the run goes on and counts it
        error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if tracer is not None:
        tracer.uninstall()
    return wall, cpu, buf.getvalue(), error


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hyparr").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def environment(hyparr) -> dict:
    return {
        "kernel": hyparr.feasibility.kernel_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source": _source_digest(),
    }


def _setup(hyparr, workloads, name, seed, directory, import_s):
    """Build and write the inputs SETUP_REPEATS times from cold caches.

    Returns the cases, the set-up time (the import plus the median build,
    both normalised) and the raw timings."""
    for _ in range(WARMUP_REFS):  # the first runs of the reference are slow
        reference()
    refs = [reference()[0]]
    times = []
    for _ in range(SETUP_REPEATS):
        _prepare(hyparr)
        t0 = time.perf_counter()
        cases = workloads.write_inputs(name, seed, directory)
        times.append(time.perf_counter() - t0)
        refs.append(reference()[0])
    builds = [t * 2 * REF_SECONDS / (a + b) for t, a, b in zip(times, refs, refs[1:])]
    setup_s = import_s * REF_SECONDS / refs[0] + statistics.median(builds)
    return cases, setup_s, {"import_s": import_s, "builds": times, "refs": refs}


def measure(hyparr, workloads, name, seconds, traced, directory, cases):
    import layers

    ops = workloads.operations(name, cases)
    tracer = layers.Tracer() if traced else None
    samples = {op.label: [] for op in ops}  # (wall, cpu, ref wall, ref cpu) per pass
    traced_walls = {op.label: [] for op in ops}
    layer_passes = []
    digests: dict[str, str] = {}
    errors: dict[str, str] = {}
    problems = []
    attempted = failed = 0
    passes = 0
    t_start = time.perf_counter()
    while True:
        per_layer_pass = {}
        order = ops if passes % 2 == 0 else ops[::-1]
        raw = []
        for op in order:
            path = workloads.input_path(directory, op.case)
            _prepare(hyparr)
            ref = reference()
            wall, cpu, text, error = _execute(hyparr, op, path)
            raw.append((op, wall, cpu, ref))
            attempted += 1
            digest = hashlib.sha256(text.encode()).hexdigest()
            if error is not None:
                failed += 1
                errors.setdefault(op.label, error)
            elif op.label not in digests:
                digests[op.label] = digest
                try:
                    op.check(cases[op.case], json.loads(text))
                except Exception as exc:  # any rejection, malformed JSON included
                    problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
            elif digests[op.label] != digest:
                problems.append(f"{op.label}: output differs between passes")
            if tracer is not None:
                _prepare(hyparr)
                wall_t, _, text_t, _ = _execute(hyparr, op, path, tracer)
                traced_walls[op.label].append(wall_t * REF_SECONDS / ref[0])
                tracer.counts["cli.output_bytes"] += len(text_t.encode())
                for key, value in tracer.take().items():
                    per_layer_pass[key] = per_layer_pass.get(key, 0) + value
        refs = [r for _, _, _, r in raw] + [reference()]
        for (op, wall, cpu, _), before, after in zip(raw, refs, refs[1:]):
            samples[op.label].append((wall, cpu, (before[0] + after[0]) / 2,
                                      (before[1] + after[1]) / 2))
        passes += 1
        if tracer is not None:
            layer_passes.append(per_layer_pass)
        elapsed = time.perf_counter() - t_start
        enough = passes >= (MIN_TRACED_PASSES if traced else MIN_PASSES)
        if enough and elapsed + elapsed / passes > seconds:
            break

    per_op = {}
    for op in ops:
        s = samples[op.label]
        per_op[op.label] = {
            "wall_s": statistics.median(w * REF_SECONDS / rw for w, _, rw, _ in s),
            "cpu_s": statistics.median(c * REF_SECONDS / rc for _, c, _, rc in s),
            "raw_wall_s": statistics.median(w for w, _, _, _ in s),
            "raw_cpu_s": statistics.median(c for _, c, _, _ in s),
            "samples": s,
            "error": errors.get(op.label),
        }
    speed = REF_SECONDS / statistics.median(rw for s in samples.values() for _, _, rw, _ in s)
    total = sum(v["wall_s"] for v in per_op.values())
    end_to_end = {
        "total_s": total,
        "total_cpu_s": sum(v["cpu_s"] for v in per_op.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_layer = None
    if tracer is not None:
        per_layer = layers.summarize(layer_passes, tracer.kernel_us)
        traced_total = sum(statistics.median(v) for v in traced_walls.values())
        per_layer["trace.total_s"] = traced_total
        per_layer["trace.untraced_total_s"] = total
        per_layer["trace.overhead_s"] = traced_total - total
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "speed": speed,
        "raw_total_s": sum(v["raw_wall_s"] for v in per_op.values()),
        "problems": problems,
        "per_op": per_op,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    hyparr = _import_hyparr()
    import_s = time.perf_counter() - t0
    if hyparr is None:
        print(f"hyparr is not importable from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT_DIR))
    try:
        cases, setup_s, setup_log = _setup(hyparr, workloads, args.workload, args.seed,
                                           directory, import_s)
        result = measure(hyparr, workloads, args.workload, args.seconds,
                         bool(args.trace), directory, cases)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    env = environment(hyparr)
    if args.trace:
        from layers import METRICS
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in METRICS}
    else:
        values = dict(result["end_to_end"], setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    correct = not result["problems"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "passes": result["passes"],
        "speed": result["speed"],
        "raw_total_s": result["raw_total_s"],
        "largest_s": max(v["wall_s"] for v in result["per_op"].values()),
        "setup_s": setup_s,
        "setup_log": setup_log,
        "wall_s": time.perf_counter() - START,
        "problems": result["problems"],
        "operations": result["per_op"],
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    for problem in result["problems"]:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "passes": result["passes"],
                      "operations": len(result["per_op"])}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
