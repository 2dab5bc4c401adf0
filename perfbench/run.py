#!/usr/bin/env python3
"""kgkratzer benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: oracle-manifold, oracle-offmanifold, analytic-atlas, cli-cold (see
perfbench/README.md).
With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it runs each operation of the workload's trace block once
untraced and once traced, and reports the per-layer metrics and the tracing
overhead.  Every output is checked against independent references.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the line before it records the kernel backend, Python and numpy versions, nproc and
the source revision.  A full report (and, traced, the spans) is written to
perfbench/out/.

The package is imported from ``src/`` of the checkout that holds this
directory; without it the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5     # fresh interpreters timed per run for setup_s
IMPORT_SAMPLES = 3    # fresh interpreters per traced import metric
SUBPROCESS_TIMEOUT = 120

_SETUP_CODE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
t0 = time.perf_counter()
workloads.build(sys.argv[3], int(sys.argv[4]))
print(repr(time.perf_counter() - t0))
"""

_IMPORT_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import kgkratzer.cli
print(repr(time.perf_counter() - t0))
"""


class Tally:
    """Operations attempted and failed, and the problems the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []

    def run(self, op):
        """Run one operation; return (seconds, output), or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        try:
            self.problems += op.check(output)
        except Exception as exc:  # malformed output: the check itself broke
            self.problems.append(f"{op.key}: check raised {type(exc).__name__}: {exc}")
        return seconds, output


def _python(args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def setup_seconds(name, seed):
    """Median over fresh interpreters of package import plus input generation."""
    samples = [float(_python(["-c", _SETUP_CODE, str(SRC), str(BENCH), name, str(seed)])
                     .stdout.strip().splitlines()[-1])
               for _ in range(SETUP_SAMPLES)]
    return statistics.median(samples), samples


def import_seconds():
    """Median fresh-interpreter import of kgkratzer.cli, and numpy's share of it."""
    total = [float(_python(["-c", _IMPORT_CODE, str(SRC)]).stdout.strip())
             for _ in range(IMPORT_SAMPLES)]
    numpy_share = []
    for _ in range(IMPORT_SAMPLES):
        stderr = _python(["-X", "importtime", "-c",
                          "import sys; sys.path.insert(0, sys.argv[1]); import kgkratzer.cli",
                          str(SRC)]).stderr
        micros = [int(line.split("|")[1]) for line in stderr.splitlines()
                  if line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"]
        numpy_share.append(micros[0] * 1e-6 if micros else 0.0)
    return statistics.median(total), statistics.median(numpy_share)


def measure(workload, seconds, tally):
    """Closed loop over the workload's sequence for ``seconds``.

    At least one whole pass of the sequence runs; workloads with
    ``whole_rounds`` stop only at the end of a pass, so that every run has
    the same mix of operations.  Returns the (case, seconds) samples grouped
    by pass, and whether the last pass is complete.
    """
    for op in workload.warmup:
        tally.run(op)
    sequence = workload.sequence
    passes = []
    done = 0
    start = time.perf_counter()
    while True:
        if done % len(sequence) == 0:
            passes.append([])
        op = sequence[done % len(sequence)]
        result = tally.run(op)
        if result is not None:
            passes[-1].append((op.key, result[0]))
        done += 1
        if (time.perf_counter() - start >= seconds and done >= len(sequence)
                and (not workload.whole_rounds or done % len(sequence) == 0)):
            return passes, done % len(sequence) == 0


def end_to_end(passes, last_complete):
    """Median wall time of one operation, and operations per second.

    ``op_median_s`` is the median over the workload's cases of each case's
    median, so a run that ends part-way through a pass does not shift it.
    ``ops_per_s`` is the median over complete passes of the operations per
    second of operation time in that pass, so that a short slow spell of the
    machine moves it less than a mean over the run would.
    """
    per_case: dict[str, list] = {}
    for key, seconds in (sample for samples in passes for sample in samples):
        per_case.setdefault(key, []).append(seconds)
    complete = [samples for samples in (passes if last_complete else passes[:-1]) if samples]
    return {
        "op_median_s": (statistics.median(statistics.median(times)
                                          for times in per_case.values()), "s"),
        "ops_per_s": (statistics.median(len(samples) / sum(seconds for _, seconds in samples)
                                        for samples in complete), "1/s"),
    }


def traced_block(workload, tally):
    """Each op of the trace block untraced, then traced; per-layer metrics and overhead.

    Pairing every traced op with an untraced run of the same op just before
    it keeps drift in machine speed out of the overhead figure.
    """
    import tracer as tracer_module

    for op in workload.warmup:
        tally.run(op)
    tracer = tracer_module.Tracer()
    untraced, traced = [], []
    for op in workload.trace_block:
        untraced.append(tally.run(op))
        tracer.install()
        try:
            traced.append(tally.run(op))
        finally:
            tracer.uninstall()
    metrics = tracer_module.layer_metrics(tracer)

    def total(results):
        return sum(result[0] for result in results if result is not None)

    overhead = 100.0 * (total(traced) - total(untraced)) / total(untraced)
    outputs = [result[1] for result in traced if result is not None]
    text = [len(output.encode()) for output in outputs if isinstance(output, str)]
    import_s, import_numpy_s = import_seconds()
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "cli.import_numpy_s": (import_numpy_s, "s"),
        "cli.stdout_bytes": (statistics.mean(text) if text else 0.0, "bytes"),
        "trace.overhead_pct": (overhead, "%"),
    })
    details = {"untraced_s": total(untraced), "traced_s": total(traced),
               "spans": len(tracer.spans), "missing_targets": tracer.missing,
               "counters": dict(tracer.counters)}
    return metrics, details, tracer


def source_revision():
    """Git SHA when the checkout is a repository, and a hash of the package files."""
    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            sha = f"unknown: {exc}"
    digest = hashlib.sha256()
    for path in sorted((SRC / "kgkratzer").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return sha, digest.hexdigest()


def run_info():
    import numpy

    import kgkratzer

    sha, source_hash = source_revision()
    return {
        "kernel_backend": kgkratzer.kernel_backend(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
        "source_sha256": source_hash,
    }


def main(argv=None):
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "kgkratzer" / "__init__.py").is_file():
        print(f"error: the package under test is missing: no {SRC}/kgkratzer", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import refs

    tally = Tally()
    tally.problems += [f"reference self-test: {line}" for line in refs.self_test()]
    workload = workloads.build(args.workload, args.seed)
    info = run_info()

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "run_info": info}
    if args.trace:
        metrics, details, tracer = traced_block(workload, tally)
        report["trace_details"] = details
    else:
        setup_s, report["setup_samples"] = setup_seconds(args.workload, args.seed)
        passes, last_complete = measure(workload, args.seconds, tally)
        metrics = end_to_end(passes, last_complete)
        metrics["setup_s"] = (setup_s, "s")
        report["passes"] = passes

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    report.update(result, errors=tally.errors, problems=tally.problems[:100])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    for line in (tally.errors + tally.problems)[:20]:
        print(f"CHECK: {line}", file=sys.stderr)
    print(json.dumps({"run_info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
