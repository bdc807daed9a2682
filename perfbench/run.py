"""Benchmark of the qeei package: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload eigvec-n7 --seed 1 --seconds 30 --trace 0

Run it from anywhere; it benchmarks the qeei source in src/qeei next to
this directory.  --trace 0 starts SETUP_RUNS fresh worker processes one
after another: each imports qeei and runs the warm-up ops (the median of
their times is setup_s), and the last one then times ops in a closed
loop.  --trace 1 starts one worker that records per-layer spans.  The
report names every metric with its unit and the sample count behind each
percentile; its last line is the JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
BLAS_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after pinning the thread pools)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.tracing import metric_units  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 5
# the whole run must end within 180 s
DEADLINE_S = 170.0
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {"latency_ms_p50": "ms", "latency_ms_p90": "ms",
                    "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def git_sha(root):
    """HEAD of the checkout's own .git, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qeei").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def environment(root):
    return {
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_name(),
        "blas_threads_pinned": BLAS_THREADS,
    }


def start_worker(role, args, out, deadline, spans=None):
    cmd = [sys.executable, "-m", "perfbench.worker", "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    out.unlink(missing_ok=True)
    subprocess.run(cmd, cwd=ROOT, check=True,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return json.loads(out.read_text())


def percentile_line(name, value, unit, samples, note=""):
    return f"  {name:<16} {value:>14.6g} {unit:<5} ({samples} samples{note})"


def end_to_end(runs):
    """Metrics from the set-up runs and the last, measuring, run."""
    lat_ms = np.asarray(runs[-1]["latencies_s"]) * 1e3
    if lat_ms.size == 0:
        raise ValueError("no op passed the correctness gate")
    p50, p90 = np.percentile(lat_ms, [50, 90])
    beyond = int(np.sum(lat_ms > p90))
    metrics = {
        "latency_ms_p50": float(p50),
        "latency_ms_p90": float(p90),
        "ops_per_s": lat_ms.size / (lat_ms.sum() / 1e3),
        "setup_s": float(np.median([r["setup_s"] for r in runs])),
        "peak_rss_mb": runs[-1]["peak_rss_mb"],
    }
    attempted = sum(r["attempted"] for r in runs)
    lines = [
        percentile_line("latency_ms_p50", p50, "ms", lat_ms.size),
        percentile_line("latency_ms_p90", p90, "ms", lat_ms.size,
                        f", {beyond} beyond p90"),
        f"  {'ops_per_s':<16} {metrics['ops_per_s']:>14.6g} 1/s   "
        f"({lat_ms.size} ops passing the gate / {lat_ms.sum() / 1e3:.3f} s timed)",
        percentile_line("setup_s", metrics["setup_s"], "s", len(runs),
                        ", median of fresh processes"),
        f"  {'peak_rss_mb':<16} {metrics['peak_rss_mb']:>14.6g} MB    (measuring process)",
        f"  {'failed_ratio':<16} {sum(r['failed'] for r in runs) / attempted:>14.6g} ratio "
        f"({attempted} ops attempted, warm-ups included)",
    ]
    return metrics, lines


def per_layer(traced):
    shares = traced["self_share"]
    lines = [f"  traced ops: {traced['traced_ops']}; untraced p50 over "
             f"{traced['untraced_samples']} samples, traced p50 over "
             f"{traced['traced_samples']}"]
    for name, value in traced["per_layer"].items():
        layer = name.rsplit(".", 1)[0]
        note = "absent" if layer in traced["absent"] else ""
        if name.endswith(".self_ms_per_op") and layer in shares:
            note = f"{100 * shares[layer]:.1f}% of op time"
        elif name == "qdet.perm_terms_per_op":
            note = "computed from argument sizes"
        lines.append(f"  {name:<44} {value:>14.6g} {metric_units()[name]:<5} {note}")
    return traced["per_layer"], lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qeei" / "__init__.py").is_file():
        print(f"perfbench: no qeei package at {ROOT / 'src' / 'qeei'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"worker-{os.getpid()}.json"
    try:
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            runs = [start_worker("trace", args, out, deadline, spans)]
            metrics, lines = per_layer(runs[0])
            units = metric_units()
            lines.append(f"  spans written to {spans.relative_to(ROOT)}")
        else:
            runs = [start_worker("setup", args, out, deadline)
                    for _ in range(SETUP_RUNS - 1)]
            runs.append(start_worker("measure", args, out, deadline))
            metrics, lines = end_to_end(runs)
            units = END_TO_END_UNITS
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        out.unlink(missing_ok=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    print(f"perfbench qeei: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(environment(ROOT)))
    print(f"correctness gate: {attempted} ops attempted, {failed} failed")
    for problem in problems:
        print(f"  failed: {problem}")
    print("metrics:")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
