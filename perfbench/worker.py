"""One fresh process of a benchmark run: set up qeei, then time or trace ops.

Roles:
  setup    import qeei and run the warm-up ops; report the set-up time.
  measure  the same set-up, then a closed loop (one thread, one op at a
           time) for --seconds and until MIN_SAMPLES ops have run.
  trace    the same set-up, then an untraced loop for half of --seconds
           and a traced loop over whole input cycles for the other half.

Inputs are made before each op's timer starts, and every op is checked
by perfbench.gate after its timer stops.  The result is one JSON object
written to --out.  Start it through perfbench/run.py, which pins the
BLAS and OpenMP thread pools to one thread.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from .tracing import OP, Tracer
from .workloads import MEASURED_STREAM, WARMUP_STREAM, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
# at least ten samples beyond p90
MIN_SAMPLES = 100
# a slow op may stretch the loop past --seconds to reach MIN_SAMPLES, up to here
LOOP_CAP_S = 120.0
TRACED_STREAM = 2
WARMUP_SEED = 0
MAX_PROBLEMS = 5


def import_qeei():
    """Import qeei from this checkout's src/ and return its public modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"qeei.{name}")
               for name in ("qmatrix", "eigen", "qdet", "cli")}
    origin = Path(sys.modules["qeei"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"qeei was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


class Runner:
    """Runs and checks ops of one workload; counts attempts and failures."""

    def __init__(self, workload, seed, workdir):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.q = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, inp, tracer=None, op_id=None):
        """Latency in seconds of one op that passes the gate, else None."""
        self.attempted += 1
        try:
            arg = self.w.prepare(self.q, inp)
            if tracer is None:
                start = time.perf_counter()
                result = self.w.op(self.q, arg)
                latency = time.perf_counter() - start
            else:
                with tracer.op_span(op_id):
                    start = time.perf_counter()
                    result = self.w.op(self.q, arg)
                    latency = time.perf_counter() - start
            problems = self.w.check(inp, result)
        except Exception as exc:  # a failing op is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        finally:
            if inp.path is not None:
                inp.path.unlink(missing_ok=True)
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problems[0])
            return None
        return latency

    def make(self, stream, k):
        return self.w.make_input(self.seed, stream, k, self.workdir)

    def setup(self):
        """Import qeei and run the warm-up ops; seconds taken.

        The warm-up inputs are made before the clock starts.  They do not
        depend on --seed, so setup_s measures the same work in every run.
        """
        inputs = [self.w.make_input(WARMUP_SEED, WARMUP_STREAM, k, self.workdir)
                  for k in range(self.w.warmup_ops)]
        start = time.perf_counter()
        self.q = import_qeei()
        for inp in inputs:
            self.run(inp)
        return time.perf_counter() - start

    def loop(self, seconds, min_ops=1):
        """Closed loop; latencies (s) of passing ops and the ops attempted."""
        latencies = []
        k = 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= LOOP_CAP_S or (elapsed >= seconds and k >= min_ops):
                break
            latency = self.run(self.make(MEASURED_STREAM, k))
            k += 1
            if latency is not None:
                latencies.append(latency)
        return latencies, k

    def traced_loop(self, seconds, tracer):
        """Whole cycles of the workload's input mix, at least one."""
        latencies = []
        k = 0
        start = time.perf_counter()
        while k == 0 or time.perf_counter() - start < seconds:
            for _ in range(self.w.cycle):
                latency = self.run(self.make(TRACED_STREAM, k), tracer, op_id=k)
                k += 1
                if latency is not None:
                    latencies.append(latency)
        return latencies, k


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace role: write the spans here")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=args.out.parent))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        result = {"setup_s": runner.setup()}
        if args.role == "measure":
            latencies, ops = runner.loop(args.seconds, min_ops=MIN_SAMPLES)
            result.update(latencies_s=latencies, loop_ops=ops)
        elif args.role == "trace":
            untraced, _ = runner.loop(args.seconds / 2)
            tracer = Tracer()
            with tracer.installed():
                traced, traced_ops = runner.traced_loop(args.seconds / 2, tracer)
            layers = tracer.metrics()
            layers["trace.overhead_ratio"] = (
                statistics.median(traced) / statistics.median(untraced)
                if traced and untraced else 0.0)
            times = tracer.layer_times()
            op_s = times[OP][1]
            result.update(
                per_layer=layers, absent=tracer.absent, traced_ops=traced_ops,
                self_share={name: t[2] / op_s for name, t in times.items()},
                untraced_samples=len(untraced), traced_samples=len(traced))
            if args.spans is not None:
                tracer.dump(args.spans, workload=args.workload, seed=args.seed)
        result.update(attempted=runner.attempted, failed=runner.failed,
                      problems=runner.problems,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
