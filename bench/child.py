"""Run one workload in this process and write its measurements as JSON.

run.py starts this file in a child process for each benchmark run, so that the
process's peak resident memory is the workload's own. It drives the CLI
in-process through ``hensim.cli.main(argv)``; the first invocation warms caches
and is checked but not timed.

    python3 bench/child.py --workload relax-mc --seed 1 --seconds 10 --trace 0 --result r.json

(run from the repository root, with ``src`` on PYTHONPATH.)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import PER_LAYER, Tracer, patched, span_metrics, write_spans
from workloads import WORKLOADS, Invocation

OUT_DIR = Path(__file__).resolve().parent / "out"
WORKERS_ENV = "HENSIM_WORKERS"


def load_cli(root: Path):
    """hensim.cli, refusing an installed copy: the benchmark measures ./src."""
    import hensim
    import hensim.cli

    if Path(hensim.__file__).resolve().parent != (root / "src" / "hensim").resolve():
        raise SystemExit(f"hensim was imported from {hensim.__file__}, not from ./src")
    return hensim.cli


class Runner:
    """Invokes one workload's command and checks every output it produces."""

    def __init__(self, cli, workload, seed: int, smoke: bool):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work_dir = OUT_DIR / "work" / workload.name
        self.attempted = 0
        self.failures: list[str] = []

    def invoke(self, main=None, workers: str | None = None):
        """One call of the CLI; returns (wall seconds, process CPU seconds, output bytes)."""
        main = main or self.cli.main
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        argv = self.workload.argv(self.seed, self.work_dir, self.smoke)
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        saved = os.environ.get(WORKERS_ENV)
        if workers is not None:
            os.environ[WORKERS_ENV] = workers
        stdout = io.StringIO()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            reason = self.workload.check(Invocation(code, stdout.getvalue(), out), self.seed, self.smoke)
        except Exception as exc:  # a crash is one failed operation, not a benchmark error
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            reason = f"raised {exc!r}"
        finally:
            if workers is not None:
                if saved is None:
                    del os.environ[WORKERS_ENV]
                else:
                    os.environ[WORKERS_ENV] = saved
        self.attempted += 1
        if reason:
            self.failures.append(reason)
        written = sum(p.stat().st_size for p in self.work_dir.iterdir() if p.is_file())
        return wall, cpu, written


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced invocations until the next one would overrun ``seconds``."""
    runner.invoke()
    walls = []
    start = time.perf_counter()
    while True:
        walls.append(runner.invoke()[0])
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return {
        "walls": walls,
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Rounds of (untraced, untraced with one worker, traced) invocations.

    At least one round runs; further rounds run while they fit in ``seconds``.
    Every per-layer value is the median over the rounds.
    """
    runner.invoke()
    plain, single, traced, per_run, span_runs = [], [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(runner.invoke()[:2])
        single.append(runner.invoke(workers="1")[0])
        tracer = Tracer()
        with patched(tracer) as wrapped:
            wall, _, written = runner.invoke(main=tracer.wrap("cli.main", runner.cli.main))
        traced.append(wall)
        span_runs.append(tracer.spans)
        per_run.append({**span_metrics(tracer), "tables.bytes": written})
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - round_start) > seconds:
            break
    write_spans(spans_path, span_runs)
    plain_wall = statistics.median(w for w, _ in plain)
    layer = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    layer.update({
        "ensemble.pool_speedup": statistics.median(single) / plain_wall,
        "proc.cpu_s": statistics.median(c for _, c in plain),
        "proc.cpu_per_wall": statistics.median(c / w for w, c in plain),
        "trace.overhead_s": statistics.median(traced) - plain_wall,
    })
    return {
        "rounds": len(per_run),
        "untraced_walls": [w for w, _ in plain],
        "single_worker_walls": single,
        "traced_walls": traced,
        "wrapped": wrapped,
        "spans_file": str(spans_path),
        "per_layer": {name: layer[name] for name in PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    args = parser.parse_args(argv)

    import numpy

    cli = load_cli(Path.cwd())
    runner = Runner(cli, WORKLOADS[args.workload], args.seed, args.smoke)
    if args.trace:
        (OUT_DIR / "spans").mkdir(parents=True, exist_ok=True)
        result = measure_traced(runner, args.seconds, OUT_DIR / "spans" / f"{args.workload}.csv")
    else:
        result = measure(runner, args.seconds)
    result.update({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:5],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "argv": runner.workload.argv(args.seed, runner.work_dir, args.smoke),
    })
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
