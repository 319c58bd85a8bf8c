"""hensim benchmark: one workload per run, end-to-end or traced per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload relax-mc --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20        # every workload, one table

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (wall_s, setup_s, peak_rss_mb); with ``--trace 1`` they are
the per-layer ones listed in bench/spans.py. The full record of a run, with its
provenance, is written to bench/out/results/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
SETUP_CODE = "import hensim.cli; hensim.cli.build_parser()"
# A run must end within 180 s; the child gets what set-up has left of this.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure (as opposed to the program failing a check)."""


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_head(root: Path) -> str | None:
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed_interpreter(code: str, env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"python -c {code!r} failed: {proc.stderr.decode(errors='replace').strip()}")
    return wall


def measure_setup(env: dict) -> dict:
    """Median wall time of fresh interpreters importing hensim.cli, and of bare ``pass``."""
    setup, floor = [], []
    for _ in range(SETUP_REPEATS):
        floor.append(_timed_interpreter("pass", env))
        setup.append(_timed_interpreter(SETUP_CODE, env))
    return {"setup_s": statistics.median(setup), "setup_samples": setup,
            "python_pass_s": statistics.median(floor), "python_pass_samples": floor}


def run_child(root: Path, env: dict, args, name: str, deadline: float) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"child-{name}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise BenchError(f"{name} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{name} child exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace').strip()[-2000:]}")
    return json.loads(result_path.read_text())


def run_workload(root: Path, args, name: str) -> dict:
    """Measure one workload; returns the full record, whose "result" is the JSON line."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env(root)
    setup = {} if args.trace else measure_setup(env)
    child = run_child(root, env, args, name, deadline)
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in child["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": child["wall_s"], "unit": "s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": child["failed"] == 0, "attempted": child["attempted"],
              "failed": child["failed"], "metrics": metrics}
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": child["python"],
            "numpy": child["numpy"],
            "git_head": git_head(root),
            "HENSIM_WORKERS": os.environ.get("HENSIM_WORKERS"),
        },
        "error_rate": child["failed"] / child["attempted"],
        **setup,
        **{k: v for k, v in child.items() if k not in ("per_layer", "python", "numpy")},
        "result": result,
    }
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return record


def summary(record: dict) -> str:
    """One human-readable line per run: metrics with units, sample counts and error rate."""
    res = record["result"]
    err = f"error_rate {record['error_rate']:g} ({res['failed']}/{res['attempted']})"
    if record["trace"]:
        return (f"{record['workload']}: traced, {record['rounds']} round(s), "
                f"trace.overhead_s {res['metrics']['trace.overhead_s']['value']:.4f} s, {err}")
    m = res["metrics"]
    return (f"{record['workload']}: wall_s {m['wall_s']['value']:.4f} s "
            f"(median of {len(record['walls'])}), setup_s {m['setup_s']['value']:.4f} s "
            f"(python -c pass {record['python_pass_s']:.4f} s), "
            f"peak_rss_mb {m['peak_rss_mb']['value']:.1f} MB, {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hensim benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "hensim" / "cli.py").is_file():
        print("error: run from the repository root; src/hensim is missing", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(root, args, name) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(summary(record))
    if args.workload == "all":
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
