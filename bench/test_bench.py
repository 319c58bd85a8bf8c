"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from child import Runner, load_cli  # noqa: E402
from spans import PER_LAYER, Span, Tracer, self_time, span_metrics, union_length  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]


def _span(name, start, end, parent=None, thread=0):
    span = Span(name, parent, thread)
    span.start, span.end = start, end
    return span


class TestSelfTime:
    def test_union_counts_overlaps_once(self):
        assert union_length([]) == 0.0
        assert union_length([(1, 4), (2, 6), (8, 9), (3, 5)]) == 6.0
        assert union_length([(0, 10), (2, 3)]) == 10.0

    def test_overlapping_pool_children(self):
        parent = _span("p", 0.0, 10.0)
        children = [
            _span("a", 1.0, 4.0, parent, thread=1),
            _span("b", 2.0, 6.0, parent, thread=2),  # overlaps a on another thread
            _span("c", 8.0, 9.0, parent, thread=1),
            _span("d", 9.5, 12.0, parent, thread=2),  # clipped to the parent's end
        ]
        # covered: [1, 6] + [8, 9] + [9.5, 10] = 6.5
        assert self_time(parent, children) == pytest.approx(3.5)
        assert self_time(parent, []) == 10.0

    def test_tracer_parents_pool_spans_to_the_caller(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda x: threading.get_ident())

        def fan_out():
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(leaf, range(8)))

        tracer.wrap("root", fan_out)()
        root = next(s for s in tracer.spans if s.name == "root")
        leaves = [s for s in tracer.spans if s.name == "leaf"]
        assert len(leaves) == 8 and all(s.parent is root for s in leaves)
        assert tracer.children()[root] == leaves
        assert 0.0 <= self_time(root, leaves) <= root.duration

    def test_metrics_from_hand_built_spans(self):
        tracer = Tracer()
        main = _span("cli.main", 0.0, 10.0)
        ens = _span("ensemble.sample_ensemble", 1.0, 9.0, main)
        ens.attr = 12.0  # CPU seconds over 8 s of wall time
        tracer.spans = [
            main, ens,
            _span("ensemble.seed_stream", 1.0, 5.0, ens, thread=1),
            _span("ensemble.seed_stream", 2.0, 6.0, ens, thread=2),
        ]
        m = span_metrics(tracer)
        assert m["cli.main.s"] == 10.0 and m["cli.self_s"] == 2.0
        assert m["ensemble.sample_ensemble.self_s"] == 3.0
        assert m["ensemble.seed_stream.busy_s"] == 8.0
        assert m["ensemble.seed_stream.calls"] == 2
        assert m["ensemble.cpu_per_wall"] == 1.5
        assert m["entanglement.gap_evals_per_cell"] == 0.0


def test_benchmark_json_matches_the_harness():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    assert END_TO_END == ["wall_s", "setup_s", "peak_rss_mb"]
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == PER_LAYER


def _corrupt_csv(path: Path, column: str, row: int, delta: float):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = repr(float(cells[i]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "relax-mc": lambda out: _corrupt_csv(out, "rho_pp_mc", 10, 0.05),
    "concurrence-mc": lambda out: _corrupt_csv(out, "C_mc", 10, 0.4),
    "tc-map": lambda out: _corrupt_csv(out, "tc", 7, 1e-6),
    "validate-full": lambda out: print("FAIL injected: corrupted report"),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_output_raises_error_rate(name):
    cli = load_cli(ROOT)
    runner = Runner(cli, WORKLOADS[name], seed=5, smoke=True)
    runner.invoke()
    assert runner.failures == []

    def corrupting_main(argv):
        code = cli.main(argv)
        out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        CORRUPTIONS[name](out)
        return code

    runner.invoke(main=corrupting_main)
    assert len(runner.failures) == 1
    assert len(runner.failures) / runner.attempted > 0


def _bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run(name, trace):
    proc = _bench(["--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = list(PER_LAYER) if trace else END_TO_END
    assert list(result["metrics"]) == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        mc = name in ("relax-mc", "concurrence-mc")
        assert (metrics["ensemble.sample_ensemble.calls"] > 0) == (mc or name == "validate-full")
        assert (metrics["entanglement.find_tc.calls"] > 0) == (name == "tc-map")
        assert (metrics["linalg.matrix_exponential.calls"] > 0) == (name == "validate-full")
        assert metrics["cli.main.s"] > 0
    else:
        assert all(v > 0 for v in metrics.values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "relax-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
