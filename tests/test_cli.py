import csv
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hensim
from conftest import find_tc, read_csv, thermal_population, two_scenario
from hensim.analytic import gap_args
from hensim.cli import EXIT_BAD_INPUT, EXIT_OK, format_float, main, write_csv, write_json
from hensim.entanglement import STATUSES, find_tc_batch
from hensim.scenarios import time_grid


def run(argv):
    return main(argv)


class TestTables:
    def test_float_round_trip(self, tmp_path, rng):
        values = list(rng.normal(size=100)) + [0.0, 1e-300, 1e300, -np.pi]
        for v in values:
            assert float(format_float(v)) == v

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        header = ["a", "b"]
        rows = [[1.5, None], [-2.25e-17, 3.0]]
        write_csv(path, {name: [row[i] for row in rows] for i, name in enumerate(header)})
        got_header, cols = read_csv(path)
        assert got_header == header
        assert cols["a"] == [1.5, -2.25e-17]
        assert cols["b"] == [None, 3.0]


def _bits(cells):
    return [None if v is None else struct.pack("<d", v) for v in cells]


EDGE_ROW = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 1.7e308, -1.7e308, None]


@settings(max_examples=200)
@given(rows=st.lists(st.lists(st.none() | st.floats(allow_nan=False, allow_infinity=False),
                              min_size=7, max_size=7), max_size=12))
@example(rows=[EDGE_ROW, EDGE_ROW[::-1]])
def test_emitted_cells_round_trip_bit_for_bit(tmp_path_factory, rows):
    # finite floats, subnormals, -0.0 and None cells come back bit for bit, as
    # written by the CLI's CSV and JSON writers
    path = tmp_path_factory.getbasetemp() / "round_trip"
    header = list("abcdefg")
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    write_csv(path, columns)
    got_header, cols = read_csv(path)
    assert got_header == header
    assert all(_bits(cols[name]) == _bits(col) for name, col in columns.items())
    write_json(path, {"data": columns})
    got = json.loads(path.read_text())["data"]
    assert all(_bits(got[name]) == _bits(col) for name, col in columns.items())


# all eight columns, and one alone: csv.writer quotes a row that is one empty field
@pytest.mark.parametrize("header", [[*"abcdefg", "t"], ["g"]], ids=["eight", "one"])
def test_blocks_write_the_bytes_of_csv_writer(tmp_path, header):
    # 1,100 rows span three blocks of formatted rows; edge values, -0.0 and
    # empty cells sit on both sides of each block boundary, in list columns
    # and (without None) in the array column t
    rng = np.random.default_rng(11)
    rows = (rng.normal(size=(1100, 8)) * 10.0 ** rng.integers(-300, 300, (1100, 8))).tolist()
    for k in (0, 510, 511, 512, 513, 1022, 1023, 1024, 1025, 1099):
        rows[k][:7] = EDGE_ROW[k % 7:] + EDGE_ROW[:k % 7]
        rows[k][7] = EDGE_ROW[k % 6]
    index = {name: i for i, name in enumerate("abcdefgt")}
    rows = [[row[index[name]] for name in header] for row in rows]
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if "t" in columns:
        columns["t"] = np.array(columns["t"])
    write_csv(tmp_path / "blocks.csv", columns)
    with open(tmp_path / "stdlib.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([["" if v is None else format_float(v) for v in row] for row in rows])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "stdlib.csv").read_bytes()


class TestRelax:
    def test_analytic_only(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["relax", "--omega-a", "4", "--alpha", "1", "--xb", "0.9",
                    "--var-eps-a", "0.6", "--t-max", "4", "--points", "20",
                    "--out", str(out)])
        assert code == EXIT_OK
        header, cols = read_csv(out)
        assert header[:4] == ["t", "rho_pp", "re_rho_pm", "im_rho_pm"]
        assert len(cols["t"]) == 20
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["config"]["alpha"] == 1.0
        assert meta["source"] == "analytic"

    def test_zero_variance_mc_equals_analytic(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run(["relax", "--omega-a", "2", "--alpha", "1.5", "--xb", "0.8",
                    "--var-eps-a", "0", "--t-max", "3", "--points", "30",
                    "--samples", "10", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        _, cols = read_csv(out)
        for name in ("rho_pp", "re_rho_pm", "im_rho_pm"):
            exact = np.array(cols[name])
            mc = np.array(cols[name + "_mc"])
            assert np.abs(exact - mc).max() <= 1e-13
            assert np.abs(np.array(cols[name + "_mc_se"])).max() <= 1e-13

    def test_mc_columns_and_se(self, tmp_path):
        out = tmp_path / "r.csv"
        run(["relax", "--alpha", "5", "--xb", "0.8", "--var-eps-a", "1",
             "--t-max", "5", "--points", "25", "--samples", "500", "--seed", "3",
             "--out", str(out)])
        _, cols = read_csv(out)
        se = np.array(cols["rho_pp_mc_se"][1:])
        assert np.all(se > 0)

    def test_bad_alpha_exit_code(self, tmp_path):
        code = run(["relax", "--alpha", "0.3", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_BAD_INPUT

    def test_bad_xb_exit_code(self, tmp_path):
        code = run(["relax", "--xb", "1.5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_BAD_INPUT

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "xb": 0.6, "t_max": 2.0, "points": 10}))
        out = tmp_path / "r.csv"
        code = run(["relax", "--config", str(cfg), "--xb", "0.8", "--out", str(out)])
        assert code == EXIT_OK
        meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
        assert meta["config"]["alpha"] == 2.0   # from file
        assert meta["config"]["xb"] == 0.8      # flag wins
        assert meta["config"]["points"] == 10

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code = run(["relax", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_BAD_INPUT

    def test_json_format(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["relax", "--t-max", "2", "--points", "8", "--format", "json",
                    "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["data"]["t"]) == 8
        assert payload["meta"]["config"]["t_max"] == 2.0


class TestConcurrenceCmd:
    def test_fig4_style_curves(self, tmp_path):
        curves = {}
        for vb in ("0", "0.5", "2"):
            out = tmp_path / f"c{vb}.csv"
            code = run(["concurrence", "--x", "0.2", "--alpha", "1",
                        "--var-eps-a", "0.5", "--var-eps-b", vb,
                        "--t-max", "5", "--points", "100", "--out", str(out)])
            assert code == EXIT_OK
            _, cols = read_csv(out)
            curves[vb] = np.array(cols["C"])
        inner = curves["0"] > 1e-12
        assert np.all(curves["2"][inner] <= curves["0.5"][inner] + 1e-12)
        assert np.all(curves["0.5"][inner] <= curves["0"][inner] + 1e-12)

    def test_decoupled_constant_one(self, tmp_path):
        out = tmp_path / "c.csv"
        run(["concurrence", "--alpha", "0.5", "--x", "0.2", "--var-eps-a", "1",
             "--t-max", "4", "--points", "30", "--out", str(out)])
        _, cols = read_csv(out)
        assert np.abs(np.array(cols["C"]) - 1.0).max() <= 1e-12

    def test_mc_column(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(["concurrence", "--x", "0.2", "--alpha", "1", "--var-eps-a", "0.5",
                    "--t-max", "4", "--points", "40", "--samples", "300", "--seed", "5",
                    "--out", str(out)])
        assert code == EXIT_OK
        _, cols = read_csv(out)
        assert np.abs(np.array(cols["C"]) - np.array(cols["C_mc"])).max() <= 0.1


class TestTcMap:
    def test_r60_map_matches_reference(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert run(["tc-map", "--x", "0.2", "--alpha-range", "0.5", "3", "--var-range", "0.1", "2",
                    "--resolution", "60", "--out", str(out)]) == EXIT_OK
        _, cols = read_csv(out)
        _, ref = read_csv(Path(__file__).resolve().parent.parent / "bench" / "reference"
                          / "tc_map_r60.csv")
        assert cols["alpha"] == ref["alpha"] and cols["var_eps_a"] == ref["var_eps_a"]
        for tc, rtc in zip(cols["tc"], ref["tc"], strict=True):
            assert (tc is None) == (rtc is None)
            assert tc is None or abs(tc - rtc) <= 1e-8

    def test_alpha_half_column_empty(self, tmp_path):
        out = tmp_path / "tc.csv"
        code = run(["tc-map", "--x", "0.2", "--alpha-range", "0.5", "1.5",
                    "--var-range", "0.5", "1", "--resolution", "2", "--out", str(out)])
        assert code == EXIT_OK
        _, cols = read_csv(out)
        for alpha, tc in zip(cols["alpha"], cols["tc"]):
            if alpha == 0.5:
                assert tc is None
            else:
                assert tc > 0

    def test_row_monotonicity(self, tmp_path):
        out = tmp_path / "tc.csv"
        run(["tc-map", "--x", "0.2", "--alpha-range", "1", "2",
             "--var-range", "0.5", "2", "--resolution", "4", "--out", str(out)])
        _, cols = read_csv(out)
        rows = {}
        for alpha, var, tc in zip(cols["alpha"], cols["var_eps_a"], cols["tc"]):
            rows.setdefault(alpha, []).append((var, tc))
        for alpha, pairs in rows.items():
            tcs = [tc for _, tc in sorted(pairs)]
            assert all(b <= a for a, b in zip(tcs, tcs[1:]))

    def test_round_trips_through_reader(self, tmp_path):
        out = tmp_path / "tc.csv"
        run(["tc-map", "--x", "0.2", "--alpha-range", "0.6", "3",
             "--var-range", "0.1", "2", "--resolution", "5", "--out", str(out)])
        header, cols = read_csv(out)
        assert header == ["alpha", "var_eps_a", "tc"]
        assert len(cols["tc"]) == 25

    def test_rejects_alpha_below_half(self, tmp_path):
        code = run(["tc-map", "--alpha-range", "0.3", "1", "--var-range", "0.5", "1",
                    "--resolution", "2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_BAD_INPUT

    def test_transverse_noise_pulls_every_cell_earlier(self, tmp_path):
        # the paper's claim (ii) as a map: t_c at var_eps_b 0.5 lies strictly
        # below t_c at var_eps_b 0 in every finite cell
        maps = {}
        for vb in ("0", "0.5"):
            out = tmp_path / f"tc_vb{vb}.csv"
            assert run(["tc-map", "--x", "0.2", "--var-eps-b", vb, "--alpha-range", "0.5", "3",
                        "--var-range", "0.1", "2", "--resolution", "6",
                        "--out", str(out)]) == EXIT_OK
            maps[vb] = read_csv(out)[1]["tc"]
        assert [tc is None for tc in maps["0"]] == [tc is None for tc in maps["0.5"]]
        assert maps["0"].count(None) == 6
        assert all(slow is None or fast < slow for fast, slow in zip(maps["0.5"], maps["0"]))

    def test_sidecar_records_solver_diagnostics(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert run(["tc-map", "--x", "0.2", "--alpha-range", "0.5", "2",
                    "--var-range", "0.5", "1", "--resolution", "3", "--out", str(out)]) == EXIT_OK
        header, cols = read_csv(out)
        assert header == ["alpha", "var_eps_a", "tc"]
        solver = json.loads((tmp_path / "tc.csv.meta.json").read_text())["solver"]
        assert solver["tol"] == 1e-8
        assert solver["status_counts"] == {"finite": 6, "none": 3, "beyond-horizon": 0}
        lo, hi = solver["t_max_range"]
        assert 1.0 <= lo <= hi and max(tc for tc in cols["tc"] if tc is not None) < hi

    def test_each_cell_is_the_solver_answer_for_its_scenario(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert run(["tc-map", "--x", "0.2", "--var-eps-b", "0.5", "--alpha-range", "0.5", "3",
                    "--var-range", "0", "2", "--resolution", "5", "--out", str(out)]) == EXIT_OK
        _, cols = read_csv(out)
        expected = [find_tc(two_scenario(alpha=alpha, var_a=var_a, x=0.2, var_b=0.5)).t_c
                    for alpha, var_a in zip(cols["alpha"], cols["var_eps_a"])]
        assert cols["tc"] == expected
        assert expected.count(None) == 9

    def test_json_and_csv_hold_the_same_cells(self, tmp_path):
        argv = ["tc-map", "--x", "0.2", "--alpha-range", "0.5", "2",
                "--var-range", "0.5", "1", "--resolution", "3"]
        assert run(argv + ["--out", str(tmp_path / "m.csv")]) == EXIT_OK
        assert run(argv + ["--format", "json", "--out", str(tmp_path / "m.json")]) == EXIT_OK
        _, cols = read_csv(tmp_path / "m.csv")
        assert json.loads((tmp_path / "m.json").read_text())["data"] == cols
        assert cols["tc"].count(None) == 3

    @pytest.mark.parametrize("var_b", ["0", "0.5"])
    def test_json_data_is_the_csv_cells_bit_for_bit(self, tmp_path, var_b):
        # 1,225 rows: the CSV is written in three blocks of rows
        argv = ["tc-map", "--x", "0.2", "--var-eps-b", var_b, "--alpha-range", "0.5", "3",
                "--var-range", "0.1", "2", "--resolution", "35"]
        assert run(argv + ["--out", str(tmp_path / "m.csv")]) == EXIT_OK
        assert run(argv + ["--format", "json", "--out", str(tmp_path / "m.json")]) == EXIT_OK
        _, cols = read_csv(tmp_path / "m.csv")
        data = json.loads((tmp_path / "m.json").read_text())["data"]
        assert data.keys() == cols.keys() == {"alpha", "var_eps_a", "tc"}
        assert all(_bits(data[name]) == _bits(cols[name]) for name in cols)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_regime_beyond_horizon_leaves_cells_empty(self, tmp_path, fmt):
        out = tmp_path / f"m.{fmt}"
        code = run(["tc-map", "--x", "0.2", "--alpha-range", "0.5", "0.500001",
                    "--var-range", "0.1", "2", "--resolution", "3", "--format", fmt,
                    "--out", str(out)])
        assert code == EXIT_OK
        counts = {"finite": 0, "none": 3, "beyond-horizon": 6}
        if fmt == "csv":
            _, cols = read_csv(out)
            meta = json.loads((tmp_path / "m.csv.meta.json").read_text())
            assert "nan" not in out.read_text().lower()
        else:
            payload = json.loads(out.read_text())
            cols, meta = payload["data"], payload["meta"]
        assert cols["tc"] == [None] * 9
        assert meta["solver"]["status_counts"] == counts
        assert meta["solver"]["t_max_range"] is None

    def test_status_counts_are_the_solver_column_counts(self, tmp_path):
        # alpha = 1/2 is "none", var_a = 0.1 next to it "beyond-horizon", the rest finite
        out = tmp_path / "m.csv"
        assert run(["tc-map", "--x", "0.2", "--alpha-range", "0.5", "0.500001",
                    "--var-range", "0.1", "1e12", "--resolution", "3", "--out", str(out)]) == EXIT_OK
        _, cols = read_csv(out)
        counts = json.loads((tmp_path / "m.csv.meta.json").read_text())["solver"]["status_counts"]
        _, _, var_b, omega_a, xy = gap_args(two_scenario(x=0.2))
        status = find_tc_batch(cols["alpha"], cols["var_eps_a"], var_b, omega_a, xy)["status"]
        assert counts == {st: status.tolist().count(st) for st in STATUSES}
        assert counts == {"finite": 4, "none": 3, "beyond-horizon": 2}
        assert cols["tc"].count(None) == counts["none"] + counts["beyond-horizon"]


# Non-finite input, input whose results leave double precision, grid sizes
# refused up front (a 7 PiB time grid numpy will not allocate, a tc-map past
# physical memory), a Monte Carlo run of zero samples, seeds outside the
# sampler's 64-bit key space [0, 2^64), a subnormal time step
# t_max / (points - 1) with or without --samples, and an output path that
# cannot be written; "{tmp}" stands for the test's directory.
NON_FINITE_ARGV = [
    ["relax", "--omega-a", "nan"],
    ["relax", "--alpha", "inf"],
    ["relax", "--var-eps-a", "inf"],
    ["relax", "--t-max", "inf"],
    ["concurrence", "--x", "nan"],
    ["concurrence", "--var-eps-b=-inf"],
    ["tc-map", "--x", "nan", "--alpha-range", "1", "2", "--var-range", "0.5", "1",
     "--resolution", "2"],
    ["tc-map", "--alpha-range", "1", "nan", "--var-range", "0.5", "1", "--resolution", "2"],
    ["tc-map", "--alpha-range", "1", "2", "--var-range", "0.5", "inf", "--resolution", "2"],
    ["relax", "--omega-a", "4", "--t-max", "1e308", "--points", "3"],
    ["concurrence", "--omega-a", "4", "--t-max", "1e308", "--points", "3", "--format", "json"],
    ["relax", "--alpha", "1e308", "--omega-a", "4", "--points", "5"],
    ["concurrence", "--alpha", "1e308", "--omega-a", "1", "--points", "5"],
    ["relax", "--points", "1000000000000000"],
    ["tc-map", "--x", "0.2", "--alpha-range", "0.5", "3", "--var-range", "0.1", "2",
     "--resolution", "5000000"],
    ["relax", "--samples", "0"],
    ["concurrence", "--samples", "0", "--format", "json"],
    ["relax", "--samples", "50", "--seed", "-1"],
    ["relax", "--samples", "50", "--seed", "18446744073709551616"],
    ["concurrence", "--samples", "50", "--seed", "1180591620717411303424"],
    ["relax", "--t-max", "1e-306"],
    ["relax", "--t-max", "1e-306", "--samples", "600"],
    ["concurrence", "--t-max", "1e-310"],
    ["concurrence", "--t-max", "1e-310", "--samples", "600"],
    ["relax", "--out", "{tmp}/missing/x.csv"],
]


@pytest.mark.parametrize("argv", NON_FINITE_ARGV, ids=" ".join)
def test_non_finite_input_rejected(tmp_path, capsys, argv):
    out = tmp_path / "x.out"
    # --out goes first, so that a row's own --out takes precedence
    argv = [argv[0], "--out", str(out)] + [arg.format(tmp=tmp_path) for arg in argv[1:]]
    assert run(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="no os.sysconf to read memory from")
@pytest.mark.parametrize("resolution", ["5000000", "1000000000"])
def test_tc_map_past_physical_memory_refused_before_any_grid(tmp_path, capsys, monkeypatch,
                                                              resolution):
    # only sizes the budget refuses up front: 1.5e16 and 6e20 bytes of solver
    # memory, past any machine's; building a grid would fail the test
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "m.csv"
    assert run(["tc-map", "--alpha-range", "0.5", "3", "--var-range", "0.1", "2",
                "--resolution", resolution, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: a {resolution} x {resolution} map needs about ")
    assert err.endswith(" bytes of physical memory\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["relax", "concurrence"])
def test_smallest_normal_time_step_runs_sampled(tmp_path, command):
    # the smallest t_max that the default 400 points accept also passes the
    # sampler's grid check, and the float below it is refused by name
    tiny = sys.float_info.min
    t_max = 399.0 * tiny
    while t_max / 399.0 < tiny:
        t_max = math.nextafter(t_max, math.inf)
    below = math.nextafter(t_max, 0.0)
    with pytest.raises(ValueError, match=re.escape(f"got t_max = {below!r} at 400 points")):
        time_grid(below, 400)
    assert run([command, "--t-max", repr(t_max), "--samples", "600",
                "--out", str(tmp_path / "x.csv")]) == EXIT_OK


_TC_AXES = ["--alpha-range", "1", "2", "--var-range", "0.5", "1", "--resolution", "2"]
# what each output command needs besides --out
BASE_ARGV = {"relax": [], "concurrence": [], "tc-map": _TC_AXES}


# Each model parameter out of its range, with the scenario field that refuses it
@pytest.mark.parametrize("argv, field", [
    (["relax", "--var-eps-a", "-1"], "var"),
    (["concurrence", "--var-eps-a", "-1"], "var_a"),
    (["concurrence", "--var-eps-b", "-1"], "var_b"),
    (["concurrence", "--x", "1.5"], "x"),
    (["concurrence", "--x", "-0.1"], "x"),
    (["concurrence", "--alpha", "0.4"], "alpha"),
    (["tc-map", "--var-eps-b", "-1", *_TC_AXES], "var_b"),
    (["tc-map", "--x", "1.5", *_TC_AXES], "x"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_out_of_range_parameter_names_its_field(tmp_path, capsys, argv, field):
    out = tmp_path / "x.out"
    assert run([*argv, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must ") and err.count("\n") == 1
    assert not out.exists()


def test_zero_samples_from_config_file_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"samples": 0}')
    out = tmp_path / "x.csv"
    assert run(["relax", "--config", str(cfg), "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == "error: sample count must be >= 1\n"
    assert not out.exists()


# each key a row sets is one its command reads, so the row tests the type check
BAD_CONFIG_ROWS = [
    ("relax", '{"alpha": null}'),
    ("tc-map", "5"),
    ("tc-map", '{"format": "xml"}'),
    ("relax", '{"xb": true}'),
    ("relax", '{"points": 2.5}'),
]


@pytest.mark.parametrize("command, text", BAD_CONFIG_ROWS, ids=[text for _, text in BAD_CONFIG_ROWS])
def test_bad_config_file_rejected(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    code = run([command, "--config", str(cfg), *BASE_ARGV[command], "--out", str(out)])
    assert code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# A row whose Monte Carlo part runs on two pool threads and makes them
# overflow, so numpy warns from inside the pool.
SUBPROCESS_ARGV = [
    ["--omega-a", "4", "--t-max", "1e308", "--points", "3", "--samples", "2000"],
]


@pytest.mark.parametrize("argv", SUBPROCESS_ARGV, ids=" ".join)
def test_one_error_line_from_child_process(tmp_path, argv):
    # pytest collects warnings of an in-process run itself; only a child
    # process shows what the command really prints, pool threads included
    out = tmp_path / "x.csv"
    src = Path(hensim.__file__).resolve().parent.parent
    env = {**os.environ, "HENSIM_WORKERS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "hensim.cli", "relax", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_BAD_INPUT
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


# alpha past 1e154, where alpha^2 leaves double precision though every average
# stays finite, with the alpha -> infinity limit of each column for t > 0:
# relaxed at once under the default unit longitudinal variance, frozen in the
# initial state with var_eps_a 0 (omega_a is 0, so nothing oscillates). With
# omega_a != 0 the phase alpha omega_a t stays finite on a short enough grid
# (at the default --t-max it is inf, and the command exits 2), and the
# envelope alone sets the limit.
RELAXED = {"rho_pp": 0.5, "re_rho_pm": 0.0, "im_rho_pm": 0.0}
FROZEN = {"rho_pp": 0.0, "re_rho_pm": 0.0, "im_rho_pm": 0.0}
LARGE_ALPHA_ROWS = [
    (["relax", "--alpha", "1e154"], RELAXED),
    (["relax", "--alpha", "1e160"], RELAXED),
    (["relax", "--alpha", "1e160", "--var-eps-a", "0"], FROZEN),
    (["relax", "--alpha", "1e160", "--samples", "2000", "--points", "10"], RELAXED),
    (["relax", "--alpha", "1e154", "--samples", "2000", "--points", "10"], RELAXED),
    (["relax", "--alpha", "1e160", "--xb", "0.8", "--samples", "2000", "--points", "10"],
     {**RELAXED, "rho_pp": 0.32}),
    (["relax", "--alpha", "1e160", "--var-eps-a", "0", "--samples", "2000", "--points", "10"],
     FROZEN),
    (["concurrence", "--alpha", "1e160"], {"C": 0.0}),
    (["concurrence", "--alpha", "1e160", "--var-eps-a", "0"], {"C": 1.0}),
    (["relax", "--alpha", "1e308", "--omega-a", "4", "--t-max", "1e-300", "--points", "5"],
     RELAXED),
    (["concurrence", "--alpha", "1e308", "--omega-a", "1", "--t-max", "1e-300", "--points", "5"],
     {"C": 0.0}),
    (["tc-map", "--x", "0.2", "--alpha-range", "1e154", "1e154", "--var-range", "0.1", "2",
      "--resolution", "2"], None),
    (["tc-map", "--x", "0.2", "--alpha-range", "1e160", "1e160", "--var-range", "0", "2",
      "--resolution", "2"], None),
]


@pytest.mark.parametrize("argv, limits", LARGE_ALPHA_ROWS,
                         ids=[" ".join(argv) for argv, _ in LARGE_ALPHA_ROWS])
def test_large_alpha_reaches_its_limit(tmp_path, monkeypatch, argv, limits):
    monkeypatch.setenv("HENSIM_WORKERS", "2")
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    _, cols = read_csv(out)
    assert all(v is None or math.isfinite(v) for col in cols.values() for v in col)
    if argv[0] == "tc-map":
        # t_c -> 0, resolved to the solver's 1e-8; no sudden death without longitudinal noise
        for var, tc in zip(cols["var_eps_a"], cols["tc"]):
            assert (tc is None) == (var == 0.0)
            assert tc is None or 0.0 < tc <= 1e-8
        return
    for name, limit in limits.items():
        for col in (name, name + "_mc"):
            se = cols.get(col + "_se", [0.0] * len(cols["t"]))
            for t, v, e in zip(cols["t"], cols.get(col, ()), se):
                assert t == 0.0 or abs(v - limit) <= 6.0 * e + 1e-12, (col, t, v, e)


@pytest.mark.parametrize("workers", ["abc", "0"])
def test_bad_worker_count_rejected(tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setenv("HENSIM_WORKERS", workers)
    out = tmp_path / "x.csv"
    assert run(["relax", "--samples", "600", "--points", "5", "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: HENSIM_WORKERS must be a positive integer")
    assert err.count("\n") == 1
    assert not out.exists()


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path, monkeypatch):
        argv = ["relax", "--alpha", "2", "--xb", "0.7", "--var-eps-a", "1",
                "--t-max", "3", "--points", "40", "--samples", "600", "--seed", "9"]
        blobs = []
        for i, workers in enumerate(("1", "3")):
            monkeypatch.setenv("HENSIM_WORKERS", workers)
            out = tmp_path / f"run{i}.csv"
            assert run(argv + ["--out", str(out)]) == EXIT_OK
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command, extra", [("relax", []), ("concurrence", ["--var-eps-b", "0.5"])])
    def test_sidecar_records_rng_and_is_identical_across_workers(self, tmp_path, monkeypatch,
                                                                 command, extra):
        argv = [command, *extra, "--points", "20", "--samples", "1100", "--seed", "5"]
        sidecars = []
        for i, workers in enumerate(("1", "2", "8")):
            monkeypatch.setenv("HENSIM_WORKERS", workers)
            out = tmp_path / f"run{i}.csv"
            assert run(argv + ["--out", str(out)]) == EXIT_OK
            sidecars.append((tmp_path / f"run{i}.csv.meta.json").read_bytes())
        assert sidecars[0] == sidecars[1] == sidecars[2]
        meta = json.loads(sidecars[0])
        assert meta["rng"] == "splitmix64-boxmuller-v1"
        assert meta["chunk"] == 512
        assert "workers" not in json.dumps(meta)


GRID_CONFIG = {"t_max": 5.0, "points": 5, "samples": None, "seed": 12345, "format": "csv"}
SIDECAR_CONFIG = {
    "relax": {"omega_a": 0.0, "alpha": 1.0, "xb": 1.0, "var_eps_a": 1.0, **GRID_CONFIG},
    "concurrence": {"omega_a": 0.0, "alpha": 1.0, "x": 0.5, "var_eps_a": 1.0, "var_eps_b": 0.0,
                    **GRID_CONFIG},
    "tc-map": {"x": 0.5, "var_eps_b": 0.0, "format": "csv"},
}


def test_sidecar_holds_exactly_its_keys(tmp_path):
    # the analytic source, the command's own effective config and the command,
    # plus the Monte Carlo provenance when sampled: a dropped or a stray key fails
    provenance = {"n": 600, "seed": 5, "rng": "splitmix64-boxmuller-v1", "chunk": 512}

    def sidecar(*argv):
        out = tmp_path / "m.csv"
        assert run([*argv, "--out", str(out)]) == EXIT_OK
        return json.loads((tmp_path / "m.csv.meta.json").read_text())

    # relax also names the temperature it mimics: at alpha = 1, xb = 1 the
    # steady population is 3/8, which is thermal at beta Delta = ln(5/3)
    thermal = {"steady_population": pytest.approx(0.375, rel=1e-15),
               "beta_delta": pytest.approx(math.log(5.0 / 3.0), rel=1e-15)}
    for command, extra in (("relax", thermal), ("concurrence", {})):
        config = SIDECAR_CONFIG[command]
        analytic = {"source": "analytic", "config": config, "command": command, **extra}
        assert sidecar(command, "--points", "5") == analytic
        assert sidecar(command, "--points", "5", "--samples", "600", "--seed", "5") == {
            **analytic, "config": {**config, "samples": 600, "seed": 5}, **provenance}
    meta = sidecar("tc-map", *_TC_AXES)
    assert meta == {"config": SIDECAR_CONFIG["tc-map"], "command": "tc-map",
                    "alpha_range": [1.0, 2.0], "var_range": [0.5, 1.0], "resolution": 2,
                    "solver": meta["solver"]}
    assert set(meta["solver"]) == {"tol", "status_counts", "t_max_range"}


# The model and grid settings each command does not read, refused both as a
# flag and as a config-file key
DROPPED = {
    "relax": ("omega_b", "x", "var_eps_b"),
    "concurrence": ("omega_b", "xb"),
    "tc-map": ("omega_a", "omega_b", "alpha", "xb", "var_eps_a", "t_max", "points", "samples",
               "seed"),
}
DROPPED_ROWS = [(command, key) for command, keys in DROPPED.items() for key in keys]


@pytest.mark.parametrize("command, key", DROPPED_ROWS, ids=[" ".join(r) for r in DROPPED_ROWS])
def test_no_command_reads_a_setting_it_does_not_list(tmp_path, capsys, command, key):
    # as a flag, the setting is an unrecognized argument
    out = tmp_path / "x.csv"
    argv = [command, *BASE_ARGV[command], "--out", str(out)]
    assert run([*argv, "--" + key.replace("_", "-"), "1"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    # as a config-file key, it is an unknown key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    assert run([*argv, "--config", str(cfg)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == f"error: unknown config keys: [{key!r}]\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, p", [
    (["--alpha", "5", "--xb", "0.8"], 0.5 * (1.0 - 1.0 / 100.0) * 0.64),
    (["--alpha", "0.5"], 0.0),
    (["--xb", "0"], 0.0),
])
def test_relax_sidecar_names_the_mimicked_temperature(tmp_path, argv, p):
    # p = e^{-bd} / (1 + e^{-bd}); at p = 0 the temperature is zero and bd is null
    out = tmp_path / "r.csv"
    assert run(["relax", *argv, "--points", "5", "--out", str(out)]) == EXIT_OK
    meta = json.loads((tmp_path / "r.csv.meta.json").read_text())
    assert meta["steady_population"] == pytest.approx(p, rel=1e-15, abs=0.0)
    if p == 0.0:
        assert meta["beta_delta"] is None
    else:
        assert thermal_population(meta["beta_delta"]) == pytest.approx(p, rel=1e-14)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


STRICT_JSON_ARGV = [
    ["relax"],
    ["relax", "--samples", "600"],
    ["relax", "--alpha", "0.5"],
    ["relax", "--xb", "0", "--samples", "600"],
    ["concurrence"],
    ["concurrence", "--samples", "600", "--var-eps-b", "0.5"],
    ["tc-map", "--x", "0.2", "--alpha-range", "0.5", "3", "--var-range", "0", "2",
     "--resolution", "3"],
    ["tc-map", "--x", "0", "--alpha-range", "1", "3", "--var-range", "0.1", "2", "--resolution", "2"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", STRICT_JSON_ARGV, ids=[" ".join(a) for a in STRICT_JSON_ARGV])
def test_every_sidecar_is_strict_json(tmp_path, argv, fmt):
    # json.dump would write a non-finite float as Infinity or NaN, which JSON
    # does not have; every sidecar (or JSON output) must parse without them
    out = tmp_path / "o.out"
    points = [] if argv[0] == "tc-map" else ["--points", "5"]
    assert run([*argv, *points, "--format", fmt, "--out", str(out)]) == EXIT_OK
    path = out if fmt == "json" else tmp_path / "o.out.meta.json"
    json.loads(path.read_text(), parse_constant=_refuse_constant)


class TestValidateCmd:
    def test_quick_passes(self, capsys):
        assert run(["validate", "--level", "quick"]) == EXIT_OK
        report = capsys.readouterr().out
        assert "PASS propagator-vs-expm" in report
        assert "FAIL" not in report


def test_unknown_command_exit_code():
    assert run(["frobnicate"]) == EXIT_BAD_INPUT


# A malformed command line gets the one error line of every other bad input
PARSER_ERROR_ARGV = [
    ["relax", "--points", "abc", "--out", "{tmp}/x.csv"],
    ["relax", "--bogus", "1", "--out", "{tmp}/x.csv"],
    ["tc-map"],
    ["frobnicate"],
]


@pytest.mark.parametrize("argv", PARSER_ERROR_ARGV, ids=" ".join)
def test_parser_error_is_one_line(tmp_path, capsys, argv):
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [["-h"], ["relax", "-h"], ["tc-map", "--help"]], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    assert run(argv) == EXIT_OK
    assert "usage: hensim" in capsys.readouterr().out
