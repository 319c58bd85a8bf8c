import contextlib
import csv
import gc
import io
import json
import math
import os
import re
import struct
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    find_tc,
    mc_concurrence,
    read_csv,
    run_child,
    scenario_gap,
    thermal_population,
    two_scenario,
)
from hensim.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    FORMATS,
    _POINT_BYTES,
    _READS,
    BadInput,
    _cgroup_memory,
    _emit,
    _physical_memory,
    main,
    write_csv,
    write_json,
)
from hensim.ensemble import sample_ensemble, sampler_bytes
from hensim.entanglement import STATUSES, TOL, find_tc_batch
from hensim.scenarios import time_grid


def run(argv):
    return main(argv)


class TestTables:
    def test_float_round_trip(self, tmp_path, rng):
        values = list(rng.normal(size=100)) + [0.0, 1e-300, 1e300, -np.pi]
        write_csv(tmp_path / "t.csv", {"v": values})
        assert read_csv(tmp_path / "t.csv")[1]["v"] == values

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


def _as_read(col):
    """A written column as it reads back: a NaN or None cell is empty, read as None."""
    return [None if v is None or math.isnan(v) else v for v in col]


EDGE_ROW = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 1.7e308, -1.7e308, None]


@settings(max_examples=200)
@given(rows=st.lists(st.lists(st.none() | st.just(math.nan)
                              | st.floats(allow_nan=False, allow_infinity=False),
                              min_size=7, max_size=7), max_size=12))
@example(rows=[EDGE_ROW, EDGE_ROW[::-1]])
@example(rows=[EDGE_ROW, [math.nan] * 7, [-0.0, math.nan, *EDGE_ROW[:5]]])
def test_emitted_cells_round_trip_bit_for_bit(tmp_path_factory, rows):
    # finite floats, subnormals, -0.0 and empty cells (NaN or None) come back
    # bit for bit, as written by the CLI's CSV and JSON writers; an empty cell
    # reads back as None
    path = tmp_path_factory.getbasetemp() / "round_trip"
    header = list("abcdefg")
    columns = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    write_csv(path, columns)
    got_header, cols = read_csv(path)
    assert got_header == header
    assert all(_bits(cols[name]) == _bits(_as_read(col)) for name, col in columns.items())
    write_json(path, {}, columns)
    got = json.loads(path.read_text())["data"]
    assert all(_bits(got[name]) == _bits(_as_read(col)) for name, col in columns.items())


class TestEmit:
    def test_nan_in_a_named_column_is_an_empty_cell(self, tmp_path):
        columns = {"alpha": np.array([0.5, 1.0, 2.0]), "tc": np.array([np.nan, 1.25, np.nan])}
        _emit(tmp_path / "t.csv", "csv", columns, {}, empty=("tc",))
        assert (tmp_path / "t.csv").read_bytes() == b"alpha,tc\r\n0.5,\r\n1,1.25\r\n2,\r\n"
        _emit(tmp_path / "t.json", "json", columns, {}, empty=("tc",))
        text = (tmp_path / "t.json").read_text()
        assert '"tc": [\n      null,\n      1.25,\n      null\n    ]' in text
        assert json.loads(text)["data"]["tc"] == [None, 1.25, None]

    # a NaN where no empty cell is named (alpha; tc of relax and concurrence, which
    # name none), and inf or -inf even in tc
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("alpha, tc, empty", [
        ([np.nan, 1.0], [1.0, 2.0], ("tc",)),
        ([0.5, 1.0], [np.nan, 2.0], ()),
        ([0.5, 1.0], [np.inf, np.nan], ("tc",)),
        ([0.5, 1.0], [2.0, -np.inf], ("tc",)),
    ], ids=["nan-unnamed", "nan-no-empty", "inf", "-inf"])
    def test_other_non_finite_cells_are_refused_before_any_file(self, tmp_path, fmt, alpha,
                                                                 tc, empty):
        columns = {"alpha": np.array(alpha), "tc": np.array(tc)}
        with pytest.raises(BadInput, match="non-finite values"):
            _emit(tmp_path / "out", fmt, columns, {}, empty=empty)
        assert list(tmp_path.iterdir()) == []


# all eight columns, and one alone: csv.writer quotes a row that is one empty field
@pytest.mark.parametrize("header", [[*"abcdefg", "t"], ["g"]], ids=["eight", "one"])
def test_blocks_write_the_bytes_of_csv_writer(tmp_path, header):
    # 1,100 rows span three blocks of formatted rows; edge values, -0.0 and
    # empty cells sit on both sides of each block boundary, in list columns
    # and (without None) in the array column t. Beside t, the array column r
    # repeats 0.0, -0.0 and a few other values in every block: each distinct
    # value is formatted once, and 0.0 and -0.0 must keep their own texts
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
        columns["r"] = np.resize([0.0, -0.0, 1.5, -0.0, 5e-324, 0.0, -1.7e308], len(rows))
        rows = [[*row, r] for row, r in zip(rows, columns["r"].tolist())]
        header = [*header, "r"]
    write_csv(tmp_path / "blocks.csv", columns)
    with open(tmp_path / "stdlib.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([["" if v is None else f"{v:.17g}" for v in row] for row in rows])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "stdlib.csv").read_bytes()


@pytest.mark.parametrize("rows", [0, 1, 512, 1100])
def test_json_blocks_write_the_bytes_of_json_dump(tmp_path, rows):
    # the data block, written a block of rows of one column at a time, has the
    # bytes of json.dump of the whole payload: an array column, a list column
    # with edge values, -0.0 and None on both sides of each block boundary,
    # and an array that repeats 0.0 and -0.0, beside a meta of nested
    # objects, lists and a string with a line break
    rng = np.random.default_rng(12)
    columns = {"t": rng.normal(size=rows) * 10.0 ** rng.integers(-300, 300, rows),
               "C": [EDGE_ROW[k % 7] for k in range(rows)], "a": np.resize([0.0, -0.0, 5e-324], rows)}
    meta = {"config": {"x": 0.2, "samples": None}, "range": [0.5, 3], "solver": {}, "note": "a\nb"}
    write_json(tmp_path / "blocks.json", meta, columns)
    data = {name: col.tolist() if isinstance(col, np.ndarray) else col for name, col in columns.items()}
    expected = json.dumps({"meta": meta, "data": data}, indent=2, sort_keys=True) + "\n"
    assert (tmp_path / "blocks.json").read_bytes() == expected.encode()


def assert_status_counts_match_empty_cells(out, tcs):
    """The status counts of a tc-map's sidecar add up to its cells, and the cells without
    a finite t_c ("none" or "unresolved") are exactly its empty ones."""
    counts = json.loads(Path(f"{out}.meta.json").read_text())["solver"]["status_counts"]
    assert sum(counts.values()) == len(tcs), (counts, len(tcs))
    assert tcs.count(None) == counts["none"] + counts["unresolved"], (counts, tcs.count(None))


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

    def test_mc_concurrence_within_six_sigma_of_analytic(self, tmp_path):
        # C_mc, the concurrence of the Monte Carlo mean X state's gap, against C
        # on every row: C_mc in [0, 1], and |C_mc - C| within the bench's
        # concurrence_bound, 2 (6 sqrt(2) / 2 + sqrt(xy) 6 c^2 / 4) / sqrt(n)
        n, x, alpha = 2000, 0.2, 1.0
        out = tmp_path / "c.csv"
        assert run(["concurrence", "--x", "0.2", "--alpha", "1", "--var-eps-a", "0.5",
                    "--var-eps-b", "0.5", "--t-max", "5", "--points", "50", "--samples", "2000",
                    "--seed", "7", "--out", str(out)]) == EXIT_OK
        c2 = (4.0 * alpha**2 - 1.0) / (4.0 * alpha**2)
        bound = 2.0 * (6.0 * math.sqrt(2.0) / 2.0 + math.sqrt(x * (1.0 - x)) * 6.0 * c2 / 4.0) / math.sqrt(n)
        _, cols = read_csv(out)
        assert len(cols["C"]) == 50
        for c, c_mc in zip(cols["C"], cols["C_mc"]):
            assert 0.0 <= c_mc <= 1.0 and abs(c_mc - c) <= bound, (c, c_mc, bound)

    def test_mc_concurrence_is_that_of_the_mean_xstate_gap(self, tmp_path):
        # C_mc is mc_concurrence of the same sample value for value, read back bit
        # for bit from its 17 digits: a C_mc built from |Re z| instead of |z|
        # moves by up to 4e-4, well inside the six-sigma bound above
        out = tmp_path / "c.csv"
        assert run(["concurrence", "--x", "0.2", "--alpha", "1", "--var-eps-a", "0.5",
                    "--var-eps-b", "0.5", "--t-max", "5", "--points", "50", "--samples", "2000",
                    "--seed", "7", "--out", str(out)]) == EXIT_OK
        s = two_scenario(x=0.2, alpha=1.0, var_a=0.5, var_b=0.5)
        expected = mc_concurrence(sample_ensemble(s, 2000, 7, 5.0, 50), s)
        assert read_csv(out)[1]["C_mc"] == expected.tolist()


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
        # the paper's claim (ii) as a map: the same cells are empty on every
        # map, and every other t_c falls strictly at each larger var_eps_b; the
        # second case is the README's figure maps at their smoke size
        for resolution, var_bs, empty in (("6", ("0", "0.5"), 6), ("5", ("0", "0.5", "2"), 5)):
            maps = []
            for vb in var_bs:
                out = tmp_path / f"tc_r{resolution}_vb{vb}.csv"
                assert run(["tc-map", "--x", "0.2", "--var-eps-b", vb, "--alpha-range", "0.5", "3",
                            "--var-range", "0.1", "2", "--resolution", resolution,
                            "--out", str(out)]) == EXIT_OK
                cols = read_csv(out)[1]
                assert_status_counts_match_empty_cells(out, cols["tc"])
                maps.append(cols)
            assert all(m["alpha"] == maps[0]["alpha"] and m["var_eps_a"] == maps[0]["var_eps_a"]
                       for m in maps)
            tcs = [m["tc"] for m in maps]
            assert all([tc is None for tc in m] == [tc is None for tc in tcs[0]] for m in tcs)
            assert len(tcs[0]) == int(resolution) ** 2 and tcs[0].count(None) == empty
            for cell in zip(*tcs):
                assert cell[0] is None or all(fast < slow for slow, fast in zip(cell, cell[1:])), cell

    @pytest.mark.parametrize("var_b", ["0.5", "0"])
    def test_every_finite_tc_brackets_its_sign_change(self, tmp_path, var_b):
        # every cell takes the full solve, from the bracket of its Newton
        # estimate: on the r40 maps with and without transverse noise, each
        # written t_c ends the pair of adjacent floats where the zero-frequency
        # gap changes sign
        out = tmp_path / "tc.csv"
        assert run(["tc-map", "--x", "0.2", "--var-eps-b", var_b, "--alpha-range", "0.5", "3",
                    "--var-range", "0.1", "2", "--resolution", "40", "--out", str(out)]) == EXIT_OK
        _, cols = read_csv(out)
        assert_status_counts_match_empty_cells(out, cols["tc"])
        finite = [(alpha, var_a, tc) for alpha, var_a, tc
                  in zip(cols["alpha"], cols["var_eps_a"], cols["tc"]) if tc is not None]
        assert finite
        for alpha, var_a, tc in finite:
            s = two_scenario(alpha=alpha, x=0.2, var_a=var_a, var_b=float(var_b))
            below = scenario_gap(np.nextafter(tc, 0.0), s)
            assert below > 0.0 >= scenario_gap(tc, s), (alpha, var_a, tc, below)

    def test_sidecar_records_solver_diagnostics(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert run(["tc-map", "--x", "0.2", "--alpha-range", "0.5", "2",
                    "--var-range", "0.5", "1", "--resolution", "3", "--out", str(out)]) == EXIT_OK
        header, cols = read_csv(out)
        assert header == ["alpha", "var_eps_a", "tc"]
        solver = json.loads((tmp_path / "tc.csv.meta.json").read_text())["solver"]
        assert solver["tol"] == TOL
        assert solver["status_counts"] == {"finite": 6, "none": 3, "unresolved": 0}
        lo, hi = solver["t_max_range"]
        assert 0.0 < lo <= hi and max(tc for tc in cols["tc"] if tc is not None) < hi

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
    def test_unresolved_regime_leaves_cells_empty(self, tmp_path, fmt):
        def tc_map(*argv):
            out = tmp_path / f"m.{fmt}"
            assert run(["tc-map", *argv, "--resolution", "3", "--format", fmt,
                        "--out", str(out)]) == EXIT_OK
            if fmt == "json":
                payload = json.loads(out.read_text())
                return payload["data"], payload["meta"]["solver"]
            assert "nan" not in out.read_text().lower()
            return read_csv(out)[1], json.loads((tmp_path / "m.csv.meta.json").read_text())["solver"]

        # roots from about 4e6 to 3e7 next to alpha = 1/2, past any fixed horizon
        cols, solver = tc_map("--x", "0.2", "--alpha-range", "0.5", "0.500001",
                              "--var-range", "0.1", "2")
        assert cols["tc"][:3] == [None] * 3 and all(tc > 1e6 for tc in cols["tc"][3:])
        assert solver["status_counts"] == {"finite": 6, "none": 3, "unresolved": 0}
        # at var_eps_a = 5e-324, var_a / 2 rounds to 0 and the computed gap
        # never falls: no root resolves
        cols, solver = tc_map("--x", "0.2", "--alpha-range", "1", "2",
                              "--var-range", "5e-324", "5e-324")
        assert cols["tc"] == [None] * 9
        assert solver["status_counts"] == {"finite": 0, "none": 0, "unresolved": 9}
        assert solver["t_max_range"] is None

    def test_status_counts_are_the_solver_column_counts(self, tmp_path):
        # alpha = 1/2 is "none"; at var_eps_a = 5e-324, var_a / 2 rounds to 0
        # ("unresolved"); the other cells are finite, at sqrt(xy) = 1.26e-130 too
        out = tmp_path / "m.csv"
        assert run(["tc-map", "--x", "1.6e-260", "--alpha-range", "0.5", "1.5",
                    "--var-range", "5e-324", "1e12", "--resolution", "3", "--out", str(out)]) == EXIT_OK
        _, cols = read_csv(out)
        counts = json.loads((tmp_path / "m.csv.meta.json").read_text())["solver"]["status_counts"]
        status = find_tc_batch(replace(two_scenario(x=1.6e-260), alpha=np.array(cols["alpha"]),
                                       var_a=np.array(cols["var_eps_a"])))["status"]
        assert counts == {st: status.tolist().count(st) for st in STATUSES}
        assert counts == {"finite": 4, "none": 3, "unresolved": 2}
        assert_status_counts_match_empty_cells(out, cols["tc"])

    def test_tiny_mixture_weight_resolves_every_root(self, tmp_path):
        # c^2 sqrt(xy) of about 1e-150: the roots lie from t = 12 to 111, and
        # only the alpha = 1/2 cells, without sudden death, are empty
        out = tmp_path / "m.csv"
        assert run(["tc-map", "--x", "1e-300", "--alpha-range", "0.5", "2",
                    "--var-range", "0.1", "2", "--resolution", "3", "--out", str(out)]) == EXIT_OK
        _, cols = read_csv(out)
        solver = json.loads((tmp_path / "m.csv.meta.json").read_text())["solver"]
        assert solver["status_counts"] == {"finite": 6, "none": 3, "unresolved": 0}
        assert [a for a, tc in zip(cols["alpha"], cols["tc"]) if tc is None] == [0.5] * 3


# Non-finite input, input whose results leave double precision, grid sizes
# refused up front (a 7 PiB time grid and a tc-map, both past physical
# memory), a Monte Carlo run of zero samples, seeds outside the
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


# The extreme floats of the exit-code contract, then valid values of each float setting
EXTREME_FLOATS = ["0", "-0", "5e-324", "-5e-324", "1e-300", "1.7e308", "-1.7e308", "inf", "-inf", "nan"]
VALID_FLOATS = {"omega_a": ["0", "4"], "alpha": ["0.5", "1", "5"], "xb": ["0.8", "1"],
                "x": ["0.2", "1"], "var_eps_a": ["0.5", "2"], "var_eps_b": ["0", "0.5"],
                "t_max": ["5"], "alpha_range": ["0.5", "1", "3"], "var_range": ["0.1", "2"]}


def float_values(key):
    """A valid value of the float setting ``key`` two times in three, else an extreme float."""
    valid = st.sampled_from(VALID_FLOATS[key])
    return st.one_of(valid, valid, st.sampled_from(EXTREME_FLOATS))


SETTING_VALUES = {
    **{key: float_values(key) for key in VALID_FLOATS},
    "points": st.integers(-1, 17),
    "samples": st.sampled_from([1, 600, 600, 0]),
    "seed": st.sampled_from([0, 7, 2**64 - 1, -1, 2**64]),
    "format": st.sampled_from(FORMATS),
}


@st.composite
def command_lines(draw):
    """A command with a random subset of the settings it reads (_READS), each drawn from
    valid values and the extreme floats; --points always, so that a run takes at most 17
    points, and tc-map also gets its axes. A setting is written --flag=value; an axis
    takes two tokens after its flag, where a negative value is read as a number too."""
    command = draw(st.sampled_from(sorted(_READS)))
    chosen = draw(st.sets(st.sampled_from(_READS[command]))) | {"points"}
    values = [(key, [draw(SETTING_VALUES[key])]) for key in _READS[command] if key in chosen]
    if command == "tc-map":
        values += [(key, [draw(float_values(key)), draw(float_values(key))])
                   for key in ("alpha_range", "var_range")]
        values.append(("resolution", [draw(st.integers(-1, 3))]))
    argv = [command]
    for key, value in values:
        flag = "--" + key.replace("_", "-")
        argv += [f"{flag}={value[0]}"] if len(value) == 1 else [flag, *value]
    return argv


@settings(max_examples=200)
@given(argv=command_lines())
# C_mc, the Monte Carlo gap's concurrence, past double precision and at its edges
@example(argv=["concurrence", "--alpha=1.7e308", "--samples=600", "--points=17"])
@example(argv=["concurrence", "--x=5e-324", "--var-eps-a=1e-300", "--samples=1", "--points=17",
               "--format=json"])
@example(argv=["concurrence", "--alpha=0.5", "--var-eps-b=1.7e308", "--samples=600", "--points=17"])
def test_every_command_line_exits_0_with_finite_cells_or_2_with_one_error_line(tmp_path_factory,
                                                                               argv):
    # at most 17 points, 600 samples and resolution 3; no other exit code, no
    # traceback and no escaped warning (RuntimeWarnings are errors here)
    out = tmp_path_factory.mktemp("exit") / "o.out"
    sidecar = Path(f"{out}.meta.json")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run([*argv, "--out", str(out)])
    err = stderr.getvalue()
    assert stdout.getvalue() == ""
    if code == EXIT_BAD_INPUT:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists() and not sidecar.exists()
        return
    assert code == EXIT_OK and err == ""
    if "--format=json" in argv:
        payload = json.loads(out.read_text(), parse_constant=_refuse_constant)
        columns = payload["data"]
    else:
        json.loads(sidecar.read_text(), parse_constant=_refuse_constant)
        columns = read_csv(out)[1]
    assert columns
    for name, col in columns.items():
        # only a tc-map cell without a finite t_c is empty
        assert all(math.isfinite(v) if v is not None else name == "tc" for v in col), name


# Runs past any machine's physical memory, refused on this machine's own figure:
# 1.5e16 and 6e20 bytes of solver memory, and about 8.8e12 bytes of columns for
# 1e11 analytic points, where without the budget numpy's own MemoryError would
# be the error line; each row with the start of its error line
PAST_MEMORY_ROWS = {
    "tc-map-5000000": (["tc-map", "--alpha-range", "0.5", "3", "--var-range", "0.1", "2",
                        "--resolution", "5000000"], "a 5000000 x 5000000 map"),
    "tc-map-1000000000": (["tc-map", "--alpha-range", "0.5", "3", "--var-range", "0.1", "2",
                           "--resolution", "1000000000"], "a 1000000000 x 1000000000 map"),
    "relax-100000000000": (["relax", "--points", "100000000000"], "relax at 100000000000 points"),
}


@pytest.mark.skipif(not hasattr(os, "sysconf"), reason="no os.sysconf to read memory from")
@pytest.mark.parametrize("argv, what", PAST_MEMORY_ROWS.values(), ids=PAST_MEMORY_ROWS)
def test_past_physical_memory_refused_before_any_grid(tmp_path, capsys, monkeypatch, argv, what):
    # only sizes the budget refuses up front; building a grid would fail the test
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "m.csv"
    assert run([*argv, "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} needs about ")
    assert err.endswith(" bytes of physical memory\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["relax", "concurrence"])
def test_sampler_workspace_past_physical_memory_refused_before_any_grid(tmp_path, capsys, monkeypatch,
                                                                      command, workers):
    # a machine of 1 MB: 2,000 samples at 400 points take a 512 x 400 workspace
    # of 2.9 MB per thread for either command, refused up front
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setenv("HENSIM_WORKERS", workers)
    monkeypatch.setattr("hensim.cli._physical_memory", lambda: 1 << 20)
    monkeypatch.setattr("hensim.cli.time_grid", no_grid)
    out = tmp_path / "mc.csv"
    assert run([command, "--samples", "2000", "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} at 400 points with {workers} sampler thread(s) needs about ")
    assert err.endswith(" bytes of physical memory\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", [None, "1", "1000000000"])
@pytest.mark.parametrize("command", ["relax", "concurrence"])
def test_every_per_point_array_is_budgeted_before_any_grid(tmp_path, capsys, monkeypatch, command,
                                                           samples):
    # a machine of 64 MB: a million points take 90 MB (relax) or 76 MB
    # (concurrence) of columns, sampled or not; 10^9 samples at 20,000 points
    # take 1.8 or 1.5 MB of columns and a 512-row workspace of 91 MB, as
    # many as 1,024 samples would (the chunks fold as they finish)
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setenv("HENSIM_WORKERS", "1")
    monkeypatch.setattr("hensim.cli._physical_memory", lambda: 64 << 20)
    monkeypatch.setattr("hensim.cli.time_grid", no_grid)
    out = tmp_path / "big.csv"
    points = "20000" if samples == "1000000000" else "1000000"
    argv = [command, "--points", points, "--out", str(out)] + (["--samples", samples] if samples else [])
    assert run(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    threads = " with 1 sampler thread(s)" if samples else ""
    assert err.startswith(f"error: {command} at {points} points{threads} needs about ")
    assert err.endswith(" bytes of physical memory\n") and err.count("\n") == 1
    assert not out.exists()


def traced_peak(argv):
    """Peak traced bytes of one successful run; a collection first, so that no earlier
    test's garbage sets the baseline."""
    gc.collect()
    tracemalloc.start()
    try:
        assert run(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["relax", "concurrence"])
def test_point_budget_holds_each_form_with_little_room(tmp_path, monkeypatch, command):
    # the traced peak's slope in the point count, analytic-only and with one
    # sample, as CSV and as JSON, against the budget's: _POINT_BYTES, plus
    # sampler_bytes' slope when sampled. The need is the largest slope, less
    # the sampler's, and _POINT_BYTES leaves it at most 15% room. From 4,000
    # points up the writers' fixed 512-row blocks no longer set the smaller
    # run's peak, and the analytic-only slopes bind, CSV and JSON alike:
    # 78 B for relax and 72 B for concurrence
    monkeypatch.setenv("HENSIM_WORKERS", "1")
    lo, hi = 4000, 16000
    # a first run traces one-time allocations too, the sampler's lazy import
    # of its thread pool among them
    assert run([command, "--points", str(lo), "--samples", "1", "--out", str(tmp_path / "o.csv")]) == EXIT_OK
    need = 0.0
    for samples in ([], ["--samples", "1"]):
        sampler = (sampler_bytes(1, hi)[1] - sampler_bytes(1, lo)[1]) / (hi - lo) if samples else 0.0
        for fmt in FORMATS:
            peaks = [traced_peak([command, "--points", str(points), "--format", fmt, *samples,
                                  "--out", str(tmp_path / f"o.{fmt}")]) for points in (lo, hi)]
            slope = (peaks[1] - peaks[0]) / (hi - lo)
            assert slope <= _POINT_BYTES[command] + sampler, (samples, fmt, slope)
            need = max(need, slope - sampler)
    assert _POINT_BYTES[command] <= 1.15 * need


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_sampler_budget_bounds_its_real_peak(tmp_path, monkeypatch):
    # ru_maxrss of a sampled relax run in a fresh interpreter, less that of the
    # same run without --samples, is at most 1.25 x what sampler_bytes budgets:
    # two threads' 512 x 20,000-point workspaces, about 187 MB, which the CLI's
    # memory check adds up
    monkeypatch.setenv("HENSIM_WORKERS", "2")
    code = ("import resource, sys; from hensim.cli import main; assert main(sys.argv[1:]) == 0; "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    peaks = []
    for samples in ([], ["--samples", "1024"]):
        proc = run_child(["-c", code, "relax", "--points", "20000", "--out", str(tmp_path / "rss.csv"),
                          *samples])
        assert proc.returncode == 0, proc.stderr
        peaks.append(1024 * int(proc.stdout))
    analytic, sampled = peaks
    threads, budget = sampler_bytes(1024, 20000)
    assert threads == 2 and sampled - analytic <= 1.25 * budget, (sampled - analytic, budget)


def cgroup_files(tmp_path, membership, limits):
    """A /proc/self/cgroup text and {path under the mount point: file text}, as _CGROUP."""
    (tmp_path / "cgroup").write_text(membership)
    for path, text in limits.items():
        (tmp_path / "fs" / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / "fs" / path).write_text(text)
    return str(tmp_path / "cgroup"), str(tmp_path / "fs")


HUGE = "9223372036854771712\n"  # cgroup v1's "no limit", 2^63 less a page


@pytest.mark.parametrize("membership, limits, expected", [
    # v2: the lowest memory.max on the path from the mount point; "max" is none
    ("0::/a/b/c\n", {"memory.max": "max\n", "a/memory.max": "3145728\n",
                      "a/b/memory.max": "5242880\n", "a/b/c/memory.max": "max\n"}, 3 << 20),
    # v2 at the mount point itself, as a container with its own cgroup namespace sees it
    ("0::/\n", {"memory.max": "1048576\n"}, 1 << 20),
    # v1: memory.limit_in_bytes under the memory controller's mount
    ("5:cpu,cpuacct:/x\n4:memory:/x\n", {"memory/memory.limit_in_bytes": HUGE,
                                           "memory/x/memory.limit_in_bytes": "2097152\n"}, 2 << 20),
    ("4:memory:/x\n", {"memory/x/memory.limit_in_bytes": HUGE}, None),
    ("0::/a\n", {"a/memory.max": "max\n"}, None),
    ("0::/a\n", {}, None),
], ids=["v2-parent", "v2-root", "v1", "v1-none", "v2-none", "no-file"])
def test_cgroup_memory_limit(tmp_path, monkeypatch, membership, limits, expected):
    monkeypatch.setattr("hensim.cli._CGROUP", cgroup_files(tmp_path, membership, limits))
    assert _cgroup_memory() == expected
    if expected is not None:  # below any machine's physical memory
        assert _physical_memory() == expected


def test_unreadable_cgroup_membership_is_no_limit(tmp_path, monkeypatch):
    monkeypatch.setattr("hensim.cli._CGROUP", (str(tmp_path / "absent"), str(tmp_path)))
    assert _cgroup_memory() is None


def test_run_past_a_cgroup_limit_is_refused(tmp_path, capsys, monkeypatch):
    # a 4 MB cgroup: 2,000 samples at 800 points take a 5.2 MB workspace,
    # and would be killed past the limit instead of exiting 2
    monkeypatch.setenv("HENSIM_WORKERS", "1")
    monkeypatch.setattr("hensim.cli._CGROUP", cgroup_files(tmp_path, "0::/\n", {"memory.max": "4194304\n"}))
    out = tmp_path / "mc.csv"
    assert run(["relax", "--samples", "2000", "--points", "800", "--out", str(out)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: relax at 800 points with 1 sampler thread(s) needs about ")
    assert err.endswith(" more than the 4.19e+06 bytes of physical memory\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["relax", "concurrence"])
def test_sampler_budget_leaves_analytic_runs_and_fitting_runs_alone(tmp_path, monkeypatch, command):
    # at 400 points the columns take at most 140 kB; 10 samples add a
    # 10 x 400 workspace of 58 kB
    monkeypatch.setattr("hensim.cli._physical_memory", lambda: 1 << 20)
    assert run([command, "--out", str(tmp_path / "a.csv")]) == EXIT_OK
    assert run([command, "--samples", "10", "--out", str(tmp_path / "mc.csv")]) == EXIT_OK


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
    proc = run_child(["-m", "hensim.cli", "relax", *argv, "--out", str(out)], HENSIM_WORKERS="2")
    assert proc.returncode == EXIT_BAD_INPUT
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_parser_loads_neither_the_oracles_nor_the_thread_pool():
    # the analytic commands never sample, and only `validate` needs the oracle
    # suite, so building the parser loads neither; a fresh interpreter shows
    # what the import itself loads
    code = ("import sys, hensim.cli; hensim.cli.build_parser(); "
            "print(sorted({'hensim.validation', 'concurrent.futures'} & set(sys.modules)))")
    proc = run_child(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
    # one-cell maps whose t_c is pinned bit for bit: alpha sqrt(var_a) or
    # (alpha - 1/2)^2 var_a overflows (a bound on t_c formed naively would be 0),
    # and roots of 1 and 2 subnormal units
    *((["tc-map", "--x", "0.2", "--alpha-range", alpha, alpha, "--var-range", var, var,
        "--resolution", "1"], {"tc": [tc]})
      for alpha, var, tc in [("1e308", "100", 1.795009207101734e-309),
                             ("1e200", "1e250", 5e-324),
                             ("1e160", "2", 1.2692631826339237e-160),
                             ("1e308", "4e30", 1e-323)]),
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
        # t_c -> 0; no sudden death without longitudinal noise
        for var, tc in zip(cols["var_eps_a"], cols["tc"]):
            assert (tc is None) == (var == 0.0)
            assert tc is None or 0.0 < tc <= 1e-8
        assert limits is None or cols["tc"] == limits["tc"]
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


_RELAX_MC = ["relax", "--omega-a", "4", "--alpha", "1", "--xb", "0.9", "--var-eps-a", "0.6",
             "--t-max", "4", "--points", "400", "--seed", "7"]
_CONCURRENCE_MC = ["concurrence", "--x", "0.2", "--alpha", "1", "--var-eps-a", "0.5", "--var-eps-b", "0.5",
                   "--t-max", "5", "--points", "400", "--seed", "7"]
# The legs of the byte-identity test, each (name, argv): 2,000 samples are 4
# chunks of 512, so 2 workers really share them, as CSV and as JSON, which
# writes floats with repr, a path apart from the CSV's %.17g; 300 samples are
# one chunk, which runs on a pool of one thread either way; validate's Monte
# Carlo checks run 8,000 and up to 10,000 samples
IDENTITY_LEGS = [
    *((f"{argv[0]}.{fmt}", [*argv, "--samples", "2000", "--format", fmt])
      for fmt in FORMATS for argv in (_RELAX_MC, _CONCURRENCE_MC)),
    ("relax300.csv", [*_RELAX_MC, "--samples", "300"]),
    ("validate", ["validate", "--level", "full"]),
]
# Runs the legs of argv[1] at each worker count, writing directory w<workers>:
# each leg's stdout to <name>.stdout and its output (but validate's) to <name>
IDENTITY_SCRIPT = """
import contextlib, json, os, sys
from hensim.cli import main
for workers in ("1", "2"):
    os.environ["HENSIM_WORKERS"] = workers
    os.mkdir(f"w{workers}")
    for name, argv in json.loads(sys.argv[1]):
        out = [] if argv[0] == "validate" else ["--out", f"w{workers}/{name}"]
        with open(f"w{workers}/{name}.stdout", "w") as fh, contextlib.redirect_stdout(fh):
            assert main([*argv, *out]) == 0, (workers, argv)
"""


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

    def test_monte_carlo_bytes_hold_for_any_worker_and_blas_thread_count(self, tmp_path):
        # numpy reads OPENBLAS_NUM_THREADS when it loads, so one fresh interpreter
        # per setting runs every leg of IDENTITY_LEGS at HENSIM_WORKERS 1, then 2;
        # both kernels' columns are BLAS matmuls, so with one OpenBLAS thread,
        # validate's stacked Monte Carlo fold included, every file must hold the
        # default run's bytes, and at either worker count
        trees = {}
        for blas, env in (("default", {}), ("blas1", {"OPENBLAS_NUM_THREADS": "1"})):
            (tmp_path / blas).mkdir()
            proc = run_child(["-c", IDENTITY_SCRIPT, json.dumps(IDENTITY_LEGS)], cwd=tmp_path / blas,
                             **env)
            assert proc.returncode == 0, proc.stderr
            for workers in ("1", "2"):
                trees[blas, workers] = {path.name: path.read_bytes()
                                        for path in (tmp_path / blas / f"w{workers}").iterdir()}
        first = trees["default", "1"]
        assert set(first) == ({f"{name}.stdout" for name, _ in IDENTITY_LEGS}
                              | {name for name, argv in IDENTITY_LEGS if argv[0] != "validate"}
                              | {f"{name}.meta.json" for name, _ in IDENTITY_LEGS if name.endswith(".csv")})
        assert b"PASS" in first["validate.stdout"]
        for key, tree in trees.items():
            assert tree.keys() == first.keys(), key
            assert [name for name in first if tree[name] != first[name]] == [], key


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

    # relax and concurrence also name the temperature they mimic: at alpha = 1,
    # xb = 1 the steady population is 3/8, which is thermal at beta Delta =
    # ln(5/3); at x = 1/2 the first working qubit's is 1/2, infinite temperature
    thermal = {"steady_population": pytest.approx(0.375, rel=1e-15),
               "beta_delta": pytest.approx(math.log(5.0 / 3.0), rel=1e-15)}
    hot = {"steady_population": 0.5, "beta_delta": 0.0}
    for command, extra in (("relax", thermal), ("concurrence", hot)):
        config = SIDECAR_CONFIG[command]
        analytic = {"source": "analytic", "config": config, "command": command, **extra}
        assert sidecar(command, "--points", "5") == analytic
        assert sidecar(command, "--points", "5", "--samples", "600", "--seed", "5") == {
            **analytic, "config": {**config, "samples": 600, "seed": 5}, **provenance}
    meta = sidecar("tc-map", *_TC_AXES)
    assert meta == {"config": SIDECAR_CONFIG["tc-map"], "command": "tc-map",
                    "alpha_range": [1.0, 2.0], "var_range": [0.5, 1.0], "resolution": 2,
                    "beta_delta_range": [0.0, 0.0], "solver": meta["solver"]}
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


@pytest.mark.parametrize("x", [0.2, 0.5, 0.9, 0.0, 1.0])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 7.0])
def test_two_qubit_sidecars_name_the_mimicked_temperature(tmp_path, x, alpha):
    # the first working qubit's steady population p = 1/2 + c^2 (x - y) / 4
    # is thermal at bd = ln((1 - p) / p): 0 at x = 1/2 or alpha = 1/2, below 0
    # (an inverted population) for x > 1/2; tc-map names bd at both ends of
    # its alpha axis
    c2 = 1.0 - 1.0 / (4.0 * alpha**2)
    p = 0.5 + 0.25 * c2 * (2.0 * x - 1.0)
    out = tmp_path / "c.csv"
    assert run(["concurrence", "--x", str(x), "--alpha", str(alpha), "--points", "5",
                "--out", str(out)]) == EXIT_OK
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["steady_population"] == pytest.approx(p, rel=1e-15, abs=0.0)
    assert (meta["beta_delta"] > 0.0) == (p < 0.5) and (meta["beta_delta"] == 0.0) == (p == 0.5)
    assert 1.0 / (1.0 + math.exp(meta["beta_delta"])) == pytest.approx(p, rel=1e-14)
    assert run(["tc-map", "--x", str(x), "--alpha-range", "0.5", str(alpha), "--var-range", "0.5", "1",
                "--resolution", "2", "--out", str(out)]) == EXIT_OK
    meta = json.loads((tmp_path / "c.csv.meta.json").read_text())
    assert meta["beta_delta_range"][0] == 0.0
    assert meta["beta_delta_range"][1] == pytest.approx(math.log((1.0 - p) / p), rel=1e-14, abs=1e-15)


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


def test_negative_value_in_exponent_form_is_a_number(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["relax", "--omega-a", "-1e-3", "--points", "20", "--out", str(out)]) == EXIT_OK
    assert json.loads(Path(f"{out}.meta.json").read_text())["config"]["omega_a"] == -0.001


# A negative value in exponent form, or an infinite one, reaches the check of its
# setting; a token that is no number stays the parser's own error
@pytest.mark.parametrize("argv, line", [
    (["tc-map", "--x", "0.2", "--alpha-range", "0.5", "3", "--var-range", "0.1", "-1e-300",
      "--resolution", "3"], "var_a must be nonnegative, got -1e-300"),
    (["tc-map", "--alpha-range", "-1E+2", "3", "--var-range", "0.1", "2", "--resolution", "3"],
     "alpha must be >= 1/2, got -100.0"),
    (["relax", "--omega-a", "-inf"], "omega_a must be finite, got -inf"),
    (["concurrence", "--omega-a", "-Infinity"], "omega_a must be finite, got -inf"),
    (["relax", "--omega-a", "-x"], "hensim relax: argument --omega-a: expected one argument"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_negative_value_reaches_its_check(tmp_path, capsys, argv, line):
    out = tmp_path / "x.out"
    assert run([*argv, "--out", str(out)]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["-h"], ["relax", "-h"], ["tc-map", "--help"]], ids=" ".join)
def test_help_exits_zero(capsys, argv):
    assert run(argv) == EXIT_OK
    assert "usage: hensim" in capsys.readouterr().out
