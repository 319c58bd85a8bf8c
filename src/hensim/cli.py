"""Command-line front end: relax, concurrence, tc-map and validate subcommands.

Configuration is accepted both as flags and as a JSON config file; flags
override file values, and the merged effective config is echoed into the output
metadata. Exit codes: 0 success, 1 validation failure, 2 bad input (including
inputs that overflow double precision, sizes that cannot be allocated and an
output path that cannot be written). Floats are written with 17 significant
digits, so they read back bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings

import numpy as np

from hensim.analytic import gap_args, single_trajectory
from hensim.ensemble import sample_ensemble
from hensim.entanglement import (
    FINITE,
    STATUSES,
    TOL,
    concurrence_trajectory,
    concurrence_x,
    find_tc_batch,
)
from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, XState, time_grid
from hensim.validation import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2

_DEFAULTS = {
    "omega_a": 0.0,
    "omega_b": 0.0,
    "alpha": 1.0,
    "xb": 1.0,
    "x": 0.5,
    "var_eps_a": 1.0,
    "var_eps_b": 0.0,
    "t_max": 5.0,
    "points": 400,
    "samples": None,
    "seed": 12345,
    "format": "csv",
}
FORMATS = ("csv", "json")
_INTEGER_KEYS = ("points", "samples", "seed")
# Monte Carlo provenance copied into the output metadata; no worker count, so
# that the sidecar is byte-identical for any HENSIM_WORKERS
_MC_PROVENANCE = ("n", "seed", "rng", "chunk")


class BadInput(ValueError):
    """Configuration or flag error; maps to exit code 2, like every ValueError."""


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--omega-a", dest="omega_a", type=float, help="working-qubit frequency")
    sub.add_argument("--omega-b", dest="omega_b", type=float, help="second working-qubit frequency")
    sub.add_argument("--alpha", type=float, help="coupling-law parameter (>= 1/2)")
    sub.add_argument("--xb", type=float, help="auxiliary-qubit |+> amplitude (yb = sqrt(1-xb^2))")
    sub.add_argument("--x", type=float, help="auxiliary mixture weight (y = 1 - x)")
    sub.add_argument("--var-eps-a", dest="var_eps_a", type=float, help="longitudinal spacing variance")
    sub.add_argument("--var-eps-b", dest="var_eps_b", type=float, help="transverse spacing variance")
    sub.add_argument("--t-max", dest="t_max", type=float, help="time-grid endpoint")
    sub.add_argument("--points", type=int, help="time-grid point count")
    sub.add_argument("--samples", type=int, help="Monte Carlo sample count (omit for analytic only)")
    sub.add_argument("--seed", type=int, help="master seed for the sample streams")
    sub.add_argument("--out", required=True, help="output file path")
    sub.add_argument("--format", choices=FORMATS, help="output format (default csv)")


def _check_file_value(key, val) -> None:
    """Refuse a config-file value whose type the matching flag would not accept."""
    if key == "format":
        ok, kind = val in FORMATS, "'csv' or 'json'"
    elif key in _INTEGER_KEYS:
        ok, kind = type(val) is int or (key == "samples" and val is None), "an integer"
    else:
        ok, kind = type(val) in (int, float), "a number"
    if not ok:
        raise BadInput(f"config key {key!r} must be {kind}, got {json.dumps(val)}")


def merged_config(ns: argparse.Namespace) -> dict:
    """Defaults <- config file <- explicit flags, in increasing precedence.

    The config file must hold a JSON object over the flag names, each value of
    the flag's type: a number, an integer for points, samples (or null) and
    seed, and "csv" or "json" for format.
    """
    cfg = dict(_DEFAULTS)
    if getattr(ns, "config", None):
        try:
            with open(ns.config) as fh:
                from_file = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BadInput(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise BadInput(f"config file {ns.config} must hold a JSON object")
        unknown = set(from_file) - set(_DEFAULTS)
        if unknown:
            raise BadInput(f"unknown config keys: {sorted(unknown)}")
        for key, val in from_file.items():
            _check_file_value(key, val)
        cfg.update(from_file)
    for key in _DEFAULTS:
        val = getattr(ns, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _single_scenario(cfg) -> SingleQubitScenario:
    xb = float(cfg["xb"])
    if not 0.0 <= xb <= 1.0:
        raise BadInput(f"xb must lie in [0, 1], got {xb}")
    return SingleQubitScenario(
        omega_a=float(cfg["omega_a"]),
        alpha=float(cfg["alpha"]),
        xb=xb,
        yb=math.sqrt(1.0 - xb**2),
        var=float(cfg["var_eps_a"]),
    )


def _two_scenario(cfg) -> TwoQubitScenario:
    return TwoQubitScenario(
        omega_a=float(cfg["omega_a"]),
        omega_b=float(cfg["omega_b"]),
        alpha=float(cfg["alpha"]),
        x=float(cfg["x"]),
        var_a=float(cfg["var_eps_a"]),
        var_b=float(cfg["var_eps_b"]),
    )


def format_float(v) -> str:
    return f"{float(v):.17g}"


def write_csv(path, header: list[str], rows) -> None:
    """Write a table; cells may be floats or None (emitted as empty)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else format_float(v) for v in row])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(path, fmt, columns: dict, meta: dict) -> None:
    """Write equal-length named columns as CSV plus a <path>.meta.json sidecar, or as one JSON file.

    Cells are numbers or None (an empty CSV field, a JSON null); a NaN or
    infinite cell is refused before any file is opened. ``fmt`` is one of
    FORMATS, which merged_config checked before any work was done.
    """
    for name, col in columns.items():
        if not all(v is None or math.isfinite(v) for v in col):
            raise BadInput(f"column {name!r} has non-finite values: the inputs "
                           "exceed the range of double precision")
    if fmt == "csv":
        write_csv(path, list(columns), zip(*columns.values()))
        write_json(f"{path}.meta.json", meta)
    else:
        data = {name: [None if v is None else float(v) for v in col]
                for name, col in columns.items()}
        write_json(path, {"meta": meta, "data": data})


def cmd_relax(ns) -> int:
    cfg = merged_config(ns)
    s = _single_scenario(cfg)
    grid = time_grid(float(cfg["t_max"]), int(cfg["points"]))
    traj = single_trajectory(s, grid)
    columns = {"t": traj.times, **traj.columns}
    meta = {**traj.meta, "config": cfg, "command": "relax"}
    if cfg["samples"]:
        mc = sample_ensemble(s, int(cfg["samples"]), int(cfg["seed"]), grid)
        for name in traj.columns:
            columns[name + "_mc"] = mc.columns[name]
            columns[name + "_mc_se"] = mc.columns[name + "_se"]
        meta.update({key: mc.meta[key] for key in _MC_PROVENANCE})
    _emit(ns.out, cfg["format"], columns, meta)
    return EXIT_OK


def cmd_concurrence(ns) -> int:
    cfg = merged_config(ns)
    s = _two_scenario(cfg)
    grid = time_grid(float(cfg["t_max"]), int(cfg["points"]))
    traj = concurrence_trajectory(s, grid)
    columns = {"t": traj.times, **traj.columns}
    meta = {**traj.meta, "config": cfg, "command": "concurrence"}
    if cfg["samples"]:
        mc = sample_ensemble(s, int(cfg["samples"]), int(cfg["seed"]), grid)
        cols = mc.columns
        columns["C_mc"] = concurrence_x(
            XState(cols["a"], cols["b"], cols["c"], cols["d"], cols["re_z"] + 1j * cols["im_z"]))
        meta.update({key: mc.meta[key] for key in _MC_PROVENANCE})
    _emit(ns.out, cfg["format"], columns, meta)
    return EXIT_OK


def _solver_meta(results) -> dict:
    """Map-wide solver diagnostics for the output metadata; the table itself stays alpha, var, t_c."""
    horizons = [r.t_max for r in results if r.status == FINITE]
    return {
        "tol": TOL,
        "status_counts": {st: sum(r.status == st for r in results) for st in STATUSES},
        "t_max_range": [min(horizons), max(horizons)] if horizons else None,
    }


def cmd_tc_map(ns) -> int:
    cfg = merged_config(ns)
    base = _two_scenario(cfg)
    if base.omega_a != 0.0:
        raise BadInput("tc-map requires omega_a = 0")
    alpha_lo, alpha_hi = ns.alpha_range
    var_lo, var_hi = ns.var_range
    if not all(math.isfinite(v) for v in (alpha_lo, alpha_hi, var_lo, var_hi)):
        raise BadInput("ranges must be finite")
    if alpha_lo < 0.5:
        raise BadInput(f"alpha range must stay >= 1/2, got lower bound {alpha_lo}")
    if var_lo < 0:
        raise BadInput(f"variance range must be nonnegative, got lower bound {var_lo}")
    if alpha_hi < alpha_lo or var_hi < var_lo:
        raise BadInput("ranges must be increasing")
    res = int(ns.resolution)
    if res < 1:
        raise BadInput("resolution must be >= 1")
    alpha, var_a = np.meshgrid(np.linspace(alpha_lo, alpha_hi, res),
                               np.linspace(var_lo, var_hi, res), indexing="ij")
    _, _, var_b, omega_a, xy = gap_args(base)
    results = find_tc_batch(alpha, var_a, var_b, omega_a, xy)
    columns = {"alpha": alpha.ravel(), "var_eps_a": var_a.ravel(),
               "tc": [r.t_c for r in results]}
    meta = {"config": cfg, "command": "tc-map", "alpha_range": list(ns.alpha_range),
            "var_range": list(ns.var_range), "resolution": res,
            "solver": _solver_meta(results)}
    _emit(ns.out, cfg["format"], columns, meta)
    return EXIT_OK


def cmd_validate(ns) -> int:
    results = run_suite(ns.level)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    print(f"{'all checks passed' if ok else 'some checks FAILED'}")
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hensim",
        description="Hamiltonian-ensemble qubit relaxation and disentanglement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_relax = sub.add_parser("relax", help="single-qubit averaged relaxation curves")
    _add_common(p_relax)
    p_relax.set_defaults(fn=cmd_relax)

    p_conc = sub.add_parser("concurrence", help="two-working-qubit concurrence C(t)")
    _add_common(p_conc)
    p_conc.set_defaults(fn=cmd_concurrence)

    p_tc = sub.add_parser("tc-map", help="critical disentanglement time over (alpha, variance)")
    _add_common(p_tc)
    p_tc.add_argument("--alpha-range", dest="alpha_range", type=float, nargs=2,
                      metavar=("LO", "HI"), required=True)
    p_tc.add_argument("--var-range", dest="var_range", type=float, nargs=2,
                      metavar=("LO", "HI"), required=True)
    p_tc.add_argument("--resolution", type=int, required=True, help="grid points per axis")
    p_tc.set_defaults(fn=cmd_tc_map)

    p_val = sub.add_parser("validate", help="run the oracle cross-check suites")
    p_val.add_argument("--level", choices=("quick", "full"), default="quick")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        # a non-finite result is refused by _emit, so numpy's warnings about
        # the overflow behind it would only add lines to the one error line;
        # the filter is process-wide, so it also covers the sampler's threads
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return ns.fn(ns)
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        # ValueError includes BadInput; ArithmeticError is an input that
        # overflows double precision; MemoryError a size that cannot be
        # allocated; OSError an output path that cannot be written (an
        # unreadable config file is already a BadInput)
        detail = str(exc) if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
