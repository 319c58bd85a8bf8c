"""Command-line front end: relax, concurrence, tc-map and validate subcommands.

Each command takes only the settings it reads (_READS): relax omega_a, alpha,
xb and var_eps_a; concurrence omega_a, alpha, x, var_eps_a and var_eps_b; both
also t_max, points, samples, seed and format; tc-map x, var_eps_b and format,
besides its axis flags. Each comes as a flag or from a JSON config file over the
same keys; flags override file values, and the output metadata echoes exactly
the command's settings. Exit codes: 0 success, 1 validation failure, 2 bad
input, one error line (including a malformed flag, inputs that overflow double
precision, sizes that cannot be allocated, a tc-map past physical memory and
an output path that cannot be written). Floats are written with 17 significant
digits, so they read back bit for bit.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings

import numpy as np

from hensim.analytic import gap_args, single_trajectory, steady_population
from hensim.ensemble import CHUNK, RNG, sample_ensemble
from hensim.entanglement import (
    CELL_BYTES,
    FINITE,
    STATUSES,
    TOL,
    concurrence_trajectory,
    concurrence_x,
    find_tc_batch,
)
from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, time_grid
from hensim.validation import run_suite

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_BAD_INPUT = 2

FORMATS = ("csv", "json")
# Every setting a command can read: its flag type (or its choices), default and
# help. The key is the flag's name with "_" for "-", and its config-file key.
_SETTINGS = {
    "omega_a": (float, 0.0, "working-qubit frequency"),
    "alpha": (float, 1.0, "coupling-law parameter (>= 1/2)"),
    "xb": (float, 1.0, "auxiliary-qubit |+> amplitude (yb = sqrt(1-xb^2))"),
    "x": (float, 0.5, "auxiliary mixture weight (y = 1 - x)"),
    "var_eps_a": (float, 1.0, "longitudinal spacing variance"),
    "var_eps_b": (float, 0.0, "transverse spacing variance"),
    "t_max": (float, 5.0, "time-grid endpoint"),
    "points": (int, 400, "time-grid point count"),
    "samples": (int, None, "Monte Carlo sample count (omit for analytic only)"),
    "seed": (int, 12345, "master seed for the sample streams"),
    "format": (FORMATS, "csv", "output format (default csv)"),
}
# The settings each command reads: its flags, its config-file keys and its echoed
# config. relax and concurrence share the time grid, the sampling and the format.
_TRAJECTORY = ("t_max", "points", "samples", "seed", "format")
_READS = {
    "relax": ("omega_a", "alpha", "xb", "var_eps_a", *_TRAJECTORY),
    "concurrence": ("omega_a", "alpha", "x", "var_eps_a", "var_eps_b", *_TRAJECTORY),
    "tc-map": ("x", "var_eps_b", "format"),
}


class BadInput(ValueError):
    """Configuration or flag error; maps to exit code 2, like every ValueError."""


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise BadInput, for main's one error line; subparsers share it.

    Abbreviated flags are refused, so that relax cannot read --x as --xb.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise BadInput(f"{self.prog}: {message}")


def _check_file_value(key, val) -> None:
    """Refuse a config-file value whose type the matching flag would not accept."""
    kind, default, _ = _SETTINGS[key]
    if kind is float:
        ok, name = type(val) in (int, float), "a number"
    elif kind is int:
        ok, name = type(val) is int or (val is None and default is None), "an integer"
    else:
        ok, name = val in kind, " or ".join(map(repr, kind))
    if not ok:
        raise BadInput(f"config key {key!r} must be {name}, got {json.dumps(val)}")


def merged_config(ns: argparse.Namespace) -> dict:
    """The settings the command reads: defaults <- config file <- explicit flags.

    The config file must hold a JSON object over the command's own keys, each
    value of the flag's type: a number, an integer for points, samples (or
    null) and seed, and "csv" or "json" for format.
    """
    keys = _READS[ns.command]
    cfg = {key: _SETTINGS[key][1] for key in keys}
    if ns.config:
        try:
            with open(ns.config) as fh:
                from_file = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise BadInput(f"cannot read config file {ns.config}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise BadInput(f"config file {ns.config} must hold a JSON object")
        unknown = set(from_file) - set(keys)
        if unknown:
            raise BadInput(f"unknown config keys: {sorted(unknown)}")
        for key, val in from_file.items():
            _check_file_value(key, val)
        cfg.update(from_file)
    for key in keys:
        val = getattr(ns, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _single_scenario(cfg) -> SingleQubitScenario:
    xb = float(cfg["xb"])
    if not 0.0 <= xb <= 1.0:
        raise BadInput(f"xb must lie in [0, 1], got {xb}")
    return SingleQubitScenario(omega_a=float(cfg["omega_a"]), alpha=float(cfg["alpha"]), xb=xb,
                               yb=math.sqrt(1.0 - xb**2), var=float(cfg["var_eps_a"]))


def _two_scenario(cfg, **model) -> TwoQubitScenario:
    """A concurrence or tc-map record: x and var_b from cfg, omega_a, alpha and var_a given.

    omega_b is 0: it turns only the phase of z, which every realization shares,
    so no column depends on it.
    """
    return TwoQubitScenario(omega_b=0.0, x=float(cfg["x"]), var_b=float(cfg["var_eps_b"]), **model)


def format_float(v) -> str:
    return f"{float(v):.17g}"


# Rows formatted and written at a time, so that no formatted copy of a whole
# table is ever held.
_BLOCK_ROWS = 512


def _cell_texts(col) -> list[str]:
    """format_float of each cell of a column slice, "" for None; an array holds no None."""
    if isinstance(col, np.ndarray):
        return [f"{v:.17g}" for v in col.tolist()]
    return ["" if v is None else f"{v:.17g}" for v in col]


def write_csv(path, columns: dict) -> None:
    """Write equal-length named columns as a table; cells are numbers or None (emitted as empty).

    The bytes are those csv.writer writes for the same rows, formatted a
    block of rows at a time, column by column: no formatted cell holds a
    comma, quote or line break, so none is quoted.
    """
    lengths = {len(col) for col in columns.values()}
    if len(lengths) != 1:
        raise ValueError(f"columns must have one equal length, got lengths {sorted(lengths)}")
    (n,) = lengths
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(columns)
        for i in range(0, n, _BLOCK_ROWS):
            block = [_cell_texts(col[i:i + _BLOCK_ROWS]) for col in columns.values()]
            if len(block) == 1:
                # csv.writer quotes a record that is a single empty field
                block = [[v or '""' for v in block[0]]]
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


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
        finite = (np.isfinite(col).all() if isinstance(col, np.ndarray)
                  else all(v is None or math.isfinite(v) for v in col))
        if not finite:
            raise BadInput(f"column {name!r} has non-finite values: the inputs "
                           "exceed the range of double precision")
    if fmt == "csv":
        write_csv(path, columns)
        write_json(f"{path}.meta.json", meta)
    else:
        data = {name: col.tolist() if isinstance(col, np.ndarray)
                else [None if v is None else float(v) for v in col]
                for name, col in columns.items()}
        write_json(path, {"meta": meta, "data": data})


def _meta(cfg, command) -> dict:
    """Output metadata of relax and concurrence, with the Monte Carlo provenance when sampled.

    It records no worker count, so that the sidecar is byte-identical for any
    HENSIM_WORKERS.
    """
    meta = {"source": "analytic", "config": cfg, "command": command}
    if cfg["samples"] is not None:
        meta.update(n=cfg["samples"], seed=cfg["seed"], rng=RNG, chunk=CHUNK)
    return meta


def _thermal_meta(s: SingleQubitScenario) -> dict:
    """The temperature a relax run mimics: its steady population p = c^2 |xb|^2 / 2 and
    beta_delta = beta Delta = ln((1 - p) / p), the thermal state of that population.

    At p = 0 (alpha = 1/2 or xb = 0) beta Delta is infinite, zero temperature,
    which JSON cannot hold: beta_delta is null there.
    """
    p = steady_population(s.alpha, s.xb)
    return {"steady_population": p,
            "beta_delta": math.log1p(-p) - math.log(p) if p > 0.0 else None}


def cmd_relax(ns) -> int:
    cfg = merged_config(ns)
    s = _single_scenario(cfg)
    grid = time_grid(float(cfg["t_max"]), int(cfg["points"]))
    analytic = single_trajectory(s, grid)
    columns = {"t": grid, **analytic}
    if cfg["samples"] is not None:
        mc = sample_ensemble(s, cfg["samples"], cfg["seed"], grid)
        for name in analytic:
            columns[name + "_mc"] = mc[name]
            columns[name + "_mc_se"] = mc[name + "_se"]
    _emit(ns.out, cfg["format"], columns, {**_meta(cfg, "relax"), **_thermal_meta(s)})
    return EXIT_OK


def cmd_concurrence(ns) -> int:
    cfg = merged_config(ns)
    s = _two_scenario(cfg, omega_a=float(cfg["omega_a"]), alpha=float(cfg["alpha"]),
                      var_a=float(cfg["var_eps_a"]))
    grid = time_grid(float(cfg["t_max"]), int(cfg["points"]))
    columns = {"t": grid, "C": concurrence_trajectory(s, grid)}
    if cfg["samples"] is not None:
        mc = sample_ensemble(s, cfg["samples"], cfg["seed"], grid)
        columns["C_mc"] = concurrence_x(mc["a"], mc["d"], mc["re_z"] + 1j * mc["im_z"])
    _emit(ns.out, cfg["format"], columns, _meta(cfg, "concurrence"))
    return EXIT_OK


def _solver_meta(cells) -> dict:
    """Map-wide solver diagnostics for the output metadata; the table itself stays alpha, var, t_c."""
    horizons = cells["t_max"][cells["status"] == FINITE].tolist()
    return {
        "tol": TOL,
        "status_counts": {st: int(np.count_nonzero(cells["status"] == st)) for st in STATUSES},
        "t_max_range": [min(horizons), max(horizons)] if horizons else None,
    }


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where os.sysconf cannot tell."""
    try:
        size, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    # sysconf returns -1 for a limit it does not know
    return size * pages if size > 0 and pages > 0 else None


def cmd_tc_map(ns) -> int:
    cfg = merged_config(ns)
    # the records of the corners (alpha_lo, var_lo) and (alpha_hi, var_hi) check every range value
    lo, hi = (_two_scenario(cfg, omega_a=0.0, alpha=alpha, var_a=var)
              for alpha, var in zip(ns.alpha_range, ns.var_range))
    if hi.alpha < lo.alpha or hi.var_a < lo.var_a:
        raise BadInput("ranges must be increasing")
    res = int(ns.resolution)
    if res < 1:
        raise BadInput("resolution must be >= 1")
    need, memory = res * res * CELL_BYTES, _physical_memory()
    if memory is not None and need > memory:
        raise BadInput(f"a {res} x {res} map needs about {need:.3g} bytes, more than the "
                       f"{memory:.3g} bytes of physical memory")
    alpha, var_a = np.meshgrid(np.linspace(lo.alpha, hi.alpha, res),
                               np.linspace(lo.var_a, hi.var_a, res), indexing="ij")
    _, _, var_b, omega_a, xy = gap_args(lo)
    cells = find_tc_batch(alpha, var_a, var_b, omega_a, xy)
    # a cell without a finite t_c is empty (None), never NaN, which _emit refuses
    tc = [t if st == FINITE else None for t, st in zip(cells["t_c"].tolist(), cells["status"])]
    columns = {"alpha": alpha.ravel(), "var_eps_a": var_a.ravel(), "tc": tc}
    meta = {"config": cfg, "command": "tc-map", "alpha_range": list(ns.alpha_range),
            "var_range": list(ns.var_range), "resolution": res,
            "solver": _solver_meta(cells)}
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


def _command(sub, name, fn, text):
    """A subparser that takes exactly the settings _READS lists for ``name``."""
    p = sub.add_parser(name, help=text)
    p.add_argument("--config", help="JSON config file; flags override its values")
    for key in _READS[name]:
        kind, _, helptext = _SETTINGS[key]
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=helptext, **typed)
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hensim",
        description="Hamiltonian-ensemble qubit relaxation and disentanglement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _command(sub, "relax", cmd_relax, "single-qubit averaged relaxation curves")
    _command(sub, "concurrence", cmd_concurrence, "two-working-qubit concurrence C(t)")
    p_tc = _command(sub, "tc-map", cmd_tc_map,
                    "critical disentanglement time over (alpha, variance)")
    p_tc.add_argument("--alpha-range", dest="alpha_range", type=float, nargs=2,
                      metavar=("LO", "HI"), required=True)
    p_tc.add_argument("--var-range", dest="var_range", type=float, nargs=2,
                      metavar=("LO", "HI"), required=True)
    p_tc.add_argument("--resolution", type=int, required=True, help="grid points per axis")

    p_val = sub.add_parser("validate", help="run the oracle cross-check suites")
    p_val.add_argument("--level", choices=("quick", "full"), default="quick")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit:  # only -h exits the parser; its errors raise BadInput
            return EXIT_OK
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
