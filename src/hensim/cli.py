"""Command-line front end: relax, concurrence, tc-map and validate subcommands.

Each command takes only the settings it reads (_READS): relax omega_a, alpha,
xb and var_eps_a; concurrence omega_a, alpha, x, var_eps_a and var_eps_b; both
also t_max, points, samples, seed and format; tc-map x, var_eps_b and format,
besides its axis flags. Each comes as a flag or from a JSON config file over the
same keys; flags override file values, and the output metadata echoes exactly
the command's settings. Exit codes: 0 success, 1 validation failure, 2 bad
input, one error line (including a malformed flag, inputs that overflow double
precision, sizes that cannot be allocated, a tc-map's cells or a relax or
concurrence run's per-point arrays past physical memory and an output path that
cannot be written). Every output column is a float array, written with 17
significant digits, so it reads back bit for bit; NaN is the empty cell, which
only tc-map writes, where the solver finds no finite t_c.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import warnings
from dataclasses import replace

import numpy as np

from hensim.analytic import ad_root, single_trajectory, steady_population, steady_population_two
from hensim.ensemble import CHUNK, RNG, sample_ensemble, sampler_bytes
from hensim.entanglement import (
    CELL_BYTES,
    FINITE,
    STATUSES,
    TOL,
    concurrence,
    concurrence_trajectory,
    find_tc_batch,
)
from hensim.scenarios import SingleQubitScenario, TwoQubitScenario, time_grid

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

    Abbreviated flags are refused, so that relax cannot read --x as --xb; a negative
    number in any form float() reads (-1e-3, -inf, -nan) is a value, never a flag.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

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
                               var=float(cfg["var_eps_a"]))


def _two_scenario(cfg, **model) -> TwoQubitScenario:
    """A concurrence or tc-map record: x and var_b from cfg, omega_a, alpha and var_a given."""
    return TwoQubitScenario(x=float(cfg["x"]), var_b=float(cfg["var_eps_b"]), **model)


# Rows formatted and written at a time, so that no formatted copy of a whole
# table is ever held.
_BLOCK_ROWS = 512


def _cell_texts(col, spec, empty) -> list[str]:
    """Each cell of a column slice as format(cell, spec), ``empty`` for NaN, the empty cell.

    The slice is read as a float array, and its distinct values are formatted
    once each; they are told apart by their bits, so that 0.0 and -0.0 keep
    their own texts. The spec "" gives a float's repr.
    """
    bits, index = np.unique(np.asarray(col, dtype=float).view(np.int64), return_inverse=True)
    # NaN is the one value unequal to itself
    texts = [format(v, spec) if v == v else empty for v in bits.view(float).tolist()]
    return [texts[i] for i in index.tolist()]


def write_csv(path, columns: dict) -> None:
    """Write equal-length named float columns as a table: 17 significant digits, "" for NaN.

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
            block = [_cell_texts(col[i:i + _BLOCK_ROWS], ".17g", "") for col in columns.values()]
            if len(block) == 1:
                # csv.writer quotes a record that is a single empty field
                block = [[v or '""' for v in block[0]]]
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")


def write_json(path, meta: dict, columns: dict | None = None) -> None:
    """Write ``meta``, or {"data": columns, "meta": meta} when columns are given, with the bytes
    of json.dump(..., indent=2, sort_keys=True) and a line break.

    Each float column is written a block of rows at a time, so that no list of
    a whole column is made; a cell is its float's repr, and a NaN cell is null.
    """
    with open(path, "w") as fh:
        if columns is None:
            json.dump(meta, fh, indent=2, sort_keys=True)
        else:
            fh.write('{\n  "data": {')
            for k, name in enumerate(sorted(columns)):
                col = columns[name]
                fh.write(f'{"," if k else ""}\n    {json.dumps(name)}: [')
                for i in range(0, len(col), _BLOCK_ROWS):
                    fh.write(",\n      " if i else "\n      ")
                    fh.write(",\n      ".join(_cell_texts(col[i:i + _BLOCK_ROWS], "", "null")))
                fh.write("\n    ]" if len(col) else "]")
            fh.write("\n  }" if columns else "}")
            # json nests by indenting every line of the object one level further
            nested = json.dumps(meta, indent=2, sort_keys=True).replace("\n", "\n  ")
            fh.write(f',\n  "meta": {nested}\n}}')
        fh.write("\n")


def _emit(path, fmt, columns: dict, meta: dict, empty=()) -> None:
    """Write equal-length named float columns as CSV plus a <path>.meta.json sidecar, or as JSON.

    A NaN cell in a column named in ``empty`` is an empty cell (an empty CSV
    field, a JSON null); every other NaN or infinite cell is refused before
    any file is opened. ``fmt`` is one of FORMATS, which merged_config
    checked before any work was done.
    """
    for name, col in columns.items():
        if not (np.isfinite(col) | ((name in empty) & np.isnan(col))).all():
            raise BadInput(f"column {name!r} has non-finite values: the inputs "
                           "exceed the range of double precision")
    if fmt == "csv":
        write_csv(path, columns)
        write_json(f"{path}.meta.json", meta)
    else:
        write_json(path, meta, columns)


def _meta(cfg, command) -> dict:
    """Output metadata of relax and concurrence, with the Monte Carlo provenance when sampled.

    It records no worker count, so that the sidecar is byte-identical for any
    HENSIM_WORKERS.
    """
    meta = {"source": "analytic", "config": cfg, "command": command}
    if cfg["samples"] is not None:
        meta.update(n=cfg["samples"], seed=cfg["seed"], rng=RNG, chunk=CHUNK)
    return meta


def _beta_delta(p: float) -> float | None:
    """beta Delta = ln((1 - p) / p) of the thermal state whose excited population is p.

    At p = 0 beta Delta is infinite, zero temperature, which JSON cannot hold:
    it is None there.
    """
    return math.log1p(-p) - math.log(p) if p > 0.0 else None


def _thermal_meta(p: float) -> dict:
    """The temperature a relax or concurrence run mimics: its working qubit's steady
    population p (analytic.steady_population or steady_population_two) and its beta_delta."""
    return {"steady_population": p, "beta_delta": _beta_delta(p)}


# Peak bytes a relax or concurrence run takes per grid point besides its sampler
# (ensemble.sampler_bytes), with at most 15% room. Traced slopes (tracemalloc, one
# worker, numpy 2.4), relax and concurrence, CSV and JSON alike between 1e5 and
# 4e5 points: 80 and 72 B analytic-only, 150 and 136 B with one sample, of which
# sampler_bytes counts 152; between 4,000 and 16,000 points, where the tests
# measure them, 77.7 and 72.0 B analytic-only. 88 B leaves relax 13% room over
# the one and stays above the other.
_POINT_BYTES = {"relax": 88, "concurrence": 76}


# The process's cgroup membership and the cgroup filesystem's mount point.
_CGROUP = ("/proc/self/cgroup", "/sys/fs/cgroup")
_NO_LIMIT = 1 << 62  # a cgroup limit this large is none: v1 writes 2^63 less a page


def _cgroup_memory() -> int | None:
    """The process's cgroup memory limit in bytes, the lowest on its cgroup's path from the
    mount point: memory.max under cgroup v2, memory.limit_in_bytes under v1. None where no
    file is set ("max", or at least _NO_LIMIT) or none can be read."""
    membership, mount = _CGROUP
    try:
        with open(membership) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    limits = []
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        if fields[1] == "":
            root, name = mount, "memory.max"
        elif "memory" in fields[1].split(","):
            root, name = os.path.join(mount, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [p for p in fields[2].split("/") if p]
        for depth in range(len(parts) + 1):
            try:
                with open(os.path.join(root, *parts[:depth], name)) as fh:
                    value = fh.read().strip()
            except OSError:
                continue
            if value.isdigit() and int(value) < _NO_LIMIT:
                limits.append(int(value))
    return min(limits, default=None)


def _physical_memory() -> int | None:
    """Bytes of memory the process may take: the lower of physical memory (os.sysconf) and
    its cgroup limit (_cgroup_memory), or None where neither can tell."""
    try:
        size, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        size = pages = -1
    limits = [_cgroup_memory()]
    if size > 0 and pages > 0:  # sysconf returns -1 for a limit it does not know
        limits.append(size * pages)
    return min((v for v in limits if v is not None), default=None)


def _check_memory(need, subject) -> None:
    """Refuse a run whose ``need`` bytes exceed physical memory; ``subject`` opens the error line."""
    memory = _physical_memory()
    if memory is not None and need > memory:
        raise BadInput(f"{subject}, more than the {memory:.3g} bytes of physical memory")


def _check_trajectory_memory(cfg, command) -> None:
    """Refuse a relax or concurrence run whose per-point arrays exceed physical memory, before any
    grid is built: _POINT_BYTES per point and, when sampled, the sampler's own
    (ensemble.sampler_bytes). The sampler and time_grid refuse a bad n or point count."""
    n, points = cfg["samples"], int(cfg["points"])
    if points < 2:
        return
    need, threads = points * _POINT_BYTES[command], ""
    if n is not None and n >= 1:
        workers, sampler = sampler_bytes(n, points)
        need += sampler
        threads = f" with {workers} sampler thread(s)"
    _check_memory(need, f"{command} at {points} points{threads} needs about {need:.3g} bytes")


def cmd_relax(ns) -> int:
    cfg = merged_config(ns)
    s = _single_scenario(cfg)
    _check_trajectory_memory(cfg, "relax")
    t_max, points = float(cfg["t_max"]), int(cfg["points"])
    grid = time_grid(t_max, points)
    analytic = single_trajectory(s, grid)
    columns = {"t": grid, **analytic}
    if cfg["samples"] is not None:
        mc = sample_ensemble(s, cfg["samples"], cfg["seed"], t_max, points)
        for name in analytic:
            columns[name + "_mc"] = mc[name]
            columns[name + "_mc_se"] = mc[name + "_se"]
    _emit(ns.out, cfg["format"], columns,
          {**_meta(cfg, "relax"), **_thermal_meta(steady_population(s.alpha, s.xb))})
    return EXIT_OK


def cmd_concurrence(ns) -> int:
    cfg = merged_config(ns)
    s = _two_scenario(cfg, omega_a=float(cfg["omega_a"]), alpha=float(cfg["alpha"]),
                      var_a=float(cfg["var_eps_a"]))
    _check_trajectory_memory(cfg, "concurrence")
    t_max, points = float(cfg["t_max"]), int(cfg["points"])
    grid = time_grid(t_max, points)
    columns = {"t": grid, "C": concurrence_trajectory(s, grid)}
    if cfg["samples"] is not None:
        mc = sample_ensemble(s, cfg["samples"], cfg["seed"], t_max, points,
                             names=("gamma2", "re_z", "im_z"))
        # the gap of the mean X state, whose sqrt(a d) is linear in the mean of gamma^2
        gap = np.hypot(mc["re_z"], mc["im_z"]) - ad_root(2.0 * mc["gamma2"], s.alpha, s.x * s.y)
        columns["C_mc"] = concurrence(gap)
    _emit(ns.out, cfg["format"], columns,
          {**_meta(cfg, "concurrence"), **_thermal_meta(steady_population_two(s.alpha, s.x))})
    return EXIT_OK


def _solver_meta(cells) -> dict:
    """Map-wide solver diagnostics for the output metadata; the table itself stays alpha, var, t_c."""
    bounds = cells["t_max"][cells["status"] == FINITE].tolist()
    return {
        "tol": TOL,
        "status_counts": {st: int(np.count_nonzero(cells["status"] == st)) for st in STATUSES},
        "t_max_range": [min(bounds), max(bounds)] if bounds else None,
    }


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
    need = res * res * CELL_BYTES
    _check_memory(need, f"a {res} x {res} map needs about {need:.3g} bytes")
    alpha, var_a = np.meshgrid(np.linspace(lo.alpha, hi.alpha, res),
                               np.linspace(lo.var_a, hi.var_a, res), indexing="ij")
    cells = find_tc_batch(replace(lo, alpha=alpha, var_a=var_a))
    # the solver's t_c is NaN, an empty cell, wherever its status is not finite
    columns = {"alpha": alpha.ravel(), "var_eps_a": var_a.ravel(), "tc": cells["t_c"]}
    # the temperature the map's first working qubit relaxes to, at each end of the alpha axis
    beta_delta = [_beta_delta(steady_population_two(a, lo.x)) for a in (lo.alpha, hi.alpha)]
    meta = {"config": cfg, "command": "tc-map", "alpha_range": list(ns.alpha_range),
            "var_range": list(ns.var_range), "resolution": res, "beta_delta_range": beta_delta,
            "solver": _solver_meta(cells)}
    _emit(ns.out, cfg["format"], columns, meta, empty=("tc",))
    return EXIT_OK


def cmd_validate(ns) -> int:
    # the oracle suite is imported here, so that no other command pays its import
    from hensim.validation import run_suite

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
