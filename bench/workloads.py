"""The benchmark's workloads: the hensim command each runs and the check its output must pass.

Each check reads the program's output with the standard csv module, not with
hensim's own parser, and returns None when the output is correct or a one-line
reason when it is not.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# MC columns of relax must lie within this many standard errors of the analytic
# columns. At n = 50,000 the column means are normal to high accuracy, and
# P(|z| > 6) ~ 2e-9 per point keeps a false alarm over 1,200 points and any seed
# below 1e-5. The absolute slack absorbs round-off where se is near zero.
RELAX_SE_LIMIT = 6.0
RELAX_ABS_SLACK = 1e-12

# C(t) = 2 max(0, |z| - sqrt(a d)) is 2-Lipschitz in (|z|, sqrt(a d)). Per
# realization Re z and Im z lie in [-1/2, 1/2] (sd <= 1/2), and a = x K, d = y K
# with K in [0, c^2/2] (sd <= c^2/4), so sqrt(a d) = sqrt(x y) K. A six-sigma
# deviation in each gives |C_mc - C| <= 2 (6 sqrt(2)/2 + sqrt(x y) 6 c^2/4) / sqrt(n).
def concurrence_bound(n: int, x: float, alpha: float) -> float:
    c2 = (4.0 * alpha**2 - 1.0) / (4.0 * alpha**2)
    return 2.0 * (6.0 * math.sqrt(2.0) / 2.0 + math.sqrt(x * (1.0 - x)) * 6.0 * c2 / 4.0) / math.sqrt(n)


# find_tc bisects to this width; t_c values must match the reference this closely.
TC_TOL = 1e-8


@dataclass
class Invocation:
    """What one call of hensim.cli.main produced."""

    code: int
    stdout: str
    out: Path | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int, Path, bool], list[str]]
    check: Callable[[Invocation, int, bool], str | None]


def _read_table(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    header, body = rows[0], rows[1:]
    cols = {name: [None if r[i] == "" else float(r[i]) for r in body] for i, name in enumerate(header)}
    return header, cols


def _read_output(inv: Invocation, columns):
    """Parsed columns of the output CSV, or a reason it cannot be used."""
    if inv.code != 0:
        return None, f"exit code {inv.code}"
    try:
        header, cols = _read_table(inv.out)
    except (OSError, ValueError, IndexError) as exc:
        return None, f"unreadable output: {exc}"
    missing = [c for c in columns if c not in cols]
    if missing:
        return None, f"missing columns {missing}"
    for name in columns:
        if any(v is None or not math.isfinite(v) for v in cols[name]):
            return None, f"column {name} has an empty or non-finite value"
    return cols, None


def _meta_matches(inv: Invocation, n: int, seed: int) -> str | None:
    try:
        meta = json.loads(inv.out.with_name(inv.out.name + ".meta.json").read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable sidecar: {exc}"
    if meta.get("n") != n or meta.get("seed") != seed:
        return f"sidecar records n={meta.get('n')} seed={meta.get('seed')}, expected {n}, {seed}"
    return None


# ---- relax-mc --------------------------------------------------------------

def _relax_size(smoke):
    return (2000, 50) if smoke else (50000, 400)


def relax_argv(seed, out_dir, smoke):
    n, points = _relax_size(smoke)
    return ["relax", "--omega-a", "4", "--alpha", "1", "--xb", "0.9", "--var-eps-a", "0.6",
            "--t-max", "4", "--points", str(points), "--samples", str(n), "--seed", str(seed),
            "--out", str(out_dir / "relax.csv")]


def relax_check(inv, seed, smoke):
    n, points = _relax_size(smoke)
    names = ("rho_pp", "re_rho_pm", "im_rho_pm")
    cols, err = _read_output(inv, ["t", *names, *(f"{c}_mc{s}" for c in names for s in ("", "_se"))])
    if err:
        return err
    if len(cols["t"]) != points:
        return f"{len(cols['t'])} rows, expected {points}"
    for name in names:
        for i, (an, mc, se) in enumerate(zip(cols[name], cols[name + "_mc"], cols[name + "_mc_se"])):
            if se < 0 or (se > 0 and abs(mc - an) > RELAX_SE_LIMIT * se + RELAX_ABS_SLACK):
                return f"{name}_mc row {i}: {mc!r} vs analytic {an!r}, se {se!r}"
    return _meta_matches(inv, n, seed)


# ---- concurrence-mc ---------------------------------------------------------

def _concurrence_size(smoke):
    return (1000, 50) if smoke else (20000, 400)


def concurrence_argv(seed, out_dir, smoke):
    n, points = _concurrence_size(smoke)
    return ["concurrence", "--x", "0.2", "--alpha", "1", "--var-eps-a", "0.5", "--var-eps-b", "0.5",
            "--t-max", "5", "--points", str(points), "--samples", str(n), "--seed", str(seed),
            "--out", str(out_dir / "concurrence.csv")]


def concurrence_check(inv, seed, smoke):
    n, points = _concurrence_size(smoke)
    cols, err = _read_output(inv, ["t", "C", "C_mc"])
    if err:
        return err
    if len(cols["t"]) != points:
        return f"{len(cols['t'])} rows, expected {points}"
    bound = concurrence_bound(n, 0.2, 1.0)
    for i, (c, c_mc) in enumerate(zip(cols["C"], cols["C_mc"])):
        if not (0.0 <= c <= 1.0 and 0.0 <= c_mc <= 1.0):
            return f"row {i}: concurrence outside [0, 1]: C={c!r}, C_mc={c_mc!r}"
        if abs(c_mc - c) > bound:
            return f"row {i}: |C_mc - C| = {abs(c_mc - c):.3g} exceeds {bound:.3g}"
    return _meta_matches(inv, n, seed)


# ---- tc-map -----------------------------------------------------------------

def _tc_resolution(smoke):
    return 5 if smoke else 60


def tc_reference(smoke) -> Path:
    return REFERENCE_DIR / f"tc_map_r{_tc_resolution(smoke)}.csv"


def tc_argv(seed, out_dir, smoke):
    return ["tc-map", "--x", "0.2", "--alpha-range", "0.5", "3", "--var-range", "0.1", "2",
            "--resolution", str(_tc_resolution(smoke)), "--out", str(out_dir / "tc.csv")]


def tc_check(inv, seed, smoke):
    if inv.code != 0:
        return f"exit code {inv.code}"
    try:
        _, cols = _read_table(inv.out)
        _, ref = _read_table(tc_reference(smoke))
        rows = list(zip(cols["alpha"], cols["var_eps_a"], cols["tc"]))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"
    ref_rows = list(zip(ref["alpha"], ref["var_eps_a"], ref["tc"]))
    if len(rows) != len(ref_rows):
        return f"{len(rows)} cells, reference has {len(ref_rows)}"
    for i, ((a, v, tc), (ra, rv, rtc)) in enumerate(zip(rows, ref_rows)):
        if a is None or v is None or abs(a - ra) > 1e-12 or abs(v - rv) > 1e-12:
            return f"cell {i} is ({a!r}, {v!r}), reference ({ra!r}, {rv!r})"
        if (tc is None) != (rtc is None):
            return f"cell {i}: t_c {tc!r}, reference {rtc!r}"
        if tc is not None and not abs(tc - rtc) <= TC_TOL:
            return f"cell {i}: t_c {tc!r} differs from reference {rtc!r} by more than {TC_TOL}"
    return None


# ---- validate-full ----------------------------------------------------------

def validate_argv(seed, out_dir, smoke):
    return ["validate", "--level", "quick" if smoke else "full"]


def validate_check(inv, seed, smoke):
    if inv.code != 0:
        return f"exit code {inv.code}"
    lines = inv.stdout.splitlines()
    if len(lines) < 2 or lines[-1] != "all checks passed":
        return f"summary line reads {lines[-1] if lines else ''!r}"
    failing = [line for line in lines[:-1] if not line.startswith("PASS ")]
    return f"check lines not PASS: {failing}" if failing else None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("relax-mc",
                 "single-qubit Monte Carlo: ensemble seeding and evolution across the pool, "
                 "no entanglement work",
                 relax_argv, relax_check),
        Workload("concurrence-mc",
                 "two-qubit Monte Carlo: the same ensemble layer with two draws and six columns "
                 "per realization, and the most memory",
                 concurrence_argv, concurrence_check),
        Workload("tc-map",
                 "3,600-cell sudden-death map: scalar find_tc on avg_xstate_two, "
                 "no ensemble work",
                 tc_argv, tc_check),
        Workload("validate-full",
                 "oracle suite: the only workload running linalg and validation, "
                 "and sample_ensemble at small n",
                 validate_argv, validate_check),
    )
}
