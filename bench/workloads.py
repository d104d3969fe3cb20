"""The four benchmark workloads: seeded config generation and output checks.

Each workload is one ymspec CLI command on one generated JSON config.
The program sees only that config; the benchmark seed only sets the
config's ``seed`` field, so input sizes, and with them the amount of work,
do not depend on it.  The checks hold for every seed: the spectrum levels
do not depend on the seed at all, and the lattice gates are physics
tolerances that every band-limited random start meets.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

EVOLVE_STEPS = 200
EVOLVE_H = math.pi / 100
LEVEL_RTOL = 1e-10
GATE = 1e-6

_HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(_HERE, "reference_levels.json")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    size: str
    config: Callable[[int], dict]
    check: Callable[[dict, str], list]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _reference(name: str) -> dict:
    return _read_json(REFERENCE_PATH)[name]


def _compare_levels(label: str, got: list, want: list) -> list:
    if len(got) != len(want):
        return [f"{label}: {len(got)} levels, reference has {len(want)}"]
    problems = []
    for n, (g, w) in enumerate(zip(got, want)):
        if not abs(g - w) <= LEVEL_RTOL * abs(w):
            problems.append(f"{label}: lambda_{n} = {g!r}, reference {w!r}")
    return problems


# ---------------------------------------------------------------------------
# evolve-su2-20
# ---------------------------------------------------------------------------

def _evolve_config(seed: int) -> dict:
    return {
        "command": "evolve",
        "algebra": "su2",
        "lattice": {"n": 20, "spacing": math.pi / 10},
        "evolution": {"T": EVOLVE_STEPS * EVOLVE_H, "h": EVOLVE_H,
                      "preset": "random"},
        "random": {"amplitude": 1e-7, "max_mode": 1},
        "tolerances": {"cg_tol": 1e-12, "constraint_tol": 1e-4,
                       "energy_drift_gate": GATE,
                       "constraint_growth_gate": GATE},
        "seed": seed,
    }


def _evolve_check(config: dict, outdir: str) -> list:
    summary = _read_json(os.path.join(outdir, "evolution_summary.json"))
    rows = _read_csv(os.path.join(outdir, "evolution.csv"))
    T = config["evolution"]["T"]
    problems = []
    if summary["steps"] != EVOLVE_STEPS or len(rows) != EVOLVE_STEPS + 1:
        problems.append(f"ran {summary['steps']} steps ({len(rows)} csv rows), "
                        f"expected {EVOLVE_STEPS}")
    if not abs(summary["final_time"] - T) <= 1e-9 * T:
        problems.append(f"final time {summary['final_time']!r}, expected {T!r}")
    if not summary["energy_drift"] <= GATE:
        problems.append(f"energy drift {summary['energy_drift']!r} above {GATE}")
    growth = summary["constraint_growth_relative"]
    if not growth <= GATE:
        problems.append(f"relative Gauss growth {growth!r} above {GATE}")
    if not all(math.isfinite(float(v)) for row in rows for v in row.values()):
        problems.append("evolution.csv holds a non-finite value")
    return problems


# ---------------------------------------------------------------------------
# project-su3-20
# ---------------------------------------------------------------------------

def _project_config(seed: int) -> dict:
    return {
        "command": "project",
        "algebra": "su3",
        "lattice": {"n": 20, "spacing": 1.0},
        "tolerances": {"cg_tol": 1e-10},
        "random": {"amplitude": 0.5, "max_mode": 2},
        "seed": seed,
    }


def _project_check(config: dict, outdir: str) -> list:
    rows = _read_csv(os.path.join(outdir, "project_report.csv"))
    values = {row["quantity"]: float(row["value"]) for row in rows}
    before, after = values["residual_before"], values["residual_after"]
    limit = 10 * config["tolerances"]["cg_tol"] * before
    problems = []
    if not (before > 0 and after <= limit):
        problems.append(f"residual_after {after!r} above 10*cg_tol*"
                        f"residual_before = {limit!r}")
    for name in ("gauge_field.bin", "electric_field.bin"):
        if not os.path.getsize(os.path.join(outdir, name)) > 0:
            problems.append(f"{name} is empty")
    return problems


# ---------------------------------------------------------------------------
# spectrum-su2-8
# ---------------------------------------------------------------------------

def _spectrum_config(seed: int) -> dict:
    return {
        "command": "spectrum",
        "algebra": "su2",
        "model": {"N_max": 8, "n_max": 5},
        "tolerances": {"level_tol": 1e-8, "margin_tol": 1e-8,
                       "convergence_rtol": 0.01},
        "seed": seed,
    }


def _spectrum_check(config: dict, outdir: str) -> list:
    rows = _read_csv(os.path.join(outdir, "spectrum.csv"))
    summary = _read_json(os.path.join(outdir, "spectrum_summary.json"))
    problems = _compare_levels(
        "spectrum.csv", [float(r["lambda"]) for r in rows],
        _reference("spectrum-su2-8")["lambda"],
    )
    if not summary["gap"] > 0:
        problems.append(f"gap {summary['gap']!r} is not positive")
    if summary["arithmetic_growth"] is not True:
        problems.append("arithmetic growth certificate missing")
    return problems


# ---------------------------------------------------------------------------
# converge-so4-5
# ---------------------------------------------------------------------------

def _converge_config(seed: int) -> dict:
    return {
        "command": "converge",
        "algebra": "so4",
        "model": {"N_max": 5, "n_max": 2, "N_max_list": [4, 5]},
        "seed": seed,
    }


def _converge_check(config: dict, outdir: str) -> list:
    rows = _read_csv(os.path.join(outdir, "convergence.csv"))
    problems = []
    for N, want in _reference("converge-so4-5")["lambda"].items():
        got = [float(r[f"lambda_Nmax{N}"]) for r in rows]
        problems += _compare_levels(f"convergence.csv N_max={N}", got, want)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("evolve-su2-20", "evolve",
                 f"20^3 sites x {EVOLVE_STEPS} RK4 steps, su2",
                 _evolve_config, _evolve_check),
        Workload("project-su3-20", "project",
                 "20^3 sites, su3 (dim_g 8), one CG projection",
                 _project_config, _project_check),
        Workload("spectrum-su2-8", "spectrum",
                 "su2 D=9, N_max=8 (24,310 states) plus N_max=10 rebuild, n<=5",
                 _spectrum_config, _spectrum_check),
        Workload("converge-so4-5", "converge",
                 "so4 D=18, N_max 4 and 5 (7,315 and 33,649 states), n<=2",
                 _converge_config, _converge_check),
    )
}
