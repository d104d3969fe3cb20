"""The traced benchmark run wraps ymspec's layer functions by name and binds
their arguments by parameter name (bench/spans.py).  These runs of
bench/child.py fail when a rename or signature change in src/ breaks that
contract; so does the probe run, which reads sys.modules["scipy"] after
importing the CLI.  bench/ itself is only read."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from ymspec.algebra import build_algebra
from ymspec.cli import parse_config
from ymspec.fock import build_basis
from ymspec.spectrum import ModelSpec, _cartan_model, _level_operator
from ymspec.symbols import cartan_modes, energy_symbol

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    "spectrum": {
        "command": "spectrum", "algebra": "su2",
        "model": {"sector": "abelian", "N_max": 4},
    },
    "evolve": {
        "command": "evolve", "algebra": "su2",
        "lattice": {"n": 4, "spacing": 1.0},
        "evolution": {"T": 0.2, "h": 0.1},
        "random": {"amplitude": 0.01, "max_mode": 1},
    },
    "converge": {
        "command": "converge", "algebra": "su2",
        "model": {"N_max": 4, "n_max": 2, "N_max_list": [4, 6, 8]},
    },
    "spectrum-full": {
        "command": "spectrum", "algebra": "su2", "model": {"N_max": 4},
    },
}


def config_file(tmp_path, name) -> str:
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(CONFIGS[name]))
    return str(config)


def run_child(*args) -> subprocess.CompletedProcess:
    """bench/child.py with ``args`` and src/ on the path; it must exit 0."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def traced_run(tmp_path, name) -> dict:
    record = tmp_path / f"{name}-record.json"
    run_child(str(record), "1", "contract", CONFIGS[name]["command"],
              "--config", config_file(tmp_path, name),
              "--out", str(tmp_path / name))
    return json.loads(record.read_text())


def test_probe_reports_scipy_for_a_command_without_sparse(tmp_path):
    # the probe reads sys.modules["scipy"] after importing the CLI and
    # parsing an evolve config, which loads no scipy submodule
    proc = run_child("--probe", config_file(tmp_path, "evolve"))
    assert json.loads(proc.stdout)["scipy"] == scipy.__version__


@pytest.mark.parametrize("command,expected", [
    ("spectrum", {"spectrum.number_shift_bound", "fock.quantize",
                  "spectrum.bosonic_spectrum"}),
    ("evolve", {"dynamics.rk4_step"}),
])
def test_traced_child_records_layer_spans(tmp_path, command, expected):
    spans = traced_run(tmp_path, command)["spans"]
    names = [span[0] for span in spans]
    assert expected <= set(names)
    if command == "spectrum":
        # one symbol per spectrum run, and one quantization per row set:
        # the level rows (one sector per orbit, degree <= n_top), the one
        # build_basis, with the number-conserving terms, then the
        # zero-weight rows, enumerated without it, with every term, for C*;
        # no safe basis is enumerated and no safe-basis operator assembled
        assert names.count("spectrum.assemble_hamiltonian") == 0
        assert names.count("fock.build_basis") == 1
        assert names.count("fock.quantize") == 2
        # the algebra is built once, for both the mode map and the symbol
        assert names.count("algebra.build_algebra") == 1
        # the term counts the spans read from the symbol and the quantize
        # arguments: the Cartan-mode symbol has 7 terms where the real
        # modes have 9, and the level rows get its conserving ones
        (symbol_span,) = [s for s in spans if s[0] == "symbols.energy_symbol"]
        level_span, zero_span = [s for s in spans if s[0] == "fock.quantize"]
        algebra = build_algebra("su2")
        mode_map = ModelSpec(algebra="su2", sector="abelian", N_max=4).mode_map()
        modes = cartan_modes(algebra, mode_map)
        symbol = energy_symbol(algebra, mode_map, True, modes)
        conserving = sum(sum(a) == sum(b) for a, b in symbol.terms)
        assert (symbol_span[5]["terms"] == zero_span[5]["terms"]
                == len(symbol.terms) == 7)
        assert (level_span[5]["terms"] == level_span[5]["useful"]
                == conserving < 7)
        # C*'s recorded dim is the zero-weight row count of the safe block
        (bound_span,) = [s for s in spans
                         if s[0] == "spectrum.number_shift_bound"]
        safe = build_basis(3, 4, depth=2, weights=modes.weights)
        assert (bound_span[5]["dim"] == np.count_nonzero(safe.sectors == 0)
                < safe.size)
    else:
        # the curvature of each accepted state gives its energy and the
        # next step's first stage: three more stages per step, plus t = 0
        # the algebra is built once, for the step cap and the start state
        assert names.count("algebra.build_algebra") == 1
        steps = names.count("dynamics.rk4_step")
        assert steps == 2
        assert names.count("dynamics.curvature_magnetic") == 4 * steps + 1
        # one Gauss residual per record, taken at t = 0 and after each step
        assert names.count("lattice.constraint_residual") == steps + 1


def test_traced_full_sector_spectrum_quantizes_orbit_rows(tmp_path):
    # the abelian run has one weight column, on which R is the mirror, so
    # only a full-sector run sees the orbit rule: the level span quantizes
    # the canonical sector of each orbit, 1 + 3 + 14 of the 1 + 9 + 45
    # states of degree <= 2, and records _level_operator's nonzeros
    spans = traced_run(tmp_path, "spectrum-full")["spans"]
    names = [span[0] for span in spans]
    assert names.count("fock.build_basis") == 1
    assert names.count("fock.quantize") == 2
    level_span, _ = [s for s in spans if s[0] == "fock.quantize"]
    model = ModelSpec(algebra="su2", N_max=4)
    level, copies = _level_operator(model, *_cartan_model(model))
    assert level.basis.size == 18 and copies.sum() == 55
    assert level_span[5]["nnz"] == level.matrix.nnz


def test_traced_converge_solves_once(tmp_path):
    # every level is exact at each cutoff, so the levels are solved once on
    # the first cutoff's level rows: one algebra, one basis (those rows),
    # one symbol and one quantization, whatever the number of cutoffs
    names = [span[0] for span in traced_run(tmp_path, "converge")["spans"]]
    assert names.count("spectrum.convergence_study") == 1
    for name in ("algebra.build_algebra", "fock.build_basis",
                 "symbols.energy_symbol", "fock.quantize"):
        assert names.count(name) == 1, name


def test_layer_names_and_counter_parameters_resolve():
    # bench/spans.py, loaded without running a child: every function it
    # wraps must exist under its name, and the parameters its counters read
    # by name must exist too (no traced run here calls save_field)
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, names in spans.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"ymspec.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    for name, params in {
        "lattice.save_field": ("path",),
        "dynamics.rk4_step": ("state",),
        "fock.quantize": ("s",),
        "spectrum.number_shift_bound": ("h", "margin_degree"),
    }.items():
        assert name in spans.COUNTERS, name
        layer, function = name.split(".")
        fn = getattr(importlib.import_module(f"ymspec.{layer}"), function)
        assert set(params) <= set(inspect.signature(fn).parameters), name


def test_workload_configs_parse(monkeypatch):
    # every config bench/workloads.py generates passes the schema, so a
    # schema change that breaks a benchmarked workload fails here, not
    # only as a failed benchmark run; its dataclasses need the module
    # registered, and no bytecode is written under bench/
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            config = parse_config(json.dumps(workload.config(seed)))
            assert config.command == workload.command, name
            assert config.seed == seed, name
