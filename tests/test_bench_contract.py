"""The traced benchmark run wraps ymspec's layer functions by name and binds
their arguments by parameter name (bench/spans.py).  These runs of
bench/child.py fail when a rename or signature change in src/ breaks that
contract; so does the probe run, which reads sys.modules["scipy"] after
importing the CLI.  bench/ itself is only read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

from ymspec.algebra import build_algebra
from ymspec.spectrum import ModelSpec
from ymspec.symbols import energy_symbol

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
}


def config_file(tmp_path, command) -> str:
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(CONFIGS[command]))
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


def traced_run(tmp_path, command) -> dict:
    record = tmp_path / f"{command}-record.json"
    run_child(str(record), "1", "contract", command,
              "--config", config_file(tmp_path, command),
              "--out", str(tmp_path / command))
    return json.loads(record.read_text())


def test_probe_reports_scipy_for_a_command_without_sparse(tmp_path):
    # the probe reads sys.modules["scipy"] after importing the CLI and
    # parsing an evolve config, which loads no scipy submodule
    proc = run_child("--probe", config_file(tmp_path, "evolve"))
    assert json.loads(proc.stdout)["scipy"] == scipy.__version__


@pytest.mark.parametrize("command,expected", [
    ("spectrum", {"spectrum.number_shift_bound", "fock.quantize",
                  "spectrum.assemble_hamiltonian"}),
    ("evolve", {"dynamics.rk4_step"}),
])
def test_traced_child_records_layer_spans(tmp_path, command, expected):
    spans = traced_run(tmp_path, command)["spans"]
    names = [span[0] for span in spans]
    assert expected <= set(names)
    if command == "spectrum":
        # one operator per spectrum run, reused for C*
        assert names.count("spectrum.assemble_hamiltonian") == 1
        assert names.count("fock.quantize") == 1
        # the algebra is built once, for both the mode map and the symbol
        assert names.count("algebra.build_algebra") == 1
        # one symbol, whose term count the span reads from its result
        (symbol_span,) = [s for s in spans if s[0] == "symbols.energy_symbol"]
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4)
        symbol = energy_symbol(build_algebra("su2"), model.mode_map())
        assert symbol_span[5]["terms"] == len(symbol.terms) == 9
    else:
        # the curvature of each accepted state gives its energy and the
        # next step's first stage: three more stages per step, plus t = 0
        # the algebra is built once, for the step cap and the start state
        assert names.count("algebra.build_algebra") == 1
        steps = names.count("dynamics.rk4_step")
        assert steps == 2
        assert names.count("dynamics.curvature_magnetic") == 4 * steps + 1
