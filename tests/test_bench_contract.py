"""The traced benchmark run wraps ymspec's layer functions by name and binds
their arguments by parameter name (bench/spans.py).  These runs of
bench/child.py fail when a rename or signature change in src/ breaks that
contract; bench/ itself is only read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def traced_run(tmp_path, command) -> dict:
    config = tmp_path / f"{command}.json"
    config.write_text(json.dumps(CONFIGS[command]))
    record = tmp_path / f"{command}-record.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(record), "1",
         "contract", command, "--config", str(config),
         "--out", str(tmp_path / command)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(record.read_text())


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
        # the algebra is built for the mode map and for the symbol only
        assert names.count("algebra.build_algebra") == 2
        # one symbol, whose term count the span reads from its result
        (symbol_span,) = [s for s in spans if s[0] == "symbols.energy_symbol"]
        model = ModelSpec(algebra="su2", sector="abelian", N_max=4)
        symbol = energy_symbol(build_algebra("su2"), model.mode_map())
        assert symbol_span[5]["terms"] == len(symbol.terms) == 9
    else:
        # the curvature of each accepted state gives its energy and the
        # next step's first stage: three more stages per step, plus t = 0
        steps = names.count("dynamics.rk4_step")
        assert steps == 2
        assert names.count("dynamics.curvature_magnetic") == 4 * steps + 1
