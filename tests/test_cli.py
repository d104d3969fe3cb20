import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ymspec import cli, spectrum
from ymspec.cli import (
    COMMANDS,
    RunConfig,
    ToleranceConfig,
    abelian_wave_state,
    main,
    parse_config,
    seeded_random_state,
)
from ymspec.errors import ConfigurationError, InsufficientDataError
from ymspec.lattice import LatticeSpec, constraint_residual, field_norm, load_field
from ymspec.spectrum import ModelSection, ModelSpec


def config_json(cfg: RunConfig) -> str:
    """A parsed config as JSON text, which parse_config reads back."""
    return json.dumps(cfg.to_dict(), indent=1, sort_keys=True)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config('{"command": "check-algebra", "algebra": "su2"}')
        assert cfg.command == "check-algebra"
        assert cfg.lattice.n == 8
        assert cfg.tolerances.cg_tol == 1e-10
        assert cfg.seed == 0

    def test_one_set_of_defaults(self):
        # the config sections are the library types, so a section left out
        # and a type built bare agree
        cfg = RunConfig()
        assert LatticeSpec() == cfg.lattice
        assert ModelSection() == cfg.model
        assert cfg.model_spec() == ModelSpec(level_tol=ToleranceConfig().level_tol)

    def test_unknown_command(self):
        with pytest.raises(ConfigurationError) as info:
            parse_config('{"command": "frobnicate"}')
        assert "frobnicate" in str(info.value)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError) as info:
            parse_config('{"command": "evolve", "lattice": {"n": 8, "volume": 2}}')
        assert "lattice.volume" in str(info.value)

    def test_negative_spacing_named(self):
        with pytest.raises(ConfigurationError) as info:
            parse_config('{"command": "evolve", "lattice": {"spacing": -0.5}}')
        assert "lattice.spacing" in str(info.value)

    def test_malformed_json(self):
        with pytest.raises(ConfigurationError):
            parse_config("{not json")

    def test_overlong_integer_is_a_schema_error(self):
        # json.loads raises a plain ValueError past Python's digit limit
        with pytest.raises(ConfigurationError):
            parse_config('{"seed": ' + "9" * 5000 + "}")

    def test_overrides_and_round_trip(self):
        doc = {
            "command": "spectrum",
            "algebra": "su3",
            "model": {"N_max": 4, "n_max": 2},
            "seed": 17,
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.model.N_max == 4
        assert cfg.algebra == "su3"
        again = parse_config(config_json(cfg))
        assert again == cfg

    def test_output_key_unknown(self):
        with pytest.raises(ConfigurationError) as info:
            parse_config('{"command": "spectrum", "output": null}')
        assert "'output'" in str(info.value)

    def test_readme_schema_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(
            r"Configuration schema \(defaults shown\)\s*```json\n(.*?)```",
            readme, re.S,
        ).group(1)
        cfg = parse_config(block)
        # the JSON text also tells 1 from 1.0
        assert config_json(cfg) == config_json(RunConfig(command=cfg.command))


def _leaf_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# numbers json.loads yields (from NaN, Infinity, 1e999 or long digit
# strings) that are no finite double, so no config may hold them
_OUT_OF_RANGE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400])
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | _OUT_OF_RANGE | st.text())
# mostly scalars, which is where type and range mistakes hide
_JSON_VALUES = _JSON_SCALARS | st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@settings(database=None, derandomize=True, deadline=None)
@given(leaf=st.sampled_from(sorted(_leaf_paths(RunConfig().to_dict()))),
       value=_JSON_VALUES)
def test_one_leaf_replaced_parses_or_is_named(leaf, value):
    doc = RunConfig().to_dict()
    *sections, name = leaf.split(".")
    node = doc
    for section in sections:
        node = node[section]
    node[name] = value
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigurationError as exc:
        assert f"'{leaf}'" in str(exc)
    else:
        # nothing accepted is NaN or Infinity, which strict JSON refuses
        json.dumps(cfg.to_dict(), allow_nan=False)
        assert parse_config(config_json(cfg)) == cfg


# a small fixed value set, so no document that passes validation asks for
# a large lattice, basis or run: so5 and su3 are left out because their
# default spectrum (N_max = 6) quantizes 46,376 and 20,475 states
_FUZZ_VALUES = st.sampled_from([
    -1, 0, 1, 2, 3, 0.5, 1e300, True, None, "su2", "so3", "su4", "x",
    "abelian", "abelian-wave", "weyl", [], {}, [2, 3],
])


# key paths an edit may set: every schema leaf, whole sections (replaced
# by a non-object value) and unknown keys
_FUZZ_KEYS = st.sampled_from(
    sorted(_leaf_paths(RunConfig().to_dict()))
    + ["lattice", "evolution", "model", "tolerances", "random"]
    + ["bogus", "model.bogus"]
)


def _set_path(doc: dict, key: str, value):
    *sections, name = key.split(".")
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
        if not isinstance(node, dict):
            return  # an earlier edit replaced the section
    node[name] = value


@settings(database=None, derandomize=True, deadline=None, max_examples=200)
@given(command=st.sampled_from(COMMANDS),
       edits=st.dictionaries(_FUZZ_KEYS, _FUZZ_VALUES, max_size=3))
def test_whole_document_exits_with_a_diagnosis(command, edits):
    # the document declares the command run, unless an edit replaces it
    doc = {"command": command}
    for key, value in edits.items():
        _set_path(doc, key, value)
    with tempfile.TemporaryDirectory() as outdir:
        path = os.path.join(outdir, "config.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path, "--out", outdir])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        diagnostics = os.path.join(outdir, "diagnostics.json")
        if code:
            with open(diagnostics) as fh:
                text = fh.read()
            assert text in err.getvalue()
            assert json.loads(text)["exit_code"] == code
        else:
            assert not os.path.exists(diagnostics)


class TestSeededState:
    def test_determinism(self):
        cfg = parse_config(
            '{"command": "project", "algebra": "su2",'
            ' "lattice": {"n": 6}, "seed": 3}'
        )
        s1 = seeded_random_state(cfg)
        s2 = seeded_random_state(cfg)
        assert np.array_equal(s1.a.data, s2.a.data)
        assert np.array_equal(s1.e.data, s2.e.data)

    def test_distinct_seeds(self):
        base = {"command": "project", "algebra": "su2", "lattice": {"n": 6}}
        s0 = seeded_random_state(parse_config(json.dumps({**base, "seed": 0})))
        s1 = seeded_random_state(parse_config(json.dumps({**base, "seed": 1})))
        assert np.abs(s0.a.data - s1.a.data).max() > 0

    def test_constraint_satisfied(self):
        cfg = parse_config(
            '{"command": "project", "algebra": "su2", "lattice": {"n": 6}}'
        )
        st = seeded_random_state(cfg)
        assert constraint_residual(st.a, st.e) < 1e-8 * max(field_norm(st.e), 1e-12)

    def test_abelian_wave_zero_residual(self):
        cfg = parse_config(
            '{"command": "evolve", "algebra": "su2", "lattice": {"n": 8}}'
        )
        st = abelian_wave_state(cfg)
        assert constraint_residual(st.a, st.e) == 0.0


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestMainExitCodes:
    def test_success(self, tmp_path):
        path = write_config(tmp_path, {"command": "check-algebra", "algebra": "su2"})
        assert main(["check-algebra", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "algebra_report.csv").exists()
        assert (tmp_path / "algebra_report.json").exists()

    def test_schema_error(self, tmp_path):
        path = write_config(tmp_path, {"command": "evolve", "lattice": {"n": -2}})
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 2
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ConfigurationError"

    def test_command_mismatch(self, tmp_path):
        path = write_config(tmp_path, {"command": "evolve"})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 2

    def test_missing_config(self, tmp_path):
        assert main(["evolve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_cfl_violation_is_numerical(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "evolve", "algebra": "su2",
            "lattice": {"n": 4, "spacing": 0.5},
            "evolution": {"T": 0.8, "h": 0.4},
            "random": {"amplitude": 0.01},
        })
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "StabilityError"

    def test_unknown_cli_command(self, tmp_path):
        path = write_config(tmp_path, {"command": "evolve"})
        assert main(["dance", "--config", path]) == 2

    @pytest.mark.parametrize("doc,key", [
        ({"model": {"n_max": "x"}}, "model.n_max"),
        ({"model": {"N_max": 3.5}}, "model.N_max"),
        ({"random": {"max_mode": "2"}}, "random.max_mode"),
        ({"seed": True}, "seed"),
        ({"lattice": {"n": True}}, "lattice.n"),
        ({"model": {"N_max_list": [4, True]}}, "model.N_max_list"),
        ({"algebra": 5}, "algebra"),
        ({"model": {"include_magnetic": "no"}}, "model.include_magnetic"),
        ({"evolution": {"T": float("inf")}}, "evolution.T"),
        ({"tolerances": {"cg_tol": float("nan")}}, "tolerances.cg_tol"),
        ({"model": {"n_max": -1}}, "model.n_max"),
        ({"model": {"N_max_list": [4, 0]}}, "model.N_max_list"),
        ({"lattice": {"spacing": 10**400}}, "lattice.spacing"),
        ({"model": {"sector": "x"}}, "model.sector"),
        ({"algebra": "foo"}, "algebra"),
        ({"model": {"N_max": 1}}, "model.N_max"),
        ({"model": {"n_max": 3, "N_max": 4}}, "model.n_max"),
        ({"model": {"N_max_list": [6, 4]}}, "model.N_max_list"),
        ({"lattice": {"n": 1}}, "lattice.n"),
        ({"model": {"N_max": 3}}, "model.N_max"),
        ({"model": {"N_max": 8, "n_max": 1}}, "model.n_max"),
    ])
    def test_mistyped_integer_named(self, tmp_path, doc, key):
        path = write_config(tmp_path, {"command": "spectrum", **doc})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 2
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ConfigurationError"
        assert f"'{key}'" in diag["message"]

    @pytest.mark.parametrize("doc,build", [
        ({"model": {"sector": "x"}}, lambda: ModelSpec(sector="x")),
        ({"model": {"momentum": "x"}}, lambda: ModelSpec(momentum="x")),
        ({"model": {"convention": "x"}}, lambda: ModelSpec(convention="x")),
        ({"model": {"N_max": 1}}, lambda: ModelSpec(N_max=1)),
        ({"model": {"N_max": 4, "n_max": 3}},
         lambda: ModelSpec(N_max=4, n_max=3)),
        ({"lattice": {"n": 1}}, lambda: LatticeSpec(n=1, spacing=1.0)),
    ], ids=["sector", "momentum", "convention", "N_max", "n_max", "lattice.n"])
    def test_section_checked_in_one_place(self, tmp_path, doc, build):
        # ModelSpec and LatticeSpec hold these checks: a library caller gets
        # the CLI's diagnostic word for word
        path = write_config(tmp_path, {"command": "spectrum", **doc})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 2
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        with pytest.raises(ConfigurationError) as info:
            build()
        assert str(info.value) == diag["message"]

    def test_out_naming_a_file_is_a_usage_error(self, tmp_path, capsys):
        # refused before the config is read, so a missing config is not
        # what the diagnostic names; the file is left as it was
        taken = tmp_path / "taken"
        taken.write_text("keep")
        path = write_config(tmp_path, {"command": "check-algebra"})
        for config in (path, str(tmp_path / "missing.json")):
            code = main(["check-algebra", "--config", config, "--out", str(taken)])
            assert code == 2
            diag = json.loads(capsys.readouterr().err)
            assert diag["exit_code"] == 2
            assert "'--out'" in diag["message"]
        assert taken.read_text() == "keep"

    def test_out_under_a_file_is_a_usage_error(self, tmp_path, capsys):
        # a directory cannot be made under a file: refused before the
        # config is read, not left to fail in os.makedirs (exit 3)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        path = write_config(tmp_path, {"command": "check-algebra"})
        for out in (taken / "sub", taken / "sub" / "deeper"):
            for config in (path, str(tmp_path / "missing.json")):
                code = main(["check-algebra", "--config", config,
                             "--out", str(out)])
                assert code == 2
                diag = json.loads(capsys.readouterr().err)
                assert diag["exit_code"] == 2
                assert diag["error_type"] == "NotADirectoryError"
                assert "'--out'" in diag["message"]
                assert repr(str(taken)) in diag["message"]
        assert taken.read_text() == "keep"
        # a missing directory under a directory is made, parents included
        out = tmp_path / "new" / "deeper"
        assert main(["check-algebra", "--config", path, "--out", str(out)]) == 0
        assert (out / "algebra_report.csv").exists()

    def test_N_max_list_checked_in_one_place(self, tmp_path):
        # ModelSpec refuses a bad list with the CLI's diagnostic
        for levels in ([6, 4], [], [4, 4]):
            path = write_config(tmp_path, {"command": "converge",
                                           "model": {"N_max_list": levels}})
            assert main(["converge", "--config", path,
                         "--out", str(tmp_path)]) == 2
            diag = json.loads((tmp_path / "diagnostics.json").read_text())
            with pytest.raises(ConfigurationError) as info:
                ModelSpec(N_max=6, N_max_list=levels)
            assert str(info.value) == diag["message"]
            assert "'model.N_max_list'" in diag["message"]

    def test_oversized_evolve_refused_before_stepping(self, tmp_path):
        # 2e10 steps of 6^3 su2 sites; refused before the first step
        path = write_config(tmp_path, {
            "command": "evolve", "algebra": "su2", "lattice": {"n": 6},
            "evolution": {"T": 1e9, "h": 0.05, "preset": "abelian-wave"},
        })
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ResourceError"
        assert "1.296e+13" in diag["message"]
        assert "1.0e+10" in diag["message"]
        assert not (tmp_path / "evolution.csv").exists()

    def test_oversize_evolve_refused_before_start_state(self, tmp_path,
                                                        monkeypatch):
        # the caps are checked before the random start is built and projected
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return project(*args, **kwargs)

        project = cli.transversal_project
        monkeypatch.setattr(cli, "transversal_project", spy)
        path = write_config(tmp_path, {
            "command": "evolve", "algebra": "su2", "lattice": {"n": 4},
            "evolution": {"T": 1e300, "h": 0.05},
        })
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ResourceError"
        assert calls == []

    @pytest.mark.parametrize("command,doc,csv", [
        # T / h far past any integer a step loop takes, and infinite
        ("evolve", {"lattice": {"n": 4},
                    "evolution": {"T": 1e300, "h": 0.05,
                                  "preset": "abelian-wave"}},
         "evolution.csv"),
        ("evolve", {"lattice": {"n": 4},
                    "evolution": {"T": 1e300, "h": 1e-300,
                                  "preset": "abelian-wave"}},
         "evolution.csv"),
        # n = 0..N_max - 2 is never listed: the basis cap refuses first
        ("spectrum", {"model": {"N_max": 10**12}}, "spectrum.csv"),
        ("converge", {"model": {"N_max": 10**12, "N_max_list": [10**12]}},
         "convergence.csv"),
    ])
    def test_oversize_request_is_resource_error(self, tmp_path, command, doc,
                                                csv):
        path = write_config(tmp_path, {"command": command, **doc})
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ResourceError"
        assert not (tmp_path / csv).exists()

    def test_oversize_block_component_refused_before_eigensolve(
            self, tmp_path, monkeypatch):
        # a cap of 0 rows refuses the first block, the 1-row vacuum, before
        # any sector is made dense
        calls = []

        def spy(a, *args, **kwargs):
            calls.append(a.shape)
            return eigvalsh(a, *args, **kwargs)

        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        monkeypatch.setattr(spectrum, "DENSE_COMPONENT_CAP", 0)
        path = write_config(tmp_path, {"command": "spectrum",
                                       "model": {"N_max": 4}})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ResourceError"
        assert "1-dim sector" in diag["message"]
        assert calls == []
        assert not (tmp_path / "spectrum.csv").exists()

    def test_insufficient_data_exits_2(self, tmp_path, monkeypatch):
        # no config gets gap_analysis fewer than 3 levels, so the error is
        # forced: it is an input-size error, exit 2
        def too_few(*args):
            raise InsufficientDataError("gap analysis needs at least 3 levels")

        monkeypatch.setattr(cli, "gap_analysis", too_few)
        path = write_config(tmp_path, {"command": "spectrum", "algebra": "su2",
                                       "model": {"N_max": 4, "n_max": 2}})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 2
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "InsufficientDataError"
        assert diag["exit_code"] == 2
        assert "3 levels" in diag["message"]

    def test_bare_converge_runs_on_its_defaults(self, tmp_path):
        path = write_config(tmp_path, {"command": "converge"})
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "convergence_summary.json").read_text())
        assert summary["N_max_list"] == [6, 8]
        assert summary["max_rel_change"] < 1e-12

    def test_converge_list_below_levels_named(self, tmp_path):
        # N_max = 6 reports n = 0..4, which N_max = 4 cannot hold safely
        path = write_config(tmp_path, {"command": "converge",
                                       "model": {"N_max_list": [4, 6]}})
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 2
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ConfigurationError"
        assert "'model.N_max_list'" in diag["message"]

    @pytest.mark.parametrize("cg_tol", [1, 1e300])
    def test_cg_tol_of_one_or_more_named(self, tmp_path, cg_tol):
        # a relative residual of 1 is met by x = 0; 1e300 overflowed the
        # squared CG target
        path = write_config(tmp_path, {"command": "evolve",
                                       "tolerances": {"cg_tol": cg_tol}})
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 2
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "ConfigurationError"
        assert "'tolerances.cg_tol'" in diag["message"]

    def test_duplicate_key_exits_2(self, tmp_path):
        path = tmp_path / "config.json"
        args = ["spectrum", "--config", str(path), "--out", str(tmp_path)]
        for text, key in (
            ('{"command": "spectrum", "seed": 1, "seed": 2}', "seed"),
            ('{"command": "spectrum", "lattice": {"n": 4, "n": 5}}', "lattice.n"),
        ):
            path.write_text(text)
            assert main(args) == 2
            diag = json.loads((tmp_path / "diagnostics.json").read_text())
            assert diag["error_type"] == "ConfigurationError"
            assert diag["message"] == f"duplicate configuration key '{key}'"

    @pytest.mark.parametrize("doc,key", [
        ({"algebra": "foo", "lattice": {"n": 1}}, "lattice.n"),
        ({"algebra": "foo", "model": {"N_max_list": []}}, "model.N_max_list"),
        ({"algebra": "foo", "tolerances": {"cg_tol": 2}}, "algebra"),
    ])
    def test_several_errors_reported_in_order(self, tmp_path, doc, key):
        # the lattice and model sections are checked when read, the
        # algebra and cg_tol after the whole document (see the README)
        path = write_config(tmp_path, {"command": "spectrum", **doc})
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 2
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["message"].startswith(f"'{key}'")

    def test_unexpected_error_is_diagnosed(self, tmp_path, monkeypatch):
        def broken(config, outdir):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._RUNNERS, "check-algebra", broken)
        path = write_config(tmp_path, {"command": "check-algebra"})
        assert main(["check-algebra", "--config", path, "--out", str(tmp_path)]) == 3
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "RuntimeError"
        assert diag["exit_code"] == 3
        assert diag["raised_at"].startswith("test_cli.py:")
        assert diag["raised_at"].endswith(" in broken")

    def test_raised_at_names_the_raising_frame(self, tmp_path, capsys):
        # the innermost frame, as traceback.extract_tb(...)[-1] names it
        def nested():
            return {}["missing"]

        def raising(kind):
            if kind == "key":
                nested()
            if kind == "config":
                ModelSpec(N_max=6, N_max_list=[])
            raise RuntimeError("boom")

        for kind in ("key", "config", "runtime"):
            try:
                raising(kind)
            except Exception as exc:
                cli._emit_diagnostic(None, exc, 3)
                frame = traceback.extract_tb(exc.__traceback__)[-1]
            diag = json.loads(capsys.readouterr().err)
            assert diag["raised_at"] == (f"{os.path.basename(frame.filename)}:"
                                         f"{frame.lineno} in {frame.name}")
            assert diag["raised_at"].endswith(
                {"key": " in nested", "config": " in __post_init__",
                 "runtime": " in raising"}[kind])


def _unprojected(monkeypatch):
    monkeypatch.setattr(cli, "transversal_project", lambda a, e, tol: e)


def _no_gap(monkeypatch):
    analyse = cli.gap_analysis
    monkeypatch.setattr(cli, "gap_analysis", lambda *args: dataclasses.replace(
        analyse(*args), gap=-1.0))


def _levels_moved(monkeypatch):
    study_levels = cli.convergence_study

    def moved(*args):
        study = study_levels(*args)
        study.rel_changes = {k: [1.0] * len(v)
                             for k, v in study.rel_changes.items()}
        return study

    monkeypatch.setattr(cli, "convergence_study", moved)


def _levels_nan(monkeypatch):
    study_levels = cli.convergence_study

    def nan_levels(*args):
        study = study_levels(*args)
        study.lambdas = {k: [math.nan] * len(v) for k, v in study.lambdas.items()}
        study.rel_changes = {k: [math.nan] * len(v)
                             for k, v in study.rel_changes.items()}
        return study

    monkeypatch.setattr(cli, "convergence_study", nan_levels)


# command -> (config, summary file, how its physics gate is made to fail,
# a phrase of the failure message); evolve's failed gate has its own tests
# below.
# No config fails converge's gate: its levels are exact, so max_rel_change
# is exactly 0.0.  transform's two quantization routes differ by ~1.5e-14.
_GATE_FAILURES = {
    "check-algebra": ({"algebra": "su2",
                       "tolerances": {"algebra_tol": 1e-300}},
                      "algebra_report.json", None, "invariants violated"),
    # the gate compares residual_after with cg_tol * residual_before
    "project": ({"algebra": "su2", "lattice": {"n": 4}},
                "project_report.json", _unprojected, "residual_before"),
    "transform": ({"algebra": "su2", "tolerances": {"ordering_tol": 1e-300}},
                  "transform_report.json", None, "routes disagree"),
    "spectrum": ({"algebra": "su2", "model": {"N_max": 4, "n_max": 2}},
                 "run_summary.json", _no_gap, "gap is not positive"),
    "converge": ({"algebra": "su2",
                  "model": {"N_max": 4, "n_max": 2, "N_max_list": [4, 6],
                            "sector": "abelian"},
                  "tolerances": {"convergence_gate": 1e-6}},
                 "convergence_summary.json", _levels_moved, "exceeds gate"),
}


class TestRunners:
    def test_spectrum_outputs(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "spectrum", "algebra": "su2",
            "model": {"N_max": 4, "n_max": 2},
        })
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "spectrum.csv").read_text()
        assert csv.startswith("n,lambda,multiplicity,converged\n")
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["gap"] > 0
        assert summary["slope"] > 0
        assert summary["margin"] >= -1e-8

    def test_number_shift_bound_bit_identical(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "spectrum", "algebra": "su2",
            "model": {"N_max": 8, "n_max": 5},
        })
        bounds = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            assert main(["spectrum", "--config", path, "--out", str(out)]) == 0
            summary = json.loads((out / "spectrum_summary.json").read_text())
            bounds.append(summary["number_shift_bound"])
        assert bounds[0] == bounds[1]

    def test_evolve_outputs(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "evolve", "algebra": "su2",
            "lattice": {"n": 6, "spacing": 1.0},
            "evolution": {"T": 0.5, "h": 0.05, "preset": "abelian-wave"},
            "random": {"amplitude": 0.2},
        })
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "evolution.csv").read_text().strip().split("\n")
        assert lines[0] == "t,energy,constraint_residual"
        assert len(lines) == 12  # header + initial + 10 steps
        summary = json.loads((tmp_path / "evolution_summary.json").read_text())
        assert summary["energy_drift"] < 1e-6

    @pytest.mark.parametrize("series,phrase", [
        ("energy", "energy drift nan"),
        ("constraint", "relative constraint growth nan"),
    ])
    def test_nan_record_fails_evolve_gate(self, tmp_path, monkeypatch,
                                          series, phrase):
        def evolve_with_nan(*args, **kwargs):
            final, report = cli_evolve(*args, **kwargs)
            getattr(report, series)[1] = math.nan
            return final, report

        cli_evolve = cli.evolve
        monkeypatch.setattr(cli, "evolve", evolve_with_nan)
        path = write_config(tmp_path, {
            "command": "evolve", "algebra": "su2",
            "lattice": {"n": 4, "spacing": 1.0},
            "evolution": {"T": 0.2, "h": 0.05, "preset": "abelian-wave"},
            "tolerances": {"energy_drift_gate": 1e-6,
                           "constraint_growth_gate": 1e-6},
        })
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 1
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "PhysicsAssertionError"
        assert phrase in diag["message"]

    def test_failed_gate_marks_evolve_summary(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "evolve", "algebra": "su2",
            "lattice": {"n": 4, "spacing": 1.0},
            "evolution": {"T": 0.2, "h": 0.05},
            "random": {"amplitude": 0.01},
            "tolerances": {"energy_drift_gate": 1e-300},
        })
        assert main(["evolve", "--config", path, "--out", str(tmp_path)]) == 1
        summary = json.loads((tmp_path / "evolution_summary.json").read_text())
        assert summary["status"] == "violated"
        assert summary["energy_drift"] > 1e-300

    @pytest.mark.parametrize("command", sorted(_GATE_FAILURES))
    def test_failed_gate_exits_1_with_violated_summary(self, tmp_path,
                                                        monkeypatch, command):
        doc, summary_name, force, phrase = _GATE_FAILURES[command]
        if force is not None:
            force(monkeypatch)
        path = write_config(tmp_path, dict(doc, command=command))
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        summary = json.loads((tmp_path / summary_name).read_text())
        assert summary["status"] == "violated"
        assert summary["command"] == command
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["error_type"] == "PhysicsAssertionError"
        assert diag["exit_code"] == 1
        assert phrase in diag["message"]

    def test_nan_levels_fail_the_convergence_gate(self, tmp_path, monkeypatch):
        doc, summary_name, _, phrase = _GATE_FAILURES["converge"]
        _levels_nan(monkeypatch)
        path = write_config(tmp_path, dict(doc, command="converge"))
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 1
        summary = json.loads((tmp_path / summary_name).read_text())
        assert summary["status"] == "violated"
        assert math.isnan(summary["max_rel_change"])
        diag = json.loads((tmp_path / "diagnostics.json").read_text())
        assert diag["exit_code"] == 1
        assert "level change nan" in diag["message"]
        assert phrase in diag["message"]

    def test_every_failed_transform_check_is_named(self, tmp_path,
                                                   monkeypatch):
        # the mass quadratic's eigenvalues, negated
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(cli.np.linalg, "eigvalsh",
                            lambda m: -eigvalsh(m)[::-1])
        path = write_config(tmp_path, {
            "command": "transform", "algebra": "su2",
            "tolerances": {"ordering_tol": 1e-300},
        })
        assert main(["transform", "--config", path, "--out", str(tmp_path)]) == 1
        message = json.loads((tmp_path / "diagnostics.json").read_text())["message"]
        assert "not positive semidefinite" in message
        assert "routes disagree" in message

    def test_level_tol_sets_multiplicity_window(self, tmp_path, monkeypatch):
        tols = []

        def spy(matrix, lo, hi, tol, sectors, copies):
            tols.append(tol)
            return lowest_level(matrix, lo, hi, tol, sectors, copies)

        lowest_level = spectrum._lowest_level
        monkeypatch.setattr(spectrum, "_lowest_level", spy)
        path = write_config(tmp_path, {
            "command": "spectrum", "algebra": "su2",
            "model": {"N_max": 4, "n_max": 2},
            "tolerances": {"level_tol": 1e-6},
        })
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 0
        # one multiplicity count per block; C* counts none
        assert tols == [1e-6] * 3

    def test_so5_spectrum(self, tmp_path):
        # D = 30 modes: the basis index key wraps in uint64
        path = write_config(tmp_path, {
            "command": "spectrum", "algebra": "so5", "model": {"N_max": 4},
        })
        assert main(["spectrum", "--config", path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
        assert summary["D"] == 30
        assert len(summary["lambdas"]) == 3
        assert summary["gap"] > 0
        assert summary["arithmetic_growth"] is True

    def test_converge_builds_only_the_first_cutoff(self, tmp_path):
        # only the first cutoff's safe basis is built, so a later one past
        # the basis cap (so5 at N_max = 12: ~8.5e8 states) is not refused:
        # the exact N_max = 4 levels fill both columns
        path = write_config(tmp_path, {
            "command": "converge", "algebra": "so5",
            "model": {"N_max": 4, "n_max": 2, "N_max_list": [4, 12]},
        })
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "convergence.csv").read_text().strip().split("\n")
        assert lines[0] == "n,lambda_Nmax4,lambda_Nmax12"
        assert len(lines) == 4
        for line in lines[1:]:
            _, at4, at12 = line.split(",")
            assert at4 == at12
        summary = json.loads((tmp_path / "convergence_summary.json").read_text())
        assert summary["max_rel_change"] == 0.0

    def test_project_outputs(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "project", "algebra": "su2",
            "lattice": {"n": 6}, "seed": 11,
        })
        assert main(["project", "--config", path, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "gauge_field.bin").exists()
        assert (tmp_path / "electric_field.bin").exists()

    def test_project_fields_are_the_seeded_state(self, tmp_path):
        # project and evolve's random preset draw the same seeded pair
        doc = {"command": "project", "algebra": "su2",
               "lattice": {"n": 6}, "seed": 11}
        path = write_config(tmp_path, doc)
        assert main(["project", "--config", path, "--out", str(tmp_path)]) == 0
        state = seeded_random_state(parse_config(json.dumps(doc)))
        a = load_field(tmp_path / "gauge_field.bin")
        e = load_field(tmp_path / "electric_field.bin")
        assert np.array_equal(a.data, state.a.data)
        assert np.array_equal(e.data, state.e.data)

    def test_transform_outputs(self, tmp_path):
        path = write_config(tmp_path, {"command": "transform", "algebra": "su2"})
        assert main(["transform", "--config", path, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "transform_report.csv").read_text()
        assert "quadratic_weyl_constant,0.5" in body
        assert "number_constant_weyl,-0.5" in body

    def test_converge_outputs(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "converge", "algebra": "su2",
            "model": {"N_max": 4, "n_max": 2, "N_max_list": [4, 6],
                      "sector": "abelian"},
        })
        assert main(["converge", "--config", path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "convergence_summary.json").read_text())
        assert summary["max_rel_change"] < 1e-10


class TestDeterminism:
    @pytest.mark.parametrize("doc,csvs", [
        ({"command": "check-algebra", "algebra": "su3", "seed": 5},
         ["algebra_report.csv"]),
        ({"command": "project", "algebra": "su2", "lattice": {"n": 6}, "seed": 2},
         ["project_report.csv"]),
        ({"command": "evolve", "algebra": "su2", "lattice": {"n": 6},
          "evolution": {"T": 0.3, "h": 0.05}, "random": {"amplitude": 0.01},
          "seed": 9}, ["evolution.csv"]),
        ({"command": "spectrum", "algebra": "su2",
          "model": {"N_max": 4, "n_max": 2}}, ["spectrum.csv"]),
    ])
    def test_csv_bodies_byte_identical(self, tmp_path, doc, csvs):
        outs = []
        for tag in ("one", "two"):
            outdir = tmp_path / tag
            outdir.mkdir()
            path = write_config(tmp_path, doc, name=f"{tag}.json")
            assert main([doc["command"], "--config", path, "--out", str(outdir)]) == 0
            outs.append([outdir / c for c in csvs])
        for f1, f2 in zip(*outs):
            assert f1.read_bytes() == f2.read_bytes()


# Runs one command through main in a fresh interpreter (the test process has
# scipy.sparse loaded already) with its runner wrapped, and reports whether
# scipy.sparse was loaded when the runner was entered and when main
# returned, and which of the heavier scipy modules were loaded by then.
_IMPORT_PROBE = """
import json, sys
from ymspec import cli
command = sys.argv[1]
runner = cli._RUNNERS[command]
seen = {}
def wrapped(config, outdir):
    seen["on_entry"] = "scipy.sparse" in sys.modules
    seen["ma_on_entry"] = "numpy.ma" in sys.modules
    return runner(config, outdir)
cli._RUNNERS[command] = wrapped
code = cli.main(sys.argv[1:])
heavy = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
print(json.dumps({"code": code, "on_entry": seen.get("on_entry"),
                  "after": "scipy.sparse" in sys.modules,
                  "ma_on_entry": seen.get("ma_on_entry"),
                  "ma_after": "numpy.ma" in sys.modules,
                  "heavy": [name for name in heavy if name in sys.modules]}))
"""

_IMPORT_DOCS = {
    "check-algebra": {"command": "check-algebra", "algebra": "su2"},
    "project": {"command": "project", "algebra": "su2", "lattice": {"n": 4}},
    "evolve": {"command": "evolve", "algebra": "su2", "lattice": {"n": 4},
               "evolution": {"T": 0.2, "h": 0.1},
               "random": {"amplitude": 0.01, "max_mode": 1}},
    "transform": {"command": "transform", "algebra": "su2"},
    "spectrum": {"command": "spectrum", "algebra": "su2",
                 "model": {"sector": "abelian", "N_max": 4}},
    "converge": {"command": "converge", "algebra": "su2",
                 "model": {"N_max": 4, "n_max": 2, "N_max_list": [4, 6],
                           "sector": "abelian"}},
}


class TestImportContract:
    """No command loads scipy.sparse, on entering its runner or after it:
    the Fock operators are numpy arrays and the block sectors are read
    off in numpy.  Nor does any command load scipy.sparse.csgraph,
    scipy.sparse.linalg or scipy.linalg.  Nor numpy.ma, on entering its
    runner or after it: a plain np.unique (no return_* flag) would import
    it."""

    def test_package_import_loads_no_numpy(self):
        # the package root imports nothing, so the CLI sets its thread
        # variables before numpy loads; submodules load by import
        probe = ("import sys, ymspec\n"
                 "assert 'numpy' not in sys.modules\n"
                 "from ymspec import cli, fock, spectrum\n"
                 "print(spectrum.assemble_hamiltonian.__name__)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "assemble_hamiltonian\n"

    def test_cli_import_loads_no_traceback(self):
        # _emit_diagnostic walks the traceback's frames itself
        probe = ("import sys\n"
                 "import ymspec.cli\n"
                 "print('traceback' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_sparse_loaded_only_for_sparse_commands(self, tmp_path, command):
        # the name predates the numpy operators: no command is a sparse one
        path = write_config(tmp_path, _IMPORT_DOCS[command])
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, command, "--config", path,
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result == {"code": 0, "on_entry": False, "after": False,
                          "ma_on_entry": False, "ma_after": False,
                          "heavy": []}


class TestThreadSetting:
    """YMSPEC_THREADS pins the BLAS and OpenMP threads of a CLI process.
    Set and nonempty, it must be a positive integer: any other value exits
    2 with a diagnostic that names it, and is not passed on to BLAS."""

    _PROBE = ("import os, sys\n"
              "from ymspec import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
              "sys.exit(code)\n")

    @pytest.mark.parametrize("value,code,pinned", [
        ("two", 2, "None"), ("0", 2, "None"), ("1", 0, "1"),
    ])
    def test_value_checked(self, tmp_path, value, code, pinned):
        path = write_config(tmp_path, {"command": "check-algebra",
                                       "algebra": "su2"})
        env = {k: v for k, v in os.environ.items() if k not in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env.update(YMSPEC_THREADS=value,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", self._PROBE, "check-algebra", "--config",
             path, "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == f"{pinned}\n"
        if code:
            diag = json.loads(proc.stderr)
            assert diag["error_type"] == "ConfigurationError"
            assert "YMSPEC_THREADS" in diag["message"]
            assert not (tmp_path / "algebra_report.csv").exists()
        else:
            assert (tmp_path / "algebra_report.csv").exists()
