"""Configuration-driven command line front end.

Usage: ymspec <command> --config <path> [--out <dir>]

Commands: check-algebra, project, evolve, transform, spectrum, converge.
Configuration is a single strict-schema JSON document, checked against
the annotations of RunConfig and its sections, two of which are library
types (lattice.LatticeSpec, spectrum.ModelSection): unknown or duplicate
keys and mistyped values are rejected by key path.  Numbers are finite
(NaN and Infinity are rejected) and positive, except ``seed``,
``random.max_mode`` and ``model.n_max``, which may be zero; ``bool``
never counts as a number.  LatticeSpec and ModelSection check their
sections as each is read, then _check_values the algebra, each
command's levels and cg_tol, all by key path.  ``--out`` (not a config key) names
the output directory; its nearest existing ancestor, itself if it
exists, must be a directory.  Every run writes CSV data files whose
bytes depend only on the configuration and seed, plus a JSON summary
(the only place a timestamp appears).  Exit codes: 0 success, 1 physics
assertion failed, 2 usage or schema error (a YMSPEC_THREADS that is set
but not a positive integer included), 3 numerical or any other failure.
"""

from __future__ import annotations

import os


def _positive_integer(text: str) -> bool:
    return text.isascii() and text.isdigit() and int(text) > 0


# the BLAS and OpenMP thread counts are read when numpy loads, so a valid
# YMSPEC_THREADS is copied before the imports below; main refuses any
# other nonempty value
if _positive_integer(os.environ.get("YMSPEC_THREADS", "")):
    for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_name, os.environ["YMSPEC_THREADS"])

import argparse
import dataclasses
import functools
import json
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    LieAlgebraBasis,
    algebra_name,
    build_algebra,
    check_structure,
    quartic_contraction,
    quartic_contraction_via_brackets,
    SpatialAlgebraVector,
)
from .dynamics import CauchyState, cfl_bound, evolve, step_sizes
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    YmspecError,
)
from .fock import build_basis, quantize
from .lattice import (
    LatticeSpec,
    VectorAlgebraField,
    constraint_residual,
    field_norm,
    random_vector_field,
    save_field,
    transversal_project,
)
from .spectrum import (
    DEGREE_MARGIN,
    ModelSection,
    ModelSpec,
    bosonic_spectrum,
    convergence_study,
    gap_analysis,
    number_shift_bound,
    spectrum_summary_json,
)
from .symbols import (
    ModeMap,
    PolynomialSymbol,
    convert,
    energy_symbol,
    number_symbol,
)

class PhysicsAssertionError(YmspecError):
    """A configured physics check failed (CLI exit code 1)."""


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

@dataclass
class EvolutionConfig:
    T: float = 1.0
    h: float = 0.05
    preset: str = "random"  # a key of _START_STATES


@dataclass
class ToleranceConfig:
    cg_tol: float = 1e-10
    constraint_tol: float = 1e-6
    level_tol: float = 1e-8
    # accepted and validated, but inert: spectrum levels are exact by
    # construction (see bosonic_spectrum), so nothing is compared against it
    convergence_rtol: float = 0.01
    margin_tol: float = 1e-8
    algebra_tol: float = 1e-10
    ordering_tol: float = 1e-10
    # optional CI gates; None disables the corresponding assertion
    energy_drift_gate: float | None = None
    constraint_growth_gate: float | None = None
    convergence_gate: float | None = None


@dataclass
class RandomConfig:
    amplitude: float = 0.05
    max_mode: int = 2


@dataclass
class RunConfig:
    command: str = "check-algebra"
    algebra: str = "su2"
    lattice: LatticeSpec = field(default_factory=LatticeSpec)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    model: ModelSection = field(default_factory=ModelSection)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    random: RandomConfig = field(default_factory=RandomConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(**dataclasses.asdict(self.model), algebra=self.algebra,
                         level_tol=self.tolerances.level_tol)


# The constraint table: every number is positive except the key paths in
# _NONNEGATIVE, which may also be zero; the keys in _CHOICES (after
# _RUNNERS) take one of the listed strings.  Types come from the section
# annotations; LatticeSpec, ModelSection and _check_values check the rest.
_NONNEGATIVE = ("seed", "random.max_mode", "model.n_max")

# per annotated scalar type: the JSON value types it accepts, and its name
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


# resolving the string annotations costs more than the whole check
_type_hints = functools.cache(typing.get_type_hints)


def _fill_dataclass(cls, doc: _JSONObject, path: str):
    if doc.repeated is not None:
        raise ConfigurationError(
            f"duplicate configuration key '{path}{doc.repeated}'")
    hints = _type_hints(cls)
    for key in doc:
        if key not in hints:
            raise ConfigurationError(f"unknown configuration key '{path}{key}'")
    return cls(**{
        name: _checked(hints[name], doc[name], path + name)
        for name in hints if name in doc
    })


def _checked(tp, value, key: str, item: str = ""):
    """Check ``value``, read at key path ``key``, against the field
    annotation ``tp`` and the constraint table, and return it; ``item``
    names a list entry in error messages."""
    name = f"'{key}'{item}"
    args = typing.get_args(tp)
    optional = type(None) in args
    if optional:
        if value is None:
            return None
        (tp,) = (t for t in args if t is not type(None))
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{name} must be an object, got {value!r}")
        return _fill_dataclass(tp, value, key + ".")
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigurationError(f"{name} must be a list, got {value!r}")
        return [
            _checked(typing.get_args(tp)[0], x, key, f" item {i}")
            for i, x in enumerate(value)
        ]
    accepted, noun = _SCALARS[tp]
    # bool is a subclass of int in Python, but never counts as a number
    if isinstance(value, bool) is not (tp is bool) or not isinstance(value, accepted):
        null = " or null" if optional else ""
        raise ConfigurationError(f"{name} must be {noun}{null}, got {value!r}")
    if tp in (int, float):
        # finite as a double: rejects NaN, +-Infinity and ints past its range
        if not abs(value) <= sys.float_info.max:
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if value < 0 or (value == 0 and key not in _NONNEGATIVE):
            bound = ">= 0" if key in _NONNEGATIVE else "positive"
            raise ConfigurationError(f"{name} must be {bound}, got {value}")
    if key in _CHOICES and value not in _CHOICES[key]:
        raise ConfigurationError(
            f"{name} must be one of {_CHOICES[key]}, got {value!r}"
        )
    return value


def _check_values(config: RunConfig) -> RunConfig:
    """The checks on the whole document that no section type makes, each
    naming its key path: the algebra identifier, the levels spectrum and
    converge need, and the CG tolerance.  They run after LatticeSpec and
    ModelSection have checked the ``lattice`` and ``model`` sections."""
    try:
        algebra_name(config.algebra)
    except ConfigurationError as exc:
        raise ConfigurationError(f"'algebra': {exc}") from None
    model = config.model
    n_top = model.n_top
    if config.command == "spectrum" and n_top < 2:
        key = "N_max" if model.n_max is None else "n_max"
        raise ConfigurationError(
            f"'model.{key}' must leave the gap analysis at least 3 levels "
            f"(n = 0..2), got {getattr(model, key)}"
        )
    if config.command == "converge" and n_top > model.N_max_list[0] - DEGREE_MARGIN:
        raise ConfigurationError(
            f"'model.N_max_list' must start at n_max + {DEGREE_MARGIN} = "
            f"{n_top + DEGREE_MARGIN} or above, got {model.N_max_list}"
        )
    if config.tolerances.cg_tol >= 1:
        # a relative residual tolerance of 1 accepts x = 0
        raise ConfigurationError(
            f"'tolerances.cg_tol' must be below 1, got {config.tolerances.cg_tol}"
        )
    return config


class _JSONObject(dict):
    repeated = None  # the first key the object repeats, refused with its path


def _json_object(pairs) -> _JSONObject:
    doc = _JSONObject()
    for key, value in pairs:
        if key in doc and doc.repeated is None:
            doc.repeated = key
        doc[key] = value
    return doc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text, object_pairs_hook=_json_object)
    except ValueError as exc:  # JSONDecodeError, or an over-long integer
        raise ConfigurationError(f"configuration is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError("configuration must be a JSON object")
    return _check_values(_fill_dataclass(RunConfig, doc, ""))


# ---------------------------------------------------------------------------
# seeded data
# ---------------------------------------------------------------------------

def _seeded_fields(config: RunConfig, basis: LieAlgebraBasis | None = None):
    """The seeded band-limited pair (a, e_raw), drawn in that order, over
    ``basis``, the config's algebra (built here if None)."""
    if basis is None:
        basis = build_algebra(config.algebra)
    lattice = config.lattice
    rng = np.random.default_rng(config.seed)
    return tuple(
        random_vector_field(
            rng, lattice, basis, config.random.amplitude, config.random.max_mode
        )
        for _ in range(2)
    )


def seeded_random_state(config: RunConfig,
                        basis: LieAlgebraBasis | None = None) -> CauchyState:
    """Deterministic band-limited Cauchy data with projected electric field."""
    a, e_raw = _seeded_fields(config, basis)
    e = transversal_project(a, e_raw, config.tolerances.cg_tol)
    return CauchyState(a, e, 0.0)


def abelian_wave_state(config: RunConfig,
                       basis: LieAlgebraBasis | None = None) -> CauchyState:
    """Standing abelian wave: one polarization, one algebra direction, over
    ``basis``, the config's algebra (built here if None)."""
    if basis is None:
        basis = build_algebra(config.algebra)
    lattice = config.lattice
    n = lattice.n
    x = np.arange(n)
    wave = config.random.amplitude * np.cos(2 * np.pi * x / n)
    a = VectorAlgebraField.zeros(lattice, basis)
    a.data[1, 0] = wave[:, None, None]
    e = VectorAlgebraField.zeros(lattice, basis)
    return CauchyState(a, e, 0.0)


# evolution.preset -> the start state it names
_START_STATES = {"random": seeded_random_state, "abelian-wave": abelian_wave_state}


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _write(outdir: str, name: str, text: str) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _finish(outdir: str, name: str, payload: dict, config: RunConfig,
            failures: list):
    """Every runner's last step: write the JSON summary ``name``, "violated"
    if a physics check failed, then raise naming every failed check."""
    payload = dict(payload, status="violated" if failures else "ok",
                   command=config.command, config=config.to_dict(),
                   generated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    _write(outdir, name, json.dumps(payload, indent=1, sort_keys=True))
    if failures:
        raise PhysicsAssertionError("; ".join(failures))


def _run_check_algebra(config: RunConfig, outdir: str):
    basis = build_algebra(config.algebra)
    report = check_structure(basis)
    tol = config.tolerances.algebra_tol

    rng = np.random.default_rng(config.seed)
    ad_violation = 0.0
    c = basis.structure_constants
    for _ in range(20):
        x, y, z = rng.normal(size=(3, basis.dim_g))
        zx = np.einsum("kij,i,j->k", c, z, x)
        zy = np.einsum("kij,i,j->k", c, z, y)
        ad_violation = max(ad_violation, abs(zx @ y + x @ zy))
    quartic_violation = 0.0
    for _ in range(20):
        av = SpatialAlgebraVector(basis, rng.normal(size=(3, basis.dim_g)))
        quartic_violation = max(
            quartic_violation,
            abs(quartic_contraction(av) - quartic_contraction_via_brackets(av)),
        )

    rows = dict(report.as_dict())
    rows["ad_invariance"] = ad_violation
    rows["quartic_route_agreement"] = quartic_violation
    csv = "check,violation\n" + "".join(
        f"{k},{v:.17g}\n" for k, v in rows.items()
    )
    _write(outdir, "algebra_report.csv", csv)
    failures = []
    if not max(rows.values()) < tol:
        failures.append(f"algebra invariants violated beyond {tol:.1e}: {rows}")
    _finish(outdir, "algebra_report.json",
            {"violations": rows, "tolerance": tol}, config, failures)


def _run_project(config: RunConfig, outdir: str):
    a, e_raw = _seeded_fields(config)
    before = constraint_residual(a, e_raw)
    e = transversal_project(a, e_raw, config.tolerances.cg_tol)
    after = constraint_residual(a, e)
    e_norm = field_norm(e_raw)

    save_field(os.path.join(outdir, "gauge_field.bin"), a)
    save_field(os.path.join(outdir, "electric_field.bin"), e)
    csv = (
        "quantity,value\n"
        f"residual_before,{before:.17g}\n"
        f"residual_after,{after:.17g}\n"
        f"electric_norm,{e_norm:.17g}\n"
    )
    _write(outdir, "project_report.csv", csv)
    failures = []
    # the CG residual is div_a(e - grad_a u) up to roundoff in grad_a u, so
    # 'after' <= tol * 'before' assumes that roundoff stays below it; near
    # a = 0, where u is large along the colour rotations, it does not (see
    # the README's numerical conventions)
    if not after <= 10 * config.tolerances.cg_tol * max(before, 1e-300):
        failures.append(f"projection left residual_after {after:.3e}, more than "
                        f"10 * cg_tol times residual_before {before:.3e}")
    _finish(outdir, "project_report.json",
            {"residual_before": before, "residual_after": after,
             "electric_norm": e_norm}, config, failures)


def _run_evolve(config: RunConfig, outdir: str):
    basis = build_algebra(config.algebra)
    # an oversize run is refused before its start state is built
    step_sizes(config.evolution.T, config.evolution.h,
               config.lattice.n ** 3 * basis.dim_g)
    start = [_START_STATES[config.evolution.preset](config, basis)]
    bound = cfl_bound(start[0].lattice)
    e_scale = max(field_norm(start[0].e), 1e-300)
    # popped, so that evolve holds the only reference to the start state
    final, report = evolve(
        start.pop(), config.evolution.T, config.evolution.h,
        constraint_tol=config.tolerances.constraint_tol,
    )
    growth_rel = report.constraint_growth / e_scale
    tol = config.tolerances
    # written as "not <=" so that a NaN value fails its gate
    failures = [
        f"{name} {value:.3e} exceeds gate {gate:.1e}"
        for name, value, gate in (
            ("energy drift", report.energy_drift, tol.energy_drift_gate),
            ("relative constraint growth", growth_rel,
             tol.constraint_growth_gate),
        )
        if gate is not None and not value <= gate
    ]
    _write(outdir, "evolution.csv", report.to_csv())
    _finish(outdir, "evolution_summary.json",
            {"steps": len(report.times) - 1,
             "cfl_bound": bound,
             "final_time": final.t,
             "energy_initial": report.energy[0],
             "energy_final": report.energy[-1],
             "energy_drift": report.energy_drift,
             "constraint_initial": report.constraint[0],
             "constraint_final": report.constraint[-1],
             "constraint_growth": report.constraint_growth,
             "constraint_growth_relative": growth_rel}, config, failures)


def _run_transform(config: RunConfig, outdir: str):
    basis = build_algebra(config.algebra)
    mode_map = ModeMap.zero_momentum(basis.dim_g)
    D = mode_map.num_modes

    # ordering-resolved symbol table of the number operator
    resolved = {
        conv: number_symbol(1, conv).coefficient((0,), (0,)).real
        for conv in ("normal", "weyl", "antinormal")
    }
    # the quadratic's Weyl transform (the anti-normally quantized quadratic)
    zz = PolynomialSymbol.zstar(1, 0) * PolynomialSymbol.z(1, 0)
    quad_weyl_const = convert(zz, "antinormal", "weyl").coefficient((0,), (0,)).real

    quartic = energy_symbol(basis, mode_map, include_magnetic=True) - energy_symbol(
        basis, mode_map, include_magnetic=False
    )
    smoothed = convert(quartic, "antinormal", "weyl")
    diff = smoothed - quartic
    kappa = np.zeros((D, D))
    for m in range(D):
        for mp in range(D):
            alpha = tuple(1 if i == m else 0 for i in range(D))
            beta = tuple(1 if i == mp else 0 for i in range(D))
            kappa[m, mp] = diff.coefficient(alpha, beta).real
    const = diff.coefficient((0,) * D, (0,) * D).real
    eigs = np.linalg.eigvalsh(kappa)
    residual_degree = max(
        (sum(a) + sum(b) for (a, b) in diff.terms), default=0
    )

    # operator-level ordering oracle: direct anti-normal placement vs
    # flow-to-normal-form, compared on the truncation-safe sub-block
    rng = np.random.default_rng(config.seed)
    oracle_basis = build_basis(2, 8)
    # the safe block, degree <= 4, is a prefix of the degree-major basis
    safe = int(np.searchsorted(oracle_basis.degrees, 4, side="right"))
    route_diff = 0.0
    for _ in range(50):
        terms = {}
        for _ in range(6):
            while True:
                alpha = tuple(int(x) for x in rng.integers(0, 3, 2))
                beta = tuple(int(x) for x in rng.integers(0, 3, 2))
                if sum(alpha) + sum(beta) <= 4:
                    break
            terms[(alpha, beta)] = complex(rng.normal(), rng.normal())
        s = PolynomialSymbol(2, terms)
        direct = quantize(s, "antinormal", oracle_basis).matrix.toarray()
        via = quantize(convert(s, "antinormal", "normal"), "normal",
                       oracle_basis).matrix.toarray()
        sub = (direct - via)[:safe, :safe]
        route_diff = max(route_diff, float(np.abs(sub).max()))

    csv = (
        "quantity,value\n"
        f"number_constant_normal,{resolved['normal']:.17g}\n"
        f"number_constant_weyl,{resolved['weyl']:.17g}\n"
        f"number_constant_antinormal,{resolved['antinormal']:.17g}\n"
        f"quadratic_weyl_constant,{quad_weyl_const:.17g}\n"
        f"mass_quadratic_min_eig,{eigs[0]:.17g}\n"
        f"mass_quadratic_max_eig,{eigs[-1]:.17g}\n"
        f"smoothing_constant,{const:.17g}\n"
        f"smoothed_minus_quartic_degree,{residual_degree}\n"
        f"ordering_route_max_diff,{route_diff:.17g}\n"
    )
    _write(outdir, "transform_report.csv", csv)
    failures = []
    if not eigs[0] > -1e-12:
        failures.append(
            f"emergent quadratic term is not positive semidefinite: {eigs[0]}"
        )
    if not route_diff < config.tolerances.ordering_tol:
        failures.append(
            f"anti-normal quantization routes disagree by {route_diff:.3e}"
        )
    _finish(outdir, "transform_report.json",
            {"number_symbol_constants": resolved,
             "quadratic_weyl_constant": quad_weyl_const,
             "mass_quadratic_eigenvalues": [float(x) for x in eigs],
             "smoothing_constant": const,
             "ordering_route_max_diff": route_diff}, config, failures)


def _run_spectrum(config: RunConfig, outdir: str):
    model = config.model_spec()
    report = bosonic_spectrum(model)
    cstar = number_shift_bound(report.hamiltonian)
    analysis = gap_analysis(report, cstar, config.tolerances.margin_tol)
    _write(outdir, "spectrum.csv", report.to_csv())
    _write(outdir, "spectrum_summary.json",
           spectrum_summary_json(report, analysis, cstar))
    failures = []
    if not analysis.gap > 0:
        failures.append(f"spectral gap is not positive: {analysis.gap}")
    if not analysis.arithmetic_growth:
        failures.append(
            f"arithmetic growth certificate failed (slope {analysis.slope}, "
            f"margin {analysis.margin})"
        )
    _finish(outdir, "run_summary.json",
            {"gap": analysis.gap, "slope": analysis.slope,
             "number_shift_bound": cstar}, config, failures)


def _run_converge(config: RunConfig, outdir: str):
    study = convergence_study(config.model_spec())
    _write(outdir, "convergence.csv", study.to_csv())
    changes = {
        f"{a}->{b}": vals for (a, b), vals in study.rel_changes.items()
    }
    worst = study.max_rel_change()
    gate = config.tolerances.convergence_gate
    failures = []
    if gate is not None and not worst <= gate:
        failures.append(
            f"level change {worst:.3e} under truncation refinement exceeds "
            f"gate {gate:.1e}"
        )
    _finish(outdir, "convergence_summary.json",
            {"N_max_list": study.N_max_list,
             "lambdas": {str(k): v for k, v in study.lambdas.items()},
             "rel_changes": changes,
             "max_rel_change": worst}, config, failures)


_RUNNERS = {
    "check-algebra": _run_check_algebra,
    "project": _run_project,
    "evolve": _run_evolve,
    "transform": _run_transform,
    "spectrum": _run_spectrum,
    "converge": _run_converge,
}
COMMANDS = tuple(_RUNNERS)
_CHOICES = {"command": COMMANDS, "evolution.preset": tuple(_START_STATES)}


def run(config: RunConfig, outdir: str = "."):
    """Dispatch a validated configuration to its runner, which writes the
    outputs and raises PhysicsAssertionError if a physics check failed."""
    os.makedirs(outdir, exist_ok=True)
    _RUNNERS[config.command](config, outdir)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _emit_diagnostic(outdir: str | None, exc: Exception, code: int):
    doc = {
        "status": "error",
        "error_type": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    tb = exc.__traceback__
    if tb is not None:
        # where it was raised, so an unforeseen failure can be traced
        # without printing a traceback
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = tb.tb_frame.f_code
        doc["raised_at"] = (f"{os.path.basename(where.co_filename)}:"
                            f"{tb.tb_lineno} in {where.co_name}")
    text = json.dumps(doc, indent=1, sort_keys=True)
    print(text, file=sys.stderr)
    if outdir and os.path.isdir(outdir):
        try:
            _write(outdir, "diagnostics.json", text)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ymspec",
        description="lattice gauge calculus, quantization, and bosonic spectra",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    outdir = args.out
    try:
        # run makes the directory and its parents under this ancestor
        ancestor = os.path.abspath(outdir)
        while not os.path.lexists(ancestor):
            ancestor = os.path.dirname(ancestor)
        if not os.path.isdir(ancestor):
            raise NotADirectoryError(
                f"'--out' {outdir!r}: {ancestor!r} is not a directory")
        with open(args.config) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _emit_diagnostic(None, exc, 2)
        return 2

    try:
        threads = os.environ.get("YMSPEC_THREADS", "")
        if threads and not _positive_integer(threads):
            raise ConfigurationError(
                f"YMSPEC_THREADS must be a positive integer, got {threads!r}"
            )
        config = parse_config(text)
        if config.command != args.command:
            raise ConfigurationError(
                f"config file declares command '{config.command}' but "
                f"'{args.command}' was requested"
            )
        run(config, outdir)
        return 0
    # no valid config reaches an InsufficientDataError (_check_values keeps
    # a spectrum's n_top >= 2, so gap_analysis has 3 levels); for a library
    # caller it is an input-size error, and exit 2 is its code
    except (ConfigurationError, InsufficientDataError) as exc:
        _emit_diagnostic(outdir, exc, 2)
        return 2
    except PhysicsAssertionError as exc:
        _emit_diagnostic(outdir, exc, 1)
        return 1
    except Exception as exc:  # NumericalError, or anything unforeseen
        _emit_diagnostic(outdir, exc, 3)
        return 3


if __name__ == "__main__":
    sys.exit(main())
