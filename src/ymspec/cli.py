"""Configuration-driven command line front end.

Usage: ymspec <command> --config <path> [--out <dir>]

Commands: check-algebra, project, evolve, transform, spectrum, converge.
Configuration is a single strict-schema JSON document, checked against
the annotations of the config dataclasses below: unknown or duplicate
keys and mistyped values are rejected by key path.  Numbers are finite
(NaN and Infinity are rejected) and positive, except ``seed``,
``random.max_mode`` and ``model.n_max``, which may be zero; ``bool``
never counts as a number.  The algebra identifier, the model choices
and the truncation levels are checked too, also by key path.  There is
no ``output`` key: ``--out`` names the output directory.  Every run writes CSV data files whose bytes depend
only on the configuration and seed, plus a JSON summary (the only place
a timestamp appears).  Exit codes: 0 success, 1 physics assertion
failed, 2 usage or schema error, 3 numerical or any other failure.
"""

from __future__ import annotations

import os

if os.environ.get("YMSPEC_THREADS"):
    os.environ.setdefault("OMP_NUM_THREADS", os.environ["YMSPEC_THREADS"])
    os.environ.setdefault("OPENBLAS_NUM_THREADS", os.environ["YMSPEC_THREADS"])
    os.environ.setdefault("MKL_NUM_THREADS", os.environ["YMSPEC_THREADS"])

import argparse
import dataclasses
import functools
import json
import sys
import time
import traceback
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
    SECTORS,
    ModelSpec,
    bosonic_spectrum,
    convergence_study,
    gap_analysis,
    number_shift_bound,
    spectrum_summary_json,
)
from .symbols import (
    ORDERINGS,
    ModeMap,
    PolynomialSymbol,
    convert,
    energy_symbol,
    number_symbol,
)

COMMANDS = ("check-algebra", "project", "evolve", "transform", "spectrum", "converge")


class PhysicsAssertionError(YmspecError):
    """A configured physics check failed (CLI exit code 1)."""


# ---------------------------------------------------------------------------
# configuration schema
# ---------------------------------------------------------------------------

@dataclass
class LatticeConfig:
    n: int = 8
    spacing: float = 1.0


@dataclass
class EvolutionConfig:
    T: float = 1.0
    h: float = 0.05
    preset: str = "random"  # "random" | "abelian-wave"


@dataclass
class ModelConfig:
    momentum: str = "zero"
    sector: str = "full"
    N_max: int = 6
    n_max: int | None = None
    convention: str = "antinormal"
    include_magnetic: bool = True
    N_max_list: list[int] = field(default_factory=lambda: [6, 8])


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
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    random: RandomConfig = field(default_factory=RandomConfig)
    seed: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(
            algebra=self.algebra,
            momentum=self.model.momentum,
            sector=self.model.sector,
            N_max=self.model.N_max,
            n_max=self.model.n_max,
            convention=self.model.convention,
            include_magnetic=self.model.include_magnetic,
            level_tol=self.tolerances.level_tol,
        )


# The constraint table: every number is positive except the key paths in
# _NONNEGATIVE, which may also be zero; the keys in _CHOICES take one of
# the listed strings.  Types come from the dataclass annotations above;
# what involves more than one key is checked by _check_values.
_NONNEGATIVE = ("seed", "random.max_mode", "model.n_max")
_CHOICES = {
    "command": COMMANDS,
    "evolution.preset": ("random", "abelian-wave"),
    "model.momentum": ("zero",),
    "model.sector": SECTORS,
    "model.convention": ORDERINGS,
}

# per annotated scalar type: the JSON value types it accepts, and its name
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


# resolving the string annotations costs more than the whole check
_type_hints = functools.cache(typing.get_type_hints)


def _fill_dataclass(cls, doc: dict, path: str):
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
    """The checks the constraint table cannot express, each naming its
    key path: the algebra identifier, lattice size, truncation levels and
    the CG tolerance."""
    try:
        algebra_name(config.algebra)
    except ConfigurationError as exc:
        raise ConfigurationError(f"'algebra': {exc}") from None
    if config.lattice.n < 2:
        raise ConfigurationError(
            f"'lattice.n' must be at least 2 sites, got {config.lattice.n}"
        )
    model = config.model
    if model.N_max < DEGREE_MARGIN:
        raise ConfigurationError(
            f"'model.N_max' must be at least {DEGREE_MARGIN}, got {model.N_max}"
        )
    if model.n_max is not None and model.n_max > model.N_max - DEGREE_MARGIN:
        raise ConfigurationError(
            f"'model.n_max' must be at most N_max - {DEGREE_MARGIN} = "
            f"{model.N_max - DEGREE_MARGIN}, got {model.n_max}; "
            "truncation-edge blocks are not trustworthy"
        )
    n_top = config.model_spec().n_top
    if config.command == "spectrum" and n_top < 2:
        key = "N_max" if model.n_max is None else "n_max"
        raise ConfigurationError(
            f"'model.{key}' must leave the gap analysis at least 3 levels "
            f"(n = 0..2), got {getattr(model, key)}"
        )
    levels = model.N_max_list
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError(
            "'model.N_max_list' must be non-empty and strictly increasing, "
            f"got {levels}"
        )
    if config.command == "converge" and n_top > levels[0] - DEGREE_MARGIN:
        raise ConfigurationError(
            f"'model.N_max_list' must start at n_max + {DEGREE_MARGIN} = "
            f"{n_top + DEGREE_MARGIN} or above, got {levels}"
        )
    if config.tolerances.cg_tol >= 1:
        # a relative residual tolerance of 1 accepts x = 0
        raise ConfigurationError(
            f"'tolerances.cg_tol' must be below 1, got {config.tolerances.cg_tol}"
        )
    return config


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigurationError(f"duplicate configuration key '{key}'")
        doc[key] = value
    return doc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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
    lattice = LatticeSpec(n=config.lattice.n, spacing=config.lattice.spacing)
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
    lattice = LatticeSpec(n=config.lattice.n, spacing=config.lattice.spacing)
    n = lattice.n
    x = np.arange(n)
    wave = config.random.amplitude * np.cos(2 * np.pi * x / n)
    a_data = np.zeros((3, basis.dim_g, n, n, n))
    a_data[1, 0] = wave[:, None, None]
    a = VectorAlgebraField(lattice, basis, a_data)
    e = VectorAlgebraField.zeros(lattice, basis)
    return CauchyState(a, e, 0.0)


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
    # CG residual is exactly div_a(e - grad_a u), so 'after' <= tol * 'before'
    if not after <= 10 * config.tolerances.cg_tol * max(before, 1e-300):
        failures.append(
            f"projection left residual {after:.3e} relative to |e| {e_norm:.3e}"
        )
    _finish(outdir, "project_report.json",
            {"residual_before": before, "residual_after": after,
             "electric_norm": e_norm}, config, failures)


def _run_evolve(config: RunConfig, outdir: str):
    basis = build_algebra(config.algebra)
    # an oversize run is refused before its start state is built
    step_sizes(config.evolution.T, config.evolution.h,
               config.lattice.n ** 3 * basis.dim_g)
    if config.evolution.preset == "abelian-wave":
        state = abelian_wave_state(config, basis)
    else:
        state = seeded_random_state(config, basis)
    bound = cfl_bound(state.lattice)
    e_scale = max(field_norm(state.e), 1e-300)
    final, report = evolve(
        state, config.evolution.T, config.evolution.h,
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
    model = config.model_spec()
    study = convergence_study(model, config.model.N_max_list)
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
    if exc.__traceback__ is not None:
        # where it was raised, so an unforeseen failure can be traced
        # without printing a traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        doc["raised_at"] = (
            f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        )
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
        with open(args.config) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        _emit_diagnostic(None, exc, 2)
        return 2

    try:
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
