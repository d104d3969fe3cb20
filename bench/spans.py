"""Layer spans for the traced benchmark run.

``Tracer.install`` wraps the public functions of each ymspec layer at every
name a caller looks them up by (each ``ymspec.*`` module global bound to
the function), so nothing under ``src/`` changes.  Spans are held in memory
as ``[name, start_ns, end_ns, parent, run_id, counts]`` and written out by
the caller when the run ends; ``layer_metrics`` derives the per-layer
numbers from them.  Private kernels (``_bracket``, ``_diff``,
``_monomial_entries``, ``_block_lowest``) are not wrapped, so their time
is self time of their public caller.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in the traced run
LAYER_FUNCTIONS = {
    "cli": ("parse_config",),
    "algebra": ("build_algebra",),
    "lattice": ("random_vector_field", "transversal_project",
                "invert_laplacian", "gauged_laplacian",
                "constraint_residual", "save_field"),
    "dynamics": ("evolve", "rk4_step", "curvature_magnetic", "energy"),
    "symbols": ("energy_symbol",),
    "fock": ("build_basis", "quantize"),
    "spectrum": ("bosonic_spectrum", "convergence_study",
                 "assemble_hamiltonian", "n_boson_block",
                 "number_shift_bound"),
}
RUNNER = "cli.runner"


def _save_field_counts(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _rk4_counts(args, result):
    return {"dof": int(args["state"].a.data.size)}


def _energy_symbol_counts(args, result):
    return {"terms": len(result.terms)}


def _build_basis_counts(args, result):
    return {"states": int(result.size)}


def _quantize_counts(args, result):
    terms = args["s"].terms
    useful = sum(1 for alpha, beta in terms if sum(alpha) == sum(beta))
    return {"terms": len(terms), "useful": useful, "nnz": int(result.matrix.nnz)}


def _block_counts(args, result):
    return {"dim": int(result.shape[0])}


def _shift_bound_counts(args, result):
    basis = args["h"].basis
    safe = basis.degrees <= basis.N_max - args["margin_degree"]
    return {"dim": int(safe.sum())}


# counts recorded at the boundary, from the call's arguments and result;
# computed after the span closes so they add nothing to its duration
COUNTERS = {
    "lattice.save_field": _save_field_counts,
    "dynamics.rk4_step": _rk4_counts,
    "symbols.energy_symbol": _energy_symbol_counts,
    "fock.build_basis": _build_basis_counts,
    "fock.quantize": _quantize_counts,
    "spectrum.n_boson_block": _block_counts,
    "spectrum.number_shift_bound": _shift_bound_counts,
}


class Tracer:
    """In-memory span recorder for one CLI process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans, stack, run_id = self.spans, self._open, self.run_id
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, run_id, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind every ymspec module global that names a layer function."""
        modules = [m for key, m in list(sys.modules.items())
                   if key.startswith("ymspec.") and m is not None]
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"ymspec.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one process
# ---------------------------------------------------------------------------

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "cli.parse_config.s": "s",
    "algebra.build_algebra.calls": "count",
    "algebra.build_algebra.s": "s",
    "lattice.cg_iterations": "count",
    "lattice.gauged_laplacian.ms_per_call": "ms",
    "lattice.invert_laplacian.s": "s",
    "lattice.transversal_project.s": "s",
    "lattice.random_vector_field.s": "s",
    "lattice.constraint_residual.calls": "count",
    "lattice.constraint_residual.s": "s",
    "lattice.save_field.s": "s",
    "lattice.save_field.bytes": "bytes",
    "dynamics.rk4_step.calls": "count",
    "dynamics.rk4_step.ms_per_step": "ms",
    "dynamics.rk4_step.self_s": "s",
    "dynamics.curvature_magnetic.calls_per_step": "count",
    "dynamics.curvature_magnetic.s": "s",
    "dynamics.energy.s": "s",
    "dynamics.site_updates_per_s": "1/s",
    "symbols.energy_symbol.calls": "count",
    "symbols.energy_symbol.s": "s",
    "symbols.energy_symbol.terms": "count",
    "fock.build_basis.calls": "count",
    "fock.build_basis.s": "s",
    "fock.basis_states": "count",
    "fock.quantize.calls": "count",
    "fock.quantize.s": "s",
    "fock.quantize.nnz": "count",
    "fock.quantize.terms": "count",
    "fock.useful_term_ratio": "fraction",
    "spectrum.assemble_hamiltonian.calls": "count",
    "spectrum.assemble_hamiltonian.s": "s",
    "spectrum.n_boson_block.s": "s",
    "spectrum.max_block_dim": "count",
    "spectrum.levels.self_s": "s",
    "spectrum.number_shift_bound.s": "s",
    "spectrum.number_shift_bound.dim": "count",
    "bench.trace_overhead_frac": "fraction",
    "bench.untraced_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer values of one traced process, except trace overhead.

    Times are totals over all calls in seconds; ``.calls`` and the other
    counts are totals over the process (work done), except
    ``spectrum.max_block_dim`` and ``spectrum.number_shift_bound.dim``,
    which are the largest matrix each eigensolve saw.
    """
    dur = [(s[2] - s[1]) * 1e-9 for s in spans]
    child_time = [0.0] * len(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] >= 0:
            child_time[s[3]] += dur[i]

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(dur[i] for i in by_name[name])

    def self_time(name):
        return sum(dur[i] - child_time[i] for i in by_name[name])

    def count(name, key):
        return sum(spans[i][5][key] for i in by_name[name])

    def largest(name, key):
        return max((spans[i][5][key] for i in by_name[name]), default=0)

    def inside(name, ancestor):
        hits = 0
        for i in by_name[name]:
            p = spans[i][3]
            while p >= 0 and spans[p][0] != ancestor:
                p = spans[p][3]
            hits += p >= 0
        return hits

    runner = by_name[RUNNER][0]
    steps = calls("dynamics.rk4_step")
    rk4_s = total("dynamics.rk4_step")
    quantized_terms = count("fock.quantize", "terms")
    return {
        "cli.parse_config.s": total("cli.parse_config"),
        "algebra.build_algebra.calls": calls("algebra.build_algebra"),
        "algebra.build_algebra.s": total("algebra.build_algebra"),
        "lattice.cg_iterations": inside("lattice.gauged_laplacian",
                                        "lattice.invert_laplacian"),
        "lattice.gauged_laplacian.ms_per_call": 1e3 * _ratio(
            total("lattice.gauged_laplacian"), calls("lattice.gauged_laplacian")),
        "lattice.invert_laplacian.s": total("lattice.invert_laplacian"),
        "lattice.transversal_project.s": total("lattice.transversal_project"),
        "lattice.random_vector_field.s": total("lattice.random_vector_field"),
        "lattice.constraint_residual.calls": calls("lattice.constraint_residual"),
        "lattice.constraint_residual.s": total("lattice.constraint_residual"),
        "lattice.save_field.s": total("lattice.save_field"),
        "lattice.save_field.bytes": count("lattice.save_field", "bytes"),
        "dynamics.rk4_step.calls": steps,
        "dynamics.rk4_step.ms_per_step": 1e3 * _ratio(rk4_s, steps),
        "dynamics.rk4_step.self_s": self_time("dynamics.rk4_step"),
        "dynamics.curvature_magnetic.calls_per_step": _ratio(
            calls("dynamics.curvature_magnetic"), steps),
        "dynamics.curvature_magnetic.s": total("dynamics.curvature_magnetic"),
        "dynamics.energy.s": total("dynamics.energy"),
        "dynamics.site_updates_per_s": _ratio(
            count("dynamics.rk4_step", "dof"), rk4_s),
        "symbols.energy_symbol.calls": calls("symbols.energy_symbol"),
        "symbols.energy_symbol.s": total("symbols.energy_symbol"),
        "symbols.energy_symbol.terms": count("symbols.energy_symbol", "terms"),
        "fock.build_basis.calls": calls("fock.build_basis"),
        "fock.build_basis.s": total("fock.build_basis"),
        "fock.basis_states": count("fock.build_basis", "states"),
        "fock.quantize.calls": calls("fock.quantize"),
        "fock.quantize.s": total("fock.quantize"),
        "fock.quantize.nnz": count("fock.quantize", "nnz"),
        "fock.quantize.terms": quantized_terms,
        "fock.useful_term_ratio": _ratio(
            count("fock.quantize", "useful"), quantized_terms),
        "spectrum.assemble_hamiltonian.calls": calls("spectrum.assemble_hamiltonian"),
        "spectrum.assemble_hamiltonian.s": total("spectrum.assemble_hamiltonian"),
        "spectrum.n_boson_block.s": total("spectrum.n_boson_block"),
        "spectrum.max_block_dim": largest("spectrum.n_boson_block", "dim"),
        "spectrum.levels.self_s": self_time("spectrum.bosonic_spectrum")
        + self_time("spectrum.convergence_study"),
        "spectrum.number_shift_bound.s": total("spectrum.number_shift_bound"),
        "spectrum.number_shift_bound.dim": largest(
            "spectrum.number_shift_bound", "dim"),
        "bench.untraced_frac": _ratio(dur[runner] - child_time[runner],
                                      dur[runner]),
    }


def median_metrics(per_process: list) -> dict:
    """Median of each metric over the traced processes of a run."""
    return {key: statistics.median(m[key] for m in per_process)
            for key in per_process[0]}
