"""Bosonic block spectrum of the truncated energy-mass operator.

The Hamiltonian is the anti-normal quantization of the energy-mass
symbol over the retained modes.  Restricting to the fixed-degree
subspaces (n-boson blocks) removes the permutation degeneracy; lambda_n
is the smallest eigenvalue of the compressed block, the finite
realization of the variational infimum over n-boson states.  Growth of
lambda_n is summarized by a least-squares slope together with the
largest constant C making lambda_n >= slope * n + C hold, the
arithmetic-progression certificate.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.sparse.csgraph import connected_components

from .algebra import build_algebra
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
    ResourceError,
)
from .fock import (
    FockOperator,
    build_basis,
    number_operator,
    quantize,
    safe_block_indices,
)
from .symbols import ModeMap, energy_symbol, validate_ordering

DEGREE_MARGIN = 2
# rows of the largest block component diagonalized densely: a component of
# d rows takes 8 d^2 bytes (16 d^2 if complex), 512 MB real at the cap
DENSE_COMPONENT_CAP = 8_000
SECTORS = ("full", "abelian")


@dataclass
class ModelSpec:
    """Configuration of a truncated quantization model."""

    algebra: str = "su2"
    momentum: str = "zero"          # spatially-constant sector only
    sector: str = "full"            # "full" or "abelian" (single direction)
    N_max: int = 8
    n_max: int | None = None
    convention: str = "antinormal"
    include_magnetic: bool = True
    level_tol: float = 1e-8

    def __post_init__(self):
        if self.momentum != "zero":
            raise ConfigurationError(
                f"momentum truncation '{self.momentum}' is not available; the "
                "desk-scale model retains the spatially-constant sector only"
            )
        if self.sector not in SECTORS:
            raise ConfigurationError(
                f"sector must be one of {SECTORS}, got '{self.sector}'"
            )
        validate_ordering(self.convention)
        if self.N_max < DEGREE_MARGIN:
            raise ConfigurationError(
                f"N_max must be at least {DEGREE_MARGIN}, got {self.N_max}"
            )

    def mode_map(self) -> ModeMap:
        basis = build_algebra(self.algebra)
        if self.sector == "abelian":
            return ModeMap.abelian(basis.dim_g)
        return ModeMap.zero_momentum(basis.dim_g)

    @property
    def num_modes(self) -> int:
        return self.mode_map().num_modes

    @property
    def n_top(self) -> int:
        """Highest boson number reported: n_max, or N_max - DEGREE_MARGIN."""
        return self.N_max - DEGREE_MARGIN if self.n_max is None else self.n_max


@dataclass
class SpectrumReport:
    ns: list
    lambdas: list
    multiplicities: list
    converged: list        # bool per level
    N_max: int
    D: int
    # the operator the levels were computed from (None on a report built
    # by hand)
    hamiltonian: FockOperator | None = field(
        default=None, repr=False, compare=False
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("n,lambda,multiplicity,converged\n")
        for n, lam, mult, conv in zip(
            self.ns, self.lambdas, self.multiplicities, self.converged
        ):
            buf.write(f"{n},{lam:.17g},{mult},{int(conv)}\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# operator assembly and block extraction
# ---------------------------------------------------------------------------

def assemble_hamiltonian(model: ModelSpec, N_max: int | None = None) -> FockOperator:
    """Quantize the energy-mass symbol under the path cutoff N_max on the
    safe basis, degree <= N_max - DEGREE_MARGIN, which the levels and C*
    read; the basis cap is checked before the symbol is built."""
    mode_map = model.mode_map()
    if mode_map.num_modes == 0:
        raise ConfigurationError("model retains zero modes; nothing to quantize")
    N_max = model.N_max if N_max is None else N_max
    basis = build_basis(mode_map.num_modes, N_max,
                        depth=N_max - DEGREE_MARGIN)
    sym = energy_symbol(build_algebra(model.algebra), mode_map,
                        model.include_magnetic)
    return quantize(sym, model.convention, basis)


def n_boson_block(q: FockOperator, n: int) -> np.ndarray:
    """Dense compression of the operator onto the degree-n subspace."""
    if not 0 <= n <= q.basis.depth:
        raise ConfigurationError(
            f"block degree {n} outside 0..{q.basis.depth}"
        )
    idx = q.basis.degree_indices(n)
    return q.matrix[np.ix_(idx, idx)].toarray()


def _block_eigenvalues(matrix, idx: np.ndarray) -> np.ndarray:
    """All eigenvalues, ascending, of the Hermitian compression
    sub = matrix[idx, idx].

    H has no entry between its symmetry sectors, so sub splits into the
    connected components of its sparsity graph.  Permuted once into
    component-major order, sub is block diagonal, and dense LAPACK
    diagonalizes each block completely: the result needs no start vector
    and no certificate.  A compression whose stored entries are all real
    is solved as a real symmetric matrix.
    """
    sub = matrix[np.ix_(idx, idx)]
    herm_defect = abs(sub - sub.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, abs(sub).max()):
        raise NumericalError(
            f"block is not Hermitian (defect {herm_defect:.3e})"
        )
    if not sub.data.imag.any():
        sub = sub.real
    # the pattern, not the values: a complex graph is cast with a warning
    _, labels = connected_components(sub != 0, directed=False)
    sizes = np.bincount(labels)
    if sizes.max() > DENSE_COMPONENT_CAP:
        raise ResourceError(
            f"a {idx.size}-dim block has a {sizes.max()}-dim component, "
            f"past the dense cap of {DENSE_COMPONENT_CAP} rows"
        )
    order = np.argsort(labels, kind="stable")
    sub = sub[np.ix_(order, order)]
    ends = np.cumsum(sizes)
    vals = np.concatenate([
        np.linalg.eigvalsh(sub[a:b, a:b].toarray())
        for a, b in zip(ends - sizes, ends)
    ])
    vals.sort()
    return vals


def _lowest_level(matrix, idx: np.ndarray, tol: float) -> tuple[float, int]:
    """Lowest eigenvalue lam of matrix[idx, idx] and its multiplicity, the
    number of eigenvalues at most lam + tol."""
    vals = _block_eigenvalues(matrix, idx)
    return float(vals[0]), int(np.count_nonzero(vals <= vals[0] + tol))


def bosonic_spectrum(model: ModelSpec) -> SpectrumReport:
    """lambda_n for n = 0..model.n_top with multiplicities, from one assembly of H.

    Every reported level is flagged converged because it equals the level
    of the untruncated operator exactly: the degree-n block sees only the
    number-conserving monomials of the quartic energy symbol, whose ladder
    paths (under any ordering convention) pass through degrees
    <= n + DEGREE_MARGIN, and n_max is capped at N_max - DEGREE_MARGIN, so
    no path meets the cutoff.  The operator is kept on the report as
    ``hamiltonian``.
    """
    n_top = model.n_top
    if n_top > model.N_max - DEGREE_MARGIN:
        raise ConfigurationError(
            f"n_max={n_top} exceeds N_max - {DEGREE_MARGIN} = "
            f"{model.N_max - DEGREE_MARGIN}; truncation-edge blocks are not "
            "trustworthy"
        )
    h = assemble_hamiltonian(model)
    ns = list(range(n_top + 1))
    levels = [_lowest_level(h.matrix, h.basis.degree_indices(n),
                            model.level_tol) for n in ns]
    return SpectrumReport(
        ns=ns,
        lambdas=[lam for lam, _ in levels],
        multiplicities=[mult for _, mult in levels],
        converged=[True] * len(ns),
        N_max=model.N_max,
        D=h.basis.D,
        hamiltonian=h,
    )


# ---------------------------------------------------------------------------
# growth analysis
# ---------------------------------------------------------------------------

@dataclass
class GapAnalysis:
    gap: float
    slope: float
    intercept: float
    bound_constant: float
    margin: float
    arithmetic_growth: bool
    levels_used: int


def gap_analysis(
    report: SpectrumReport, cstar: float, margin_tol: float = 1e-8
) -> GapAnalysis:
    """Gap and arithmetic-growth certificate of a spectrum report.

    Uses the levels flagged converged only.  The slope comes from the
    least-squares line and the bound constant is the largest C with
    lambda_n >= slope * n + C on those levels.  The margin
    min_n (lambda_n - n) - C* checks the levels against the number-shift
    bound C* (number_shift_bound), an independent solve: every reported
    block lies in C*'s safe block, so the margin is >= 0 up to roundoff.
    """
    used = np.asarray(report.converged, dtype=bool)
    ns = np.asarray(report.ns, dtype=float)[used]
    lam = np.asarray(report.lambdas, dtype=float)[used]
    if ns.size < 3:
        raise InsufficientDataError(
            f"gap analysis needs at least 3 converged levels, have {ns.size}"
        )
    slope, intercept = np.polyfit(ns, lam, 1)
    margin = float((lam - ns).min() - cstar)
    return GapAnalysis(
        gap=float(lam[1] - lam[0]),
        slope=float(slope),
        intercept=float(intercept),
        bound_constant=float((lam - slope * ns).min()),
        margin=margin,
        arithmetic_growth=bool(slope > 0 and margin >= -margin_tol),
        levels_used=int(ns.size),
    )


def number_shift_bound(h: FockOperator,
                       margin_degree: int = DEGREE_MARGIN) -> float:
    """C* = min spectrum of (H - N) compressed to the truncation-safe block.

    Every state psi supported on degrees <= N_max - margin_degree then
    satisfies <H> >= <N> + C*.
    """
    idx = safe_block_indices(h.basis, margin_degree)
    if idx.size == 0:
        raise ConfigurationError("safe block is empty at this truncation")
    shifted = h.matrix - number_operator(h.basis).matrix
    return float(_block_eigenvalues(shifted, idx)[0])


# ---------------------------------------------------------------------------
# truncation studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceStudy:
    N_max_list: list
    ns: list
    lambdas: dict            # N_max -> list of lambda_n
    rel_changes: dict = field(default_factory=dict)  # (N_prev, N_next) -> list

    def to_csv(self) -> str:
        buf = io.StringIO()
        cols = ",".join(f"lambda_Nmax{N}" for N in self.N_max_list)
        buf.write(f"n,{cols}\n")
        for i, n in enumerate(self.ns):
            vals = ",".join(f"{self.lambdas[N][i]:.17g}" for N in self.N_max_list)
            buf.write(f"{n},{vals}\n")
        return buf.getvalue()

    def max_rel_change(self) -> float:
        worst = 0.0
        for changes in self.rel_changes.values():
            worst = max(worst, max(changes))
        return worst


def convergence_study(model: ModelSpec, N_max_list) -> ConvergenceStudy:
    """lambda_n per truncation level with relative changes between
    consecutive levels."""
    levels = list(N_max_list)
    if not levels:
        raise ConfigurationError("N_max list must be non-empty")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigurationError("N_max list must be strictly increasing")
    n_top = model.n_top
    if n_top > min(levels) - DEGREE_MARGIN:
        raise ConfigurationError(
            f"n_max={n_top} too large for the smallest truncation "
            f"N_max={min(levels)}"
        )
    lambdas = {}
    for N in levels:
        h = assemble_hamiltonian(model, N_max=N)
        lambdas[N] = [float(_block_eigenvalues(h.matrix,
                                               h.basis.degree_indices(n))[0])
                      for n in range(n_top + 1)]
    ns = list(range(n_top + 1))
    study = ConvergenceStudy(N_max_list=levels, ns=ns, lambdas=lambdas)
    for a, b in zip(levels, levels[1:]):
        study.rel_changes[(a, b)] = [
            abs(l2 - l1) / max(abs(l1), 1e-12)
            for l1, l2 in zip(lambdas[a], lambdas[b])
        ]
    return study


def spectrum_summary_json(
    report: SpectrumReport, analysis: GapAnalysis, extra: dict | None = None
) -> str:
    doc = {
        "D": report.D,
        "N_max": report.N_max,
        "lambdas": [float(x) for x in report.lambdas],
        "multiplicities": [int(m) for m in report.multiplicities],
        "converged": [bool(c) for c in report.converged],
    }
    doc.update(asdict(analysis))
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=1, sort_keys=True)
