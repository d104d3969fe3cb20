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
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .algebra import build_algebra
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
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

    @property
    def growth_fit(self) -> tuple[float, float]:
        """Least-squares (slope, intercept) of lambda_n against n."""
        ns = np.asarray(self.ns, dtype=float)
        lam = np.asarray(self.lambdas, dtype=float)
        slope, intercept = np.polyfit(ns, lam, 1)
        return float(slope), float(intercept)

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


def _count_below(sub, sigma: float) -> int:
    """Number of eigenvalues of the Hermitian sparse matrix sub below sigma:
    by Sylvester's law of inertia, the negative pivots of a symmetric
    factorization P (sub - sigma) P^T = L D L^H.  A factor that pivoted
    off the diagonal, or a singular one, proves nothing."""
    shifted = (sub - sigma * sparse.identity(sub.shape[0], sub.dtype)).tocsc()
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise NumericalError(f"inertia factor at {sigma!r} failed: {exc}")
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError(f"inertia factor at {sigma!r} pivoted")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def _certified_minimum(matrix, idx: np.ndarray, tol: float):
    """(lam, sub): lowest eigenvalue of the Hermitian compression
    sub = matrix[idx, idx], certified by a zero inertia count below lam - tol.

    Lanczos finds lam from a fixed start vector with seeded restarts (a
    block with few distinct eigenvalues exhausts its Krylov space), so the
    digits repeat run to run; a block of at most two rows, below
    Lanczos's reach, is read densely.  A compression whose stored entries
    are all real is solved as a real symmetric matrix.
    """
    sub = matrix[np.ix_(idx, idx)]
    dim = idx.size
    herm_defect = abs(sub - sub.conj().T).max()
    if herm_defect > 1e-10 * max(1.0, abs(sub).max()):
        raise NumericalError(
            f"block is not Hermitian (defect {herm_defect:.3e})"
        )
    if not sub.data.imag.any():
        sub = sub.real
    if dim <= 2:  # eigsh needs k < dim - 1 for complex blocks
        lam = float(np.linalg.eigvalsh(sub.toarray())[0])
    else:
        try:
            lam = float(spla.eigsh(sub, k=1, which="SA", v0=np.ones(dim),
                                   rng=0, return_eigenvectors=False)[0])
        except spla.ArpackError as exc:
            raise NumericalError(
                f"eigensolver failed on a {dim}-dim block: {exc}")
    below = _count_below(sub, lam - tol)
    if below:
        raise NumericalError(
            f"{below} eigenvalues of a {dim}-dim block lie below the "
            f"Lanczos minimum {lam!r} by more than {tol}"
        )
    return lam, sub


def _lowest_level(matrix, idx: np.ndarray, tol: float) -> tuple[float, int]:
    """Certified lowest eigenvalue lam of matrix[idx, idx] and its
    multiplicity, the inertia count of eigenvalues below lam + tol."""
    lam, sub = _certified_minimum(matrix, idx, tol)
    return lam, _count_below(sub, lam + tol)


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
        D=model.num_modes,
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


def number_shift_bound(
    h: FockOperator, margin_degree: int = DEGREE_MARGIN,
    tol: float = ModelSpec.level_tol,
) -> float:
    """C* = min spectrum of (H - N) compressed to the truncation-safe block,
    certified to tol like the block levels.

    Every state psi supported on degrees <= N_max - margin_degree then
    satisfies <H> >= <N> + C*.
    """
    idx = safe_block_indices(h.basis, margin_degree)
    if idx.size == 0:
        raise ConfigurationError("safe block is empty at this truncation")
    shifted = h.matrix - number_operator(h.basis).matrix
    return _certified_minimum(shifted, idx, tol)[0]


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
        lambdas[N] = [_certified_minimum(h.matrix, h.basis.degree_indices(n),
                                         model.level_tol)[0]
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
