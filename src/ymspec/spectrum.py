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

from .algebra import LieAlgebraBasis, build_algebra
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
    ResourceError,
)
from .fock import FockOperator, build_basis, quantize, safe_block_indices
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

    def mode_map(self, basis: LieAlgebraBasis | None = None) -> ModeMap:
        """The retained modes; ``basis`` is this model's algebra if it is
        already built."""
        if basis is None:
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
    N_max: int
    D: int
    # the operator the levels were computed from (None on a report built
    # by hand)
    hamiltonian: FockOperator | None = field(
        default=None, repr=False, compare=False
    )

    def to_csv(self) -> str:
        """One row per level; the converged column is always 1, since every
        level is exact (see bosonic_spectrum)."""
        buf = io.StringIO()
        buf.write("n,lambda,multiplicity,converged\n")
        for n, lam, mult in zip(self.ns, self.lambdas, self.multiplicities):
            buf.write(f"{n},{lam:.17g},{mult},1\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# operator assembly and block extraction
# ---------------------------------------------------------------------------

def _hamiltonians(model: ModelSpec, N_max_list):
    """The energy-mass operator at each path cutoff in N_max_list, each
    quantized on its safe basis, degree <= N_max - DEGREE_MARGIN, which the
    levels and C* read.  Every basis is built, and so passes the cap, before
    the one energy symbol is; each operator is quantized only when the
    returned generator is advanced to it."""
    algebra = build_algebra(model.algebra)
    mode_map = model.mode_map(algebra)
    if mode_map.num_modes == 0:
        raise ConfigurationError("model retains zero modes; nothing to quantize")
    bases = [build_basis(mode_map.num_modes, N, depth=N - DEGREE_MARGIN)
             for N in N_max_list]
    sym = energy_symbol(algebra, mode_map, model.include_magnetic)
    return (quantize(sym, model.convention, basis) for basis in bases)


def assemble_hamiltonian(model: ModelSpec, N_max: int | None = None) -> FockOperator:
    """The energy-mass operator at path cutoff N_max (model.N_max if None)
    on its safe basis; see _hamiltonians."""
    (h,) = _hamiltonians(model, [model.N_max if N_max is None else N_max])
    return h


def _degree_rows(basis, n: int) -> tuple[int, int]:
    """The rows [lo, hi) of the degree-n states, contiguous in the
    degree-major basis."""
    return (int(np.searchsorted(basis.degrees, n, side="left")),
            int(np.searchsorted(basis.degrees, n, side="right")))


def n_boson_block(q: FockOperator, n: int) -> np.ndarray:
    """Dense compression of the operator onto the degree-n subspace."""
    if not 0 <= n <= q.basis.depth:
        raise ConfigurationError(
            f"block degree {n} outside 0..{q.basis.depth}"
        )
    lo, hi = _degree_rows(q.basis, n)
    block = np.zeros((hi - lo, hi - lo), dtype=q.matrix.data.dtype)
    rows, cols, vals = q.matrix.rows(lo, hi)
    block[rows, cols] = vals
    return block


def _component_labels(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Connected component of each of n vertices, with an undirected edge
    between rows[k] and cols[k] for each k, numbered in the order of each
    component's smallest vertex.

    Every vertex starts with its own index as label.  Each round, a vertex
    takes the smallest label among itself and its neighbours, then the
    label of that label (pointer jumping).  A label is always a vertex of
    the same component, no larger than the vertex, so the labels stop
    changing exactly when each vertex holds its component's smallest one.
    """
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        np.minimum.at(new, cols, labels[rows])
        new = new[new]
        if np.array_equal(new, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = new


def _block_eigenvalues(matrix, lo: int, hi: int,
                       shift: np.ndarray | None = None) -> np.ndarray:
    """All eigenvalues, ascending, of the Hermitian block
    sub = matrix[lo:hi, lo:hi] - diag(shift) of the Csr matrix.

    H has no entry between its symmetry sectors, so sub splits into the
    connected components of the graph of its nonzero entries.  Each
    component is filled into a dense matrix, rows in basis order, and
    dense LAPACK diagonalizes it completely: the result needs no start
    vector and no certificate.  A block whose stored entries are all real
    is solved as a real symmetric matrix.  No entry lies between two
    components, so checking each component against the largest |entry|
    of the whole block checks that sub is Hermitian.
    """
    dim = hi - lo
    rows, cols, vals = matrix.rows(lo, hi)
    stored = vals != 0  # a stored zero joins no rows
    rows, cols, vals = rows[stored], cols[stored], vals[stored]
    if not vals.imag.any():
        vals = vals.real
    labels = _component_labels(rows, cols, dim)
    sizes = np.bincount(labels)
    if sizes.max() > DENSE_COMPONENT_CAP:
        raise ResourceError(
            f"a {dim}-dim block has a {sizes.max()}-dim component, "
            f"past the dense cap of {DENSE_COMPONENT_CAP} rows"
        )
    on = rows == cols
    diagonal = np.zeros(dim, dtype=vals.dtype)
    diagonal[rows[on]] = vals[on]
    if shift is not None:
        diagonal -= shift
    scale = max(1.0, np.abs(vals[~on]).max(initial=0.0),
                np.abs(diagonal).max(initial=0.0))
    # each row's place in its component, and the entries grouped by
    # component in those places
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(dim, dtype=np.int64)
    pos[order] = np.arange(dim) - np.repeat(starts, sizes)
    # in the narrowest unsigned type, whose stable sort is a radix sort
    owner = labels[rows].astype(np.min_scalar_type(sizes.size))
    by_owner = np.argsort(owner, kind="stable")
    rows, cols, vals = pos[rows[by_owner]], pos[cols[by_owner]], vals[by_owner]
    counts = np.bincount(owner, minlength=sizes.size)
    ends = np.cumsum(counts)
    eigs = []
    for a, size, e0, e1 in zip(starts, sizes, ends - counts, ends):
        d = np.zeros((size, size), dtype=vals.dtype)
        d[rows[e0:e1], cols[e0:e1]] = vals[e0:e1]
        if shift is not None:
            d.flat[::size + 1] -= shift[order[a:a + size]]
        defect = np.abs(d - d.conj().T).max()
        if defect > 1e-10 * scale:
            raise NumericalError(
                f"block is not Hermitian (defect {defect:.3e})"
            )
        eigs.append(np.linalg.eigvalsh(d))
    vals = np.concatenate(eigs)
    vals.sort()
    return vals


def _lowest_level(matrix, lo: int, hi: int, tol: float) -> tuple[float, int]:
    """Lowest eigenvalue lam of matrix[lo:hi, lo:hi] and its multiplicity,
    the number of eigenvalues at most lam + tol."""
    vals = _block_eigenvalues(matrix, lo, hi)
    return float(vals[0]), int(np.count_nonzero(vals <= vals[0] + tol))


def bosonic_spectrum(model: ModelSpec) -> SpectrumReport:
    """lambda_n for n = 0..model.n_top with multiplicities, from one assembly of H.

    Every reported level equals the level of the untruncated operator
    exactly: the degree-n block sees only the number-conserving monomials
    of the quartic energy symbol, whose ladder paths (under any ordering
    convention) pass through degrees <= n + DEGREE_MARGIN, and n_max is
    capped at N_max - DEGREE_MARGIN, so no path meets the cutoff.  The operator is kept on the report as
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
    levels = [_lowest_level(h.matrix, *_degree_rows(h.basis, n),
                            model.level_tol) for n in ns]
    return SpectrumReport(
        ns=ns,
        lambdas=[lam for lam, _ in levels],
        multiplicities=[mult for _, mult in levels],
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

    The slope comes from the least-squares line through every level and
    the bound constant is the largest C with lambda_n >= slope * n + C.
    The margin min_n (lambda_n - n) - C* checks the levels against the
    number-shift bound C* (number_shift_bound), an independent solve: every
    reported block lies in C*'s safe block, so the margin is >= 0 up to
    roundoff.
    """
    ns = np.asarray(report.ns, dtype=float)
    lam = np.asarray(report.lambdas, dtype=float)
    if ns.size < 3:
        raise InsufficientDataError(
            f"gap analysis needs at least 3 levels, have {ns.size}"
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
    # the safe block is a prefix of the degree-major basis
    hi = safe_block_indices(h.basis, margin_degree).size
    if hi == 0:
        raise ConfigurationError("safe block is empty at this truncation")
    return float(_block_eigenvalues(h.matrix, 0, hi,
                                    shift=h.basis.degrees[:hi])[0])


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
    consecutive levels, from one energy symbol quantized on the safe basis
    of each level (see _hamiltonians)."""
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
    for N, h in zip(levels, _hamiltonians(model, levels)):
        lambdas[N] = [float(_block_eigenvalues(h.matrix,
                                               *_degree_rows(h.basis, n))[0])
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
    report: SpectrumReport, analysis: GapAnalysis, cstar: float
) -> str:
    """The spectrum summary: levels, gap analysis and the number-shift
    bound C*; every level is exact, so each is listed as converged."""
    doc = {
        "D": report.D,
        "N_max": report.N_max,
        "lambdas": [float(x) for x in report.lambdas],
        "multiplicities": [int(m) for m in report.multiplicities],
        "converged": [True] * len(report.ns),
        "number_shift_bound": cstar,
    }
    doc.update(asdict(analysis))
    return json.dumps(doc, indent=1, sort_keys=True)
