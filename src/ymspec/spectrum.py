"""Bosonic block spectrum of the truncated energy-mass operator.

The Hamiltonian is the anti-normal quantization of the energy-mass
symbol over the retained modes.  Restricting to the fixed-degree
subspaces (n-boson blocks) removes the permutation degeneracy; lambda_n
is the smallest eigenvalue of the compressed block, the finite
realization of the variational infimum over n-boson states.  Growth of
lambda_n is summarized by a least-squares slope together with the
largest constant C making lambda_n >= slope * n + C hold, the
arithmetic-progression certificate.

H commutes with the colour rotations exp(t ad X) and the spatial
rotations of the modes.  It is quantized in the complex modes that
diagonalize a Cartan set of them (symbols.cartan_modes: L_z and the
ad(b_i) of a Cartan subalgebra), in which every occupation state has an
integer weight and H conserves it, so every block splits into weight
sectors read off in closed form, each solved densely.  A few symmetries
of H permute the weights (_weight_maps: the mirror mu -> -mu, the
spatial rotation by pi about x and, for su2, the colour-spatial swap),
each carrying a sector onto one of the same spectrum, so only one sector
of each orbit of the group they generate is solved, its eigenvalues
counted once per sector of the orbit.  C* needs only the
zero-weight sector: each irreducible representation in the Fock space
(symmetric powers of R^3 (x) adj) has its highest weight in the root
lattice, so 0 is one of its weights, and every eigenvalue of H - N on a
rotation-invariant block therefore has an eigenvector of weight 0.  So H
is quantized only on the rows these solves read, each set enumerated
directly: the levels' (the canonical sector of each orbit, degree <=
n_top, number-conserving terms alone) and C*'s (weight 0, every term,
each N parity solved apart).
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .algebra import LieAlgebraBasis, build_algebra
from .errors import (
    ConfigurationError,
    InsufficientDataError,
    NumericalError,
    ResourceError,
)
from .fock import (FockOperator, build_basis, check_basis_size, quantize,
                   zero_weight_rows)
from .symbols import (
    ORDERINGS,
    ModeMap,
    PolynomialSymbol,
    cartan_modes,
    energy_symbol,
)

DEGREE_MARGIN = 2
# rows of the largest block sector diagonalized densely: a sector of d
# rows takes 8 d^2 bytes (16 d^2 if complex), 512 MB real at the cap
DENSE_COMPONENT_CAP = 8_000
SECTORS = ("full", "abelian")


@dataclass
class ModelSection:
    """A config's ``model`` section, with its defaults.  Every check on it
    is made here on construction, by key path, so that a library caller
    gets the CLI's diagnostic word for word."""

    momentum: str = "zero"          # spatially-constant sector only
    sector: str = "full"            # "full" or "abelian" (single direction)
    N_max: int = 6
    n_max: int | None = None
    convention: str = "antinormal"
    include_magnetic: bool = True
    N_max_list: list[int] = field(default_factory=lambda: [6, 8])

    def __post_init__(self):
        for key, allowed in (("momentum", ("zero",)), ("sector", SECTORS),
                             ("convention", ORDERINGS)):
            value = getattr(self, key)
            if value not in allowed:
                raise ConfigurationError(
                    f"'model.{key}' must be one of {allowed}, got {value!r}"
                )
        if self.N_max < DEGREE_MARGIN:
            raise ConfigurationError(
                f"'model.N_max' must be at least {DEGREE_MARGIN}, got {self.N_max}"
            )
        if self.n_max is not None and self.n_max > self.N_max - DEGREE_MARGIN:
            raise ConfigurationError(
                f"'model.n_max' must be at most N_max - {DEGREE_MARGIN} = "
                f"{self.N_max - DEGREE_MARGIN}, got {self.n_max}; "
                "truncation-edge blocks are not trustworthy"
            )
        levels = self.N_max_list
        if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ConfigurationError("'model.N_max_list' must be non-empty and "
                                     f"strictly increasing, got {levels}")

    @property
    def n_top(self) -> int:
        """Highest boson number reported: n_max, or N_max - DEGREE_MARGIN."""
        return self.N_max - DEGREE_MARGIN if self.n_max is None else self.n_max


@dataclass
class ModelSpec(ModelSection):
    """A truncated quantization model: a checked ``model`` section with the
    config's algebra and level tolerance."""

    algebra: str = "su2"
    level_tol: float = 1e-8

    def mode_map(self, basis: LieAlgebraBasis | None = None) -> ModeMap:
        """The retained modes; ``basis`` is this model's algebra if it is
        already built."""
        if basis is None:
            basis = build_algebra(self.algebra)
        if self.sector == "abelian":
            return ModeMap.abelian(basis.dim_g)
        return ModeMap.zero_momentum(basis.dim_g)


@dataclass
class SpectrumReport:
    ns: list
    lambdas: list
    multiplicities: list
    N_max: int
    D: int
    # the whole H compressed to the zero-weight safe states, which C*
    # reads (None on a report built by hand)
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

def _cartan_model(model: ModelSpec):
    """The energy symbol in the model's Cartan modes and their weights; the
    safe basis (degree <= N_max - DEGREE_MARGIN), which holds every row set
    but is never enumerated, passes the cap first."""
    algebra = build_algebra(model.algebra)
    mode_map = model.mode_map(algebra)
    if mode_map.num_modes == 0:
        raise ConfigurationError("model retains zero modes; nothing to quantize")
    modes = cartan_modes(algebra, mode_map)
    check_basis_size(mode_map.num_modes, model.N_max - DEGREE_MARGIN)
    return (energy_symbol(algebra, mode_map, model.include_magnetic, modes),
            modes.weights)


def _weight_maps(model: ModelSpec, rank: int) -> list:
    """Integer maps g on the weight vectors (the colour Cartan weights, then
    L_z's, rank in all) such that sector g mu has the spectrum of sector
    mu: each is a real-mode map that leaves H unchanged, or, for the
    mirror, complex conjugation in the real modes, where H is real, which
    negates every weight.  R, the spatial rotation by pi about x, turns
    L_z into -L_z and fixes the colour rotations, so it negates the last
    column.  For su2 with every direction retained, S, the colour-spatial
    swap A[j, p] -> A[f^-1(p), f(j)] with f(j) = j + 1 mod 3, turns L_z
    into ad(b_0) and back, so it swaps the two columns.  Each is a signed
    permutation (see FockBasis.mapped_sectors)."""
    maps = [-np.eye(rank, dtype=np.int64), np.diag([1] * (rank - 1) + [-1])]
    if model.algebra == "su2" and model.sector == "full":
        maps.append(np.array([[0, 1], [1, 0]]))
    return maps


def _orbits(basis, maps: list) -> tuple[np.ndarray, np.ndarray]:
    """Per state of the weighted basis, whether its sector is the canonical
    one of its orbit under the group the maps generate, the image of
    largest code, and the orbit's size, the number of distinct images."""
    group = [np.eye(basis.weights.shape[1], dtype=np.int64)]
    for g in group:  # the closure: each element appended is visited too
        for h in (m @ g for m in maps):
            if not any((h == k).all() for k in group):
                group.append(h)
    images = np.sort(basis.mapped_sectors(group), axis=1)
    return (basis.sectors == images[:, -1],
            1 + np.count_nonzero(np.diff(images, axis=1), axis=1))


def _level_operator(model: ModelSpec, sym: PolynomialSymbol,
                    weights: np.ndarray) -> tuple[FockOperator, np.ndarray]:
    """H compressed to the rows the levels read, with each row's orbit
    size, the copies _block_eigenvalues counts.  The rows have degree <=
    n_top and hold the canonical sector of each orbit of _weight_maps'
    group (_orbits): whole sectors, each standing for its orbit.  Only the
    number-conserving terms are quantized, since a term that changes N
    has no entry inside a degree block.  It holds no more of H, so C* must
    never read it."""
    conserving = PolynomialSymbol(sym.num_modes, {
        (alpha, beta): c for (alpha, beta), c in sym.terms.items()
        if sum(alpha) == sum(beta)})
    rows = build_basis(sym.num_modes, model.N_max, depth=model.n_top,
                       weights=weights)
    canonical, sizes = _orbits(rows, _weight_maps(model, weights.shape[1]))
    return (quantize(conserving, model.convention, rows.subset(canonical)),
            sizes[canonical])


def _zero_weight_operator(model: ModelSpec, sym: PolynomialSymbol,
                          weights: np.ndarray) -> FockOperator:
    """The whole H compressed to the zero-weight rows of the safe basis,
    all that C* reads (see number_shift_bound)."""
    rows = zero_weight_rows(sym.num_modes, model.N_max,
                            model.N_max - DEGREE_MARGIN, weights)
    return quantize(sym, model.convention, rows)


def assemble_hamiltonian(model: ModelSpec) -> FockOperator:
    """The energy-mass operator at the model's path cutoff N_max, quantized
    in its Cartan modes and compressed to the zero-weight states of its
    safe basis (see _cartan_model), on which C* is solved."""
    return _zero_weight_operator(model, *_cartan_model(model))


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


def _block_eigenvalues(matrix, lo: int, hi: int, sectors: np.ndarray,
                       copies: np.ndarray | None = None,
                       number: np.ndarray | None = None) -> np.ndarray:
    """All eigenvalues, ascending, of the Hermitian block
    sub = matrix[lo:hi, lo:hi] of the Csr matrix, each sector's listed
    copies[i] times for its row i, or, given each row's boson number N as
    number, only those of sub - diag(number) in its sector 0.

    sectors[i] is the sector of row i (FockBasis.sectors, all 0 for a
    basis without weights); with number, each splits by N mod 2 unless a
    stored entry joins two parities.  H has no entry between sectors: an
    entry joining two, above 1e-12 of the block's largest |entry|, is a
    NumericalError.
    copies[i] (default 1) is the number of sectors that row i's sector
    stands for: the level rows hold one sector per orbit of sectors of the
    same spectrum, and copies its orbit's size (see _level_operator).
    Each sector, rows in basis order (a stable argsort of the sector), is
    filled into a dense matrix, checked Hermitian against that largest
    |entry|, and diagonalized completely by dense LAPACK, the sectors of
    equal size in one stacked call: the result needs no start vector and
    no certificate.  A block whose stored entries are all real is solved
    as a real symmetric matrix.
    """
    dim = hi - lo
    key = sectors[lo:hi]
    rows, cols, vals = matrix.rows(lo, hi)
    if number is not None:
        parity = number % 2
        key = 2 * key + (0 if (parity[rows] != parity[cols]).any() else parity)
    if not vals.imag.any():
        vals = vals.real
    on = rows == cols
    diagonal = np.zeros(dim, dtype=vals.dtype)
    diagonal[rows[on]] = vals[on]
    if number is not None:
        diagonal -= number
    scale = max(1.0, np.abs(vals[~on]).max(initial=0.0),
                np.abs(diagonal).max(initial=0.0))
    joins = key[rows] != key[cols]
    leak = np.abs(vals[joins]).max(initial=0.0)
    if leak > 1e-12 * scale:
        raise NumericalError(f"an entry of {leak:.3e} joins two weight sectors")
    # the rows solved, grouped by sector, and each row's place in its sector
    order = np.argsort(key, kind="stable")
    if number is not None:
        order = order[key[order] // 2 == 0]
    _, starts, sizes = np.unique(key[order], return_index=True,
                                 return_counts=True)
    if sizes.max() > DENSE_COMPONENT_CAP:
        raise ResourceError(
            f"a {dim}-dim block has a {sizes.max()}-dim sector, "
            f"past the dense cap of {DENSE_COMPONENT_CAP} rows"
        )
    pos = np.full(dim, -1)
    pos[order] = np.arange(order.size) - np.repeat(starts, sizes)
    # the entries inside the solved sectors
    inside = ~joins & (pos[rows] >= 0)
    rows, cols, vals = rows[inside], cols[inside], vals[inside]
    eigs = []
    # not a plain np.unique, which imports numpy.ma (about 12 ms)
    for size in sorted(set(sizes.tolist())):
        # the sectors of this size, one layer each, their rows in order
        stack = np.flatnonzero(sizes == size)
        members = order[starts[stack, None] + np.arange(size)]
        layer = np.full(dim, -1)
        layer[members] = np.arange(stack.size)[:, None]
        mine = layer[rows] >= 0
        d = np.zeros((stack.size, size, size), dtype=vals.dtype)
        d[layer[rows[mine]], pos[rows[mine]], pos[cols[mine]]] = vals[mine]
        if number is not None:
            d[:, np.arange(size), np.arange(size)] -= number[members]
        # |d - d^H| by row blocks of about 2^18 entries, so that the check
        # holds no copy of the whole stack
        step = max(1, (1 << 18) // (stack.size * size))
        defect = max(np.abs(d[:, r:r + step]
                            - d[:, :, r:r + step].conj().transpose(0, 2, 1)).max()
                     for r in range(0, size, step))
        if defect > 1e-10 * scale:
            raise NumericalError(
                f"block is not Hermitian (defect {defect:.3e})"
            )
        reps = 1 if copies is None else copies[lo + members[:, 0]]
        eigs.append(np.repeat(np.linalg.eigvalsh(d), reps, axis=0).ravel())
    vals = np.concatenate(eigs)
    vals.sort()
    return vals


def _lowest_level(matrix, lo: int, hi: int, tol: float, sectors: np.ndarray,
                  copies: np.ndarray | None = None) -> tuple[float, int]:
    """Lowest eigenvalue lam of matrix[lo:hi, lo:hi] and its multiplicity,
    the number of eigenvalues at most lam + tol over all its sectors, each
    counted copies times (see _block_eigenvalues)."""
    vals = _block_eigenvalues(matrix, lo, hi, sectors, copies)
    return float(vals[0]), int(np.count_nonzero(vals <= vals[0] + tol))


def bosonic_spectrum(model: ModelSpec) -> SpectrumReport:
    """lambda_n for n = 0..model.n_top with multiplicities, from one energy
    symbol.

    Every reported level equals the level of the untruncated operator
    exactly: the degree-n block sees only the number-conserving monomials
    of the quartic energy symbol, whose ladder paths (under any ordering
    convention) pass through degrees <= n + DEGREE_MARGIN, and ModelSpec
    caps n_max at N_max - DEGREE_MARGIN, so no path meets the cutoff.  The
    levels are read from _level_operator; the report keeps the whole H
    compressed to the zero-weight states of the safe basis as
    ``hamiltonian``, for C*.
    """
    n_top = model.n_top
    sym, weights = _cartan_model(model)
    h, copies = _level_operator(model, sym, weights)
    ns = list(range(n_top + 1))
    levels = [_lowest_level(h.matrix, *_degree_rows(h.basis, n),
                            model.level_tol, h.basis.sectors, copies)
              for n in ns]
    return SpectrumReport(
        ns=ns,
        lambdas=[lam for lam, _ in levels],
        multiplicities=[mult for _, mult in levels],
        N_max=model.N_max,
        D=sym.num_modes,
        hamiltonian=_zero_weight_operator(model, sym, weights),
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
    satisfies <H> >= <N> + C*.  Only the block's zero-weight sector is
    solved, which holds every eigenvalue of a rotation-invariant H (see
    the module docstring); without weights the sector is the whole block.
    Each N parity (N is a row's degree) is solved apart if H conserves it,
    as the even-degree energy symbol does.
    """
    basis = h.basis
    top = basis.N_max - margin_degree
    if top > basis.depth:
        raise ConfigurationError(
            f"margin_degree={margin_degree} asks for degrees <= {top}, but "
            f"the basis holds only degrees <= {basis.depth}"
        )
    # the safe block is a prefix of the degree-major basis, up to degree top
    _, hi = _degree_rows(basis, top)
    if hi == 0:
        raise ConfigurationError("safe block is empty at this truncation")
    return float(_block_eigenvalues(h.matrix, 0, hi, basis.sectors,
                                    number=basis.degrees[:hi])[0])


# ---------------------------------------------------------------------------
# truncation studies
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceStudy:
    """lambda_n per cutoff of N_max_list, the same in every column, and
    the relative changes between consecutive cutoffs, all 0."""

    N_max_list: list
    ns: list
    lambdas: dict            # N_max -> list of lambda_n
    rel_changes: dict        # (N_prev, N_next) -> list

    def to_csv(self) -> str:
        buf = io.StringIO()
        cols = ",".join(f"lambda_Nmax{N}" for N in self.N_max_list)
        buf.write(f"n,{cols}\n")
        for i, n in enumerate(self.ns):
            vals = ",".join(f"{self.lambdas[N][i]:.17g}" for N in self.N_max_list)
            buf.write(f"{n},{vals}\n")
        return buf.getvalue()

    def max_rel_change(self) -> float:
        """The largest relative change, 0.0 for a single cutoff and NaN if
        any change is NaN, so that no gate passes NaN levels."""
        changes = [c for vals in self.rel_changes.values() for c in vals]
        return float(np.max(changes, initial=0.0))


def convergence_study(model: ModelSpec) -> ConvergenceStudy:
    """lambda_n, n = 0..model.n_top, per cutoff in model.N_max_list.  Each
    level is exact at every cutoff (see bosonic_spectrum), so the levels
    are solved once, on the first cutoff's level rows, the only cutoff
    capped: each relative change is 0 by construction, and
    convergence_gate is only a guard.  The tests check the truncation
    against a rebuild at each cutoff.  A list that starts below n_top +
    DEGREE_MARGIN gets ModelSection's 'model.n_max' refusal."""
    levels = model.N_max_list
    model = replace(model, N_max=levels[0], n_max=model.n_top)
    h, _ = _level_operator(model, *_cartan_model(model))
    ns = list(range(model.n_top + 1))
    lams = [float(_block_eigenvalues(
        h.matrix, *_degree_rows(h.basis, n), h.basis.sectors)[0]) for n in ns]
    lambdas = {N: list(lams) for N in levels}
    return ConvergenceStudy(
        N_max_list=levels, ns=ns, lambdas=lambdas,
        rel_changes={(a, b): [abs(l2 - l1) / max(abs(l1), 1e-12)
                              for l1, l2 in zip(lambdas[a], lambdas[b])]
                     for a, b in zip(levels, levels[1:])})


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
