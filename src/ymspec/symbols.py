"""Polynomial symbol calculus over paired complex mode variables.

A symbol is a finite complex polynomial in (z*_1..z*_D, z_1..z_D),
stored as a sparse map from multi-index pairs (alpha, beta) to complex
coefficients, where alpha counts z* powers and beta counts z powers.
The normal / Weyl / anti-normal representations of one operator are
related by the Gaussian-smoothing flow exp(t sum_m d/dz*_m d/dz_m),
which terminates on polynomials and is applied exactly term by term.

The flow direction between ordering conventions is fixed by the
operator-level ordering oracle in :mod:`ymspec.fock` (anti-normal to
normal is t = +1), not by trusting any printed sign convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraBasis
from .errors import ConfigurationError, DimensionMismatchError, NumericalError

ORDERINGS = ("normal", "weyl", "antinormal")

# position of each convention along the smoothing flow; the transform
# from convention p to q applies the flow with t = POS[p] - POS[q]
_FLOW_POSITION = {"normal": 0.0, "weyl": 0.5, "antinormal": 1.0}


def validate_ordering(tag: str) -> str:
    if tag not in ORDERINGS:
        raise ConfigurationError(
            f"unknown ordering convention '{tag}'; expected one of {ORDERINGS}"
        )
    return tag


class PolynomialSymbol:
    """Sparse polynomial in (z*, z) over a fixed number of modes.

    terms maps (alpha, beta) -> complex with alpha, beta length-D integer
    tuples.  Zero coefficients are pruned on construction.
    """

    __slots__ = ("num_modes", "terms")

    def __init__(self, num_modes: int, terms: dict | None = None):
        if num_modes < 0:
            raise ConfigurationError("num_modes must be non-negative")
        self.num_modes = int(num_modes)
        self.terms: dict[tuple[tuple[int, ...], tuple[int, ...]], complex] = {}
        if terms:
            for (alpha, beta), coeff in terms.items():
                self._accumulate(tuple(alpha), tuple(beta), complex(coeff))

    def _accumulate(self, alpha, beta, coeff):
        if len(alpha) != self.num_modes or len(beta) != self.num_modes:
            raise DimensionMismatchError(
                f"multi-index length does not match num_modes={self.num_modes}"
            )
        key = (alpha, beta)
        new = self.terms.get(key, 0j) + coeff
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, num_modes: int) -> "PolynomialSymbol":
        return cls(num_modes)

    @classmethod
    def constant(cls, num_modes: int, value: complex) -> "PolynomialSymbol":
        zeros = (0,) * num_modes
        return cls(num_modes, {(zeros, zeros): value})

    @classmethod
    def z(cls, num_modes: int, mode: int) -> "PolynomialSymbol":
        zeros = (0,) * num_modes
        e = tuple(1 if m == mode else 0 for m in range(num_modes))
        return cls(num_modes, {(zeros, e): 1.0})

    @classmethod
    def zstar(cls, num_modes: int, mode: int) -> "PolynomialSymbol":
        zeros = (0,) * num_modes
        e = tuple(1 if m == mode else 0 for m in range(num_modes))
        return cls(num_modes, {(e, zeros): 1.0})

    # -- ring operations ---------------------------------------------------

    def _require_same_modes(self, other: "PolynomialSymbol"):
        if self.num_modes != other.num_modes:
            raise DimensionMismatchError(
                f"mode counts differ: {self.num_modes} vs {other.num_modes}"
            )

    def __add__(self, other):
        if np.isscalar(other):
            other = PolynomialSymbol.constant(self.num_modes, other)
        self._require_same_modes(other)
        out = PolynomialSymbol(self.num_modes, self.terms)
        for key, coeff in other.terms.items():
            out._accumulate(key[0], key[1], coeff)
        return out

    __radd__ = __add__

    def __neg__(self):
        return PolynomialSymbol(
            self.num_modes, {k: -v for k, v in self.terms.items()}
        )

    def __sub__(self, other):
        if np.isscalar(other):
            other = PolynomialSymbol.constant(self.num_modes, other)
        return self + (-other)

    def __mul__(self, other):
        if np.isscalar(other):
            return PolynomialSymbol(
                self.num_modes, {k: v * other for k, v in self.terms.items()}
            )
        self._require_same_modes(other)
        out = PolynomialSymbol(self.num_modes)
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                alpha = tuple(x + y for x, y in zip(a1, a2))
                beta = tuple(x + y for x, y in zip(b1, b2))
                out._accumulate(alpha, beta, c1 * c2)
        return out

    __rmul__ = __mul__

    def conjugate(self) -> "PolynomialSymbol":
        """Hermitian adjoint on symbols: swap (alpha, beta), conjugate coeffs."""
        return PolynomialSymbol(
            self.num_modes,
            {(b, a): np.conj(c) for (a, b), c in self.terms.items()},
        )

    # -- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(a) + sum(b) for a, b in self.terms)

    def coefficient(self, alpha, beta) -> complex:
        return self.terms.get((tuple(alpha), tuple(beta)), 0j)


# ---------------------------------------------------------------------------
# Weierstrass flow and convention conversion
# ---------------------------------------------------------------------------

def _contract_once(s: PolynomialSymbol) -> PolynomialSymbol:
    """Apply sum_m d/dz*_m d/dz_m exactly on the coefficient map."""
    out = PolynomialSymbol(s.num_modes)
    for (alpha, beta), coeff in s.terms.items():
        for m in range(s.num_modes):
            if alpha[m] and beta[m]:
                a = list(alpha)
                b = list(beta)
                factor = a[m] * b[m]
                a[m] -= 1
                b[m] -= 1
                out._accumulate(tuple(a), tuple(b), coeff * factor)
    return out


def weierstrass_flow(s: PolynomialSymbol, t: float) -> PolynomialSymbol:
    """exp(t sum_m d/dz*_m d/dz_m) applied exactly; terminates at degree//2."""
    result = PolynomialSymbol(s.num_modes, s.terms)
    current = s
    k = 0
    while current.terms:
        k += 1
        current = _contract_once(current)
        if not current.terms:
            break
        result = result + current * (t ** k / math.factorial(k))
    return result


def convert(
    s: PolynomialSymbol, frm: str, to: str
) -> PolynomialSymbol:
    """Re-express a symbol in another ordering convention.

    The flow parameter is position(frm) - position(to) with positions
    normal=0, weyl=1/2, antinormal=1; any cycle composes to the identity.
    """
    validate_ordering(frm)
    validate_ordering(to)
    t = _FLOW_POSITION[frm] - _FLOW_POSITION[to]
    if t == 0.0:
        return PolynomialSymbol(s.num_modes, s.terms)
    return weierstrass_flow(s, t)


# ---------------------------------------------------------------------------
# mode maps and model symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeMap:
    """Bijective labeling of retained field modes.

    Each retained mode is a (spatial direction j, algebra index p) pair in
    the spatially-constant sector; z_m = (a_j^p + i e_j^p) / sqrt(2).
    """

    dim_g: int
    labels: tuple  # tuple of (j, p) pairs, 0-based

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ConfigurationError("mode labels must be distinct")
        for (j, p) in self.labels:
            if not (0 <= j < 3 and 0 <= p < self.dim_g):
                raise ConfigurationError(f"mode label {(j, p)} out of range")

    @property
    def num_modes(self) -> int:
        return len(self.labels)

    @classmethod
    def zero_momentum(cls, dim_g: int) -> "ModeMap":
        """All 3*dim_g spatially-constant modes."""
        return cls(dim_g, tuple((j, p) for j in range(3) for p in range(dim_g)))

    @classmethod
    def abelian(cls, dim_g: int, direction: int = 0) -> "ModeMap":
        """Single algebra direction: the quartic term vanishes identically."""
        return cls(dim_g, tuple((j, direction) for j in range(3)))


# fixed irrational weights mixing the Cartan generators into one matrix
# whose eigenvalues tell distinct joint weights apart; fixed rather than
# drawn, so that the modes, and every digit computed in them, repeat
_GENERIC_MIX = np.sqrt([2.0, 3.0, 5.0])
# coefficients of a complex-mode symbol below this fraction of the largest
# are roundoff of the change of modes and are dropped
ROUNDOFF = 1e-12


def _weight_vectors(generators: np.ndarray, kernel: np.ndarray):
    """(U, weights, bar) for commuting real antisymmetric generators g_i
    whose joint kernel has the orthonormal real columns ``kernel``.  U's
    columns are joint eigenvectors, i g_i u = lambda_i u: those of lambda > 0
    under the generic mix, each with its first entry of modulus above 1e-6
    made real positive, the kernel, then the conjugates of the first, so
    column bar[k] is the conjugate of column k.  weights[k, i] is lambda_i
    in units of g_i's smallest nonzero |lambda|, checked integral."""
    mix = np.tensordot(_GENERIC_MIX[:len(generators)], generators, 1)
    vals, vecs = np.linalg.eigh(1j * mix)
    pos = vecs[:, vals > 1e-9 * np.abs(vals).max(initial=1.0)]
    lead = pos[np.argmax(np.abs(pos) > 1e-6, axis=0), np.arange(pos.shape[1])]
    pos = pos * (np.abs(lead) / lead)
    u = np.hstack([pos, kernel, pos.conj()])
    action = np.einsum("imn,nk->imk", 1j * generators, u)
    raw = np.einsum("mk,imk->ki", u.conj(), action).real
    unit = [np.abs(w[np.abs(w) > 1e-9 * np.abs(w).max()]).min() for w in raw.T]
    weights = np.rint(raw / unit)
    if (u.shape[1] != u.shape[0]
            or np.abs(action - u * raw.T[:, None, :]).max(initial=0.0) > 1e-9
            or np.abs(raw / unit - weights).max(initial=0.0) > 1e-9):
        raise NumericalError("generators have no integral joint weight basis")
    p, k = pos.shape[1], kernel.shape[1]
    bar = np.r_[np.arange(p + k, 2 * p + k), np.arange(p, p + k), np.arange(p)]
    return u, weights.astype(np.int64), bar


@dataclass(frozen=True)
class ModeBasis:
    """Complex modes w = U^H z, U = spatial (x) colour, over a mode map
    holding every (j, p) with j = 0, 1, 2 for its algebra directions p; a
    label (s, g) then names spatial column s times colour column g.  Column
    k of spatial (colour) is the conjugate of column spatial_bar[k]
    (colour_bar[k]); weights[m] is mode m's integer weight under each Cartan
    generator, so an occupation state's weight is states @ weights."""

    spatial: np.ndarray
    colour: np.ndarray
    spatial_bar: np.ndarray
    colour_bar: np.ndarray
    weights: np.ndarray


def cartan_modes(basis: LieAlgebraBasis, mode_map: ModeMap) -> ModeBasis:
    """The modes that diagonalize a Cartan set of the model's rotations:
    the spatial L_z, plus, when every algebra direction is retained, the
    colour rotations ad(b_i) of pairwise commuting basis elements, picked
    greedily in basis order (b_0 for su2, b_0 and b_5 for so4); the check
    that their joint kernel is their span makes them a Cartan subalgebra."""
    directions = sorted({p for _, p in mode_map.labels})
    if sorted(mode_map.labels) != [(j, p) for j in range(3) for p in directions]:
        raise ConfigurationError(
            "Cartan modes need all three spatial directions of each "
            "retained algebra direction")
    lz = np.zeros((1, 3, 3))
    lz[0, 1, 0], lz[0, 0, 1] = 1.0, -1.0
    spatial, spatial_weights, spatial_bar = _weight_vectors(lz, np.eye(3)[:, 2:])
    g = basis.dim_g
    if len(directions) == g:
        c, picks = basis.structure_constants, []
        for i in range(g):
            if not np.abs(c[:, i, picks]).max(initial=0.0) > 1e-12:
                picks.append(i)
        ad = c[:, picks].transpose(1, 0, 2)
        colour, colour_weights, colour_bar = _weight_vectors(ad, np.eye(g)[:, picks])
    else:  # the colour rotations do not keep a proper subset of directions
        colour, colour_weights, colour_bar = np.eye(g), np.zeros((g, 0)), np.arange(g)
    weights = np.array([np.r_[colour_weights[p], spatial_weights[j]]
                        for j, p in mode_map.labels], dtype=np.int64)
    return ModeBasis(spatial, colour, spatial_bar, colour_bar, weights)


def _expand(num_modes, factors, coeff, terms):
    """Add coeff * prod (s z*_ms + c z_mc) over the factors (ms, s, mc, c)
    into the coefficient map terms, one term per choice of z* or z per
    factor."""
    for stars in itertools.product((True, False), repeat=len(factors)):
        alpha, beta, value = [0] * num_modes, [0] * num_modes, coeff
        for (ms, s, mc, c), star in zip(factors, stars):
            (alpha if star else beta)[ms if star else mc] += 1
            value *= s if star else c
        key = (tuple(alpha), tuple(beta))
        terms[key] = terms.get(key, 0) + value


def _pruned(values, scale):
    """values with real and imaginary parts below ROUNDOFF * scale zeroed."""
    return np.where(np.abs(values.real) > ROUNDOFF * scale, values.real, 0) + 1j * (
        np.where(np.abs(values.imag) > ROUNDOFF * scale, values.imag, 0))


def energy_symbol(
    basis: LieAlgebraBasis,
    mode_map: ModeMap,
    include_magnetic: bool = True,
    modes: ModeBasis | None = None,
) -> PolynomialSymbol:
    """Energy-mass functional as a degree-4 symbol over the retained modes.

    Substitutes a = x(z* + z), e = ix(z* - z) with x = 1/sqrt(2) into
    (1/2) e.e + sum_{j<k} |[a_j, a_k]|^2, each square expanded as a
    product of linear forms.  In the spatially-constant sector the
    derivative part of the magnetic energy is absent; the quartic is the
    whole magnetic term and can be switched off to obtain the exactly
    solvable quadratic model.

    With ``modes`` (cartan_modes) it is built in their complex modes w,
    z = U w, where conj(U) pairs each mode m with a mode bar(m): then
    a_m = x(w_m + w*_bar(m)), e_m = ix(w*_bar(m) - w_m), e.e sums
    e_m e_bar(m), the dot product pairs bracket component r with bar(r),
    and pair (j, k) with (bar(j), bar(k)), over the structure constants in
    the colour columns.  Parts of those and of the symbol below ROUNDOFF of
    the largest are dropped, so only weight-conserving terms remain.
    Without ``modes`` each mode is its own pair: the real modes z_m.
    """
    if mode_map.dim_g != basis.dim_g:
        raise DimensionMismatchError(
            f"mode map dim_g={mode_map.dim_g} does not match basis "
            f"dim_g={basis.dim_g}"
        )
    D = mode_map.num_modes
    x = 1.0 / math.sqrt(2.0)
    index = {label: m for m, label in enumerate(mode_map.labels)}
    c = basis.structure_constants
    spatial_bar, colour_bar = range(3), range(basis.dim_g)
    if modes is not None:
        u = modes.colour
        c = np.einsum("rk,rpq,pa,qb->kab", u.conj(), c, u, u, optimize=True)
        c = _pruned(c, np.abs(c).max())
        spatial_bar, colour_bar = modes.spatial_bar, modes.colour_bar
    bar = [index[spatial_bar[j], colour_bar[p]] for j, p in mode_map.labels]
    terms = {}
    for m in range(D):
        _expand(D, ((bar[m], 1j * x, m, -1j * x), (m, 1j * x, bar[m], -1j * x)),
                0.5, terms)

    def bracket(j, k, row):
        """(c_pq, a_j^p, a_k^q) per nonzero of component row of [a_j, a_k]."""
        return [(row[p, q].item(), (bar[index[j, p]], x, index[j, p], x),
                 (bar[index[k, q]], x, index[k, q], x))
                for p, q in zip(*np.nonzero(row))
                if (j, p) in index and (k, q) in index]

    if include_magnetic:
        # [a_k, a_j] = -[a_j, a_k], so the pairs j < k carry the sum
        for j, k in ((0, 1), (0, 2), (1, 2)):
            for r, row in enumerate(c):
                first = bracket(j, k, row)
                second = first if modes is None else bracket(
                    spatial_bar[j], spatial_bar[k], c[colour_bar[r]])
                for c1, a1, b1 in first:
                    for c2, a2, b2 in second:
                        _expand(D, (a1, b1, a2, b2), c1 * c2, terms)

    if modes is not None and terms:
        values = np.array(list(terms.values()))
        terms = dict(zip(terms, _pruned(values, np.abs(values).max()).tolist()))
    return PolynomialSymbol(D, terms)


def number_symbol(num_modes: int, convention: str) -> PolynomialSymbol:
    """Symbol family of the boson number operator (eigenvalues 0, 1, 2, ...).

    The normal symbol is sum_m z*_m z_m; the Weyl and anti-normal symbols
    follow from the ordering-oracle-resolved flow and carry constants
    -D/2 and -D respectively.
    """
    if num_modes < 1:
        raise ConfigurationError("number_symbol requires at least one mode")
    validate_ordering(convention)
    units = [tuple(int(i == m) for i in range(num_modes)) for m in range(num_modes)]
    s = PolynomialSymbol(num_modes, {(e, e): 1.0 for e in units})
    return convert(s, "normal", convention)
