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
import json
import math
from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebraBasis
from .errors import ConfigurationError, DimensionMismatchError

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

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def is_hermitian_symmetric(self, tol: float = 1e-12) -> bool:
        """coefficient(alpha, beta) == conj(coefficient(beta, alpha))."""
        for (a, b), c in self.terms.items():
            if abs(c - np.conj(self.terms.get((b, a), 0j))) > tol:
                return False
        return True

    def evaluate(self, z: np.ndarray) -> complex:
        """Evaluate on the diagonal z* = conj(z) at a point z in C^D."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.num_modes,):
            raise DimensionMismatchError(
                f"expected point in C^{self.num_modes}, got shape {z.shape}"
            )
        zc = np.conj(z)
        total = 0j
        for (a, b), c in self.terms.items():
            val = c
            for m in range(self.num_modes):
                if a[m]:
                    val *= zc[m] ** a[m]
                if b[m]:
                    val *= z[m] ** b[m]
            total += val
        return total

    def allclose(self, other: "PolynomialSymbol", tol: float = 1e-12) -> bool:
        self._require_same_modes(other)
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) <= tol for k in keys
        )

    def max_coefficient_diff(self, other: "PolynomialSymbol") -> float:
        self._require_same_modes(other)
        keys = set(self.terms) | set(other.terms)
        if not keys:
            return 0.0
        return max(abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) for k in keys)

    def __repr__(self):
        return (
            f"PolynomialSymbol(D={self.num_modes}, terms={len(self.terms)}, "
            f"degree={self.degree})"
        )


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


def _expand(num_modes, factors, coeff, terms):
    """Add coeff * prod (s z*_m + c z_m) over the factors (m, s, c) into
    the coefficient map terms, one term per choice of z* or z per factor."""
    for stars in itertools.product((True, False), repeat=len(factors)):
        alpha, beta, value = [0] * num_modes, [0] * num_modes, coeff
        for (m, s, c), star in zip(factors, stars):
            (alpha if star else beta)[m] += 1
            value *= s if star else c
        key = (tuple(alpha), tuple(beta))
        terms[key] = terms.get(key, 0) + value


def energy_symbol(
    basis: LieAlgebraBasis,
    mode_map: ModeMap,
    include_magnetic: bool = True,
) -> PolynomialSymbol:
    """Energy-mass functional as a degree-4 symbol over the retained modes.

    Substitutes a = x(z* + z), e = ix(z* - z) with x = 1/sqrt(2) into
    (1/2) e.e + sum_{j<k} |[a_j, a_k]|^2, each square expanded as a
    product of linear forms.  In the spatially-constant sector the
    derivative part of the magnetic energy is absent; the quartic is the
    whole magnetic term and can be switched off to obtain the exactly
    solvable quadratic model.
    """
    if mode_map.dim_g != basis.dim_g:
        raise DimensionMismatchError(
            f"mode map dim_g={mode_map.dim_g} does not match basis "
            f"dim_g={basis.dim_g}"
        )
    D = mode_map.num_modes
    x = 1.0 / math.sqrt(2.0)
    terms = {}
    for m in range(D):
        _expand(D, ((m, 1j * x, -1j * x),) * 2, 0.5, terms)

    if include_magnetic:
        index = {label: m for m, label in enumerate(mode_map.labels)}
        # [a_k, a_j] = -[a_j, a_k], so the pairs j < k carry the sum
        for j, k in ((0, 1), (0, 2), (1, 2)):
            for row in basis.structure_constants:
                # component row of [a_j, a_k] = sum_pq c_pq a_j^p a_k^q
                entries = [
                    (float(row[p, q]), (index[j, p], x, x), (index[k, q], x, x))
                    for p, q in zip(*np.nonzero(row))
                    if (j, p) in index and (k, q) in index
                ]
                for c1, a1, b1 in entries:
                    for c2, a2, b2 in entries:
                        _expand(D, (a1, b1, a2, b2), c1 * c2, terms)

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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def symbol_to_json(s: PolynomialSymbol) -> str:
    entries = [
        {
            "alpha": list(a),
            "beta": list(b),
            "re": float(np.real(c)),
            "im": float(np.imag(c)),
        }
        for (a, b), c in sorted(s.terms.items())
    ]
    return json.dumps({"num_modes": s.num_modes, "terms": entries}, indent=1)


def symbol_from_json(text: str) -> PolynomialSymbol:
    doc = json.loads(text)
    terms = {}
    for entry in doc["terms"]:
        key = (tuple(entry["alpha"]), tuple(entry["beta"]))
        terms[key] = complex(entry["re"], entry["im"])
    return PolynomialSymbol(doc["num_modes"], terms)
