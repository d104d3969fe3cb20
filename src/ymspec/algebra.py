"""Compact semi-simple Lie algebras in trace-orthonormal coordinates.

Every supported algebra is represented by a basis of real skew-symmetric
matrices b_i normalized so that Trace(b_i^T b_j) = delta_ij.  With that
normalization the structure constants c^k_ij = [b_i, b_j] . b_k are
totally antisymmetric, the scalar product of elements is the plain
Euclidean dot product of coefficient vectors, and the quartic
self-interaction reduces to structure-constant contractions with unit
prefactors.

Production arithmetic works on coefficient vectors; the matrix basis is
kept for the structure check and for oracle checks (commutators, traces,
the gauge action in the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError


@dataclass(frozen=True)
class LieAlgebraBasis:
    """Trace-orthonormal basis of a compact semi-simple Lie algebra.

    Attributes
    ----------
    name : str
        Canonical identifier ("su2", "su3", "so4", ...).
    structure_constants : (dim_g, dim_g, dim_g) array
        c[k, i, j] with [b_i, b_j] = sum_k c[k, i, j] b_k.
    matrix_basis : (dim_g, d, d) array
        Real skew-symmetric matrices realizing the basis.
    bracket_terms : tuple of dim_g tuples of (i, j, c)
        Entry k lists the nonzero c = c[k, i, j] with i < j, from which
        the lattice bracket is summed; derived, not passed in.
    """

    name: str
    structure_constants: np.ndarray
    matrix_basis: np.ndarray
    bracket_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.structure_constants, dtype=float)
        m = np.asarray(self.matrix_basis, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ConfigurationError("structure constants must be a cubic rank-3 array")
        dim = c.shape[0]
        if dim == 0:
            raise ConfigurationError("empty basis is not a Lie algebra basis")
        if m.ndim != 3 or m.shape[0] != dim or m.shape[1] != m.shape[2]:
            raise ConfigurationError(
                f"matrix basis shape {m.shape} inconsistent with dim_g={dim}"
            )
        object.__setattr__(self, "structure_constants", c)
        object.__setattr__(self, "matrix_basis", m)
        # a bracket sees only the part of c antisymmetric in (i, j), which
        # is c itself for every algebra build_algebra returns
        anti = 0.5 * (c - c.transpose(0, 2, 1))
        object.__setattr__(self, "bracket_terms", tuple(
            tuple((int(i), int(j), float(row[i, j]))
                  for i, j in zip(*np.nonzero(np.triu(row))))
            for row in anti
        ))

    @property
    def dim_g(self) -> int:
        return self.structure_constants.shape[0]

    def same_as(self, other: "LieAlgebraBasis") -> bool:
        return self is other or (
            self.name == other.name and self.dim_g == other.dim_g
        )


@dataclass
class AlgebraElement:
    """Element X = sum_i coeffs[i] b_i of a given basis."""

    basis: LieAlgebraBasis
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.basis.dim_g,):
            raise DimensionMismatchError(
                f"coefficient vector of length {self.coeffs.shape} does not match "
                f"dim_g={self.basis.dim_g}"
            )


@dataclass
class SpatialAlgebraVector:
    """Three algebra elements, one per spatial direction."""

    basis: LieAlgebraBasis
    coeffs: np.ndarray  # shape (3, dim_g)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (3, self.basis.dim_g):
            raise DimensionMismatchError(
                f"expected shape (3, {self.basis.dim_g}), got {self.coeffs.shape}"
            )

    @property
    def components(self) -> list[AlgebraElement]:
        return [AlgebraElement(self.basis, self.coeffs[k]) for k in range(3)]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _su_n_generators(n: int) -> np.ndarray:
    """Generalized Gell-Mann generators T_a, Hermitian, Tr(T_a T_b) = delta/2."""
    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 0.5
            gens.append(sym)
            asym = np.zeros((n, n), dtype=complex)
            asym[j, k] = -0.5j
            asym[k, j] = 0.5j
            gens.append(asym)
    for l in range(1, n):
        diag = np.zeros((n, n), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -l
        diag /= np.sqrt(2.0 * l * (l + 1))
        gens.append(diag)
    return np.array(gens)


def _su_n_structure(n: int) -> np.ndarray:
    """Totally antisymmetric f^k_ij from [T_i, T_j] = i f^k_ij T_k."""
    T = _su_n_generators(n)
    comm = np.einsum("iab,jbc->ijac", T, T) - np.einsum("jab,ibc->ijac", T, T)
    # f_ijk = -2i Tr([T_i, T_j] T_k) given Tr(T_a T_b) = delta/2
    f = -2j * np.einsum("ijab,kba->ijk", comm, T)
    f = np.real(f)
    return np.einsum("ijk->kij", f)


def _so_n_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Trace-orthonormal defining basis of so(n) and its structure constants."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            m[j, i] = -1.0
            mats.append(m / np.sqrt(2.0))
    mats = np.array(mats)
    comm = np.einsum("iab,jbc->ijac", mats, mats) - np.einsum(
        "jab,ibc->ijac", mats, mats
    )
    # orthonormal basis: c^k_ij = Trace([m_i, m_j]^T m_k), an elementwise sum
    c = np.einsum("ijab,kab->kij", comm, mats)
    return c, mats


def _normalized_adjoint(c_seed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale adjoint matrices of a metric-orthonormal seed basis so the
    trace form becomes exactly orthonormal; returns (c, matrix_basis)."""
    dim = c_seed.shape[0]
    ad = np.array([c_seed[:, i, :] for i in range(dim)])  # (ad_i)_{kj} = c^k_ij
    gram = np.einsum("ikl,jkl->ij", ad, ad)
    g = gram[0, 0]
    if not np.allclose(gram, g * np.eye(dim), atol=1e-10 * max(1.0, abs(g))):
        raise ConfigurationError("seed basis is not metric-orthonormal")
    return c_seed / np.sqrt(g), ad / np.sqrt(g)


_SO_MIN, _SO_MAX = 3, 5


def algebra_name(name: str) -> str:
    """Canonical identifier of a supported algebra: "su2", "su3", or
    "so<n>" for 3 <= n <= 5, read in any case, with spaces and with
    "so(n)" parentheses.  Abelian or otherwise non-semi-simple requests
    are rejected with a ConfigurationError saying why.
    """
    key = name.strip().lower().replace(" ", "").replace("(", "").replace(")", "")
    if key in ("u1", "so2"):
        raise ConfigurationError(
            f"algebra '{name}' is abelian, not semi-simple; no mass-term "
            "mechanism exists for it"
        )
    family, digits = key[:2], key[2:]
    if family not in ("su", "so") or not digits.isdigit():
        raise ConfigurationError(f"unknown algebra identifier '{name}'")
    n = int(digits)
    if family == "su" and n < 2:
        raise ConfigurationError(f"algebra '{name}' is not semi-simple")
    if family == "su" and n > 3:
        raise ConfigurationError(
            f"su({n}) is not enabled at desk scale; supported: su2, su3, so3..so{_SO_MAX}"
        )
    if family == "so" and not _SO_MIN <= n <= _SO_MAX:
        raise ConfigurationError(
            f"so({n}) outside supported range so({_SO_MIN})..so({_SO_MAX})"
        )
    return f"{family}{n}"


def build_algebra(name: str) -> LieAlgebraBasis:
    """Construct the trace-orthonormal basis for a supported algebra
    (identifiers as in algebra_name)."""
    key = algebra_name(name)
    n = int(key[2:])
    if key.startswith("su"):
        c, mats = _normalized_adjoint(_su_n_structure(n))
    else:
        c, mats = _so_n_basis(n)
    return LieAlgebraBasis(name=key, structure_constants=c, matrix_basis=mats)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _check_shared_basis(x: AlgebraElement, y: AlgebraElement):
    if not x.basis.same_as(y.basis):
        raise DimensionMismatchError(
            f"elements use different bases ({x.basis.name} vs {y.basis.name})"
        )


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Lie bracket [X, Y] as coefficient contraction with c^k_ij."""
    _check_shared_basis(x, y)
    c = x.basis.structure_constants
    return AlgebraElement(x.basis, np.einsum("kij,i,j->k", c, x.coeffs, y.coeffs))


def scalar_product(x: AlgebraElement, y: AlgebraElement) -> float:
    """Ad-invariant scalar product; the Euclidean dot in these coordinates."""
    _check_shared_basis(x, y)
    return float(x.coeffs @ y.coeffs)


def quartic_contraction(a: SpatialAlgebraVector) -> float:
    """sum_{j,k} [a_j, a_k] . [a_j, a_k] over ordered spatial pairs.

    Non-negative; vanishes iff all components commute pairwise.
    """
    c = a.basis.structure_constants
    br = np.einsum("mpq,jp,kq->jkm", c, a.coeffs, a.coeffs)
    return float(np.sum(br * br))


def quartic_contraction_via_brackets(a: SpatialAlgebraVector) -> float:
    """Independent route through explicit bracket/scalar_product calls."""
    comps = a.components
    total = 0.0
    for j in range(3):
        for k in range(3):
            b = bracket(comps[j], comps[k])
            total += scalar_product(b, b)
    return total


@dataclass
class StructureReport:
    """Maximum violations of the basis invariants."""

    orthonormality: float
    skew_symmetry: float
    closure: float
    total_antisymmetry: float
    jacobi: float

    def max_violation(self) -> float:
        return max(self.orthonormality, self.skew_symmetry, self.closure,
                   self.total_antisymmetry, self.jacobi)

    def as_dict(self) -> dict:
        return {
            "orthonormality": self.orthonormality,
            "skew_symmetry": self.skew_symmetry,
            "closure": self.closure,
            "total_antisymmetry": self.total_antisymmetry,
            "jacobi": self.jacobi,
            "max_violation": self.max_violation(),
        }


def check_structure(basis: LieAlgebraBasis) -> StructureReport:
    """Measure how well a basis satisfies the algebra invariants.

    Returns the maximum absolute violation of trace-orthonormality,
    skew-symmetry of the matrix basis, closure of brackets onto the
    structure constants, total antisymmetry of c^k_ij, and the Jacobi
    identity over all basis triples.
    """
    c = basis.structure_constants
    m = basis.matrix_basis

    gram = np.einsum("iab,jab->ij", m, m)
    ortho = float(np.abs(gram - np.eye(basis.dim_g)).max())

    skew = float(np.abs(m + m.transpose(0, 2, 1)).max())

    comm = np.einsum("iab,jbc->ijac", m, m) - np.einsum("jab,ibc->ijac", m, m)
    recon = np.einsum("kij,kac->ijac", c, m)
    closure = float(np.abs(comm - recon).max())

    anti = max(
        float(np.abs(c + np.einsum("kij->kji", c)).max()),
        float(np.abs(c + np.einsum("kij->ikj", c)).max()),
    )

    jac = np.einsum("mij,lmk->lijk", c, c)
    jacobi_sum = jac + np.einsum("lijk->ljki", jac) + np.einsum("lijk->lkij", jac)
    jacobi = float(np.abs(jacobi_sum).max())

    return StructureReport(
        orthonormality=ortho,
        skew_symmetry=skew,
        closure=closure,
        total_antisymmetry=anti,
        jacobi=jacobi,
    )
