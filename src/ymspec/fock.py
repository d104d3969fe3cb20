"""Truncated bosonic Fock space over D modes with total-degree cutoff.

States are occupation multi-indices mu with |mu| <= depth <= N_max in
degree-major, lexicographic order; N_max bounds the ladder paths.
Operators are sparse matrices on that enumeration; the basis's raise
tables (the index of mu + e_m, per mode) give the ladder operators and
the rows and columns of every quantized monomial.  Quantization places
ladder operators according to the requested ordering convention;
compositions are taken on the truncated space (creation paths leaving
the basis are dropped), so assertions about operator identities are
made on the truncation-safe sub-block of states whose degree keeps all
intermediate states inside the cutoff.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
# the bare package, not scipy.sparse: scipy loads a submodule on first
# attribute access, so `ymspec.cli`, which imports every layer because the
# benchmark tracer wraps them all, loads no scipy.sparse for the commands
# that build no sparse operator; the benchmark probe still finds
# sys.modules["scipy"]
import scipy

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NumericalError,
    ResourceError,
)
from .symbols import PolynomialSymbol, convert, validate_ordering

DEFAULT_BASIS_CAP = 5_000_000


@dataclass
class FockBasis:
    """Enumerated occupation basis with degree-major, lexicographic order."""

    D: int
    N_max: int
    states: np.ndarray  # (size, D) int64
    degrees: np.ndarray  # (size,) int64
    depth: int | None = None  # enumerated degree <= N_max; None: N_max

    def __post_init__(self):
        if self.depth is None:
            self.depth = self.N_max
        # mixed-radix key wrapping in uint64; the radix is odd because the
        # powers of an even one reach 0 mod 2**64, dropping the later modes
        radix = self.N_max + 1 + self.N_max % 2
        self._powers = np.uint64(radix) ** np.arange(self.D, dtype=np.uint64)
        keys = self.states.astype(np.uint64) @ self._powers
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise NumericalError(
                f"occupation keys collide for D={self.D}, N_max={self.N_max}"
            )
        self._lookup_key = (sorted_keys, order)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    def index_of(self, states: np.ndarray) -> np.ndarray:
        """Indices of occupation rows assumed to lie in the basis."""
        keys = np.asarray(states).astype(np.uint64) @ self._powers
        sorted_keys, order = self._lookup_key
        return order[np.searchsorted(sorted_keys, keys)]

    def degree_indices(self, n: int) -> np.ndarray:
        return np.flatnonzero(self.degrees == n)

    @functools.cached_property
    def raised(self) -> np.ndarray:
        """Raise tables: raised[m, i] is the index of states[i] + e_m, for
        the states of degree below depth, a prefix of the basis."""
        below = self.states[:np.searchsorted(self.degrees, self.depth - 1,
                                             side="right")]
        return np.stack([self.index_of(below + e)
                         for e in np.eye(self.D, dtype=np.int64)])


def build_basis(D: int, N_max: int, cap: int = DEFAULT_BASIS_CAP,
                depth: int | None = None) -> FockBasis:
    """Enumerate the occupation states with |mu| <= depth (default N_max)."""
    depth = N_max if depth is None else depth
    if D < 1:
        raise ConfigurationError("mode count D must be >= 1")
    if not 0 <= depth <= N_max:
        raise ConfigurationError(f"need 0 <= depth={depth} <= N_max={N_max}")
    size = math.comb(D + depth, D)
    if size > cap:
        raise ResourceError(
            f"basis size {size} for D={D}, depth={depth} exceeds cap {cap}"
        )
    # stars and bars: the degree-n states are the gaps between D - 1 bars
    # placed among n + D - 1 slots; bars in lexicographic order give the
    # states in lexicographic order
    shells = []
    for n in range(depth + 1):
        count = math.comb(n + D - 1, D - 1)
        combos = itertools.combinations(range(n + D - 1), D - 1)
        bars = np.fromiter(itertools.chain.from_iterable(combos), np.int64,
                           count * (D - 1)).reshape(count, D - 1)
        shells.append(np.diff(bars, axis=1, prepend=-1, append=n + D - 1) - 1)
    states = np.concatenate(shells)
    degrees = states.sum(axis=1)
    return FockBasis(D, N_max, states, degrees, depth)


@dataclass
class FockOperator:
    """Sparse operator on a FockBasis enumeration."""

    basis: FockBasis
    matrix: scipy.sparse.csr_matrix

    def __post_init__(self):
        if self.matrix.shape != (self.basis.size, self.basis.size):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} does not match basis size "
                f"{self.basis.size}"
            )

    def hermiticity_defect(self) -> float:
        d = self.matrix - self.matrix.conj().T
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


@dataclass
class FockVector:
    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.size,):
            raise DimensionMismatchError(
                f"amplitude vector length {self.amplitudes.shape} does not match "
                f"basis size {self.basis.size}"
            )

    @classmethod
    def vacuum(cls, basis: FockBasis) -> "FockVector":
        amp = np.zeros(basis.size, dtype=complex)
        amp[0] = 1.0
        return cls(basis, amp)


# ---------------------------------------------------------------------------
# ladder operators
# ---------------------------------------------------------------------------

def ladder(basis: FockBasis, mode: int, kind: str) -> FockOperator:
    """Creation or annihilation operator for one mode.

    Creation maps |mu> to sqrt(mu_m + 1)|mu + e_m>, dropping states that
    leave the enumerated basis; annihilation is its adjoint.
    """
    if not 0 <= mode < basis.D:
        raise ConfigurationError(
            f"mode index {mode} out of range for D={basis.D}"
        )
    if kind not in ("create", "annihilate"):
        raise ConfigurationError(f"ladder kind must be create|annihilate, got '{kind}'")
    tgt = basis.raised[mode]
    src = np.arange(tgt.size)
    vals = np.sqrt(basis.states[src, mode] + 1.0)
    if kind == "create":
        mat = scipy.sparse.coo_matrix(
            (vals, (tgt, src)), shape=(basis.size, basis.size), dtype=complex
        )
    else:
        mat = scipy.sparse.coo_matrix(
            (vals, (src, tgt)), shape=(basis.size, basis.size), dtype=complex
        )
    return FockOperator(basis, mat.tocsr())


def number_operator(basis: FockBasis) -> FockOperator:
    """Diagonal operator counting total occupation |mu|."""
    mat = scipy.sparse.diags(basis.degrees.astype(complex)).tocsr()
    return FockOperator(basis, mat)


# ---------------------------------------------------------------------------
# quantization
# ---------------------------------------------------------------------------

def _ladder_amplitudes(occ: np.ndarray, multi: tuple, raise_op: bool) -> np.ndarray:
    """Product of ladder factors over modes; occ is (S, len(multi)), one
    column per mode of multi."""
    amp = np.ones(occ.shape[0])
    for m, power in enumerate(multi):
        for r in range(power):
            amp *= occ[:, m] + (r + 1.0) if raise_op else occ[:, m] - float(r)
    return np.sqrt(amp)


def _monomial_entries(basis, alpha, beta, convention):
    """(rows, cols, amplitudes) of one monomial z*^alpha z^beta under a
    convention.

    Normal ordering annihilates first, so only its final state can leave
    the cutoff; anti-normal ordering creates first, so its intermediate
    state must stay inside; either way the final state has degree <= depth.
    The sources are the states holding at least ``lift`` quanta, lift = beta
    (normal) or max(beta - alpha, 0) (anti-normal), of degree <= bound:
    states[:end] + lift, with end covering degree bound - |lift|.  Their
    targets are states[:end] + tlift, tlift = alpha or max(alpha - beta, 0),
    so both index arrays come from the raise tables, in basis order.
    """
    # only the modes the monomial acts on
    modes = [m for m, pair in enumerate(zip(alpha, beta)) if any(pair)]
    a = np.array([alpha[m] for m in modes], dtype=np.int64)
    b = np.array([beta[m] for m in modes], dtype=np.int64)
    normal = convention == "normal"
    if normal:
        bound, lift, tlift = basis.N_max + b.sum() - a.sum(), b, a
    else:
        bound = basis.N_max - a.sum()
        lift, tlift = np.maximum(b - a, 0), np.maximum(a - b, 0)
    bound = min(bound, basis.depth - a.sum() + b.sum(), basis.depth)
    end = np.searchsorted(basis.degrees, bound - lift.sum(), side="right")
    if end == 0:
        return None
    src, tgt = np.arange(end), np.arange(end)
    for m, up, down in zip(modes, lift, tlift):
        for _ in range(up):
            src = basis.raised[m, src]
        for _ in range(down):
            tgt = basis.raised[m, tgt]
    occ = basis.states[:end, modes] + lift
    if normal:
        amp = _ladder_amplitudes(occ, b, raise_op=False)
        amp *= _ladder_amplitudes(occ - b, a, raise_op=True)
    else:
        amp = _ladder_amplitudes(occ, a, raise_op=True)
        amp *= _ladder_amplitudes(occ + a, b, raise_op=False)
    return tgt, src, amp


def _chunk_matrix(chunks, size: int) -> scipy.sparse.csr_matrix:
    """Sum of the (keys, vals) entry lists, key = row * size + col, as one
    CSR matrix; a stable sort keeps each entry's duplicates in list order,
    and reduceat sums them in an order fixed by that run alone."""
    keys, vals = (np.concatenate(part) for part in zip(*chunks))
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    indptr = np.searchsorted(keys[first], np.arange(size + 1) * size)
    return scipy.sparse.csr_matrix(
        (np.add.reduceat(vals, first), keys[first] % size, indptr),
        shape=(size, size))


def quantize(
    s: PolynomialSymbol, convention: str, basis: FockBasis
) -> FockOperator:
    """Operator assigned to a symbol under an ordering convention.

    normal:     z*^a z^b  ->  (creators)^a (annihilators)^b
    antinormal: z*^a z^b  ->  (annihilators)^b (creators)^a
    weyl:       convert the symbol to normal form, then quantize normally.
    Terms are taken in sorted key order, so the matrix depends only on the
    symbol's content: the diagonal terms (a == b) add into one dense
    vector in that order, and the duplicates of each other entry, lined
    up in that order by a stable sort, are summed by reduceat.  Entries
    that cancel to exactly 0 are dropped."""
    validate_ordering(convention)
    if s.num_modes != basis.D:
        raise DimensionMismatchError(
            f"symbol has {s.num_modes} modes but basis has D={basis.D}"
        )
    if convention == "weyl":
        return quantize(convert(s, "weyl", "normal"), "normal", basis)

    size = basis.size
    diagonal = np.zeros(size, dtype=complex)
    total = scipy.sparse.csr_matrix((size, size), dtype=complex)
    chunks, pending = [], 0
    for (alpha, beta), coeff in sorted(s.terms.items()):
        entries = _monomial_entries(basis, alpha, beta, convention)
        if entries is None:
            continue
        rows, cols, amp = entries
        if alpha == beta:
            diagonal[cols] += amp * coeff
            continue
        chunks.append((rows * size + cols, amp * coeff))
        pending += rows.size
        if pending >= 4_000_000:
            total, chunks, pending = total + _chunk_matrix(chunks, size), [], 0
    if pending:
        total = total + _chunk_matrix(chunks, size)
    # the sparse sum drops the zeros of both operands
    total = total + scipy.sparse.diags(diagonal, format="csr")
    return FockOperator(basis, total)


def expectation(q: FockOperator, psi: FockVector) -> complex:
    """Normalized expectation <psi|Q|psi> / <psi|psi>."""
    if psi.basis.size != q.basis.size:
        raise DimensionMismatchError("vector and operator bases differ")
    norm2 = np.vdot(psi.amplitudes, psi.amplitudes).real
    if norm2 == 0.0:
        raise ConfigurationError("expectation of the zero vector is undefined")
    return complex(np.vdot(psi.amplitudes, q.matrix @ psi.amplitudes) / norm2)


def safe_block_indices(basis: FockBasis, operator_degree: int) -> np.ndarray:
    """States whose matrix elements are unaffected by the cutoff for any
    operator built from symbols of the given degree."""
    return np.flatnonzero(basis.degrees <= basis.N_max - operator_degree)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def operator_to_text(q: FockOperator, convention: str | None = None) -> str:
    """Coordinate-list text export with a JSON header line."""
    b = q.basis
    header = json.dumps({"D": b.D, "N_max": b.N_max, "depth": b.depth,
                         "convention": convention})
    coo = q.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    lines = [header]
    for i in order:
        lines.append(
            f"{coo.row[i]} {coo.col[i]} {coo.data[i].real:.17g} {coo.data[i].imag:.17g}"
        )
    return "\n".join(lines) + "\n"


def operator_from_text(text: str, basis: FockBasis | None = None):
    """Inverse of operator_to_text; returns (FockOperator, header dict)."""
    lines = text.strip().split("\n")
    header = json.loads(lines[0])
    if basis is None:
        basis = build_basis(header["D"], header["N_max"],
                            depth=header.get("depth"))
    rows, cols, vals = [], [], []
    for line in lines[1:]:
        r, c, re, im = line.split()
        rows.append(int(r))
        cols.append(int(c))
        vals.append(complex(float(re), float(im)))
    mat = scipy.sparse.coo_matrix(
        (vals, (rows, cols)), shape=(basis.size, basis.size)
    ).tocsr()
    return FockOperator(basis, mat), header
