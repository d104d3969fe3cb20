"""Truncated bosonic Fock space over D modes with total-degree cutoff.

States are occupation multi-indices mu with |mu| <= depth <= N_max in
degree-major, lexicographic order; N_max bounds the ladder paths.  A
basis may also hold a subset of those states in the same order, picked
(FockBasis.subset) or enumerated directly (zero_weight_rows).
Operators are compressed-sparse-row arrays (Csr) of numpy on
a basis; the linear occupation keys give the rows and columns of every
quantized monomial, for all terms at once.  Quantization
places ladder operators according to the requested ordering convention;
compositions are taken on the truncated space (creation paths leaving
the basis are dropped), so assertions about operator identities are
made on the truncation-safe sub-block of states whose degree keeps all
intermediate states inside the cutoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
# (term, row) candidates quantize forms at a time: each takes some 130
# bytes of temporaries, so a chunk's working set (about 1 MB) stays in a
# 2 MB L2 cache, whatever the basis size or the number of terms
CHUNK_ENTRIES = 1 << 13


@dataclass
class FockBasis:
    """Enumerated occupation basis with degree-major, lexicographic order."""

    D: int
    N_max: int
    states: np.ndarray  # (size, D) int64
    depth: int  # enumerated degree <= N_max
    weights: np.ndarray | None = None  # (D, r) integer mode weights, if any
    degrees: np.ndarray = field(init=False, repr=False)  # each state's |mu|

    def __post_init__(self):
        self.degrees = self.states.sum(axis=1)
        # mixed-radix key wrapping in uint64; the radix is odd because the
        # powers of an even one reach 0 mod 2**64, dropping the later modes
        radix = self.N_max + 1 + self.N_max % 2
        self._powers = np.uint64(radix) ** np.arange(self.D, dtype=np.uint64)
        self._keys = self.states.astype(np.uint64) @ self._powers
        order = np.argsort(self._keys, kind="stable")
        sorted_keys = self._keys[order]
        if np.any(sorted_keys[1:] == sorted_keys[:-1]):
            raise NumericalError(
                f"occupation keys collide for D={self.D}, N_max={self.N_max}"
            )
        self._lookup_key = (sorted_keys, order)

    @property
    def size(self) -> int:
        return self.states.shape[0]

    @functools.cached_property
    def sectors(self) -> np.ndarray:
        """Each state's sector: a one-to-one integer code of its weight
        states @ weights, 0 exactly for weight 0; without weights, every
        state is in sector 0."""
        if self.weights is None:
            return np.zeros(self.size, dtype=np.int64)
        return self.states @ _sector_code(self.weights, self.depth)

    def mapped_sectors(self, maps) -> np.ndarray:
        """(size, len(maps)): each state's sector code after each integer
        map g of maps (r x r, a signed permutation) acts on its weight; g
        keeps every |weight|, so the images share the radix of ``sectors``
        and stay one-to-one."""
        return self.states @ np.column_stack(
            [_sector_code(self.weights @ g.T, self.depth) for g in maps])

    def subset(self, rows: np.ndarray) -> "FockBasis":
        """The states selected by the boolean mask rows, in basis order, on
        the same truncation (N_max, depth) and mode weights.  Keys may wrap,
        so quantize may take a source the subset does not hold for a held
        state of the same key, unless the subset holds every source: whole
        weights up to a degree hold those of a symbol that conserves weight
        (quantize checks it) and reaches no higher degree."""
        return FockBasis(self.D, self.N_max, self.states[rows], self.depth,
                         self.weights)


def _sector_code(weights: np.ndarray, depth: int) -> np.ndarray:
    """Per mode, its weights as digits of a radix above twice the largest
    |weight| of degree depth: FockBasis.sectors sums them over a state."""
    span = 2 * depth * int(np.abs(weights).max(initial=0)) + 1
    return weights @ span ** np.arange(weights.shape[1])


def _lex_states(D: int, depth: int) -> np.ndarray:
    """Every occupation state over D modes with |mu| <= depth, (size, D)
    int64, in lexicographic order."""
    states, room = np.zeros((1, 0), dtype=np.int64), np.array([depth])
    for _ in range(D):
        # each state so far takes every occupation 0..room of the next mode
        parent = np.repeat(np.arange(room.size), room + 1)
        occupation = np.arange(parent.size) - (np.cumsum(room + 1) - room - 1)[parent]
        states = np.column_stack([states[parent], occupation])
        room = room[parent] - occupation
    return states


def _degree_major(D, N_max, states, depth, weights) -> FockBasis:
    states = states[np.argsort(states.sum(axis=1), kind="stable")]
    return FockBasis(D, N_max, states, depth, weights)


def check_basis_size(D: int, depth: int):
    """Refuse a basis over D modes to degree depth past DEFAULT_BASIS_CAP."""
    size = math.comb(D + depth, D)
    if size > DEFAULT_BASIS_CAP:
        raise ResourceError(f"basis size {size} for D={D}, depth={depth} "
                            f"exceeds cap {DEFAULT_BASIS_CAP}")


def build_basis(D: int, N_max: int, depth: int | None = None,
                weights: np.ndarray | None = None) -> FockBasis:
    """Enumerate the occupation states with |mu| <= depth (default N_max),
    over modes with the given weights (see FockBasis.sectors), within the cap."""
    depth = N_max if depth is None else depth
    if D < 1:
        raise ConfigurationError("mode count D must be >= 1")
    if not 0 <= depth <= N_max:
        raise ConfigurationError(f"need 0 <= depth={depth} <= N_max={N_max}")
    check_basis_size(D, depth)
    return _degree_major(D, N_max, _lex_states(D, depth), depth, weights)


def zero_weight_rows(D: int, N_max: int, depth: int,
                     weights: np.ndarray) -> FockBasis:
    """build_basis(D, N_max, depth=depth, weights=weights).subset(sectors
    == 0) without the basis: each state of the first D // 2 modes (head)
    joins the states of the rest (tail) whose code cancels its own and
    whose degree keeps the sum <= depth."""
    code, half = _sector_code(weights, depth), D // 2
    head, tail = _lex_states(half, depth), _lex_states(D - half, depth)
    # tails by code, then degree, then lexicographically: a head's are a run
    key = tail @ code[half:] * (depth + 1) + tail.sum(axis=1)
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    want = -(head @ code[:half]) * (depth + 1)
    lo = np.searchsorted(key, want)
    count = np.searchsorted(key, want + depth - head.sum(axis=1), "right") - lo
    heads = np.repeat(np.arange(len(head)), count)
    tails = by_key[np.arange(heads.size) + (lo - np.cumsum(count) + count)[heads]]
    # each head's tails of one degree are lexicographic, so each degree is
    return _degree_major(D, N_max, np.hstack([head[heads], tail[tails]]),
                         depth, weights)


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

def _slots(powers: np.ndarray) -> np.ndarray:
    """Each row's modes of nonzero power, first, padded with modes of
    power 0 to the widest row's count."""
    on = powers > 0
    width = max(1, int(on.sum(axis=1).max(initial=0)))
    return np.argsort(~on, axis=1, kind="stable")[:, :width]


def _meets(states: np.ndarray, modes: np.ndarray, need: np.ndarray) -> np.ndarray:
    """meets[l, i]: states[i] holds at least need[l, k] quanta in mode
    modes[l, k], for every slot k."""
    # holds[v * D + m, i]: states[i] holds at least v quanta in mode m
    levels = np.arange(need.max(initial=0) + 1)[:, None, None]
    holds = (states.T >= levels).reshape(levels.size * states.shape[1], -1)
    at = need * states.shape[1] + modes
    meets = holds[at[:, 0]]
    for k in range(1, at.shape[1]):
        meets &= holds[at[:, k]]
    return meets


def _candidates(basis: FockBasis, modes: np.ndarray, need: np.ndarray,
                group: np.ndarray, top: np.ndarray):
    """quantize's (term, row) candidates, a chunk of rows at a time: term
    t targets row i if the state meets its lift (modes and need at row
    group[t]) and has degree <= top[t].  Each chunk's candidates come
    term-major, so each entry's terms stay in sorted order, and a chunk
    ends where the running count passes a multiple of CHUNK_ENTRIES, so it
    holds at most CHUNK_ENTRIES candidates plus one row's.  The masks,
    some bytes per term and mode for each row, are formed in blocks of
    about 32 * CHUNK_ENTRIES bytes, below a chunk's working set, and no
    chunk straddles two blocks."""
    block = max(1, 32 * CHUNK_ENTRIES // (len(group) + basis.D))
    for start in range(0, basis.size, block):
        stop = min(basis.size, start + block)
        targets = _meets(basis.states[start:stop], modes, need)[group]
        targets &= basis.degrees[start:stop] <= top[:, None]
        chunk = (np.cumsum(targets.sum(axis=0)) - 1) // CHUNK_ENTRIES
        cuts = np.r_[0, np.flatnonzero(chunk[1:] != chunk[:-1]) + 1, stop - start]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            t, rows = np.nonzero(targets[:, lo:hi])
            yield t, rows + start + lo


def _falling_factorials(top: int, kmax: int) -> np.ndarray:
    """fall[n, k] = n (n - 1) ... (n - k + 1) for n <= top, k <= kmax, as
    floats, exact below 2**53; 0 for k > n."""
    steps = np.arange(top + 1.0)[:, None] - np.arange(kmax)
    return np.c_[np.ones(top + 1), np.cumprod(np.maximum(steps, 0.0), axis=1)]


def quantize(
    s: PolynomialSymbol, convention: str, basis: FockBasis
) -> FockOperator:
    """Operator assigned to a symbol under an ordering convention,
    compressed to the basis's states.

    normal:     z*^a z^b  ->  (creators)^a (annihilators)^b
    antinormal: z*^a z^b  ->  (annihilators)^b (creators)^a
    weyl:       convert the symbol to normal form, then quantize normally.

    The basis may be a subset of a truncation's states (FockBasis.subset):
    the entries are those of the whole truncation's operator between the
    states held, its principal submatrix.  On a basis with weights, a term
    that changes them is a NumericalError.  Normal ordering annihilates
    first, so only its final state can leave the cutoff; anti-normal
    ordering creates first, so its intermediate state must stay inside.
    So a monomial's sources are the states mu >= lift, lift = b (normal) or
    max(b - a, 0) (anti-normal), of degree <= bound, with the final state of
    degree <= depth, and its targets mu + a - b.  Every row is a target:
    the (term, row) candidates are formed per distinct target lift.  A
    diagonal term's source is its target; any other source is found by its
    key, key(mu + a - b) - key(a - b), since the keys are linear mod 2**64,
    and a source the basis does not hold is dropped.
    Amplitudes are products of ladder factors, exact below 2**53, then two
    square roots.

    Terms are taken in sorted key order, so the matrix depends only on the
    symbol's content: the diagonal terms (a == b) add into one dense
    vector in that order, and the duplicates of each other entry, keyed
    row * size + col and lined up in that order by a stable sort, are
    summed by reduceat.  The rows are taken in chunks cut on the running
    count of each row's candidates, so that a chunk forms at most
    CHUNK_ENTRIES of them plus one row's, and its temporaries do not grow
    with the basis or the number of terms; each entry's duplicates all
    lie in one chunk, so the result does not depend on the chunking.
    Entries that cancel to exactly 0 are dropped."""
    validate_ordering(convention)
    if s.num_modes != basis.D:
        raise DimensionMismatchError(
            f"symbol has {s.num_modes} modes but basis has D={basis.D}"
        )
    if convention == "weyl":
        return quantize(convert(s, "weyl", "normal"), "normal", basis)

    size, terms = basis.size, sorted(s.terms.items())
    alpha = np.array([a for (a, _), _ in terms], dtype=np.int64).reshape(-1, basis.D)
    beta = np.array([b for (_, b), _ in terms], dtype=np.int64).reshape(-1, basis.D)
    coeff = np.array([c for _, c in terms], dtype=complex)
    if basis.weights is not None and ((alpha - beta) @ basis.weights).any():
        raise NumericalError("a symbol term changes the basis's mode weights")
    da, db = alpha.sum(axis=1), beta.sum(axis=1)
    normal = convention == "normal"
    if normal:
        lift, bound = beta, basis.N_max + db - da
    else:
        lift, bound = np.maximum(beta - alpha, 0), basis.N_max - da
    bound = np.minimum(bound, np.minimum(basis.depth - da + db, basis.depth))
    # targets hold at least tlift quanta and have degree <= top
    tlift, top = lift + alpha - beta, bound + da - db
    lifts, group = np.unique(tlift, axis=0, return_inverse=True)
    lift_modes = _slots(lifts)
    lift_need = np.take_along_axis(lifts, lift_modes, axis=1)
    # per term, the modes it acts on (slots) and, for a target occupation
    # x on a slot, the entries x * width + c of the two ladder products
    # in the falling-factorial table: the source mu = x - a + b holds
    # fall[mu, b] * fall[x, a] (normal), fall[mu + a, a] * fall[mu + a, b]
    # (anti-normal), mu + a = x + b
    modes = _slots(alpha + beta)
    a = np.take_along_axis(alpha, modes, axis=1)
    b = np.take_along_axis(beta, modes, axis=1)
    fall = _falling_factorials(basis.N_max, max(1, np.max(alpha, initial=0),
                                                np.max(beta, initial=0)))
    width = fall.shape[1]
    if normal:
        c1, c2 = (b - a) * width + b, a
    else:
        c1, c2 = b * width + a, b * width + b
    modes, c1, c2 = modes.T.copy(), c1.T.copy(), c2.T.copy()
    fall, flat_states = fall.ravel(), basis.states.ravel()
    shift = alpha.astype(np.uint64) @ basis._powers - beta.astype(np.uint64) @ basis._powers
    on_diagonal = (alpha == beta).all(axis=1)
    sorted_keys, order = basis._lookup_key

    diagonal = np.zeros(size, dtype=complex)
    parts = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))]
    for t, rows in _candidates(basis, lift_modes, lift_need, group, top):
        # a diagonal term's source is its target; only the others are sought
        off = ~on_diagonal[t]
        src_key = basis._keys[rows[off]] - shift[t[off]]
        at = np.minimum(np.searchsorted(sorted_keys, src_key), size - 1)
        held, cols = np.ones(t.size, dtype=bool), rows.copy()
        held[off], cols[off] = sorted_keys[at] == src_key, order[at]
        t, rows, cols = t[held], rows[held], cols[held]
        f1, f2 = np.ones(t.size), np.ones(t.size)
        for slot, s1, s2 in zip(modes, c1, c2):
            x = flat_states[rows * basis.D + slot[t]] * width
            f1 *= fall[x + s1[t]]
            f2 *= fall[x + s2[t]]
        vals = np.sqrt(f1) * np.sqrt(f2) * coeff[t]
        diag = on_diagonal[t]
        np.add.at(diagonal, rows[diag], vals[diag])
        keys = rows[~diag] * size + cols[~diag]
        if keys.size:
            by_key = np.argsort(keys, kind="stable")
            keys, vals = keys[by_key], vals[~diag][by_key]
            first = np.flatnonzero(np.diff(keys, prepend=-1))
            parts.append((keys[first], np.add.reduceat(vals, first)))
    keys, vals = (np.concatenate(part) for part in zip(*parts))
    del parts  # the chunks, copied whole, are not held through the inserts
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
