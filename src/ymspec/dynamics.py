"""Classical temporal-gauge evolution of lattice Cauchy data.

First-order system: da/dt = e, de_k/dt = sum_j (D_j F_jk - [a_j, F_jk])
with the magnetic curvature F_jk = D_j a_k - D_k a_j - [a_j, a_k].
Time stepping is classical fourth-order Runge-Kutta under an explicit
CFL bound.  The Gauss-law residual div_a e is monitored along the run
but never re-projected, so constraint propagation is itself observable.

The curvature is computed once per RK4 stage, from its three
independent pairs j < k.  evolve computes it once more per accepted
state and uses it twice: for the recorded energy and as the first stage
of the next step, so a run of s steps evaluates it 4 s + 1 times.

curvature_magnetic and _force use the in-place lattice kernels: each
output component gets its two raw differences, one scale by
0.5 / spacing, then its brackets, added into it in place.  They and
energy write into the arrays they are given.  evolve runs on one
FieldPool: an RK4 step takes four of its arrays and gives two back, as
does a state once the next is accepted, and each record forms its
energy squares and Gauss residual in a free one, so no step after the
second allocates a field.  The caller's arrays are only read; the final
state, and last_state past step 1, are pool arrays.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    DivergenceError,
    ResourceError,
    StabilityError,
)
from .lattice import (
    LatticeSpec,
    VectorAlgebraField,
    _bracket,
    _diff,
    _same_geometry,
    constraint_residual,
    field_norm,
)


@dataclass
class CauchyState:
    a: VectorAlgebraField
    e: VectorAlgebraField
    t: float = 0.0

    def __post_init__(self):
        _same_geometry(self.a, self.e)

    @property
    def lattice(self) -> LatticeSpec:
        return self.a.lattice


@dataclass
class EvolutionReport:
    times: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    constraint: list = field(default_factory=list)

    def record(self, t: float, en: float, cr: float):
        self.times.append(t)
        self.energy.append(en)
        self.constraint.append(cr)

    @property
    def energy_drift(self) -> float:
        """Max relative deviation of the energy from its initial value;
        NaN when any recorded energy is not finite."""
        if not self.energy:
            return 0.0
        if not all(map(math.isfinite, self.energy)):
            return math.nan
        e0 = self.energy[0]
        scale = abs(e0) if e0 != 0 else 1.0
        return max(abs(e - e0) for e in self.energy) / scale

    @property
    def constraint_growth(self) -> float:
        """Max increase of the residual over its initial value; NaN when
        any recorded residual is not finite."""
        if not self.constraint:
            return 0.0
        if not all(map(math.isfinite, self.constraint)):
            return math.nan
        r0 = self.constraint[0]
        return max(r - r0 for r in self.constraint)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("t,energy,constraint_residual\n")
        for t, en, cr in zip(self.times, self.energy, self.constraint):
            buf.write(f"{t:.17g},{en:.17g},{cr:.17g}\n")
        return buf.getvalue()


# ---------------------------------------------------------------------------
# curvature and energy
# ---------------------------------------------------------------------------

# the independent curvature components F_jk, j < k
_PAIRS = ((0, 1), (0, 2), (1, 2))


class FieldPool:
    """Arrays shaped like a vector field, taken and put back on ``free``,
    plus the curvature pairs and a component scratch."""

    def __init__(self, shape: tuple):
        self.shape, self.free = shape, []
        self.curvature = np.empty((len(_PAIRS),) + shape[1:])
        self.scalar = np.empty(shape[1:])

    def take(self) -> np.ndarray:
        return self.free.pop() if self.free else np.empty(self.shape)


def curvature_magnetic(a: VectorAlgebraField, out=None, scratch=None) -> np.ndarray:
    """Magnetic curvature F_jk = D_j a_k - D_k a_j - [a_j, a_k] on its
    independent pairs: an array of shape (3, dim_g, n, n, n) holding F_01,
    F_02 and F_12 in _PAIRS order, into ``out`` when given (``scratch``,
    one component's shape, takes differences).  The rest follow from
    F_kj = -F_jk and F_jj = 0."""
    f = np.empty((len(_PAIRS),) + a.data.shape[1:]) if out is None else out
    diff = np.empty(a.data.shape[1:]) if scratch is None else scratch
    for p, (j, k) in enumerate(_PAIRS):
        _diff(a.data[k], 1 + j, f[p])
        f[p] -= _diff(a.data[j], 1 + k, diff)
    f *= 0.5 / a.lattice.spacing
    for p, (j, k) in enumerate(_PAIRS):
        _bracket(a.basis, a.data[j], a.data[k], f[p], -1.0)
    return f


def energy(state: CauchyState, curvature: np.ndarray | None = None,
           scratch=None) -> float:
    """(1/2) integral of (B.B + E.E): each unordered curvature pair counted
    once, so the abelian sector reproduces the Maxwell energy and the value
    is conserved by the evolution equations.  ``curvature``, when given,
    must be curvature_magnetic(state.a); it is then not recomputed.  The
    squares go into ``scratch``, shaped like state.e, when given."""
    f = curvature_magnetic(state.a) if curvature is None else curvature
    sq = np.empty(state.e.data.shape) if scratch is None else scratch
    vol = state.lattice.volume_factor
    magnetic = 0.0
    for f_p, sq_p in zip(f, sq):
        magnetic += float(np.sum(np.multiply(f_p, f_p, out=sq_p)))
    electric = float(np.sum(np.multiply(state.e.data, state.e.data, out=sq)))
    return 0.5 * vol * (magnetic + electric)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

# de_k/dt = sum_j (D_j F_jk - [a_j, F_jk]) as two terms (pair p, direction
# m, sign s) per k, each adding s (D_m F_p - [a_m, F_p]): pair p = (j, k)
# adds along j to de_k/dt and, since F_kj = -F_jk, subtracts along k from
# de_j/dt
_FORCE_TERMS = (
    ((0, 1, -1.0), (1, 2, -1.0)),  # de_0/dt: -F_01 along 1, -F_02 along 2
    ((0, 0, 1.0), (2, 2, -1.0)),   # de_1/dt: F_01 along 0, -F_12 along 2
    ((1, 0, 1.0), (2, 1, 1.0)),    # de_2/dt: F_02 along 0, F_12 along 1
)


def _force(a: VectorAlgebraField, f: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """de_k/dt = sum_j (D_j F_jk - [a_j, F_jk]) for the curvature pairs f
    of a, term by term from _FORCE_TERMS; out and scratch as in
    curvature_magnetic."""
    out = np.empty(a.data.shape) if out is None else out
    diff = np.empty(a.data.shape[1:]) if scratch is None else scratch
    scale = 0.5 / a.lattice.spacing
    for k, ((p, m, s), (q, l, t)) in enumerate(_FORCE_TERMS):
        _diff(f[p], 1 + m, out[k])
        _diff(f[q], 1 + l, diff)
        if s == t:
            out[k] += diff
        else:
            out[k] -= diff
        out[k] *= s * scale
    for k, terms in enumerate(_FORCE_TERMS):
        for p, m, s in terms:
            _bracket(a.basis, a.data[m], f[p], out[k], -s)
    return out


def cfl_bound(lattice: LatticeSpec) -> float:
    return 0.5 * lattice.spacing


def rk4_step(
    state: CauchyState, h: float, curvature: np.ndarray | None = None,
    pool: FieldPool | None = None,
) -> CauchyState:
    """One classical Runge-Kutta step of (a, e); rejects steps above the
    stability bound spacing/2.  Negative h steps backwards (the flow map
    is reversible to its order).  ``curvature``, when given, must be
    curvature_magnetic(state.a): it serves the first stage.

    Since da/dt = e, the stage values of e are eliminated: with
    k_s = de/dt at stage s, the stages sit at a0 + h/2 e0,
    a0 + h/2 e0 + h^2/4 k_1 and a0 + h e0 + h^2/2 k_2, and the step is
    a0 + h e0 + h^2/6 (k_1 + k_2 + k_3), e0 + h/6 (k_1 + 2 k_2 + 2 k_3 + k_4).
    They run on four arrays from ``pool`` (its own when None): two become
    the new a and e, and two go back to the pool.
    """
    if h == 0:
        raise ConfigurationError("time step must be nonzero")
    bound = cfl_bound(state.lattice)
    if abs(h) > bound:
        raise StabilityError(
            f"time step {h} exceeds the stability bound spacing/2 = {bound}"
        )
    pool = pool or FieldPool(state.a.data.shape)
    lattice, basis = state.lattice, state.a.basis
    a0, e0 = state.a.data, state.e.data

    def force(a_arr, out):
        a = VectorAlgebraField(lattice, basis, a_arr)
        return _force(a, curvature_magnetic(a, pool.curvature, pool.scalar),
                      out, pool.scalar)

    b1, b2, b3, b4 = (pool.take() for _ in range(4))
    if curvature is None:
        curvature = curvature_magnetic(state.a, pool.curvature, pool.scalar)
    _force(state.a, curvature, b1, pool.scalar)  # k_1
    np.multiply(e0, 0.5 * h, out=b2)
    b2 += a0
    force(b2, b3)  # k_2
    np.multiply(b1, 0.25 * h * h, out=b4)
    b2 += b4
    force(b2, b4)  # k_3
    np.add(b1, b3, out=b2)
    b2 += b4
    b2 *= h * h / 6.0
    b4 += b3
    b4 *= 2.0
    b1 += b4  # k_1 + 2 (k_2 + k_3)
    np.multiply(e0, h, out=b4)
    b4 += a0  # a0 + h e0
    b2 += b4
    b3 *= 0.5 * h * h
    b4 += b3
    force(b4, b3)  # k_4
    b1 += b3
    b1 *= h / 6.0
    b1 += e0
    pool.free += [b3, b4]
    return CauchyState(
        VectorAlgebraField(lattice, basis, b2),
        VectorAlgebraField(lattice, basis, b1),
        state.t + h,
    )


# largest evolve request, in site-component updates (steps x sites x
# dim_g): about 400 times criterion 3's 2.4e7, over an hour of RK4 steps
# at 20^3 su2 speed on one 2-vCPU machine
EVOLVE_COST_CAP = 10 ** 10
# largest evolve request in steps, whatever the lattice: the report keeps
# three floats per step, and criterion 3 takes 1,000 steps
EVOLVE_STEP_CAP = 10 ** 6


def step_sizes(T: float, h: float, updates_per_step: int):
    """Steps of h over T, the last one shortened to land exactly on T when
    T is not a whole number of them (to 1e-9 relative).  A run of more
    than EVOLVE_STEP_CAP steps or EVOLVE_COST_CAP site-component updates
    (steps x updates_per_step) is refused with a ResourceError."""
    if T < 0:
        raise ConfigurationError("evolution span T must be >= 0")
    if h <= 0:
        raise ConfigurationError("time step h must be positive")
    ratio = T / h  # kept a float until under the caps: it may be inf
    whole = abs(np.rint(ratio) * h - T) <= 1e-9 * max(1.0, T)
    total = float(np.rint(ratio) if whole else np.floor(ratio) + 1)
    cost = total * updates_per_step
    if cost > EVOLVE_COST_CAP:
        raise ResourceError(
            f"evolve needs {cost:.3e} site-component updates "
            f"({total:.3e} steps), above the cap of "
            f"{EVOLVE_COST_CAP:.1e}; shorten T or enlarge h"
        )
    if total > EVOLVE_STEP_CAP:
        raise ResourceError(
            f"evolve needs {total:.0f} steps, above the cap of "
            f"{EVOLVE_STEP_CAP:.0e}; shorten T or enlarge h"
        )
    steps = int(total) - (not whole)
    last = [] if whole else [T - steps * h]
    return itertools.chain(itertools.repeat(h, steps), last)


def evolve(
    state: CauchyState,
    T: float,
    h: float,
    constraint_tol: float = 1e-6,
) -> tuple[CauchyState, EvolutionReport]:
    """Step the state to time t + T in the steps of step_sizes, recording
    energy and Gauss residual.  The initial residual must be at most
    constraint_tol * max(|e|, 1), relative to |e| >= 1 and absolute below
    (zero fields pass trivially); non-finite fields abort with the last
    finite state attached.  The curvature of each accepted state is
    computed once, for the recorded energy and the next step's first stage."""
    sizes = step_sizes(T, h, state.lattice.sites() * state.a.basis.dim_g)

    pool = FieldPool(state.a.data.shape)
    scratch = pool.take()  # the monitors' array, back on the pool to step
    r0 = constraint_residual(state.a, state.e, scratch)
    e_norm = field_norm(state.e, scratch)
    if e_norm > 0 and r0 > constraint_tol * max(e_norm, 1.0):
        raise ConfigurationError(
            f"initial Gauss residual {r0:.3e} exceeds constraint_tol "
            f"{constraint_tol:.1e} times max(|e|, 1), |e| = {e_norm:.3e}; "
            "project the electric field first"
        )

    report = EvolutionReport()
    current = state
    del state  # freed two steps in, unless the caller holds it
    # non-finite values are reported as a DivergenceError below, not as
    # floating-point warnings from the arithmetic that produced them
    with np.errstate(over="ignore", invalid="ignore"):
        f = curvature_magnetic(current.a, pool.curvature, pool.scalar)
        report.record(current.t, energy(current, f, scratch), r0)
        pool.free.append(scratch)
        for step, size in enumerate(sizes):
            previous = current
            current = rk4_step(current, size, f, pool)
            if not (
                np.isfinite(current.a.data).all()
                and np.isfinite(current.e.data).all()
            ):
                raise DivergenceError(
                    f"fields became non-finite at step {step + 1} "
                    f"(t = {current.t})",
                    last_state=previous,
                    step=step + 1,
                )
            f = curvature_magnetic(current.a, pool.curvature, pool.scalar)
            scratch = pool.free[-1]  # just used by the step, still in cache
            report.record(current.t, energy(current, f, scratch),
                          constraint_residual(current.a, current.e, scratch))
            if step:  # the start state's arrays are the caller's
                pool.free += [previous.a.data, previous.e.data]
    return current, report
