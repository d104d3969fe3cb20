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
    constraint_residual,
    field_norm,
)


@dataclass
class CauchyState:
    a: VectorAlgebraField
    e: VectorAlgebraField
    t: float = 0.0

    def __post_init__(self):
        if self.a.lattice != self.e.lattice or not self.a.basis.same_as(self.e.basis):
            raise ConfigurationError("a and e must share a lattice and basis")

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


def curvature_magnetic(a: VectorAlgebraField) -> np.ndarray:
    """Magnetic curvature F_jk = D_j a_k - D_k a_j - [a_j, a_k] on its
    independent pairs: an array of shape (3, dim_g, n, n, n) holding F_01,
    F_02 and F_12 in _PAIRS order.  The rest follow from F_kj = -F_jk and
    F_jj = 0."""
    h = a.lattice.spacing
    f = np.empty((len(_PAIRS),) + a.data.shape[1:])
    for p, (j, k) in enumerate(_PAIRS):
        np.subtract(_diff(a.data[k], 1 + j, h), _diff(a.data[j], 1 + k, h),
                    out=f[p])
        f[p] -= _bracket(a.basis, a.data[j], a.data[k])
    return f


def energy(state: CauchyState, curvature: np.ndarray | None = None) -> float:
    """(1/2) integral of (B.B + E.E): each unordered curvature pair counted
    once, so the abelian sector reproduces the Maxwell energy and the value
    is conserved by the evolution equations.  ``curvature``, when given,
    must be curvature_magnetic(state.a); it is then not recomputed."""
    f = curvature_magnetic(state.a) if curvature is None else curvature
    vol = state.lattice.volume_factor
    magnetic = 0.0
    for f_p in f:
        magnetic += float(np.sum(f_p * f_p))
    electric = float(np.sum(state.e.data * state.e.data))
    return 0.5 * vol * (magnetic + electric)


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _force(a: VectorAlgebraField, f: np.ndarray) -> np.ndarray:
    """de_k/dt = sum_j (D_j F_jk - [a_j, F_jk]) for the curvature pairs f
    of a: pair p = (j, k) adds D_j F_p - [a_j, F_p] to de_k/dt and, since
    F_kj = -F_jk, subtracts D_k F_p - [a_k, F_p] from de_j/dt."""
    h = a.lattice.spacing

    def part(p, m):  # D_m F_p - [a_m, F_p]
        term = _diff(f[p], 1 + m, h)
        term -= _bracket(a.basis, a.data[m], f[p])
        return term

    out = np.zeros_like(a.data)
    for p, (j, k) in enumerate(_PAIRS):
        out[k] += part(p, j)
        out[j] -= part(p, k)
    return out


def cfl_bound(lattice: LatticeSpec) -> float:
    return 0.5 * lattice.spacing


def rk4_step(
    state: CauchyState, h: float, curvature: np.ndarray | None = None
) -> CauchyState:
    """One classical Runge-Kutta step of (a, e); rejects steps above the
    stability bound spacing/2.  Negative h steps backwards (the flow map
    is reversible to its order).  ``curvature``, when given, must be
    curvature_magnetic(state.a): it serves the first stage.

    Since da/dt = e, the stage values of e are eliminated: with
    k_s = de/dt at stage s, the stages sit at a0 + h/2 e0,
    a0 + h/2 e0 + h^2/4 k_1 and a0 + h e0 + h^2/2 k_2, and the step is
    a0 + h e0 + h^2/6 (k_1 + k_2 + k_3), e0 + h/6 (k_1 + 2 k_2 + 2 k_3 + k_4).
    """
    if h == 0:
        raise ConfigurationError("time step must be nonzero")
    bound = cfl_bound(state.lattice)
    if abs(h) > bound:
        raise StabilityError(
            f"time step {h} exceeds the stability bound spacing/2 = {bound}"
        )
    lattice, basis = state.lattice, state.a.basis
    a0, e0 = state.a.data, state.e.data

    def force(a_arr):
        a = VectorAlgebraField(lattice, basis, a_arr)
        return _force(a, curvature_magnetic(a))

    if curvature is None:
        curvature = curvature_magnetic(state.a)
    k1 = _force(state.a, curvature)
    stage = e0 * (0.5 * h)
    stage += a0
    k2 = force(stage)
    drift = k1 * (0.25 * h * h)
    stage += drift
    k3 = force(stage)
    np.multiply(e0, h, out=drift)
    drift += a0  # a0 + h e0
    np.multiply(k2, 0.5 * h * h, out=stage)
    stage += drift
    k4 = force(stage)

    # the new state goes into fresh arrays, allocated after the stage
    # scratch: freed below them, the scratch is reused by the next step
    # rather than returned to the system and faulted in again
    np.add(k1, k2, out=stage)
    stage += k3
    stage *= h * h / 6.0
    a_new = stage + drift
    k2 += k3
    k2 *= 2.0
    k1 += k2
    k1 += k4
    k1 *= h / 6.0
    e_new = k1 + e0
    return CauchyState(
        VectorAlgebraField(lattice, basis, a_new),
        VectorAlgebraField(lattice, basis, e_new),
        state.t + h,
    )


# largest evolve request, in site-component updates (steps x sites x
# dim_g): about 400 times criterion 3's 2.4e7, over an hour of RK4 steps
# at 20^3 su2 speed on one 2-vCPU machine
EVOLVE_COST_CAP = 10 ** 10
# largest evolve request in steps, whatever the lattice: the report keeps
# three floats per step, and criterion 3 takes 1,000 steps
EVOLVE_STEP_CAP = 10 ** 6


def evolve(
    state: CauchyState,
    T: float,
    h: float,
    constraint_tol: float = 1e-6,
) -> tuple[CauchyState, EvolutionReport]:
    """Step the state to time t + T, recording energy and Gauss residual.

    Takes steps of h; when T is not a whole number of them (to 1e-9
    relative), a final shortened step lands exactly on t + T.  A run of
    more than EVOLVE_STEP_CAP steps or EVOLVE_COST_CAP site-component
    updates is refused before any step.  The initial residual must sit
    below constraint_tol relative to the electric norm (zero fields pass
    trivially); non-finite fields abort with the last finite state
    attached.

    The curvature of each accepted state is computed once: it gives the
    recorded energy and the first RK4 stage of the next step.
    """
    if T < 0:
        raise ConfigurationError("evolution span T must be >= 0")
    if h <= 0:
        raise ConfigurationError("time step h must be positive")
    ratio = T / h  # kept a float until under the caps: it may be inf
    whole = abs(np.rint(ratio) * h - T) <= 1e-9 * max(1.0, T)
    total = float(np.rint(ratio) if whole else np.floor(ratio) + 1)
    cost = total * state.lattice.sites() * state.a.basis.dim_g
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
    sizes = itertools.chain(itertools.repeat(h, steps), last)

    r0 = constraint_residual(state.a, state.e)
    e_norm = field_norm(state.e)
    if e_norm > 0 and r0 > constraint_tol * max(e_norm, 1.0):
        raise ConfigurationError(
            f"initial Gauss residual {r0:.3e} exceeds tolerance "
            f"{constraint_tol:.1e} relative to |e| = {e_norm:.3e}; project the "
            "electric field first"
        )

    report = EvolutionReport()
    current = state
    # non-finite values are reported as a DivergenceError below, not as
    # floating-point warnings from the arithmetic that produced them
    with np.errstate(over="ignore", invalid="ignore"):
        f = curvature_magnetic(current.a)
        report.record(current.t, energy(current, f), r0)
        for step, size in enumerate(sizes):
            previous = current
            current = rk4_step(current, size, f)
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
            f = curvature_magnetic(current.a)
            report.record(
                current.t,
                energy(current, f),
                constraint_residual(current.a, current.e),
            )
    return current, report
