"""Model parameters, stability validation, derived couplings, momentum grids.

Units: hbar = 1 throughout; velocities in length/time, couplings lambda and g
carry velocity units, so gamma1 and gamma2 below are dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadGeometry, GridTooSmall, UnstableCouplings

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs of the fermion-phonon model.

    v_f, v_p : Fermi and phonon velocities (0 < v_p < v_f)
    lam      : fermion-fermion coupling (velocity units)
    g        : fermion-phonon coupling (velocity units)
    a        : interaction range / UV cutoff length (0 < a < L)
    L        : system size
    omega0   : phonon zero-mode IR cutoff frequency (> 0)

    lam and g may also be numpy arrays of one shape, a coupling grid for
    bogoliubov.closed_form; every other function takes floats.
    """

    v_f: float
    v_p: float
    lam: float
    g: float
    a: float
    L: float
    omega0: float = 0.0

    def __post_init__(self):
        if self.omega0 == 0.0 and self.L != 0.0:
            # one boson-mode spacing; only omega0 > 0 is physically required
            # (validate_params rejects L = 0)
            object.__setattr__(self, "omega0", TWO_PI * self.v_p / self.L)


@dataclass(frozen=True)
class DerivedCouplings:
    """Dimensionless couplings and the discriminant-like combination W.

    gamma1 = lam / (2 pi v_f), gamma2 = g / (v_p sqrt(pi v_f)); W has units
    of velocity squared and separates the two Bogoliubov branches.
    """

    gamma1: float
    gamma2: float
    W: float


@dataclass(frozen=True)
class MomentumGrid:
    """Truncated momentum grids shared by the spectrum and the vertex engine.

    Fermion modes k = (2 pi / L)(n + 1/2) for integer n with |n + 1/2| <= K;
    boson modes p = (2 pi / L) m for integer |m| <= K.  n_a = mode_count(L, a)
    is the number of positive boson modes that couple.
    """

    L: float
    K: int
    a: float
    n_a: int


def mode_count(L: float, a: float) -> int:
    """n_a = floor(L / 2a), the number of positive coupled boson modes.

    Boson mode p = (2 pi / L) m feels the interaction iff 1 <= |m| <= n_a,
    i.e. it lies within the cutoff pi / a, the tie decided by this floor.
    Every layer reads the coupled modes from here.  Raises BadGeometry when
    L / 2a is not finite."""
    ratio = L / (2.0 * a)
    if not math.isfinite(ratio):
        raise BadGeometry("L / 2a overflows; the mode count n_a is infinite")
    return math.floor(ratio)


def coupled_abs_p_sum(L: float, a: float) -> float:
    """Sum of |p| over the coupled modes, (2 pi / L) n_a (n_a + 1); E0 is
    (1/2) sum_X (vtilde_X - v_X) times this."""
    n_a = mode_count(L, a)
    return (TWO_PI / L) * n_a * (n_a + 1)


def _gammas(params: ModelParams):
    """gamma1 = lam / (2 pi v_f) and gamma2 = g / (v_p sqrt(pi v_f))."""
    return (params.lam / (TWO_PI * params.v_f),
            params.g / (params.v_p * math.sqrt(math.pi * params.v_f)))


def instabilities(gamma1, gamma2):
    """The two ways couplings make the system unstable, true where violated
    (elementwise on arrays): gamma1 >= 1, and gamma2^2 >= 1 + gamma1."""
    return gamma1 >= 1.0, gamma2 * gamma2 >= 1.0 + gamma1


def validate_params(raw: ModelParams) -> ModelParams:
    """Check geometry and stability; return the params unchanged if valid.

    Raises BadGeometry on violated positivity/ordering constraints, when
    v_f^2, the mode count n_a or the mode sum coupled_abs_p_sum behind E0
    overflows, or when v_p sqrt(pi v_f) underflows, and UnstableCouplings
    when gamma1 >= 1 or gamma2^2 >= 1 + gamma1 (the model then describes an
    unstable system).
    """
    for name in ("v_f", "v_p", "lam", "g", "a", "L", "omega0"):
        if not math.isfinite(getattr(raw, name)):
            raise BadGeometry(f"{name} must be finite")
    if raw.v_f <= 0 or raw.v_p <= 0:
        raise BadGeometry("velocities must be positive")
    if raw.v_p >= raw.v_f:
        raise BadGeometry("phonon velocity must satisfy v_p < v_f")
    if not math.isfinite(raw.v_f * raw.v_f):
        raise BadGeometry("v_f is too large: v_f^2 overflows")
    if raw.v_p * math.sqrt(math.pi * raw.v_f) == 0.0:
        raise BadGeometry("velocities are too small: v_p sqrt(pi v_f), the "
                          "scale of gamma2, underflows to 0")
    if raw.a <= 0 or raw.L <= 0 or raw.a >= raw.L:
        raise BadGeometry("lengths must satisfy 0 < a < L")
    if not math.isfinite(coupled_abs_p_sum(raw.L, raw.a)):
        raise BadGeometry("sum of the coupled |p| overflows; E0 is infinite")
    if raw.omega0 <= 0:
        raise BadGeometry("omega0 must be positive")
    gamma1, gamma2 = _gammas(raw)
    too_strong, too_mixed = instabilities(gamma1, gamma2)
    if too_strong:
        raise UnstableCouplings(
            f"gamma1 = {gamma1:.6g} >= 1 (requires lambda < 2 pi v_f)")
    if too_mixed:
        raise UnstableCouplings(
            f"gamma2^2 = {gamma2 * gamma2:.6g} >= 1 + gamma1 = {1 + gamma1:.6g} "
            "(requires 2 (g/v_p)^2 < 2 pi v_f + lambda)")
    return raw


def derived_couplings(params: ModelParams) -> DerivedCouplings:
    """Dimensionless couplings and W for validated params, elementwise over a
    coupling grid.  Squares go through libm pow (np.float_power), as Python's
    float ** 2 does, so a grid point and the scalar call agree bit for bit."""
    import numpy as np
    gamma1, gamma2 = _gammas(params)
    d = params.v_f**2 * (1.0 - np.float_power(gamma1, 2.0)) - params.v_p**2
    W = np.sqrt(d * d + 4.0 * params.v_f**2 * params.v_p**2
                * np.float_power(gamma2, 2.0) * (1.0 - gamma1))
    return DerivedCouplings(gamma1=gamma1, gamma2=gamma2, W=W)


def check_grid(params: ModelParams, grid: MomentumGrid) -> None:
    """Raise GridTooSmall unless the grid has the model's L and n_a."""
    if not math.isclose(grid.L, params.L, rel_tol=1e-12) \
            or grid.n_a != mode_count(params.L, params.a):
        raise GridTooSmall("grid and params disagree on L or n_a")


def momentum_grid(L: float, K: int, a: float) -> MomentumGrid:
    """Build the truncated grid with n_a = mode_count(L, a)."""
    if K < 1:
        raise BadGeometry("K must be >= 1")
    if not (0 < a <= L / 2):
        raise BadGeometry("need 0 < a <= L/2")
    return MomentumGrid(L=L, K=K, a=a, n_a=mode_count(L, a))
