"""Closed-form correlation functions, Klein sign combinatorics, and scaling
exponents in the continuum and thermodynamic limits.

All boundary values i0+ are realized by an explicit positive regulator, so
every output is a plain complex number; each power-law factor is evaluated
with its own principal logarithm and factors are never merged before
exponentiation.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .bogoliubov import BogoliubovSolution
from .errors import BadArgument, FermiphonError

FLAVORS = ("F", "P")

# Sweeps are evaluated this many points at a time, so that their columns
# stay small.
SWEEP_BLOCK = 256


@dataclass(frozen=True)
class InsertionPoint:
    """One field insertion: chirality r, dagger flag q (+1 means psi^dag),
    position x, time t."""

    r: int
    q: int
    x: float
    t: float = 0.0


def check_positions(xs: Sequence[float], t: float) -> None:
    """Raise BadArgument unless t and every x in xs (the positions of one
    insertion) are finite."""
    if not (math.isfinite(t) and all(map(math.isfinite, xs))):
        raise BadArgument("insertion x and t must be finite")


@dataclass(frozen=True)
class CorrelatorSpec:
    """Ordered field insertions plus the renormalization length ell and the
    finite stand-in for i0+."""

    insertions: Tuple[InsertionPoint, ...]
    ell: float = 1.0
    regulator: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "insertions", tuple(self.insertions))
        for p in self.insertions:
            check_positions([p.x], p.t)
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise BadArgument("ell must be finite and positive")
        if not (math.isfinite(self.regulator) and self.regulator > 0):
            raise BadArgument("regulator must be finite and positive")


@dataclass(frozen=True)
class ExponentTable:
    """Scaling dimensions derived from one Bogoliubov solution."""

    delta_cdw: float
    delta_sc: float
    fermion_dimension: float


def klein_sign(word: Sequence[Tuple[int, int]]) -> int:
    """Vacuum expectation sign of R_{r_1}^{q_1 r_1} ... R_{r_N}^{q_N r_N}.

    0 unless the q_j sum to zero within each chirality; otherwise
    (-1)^(number of pairs i<j with r_i = -, r_j = +), one sign per
    cross-chirality transposition of unit-exponent Klein factors.
    """
    if sum(q for r, q in word if r == +1) != 0:
        return 0
    if sum(q for r, q in word if r == -1) != 0:
        return 0
    crossings = 0
    plus_seen = 0
    for r, _q in reversed(word):
        if r == +1:
            plus_seen += 1
        else:
            crossings += plus_seen
    return -1 if crossings & 1 else 1


def _regulated_powers(ell: float, r: int, xs: Sequence[float], t: float,
                      v: float, exponent: float,
                      regulator: float) -> List[complex]:
    """(i ell / (r x - v t + i 0+))^exponent for each x in xs, principal
    branch.

    The positive regulator keeps the base off the cut; powers from different
    factors are never combined algebraically.  Each element is the scalar
    evaluation (cmath log and exp).  Raises BadArgument, naming the first
    such x, when the base underflows to 0.
    """
    if exponent == 0.0:
        return [1.0 + 0.0j] * len(xs)
    num, vt, reg = 1j * ell, v * t, 1j * regulator
    exp, log = cmath.exp, cmath.log
    try:
        return [exp(exponent * log(num / (r * x - vt + reg))) for x in xs]
    except ValueError:
        for x in xs:
            if num / (r * x - vt + reg) == 0:
                raise BadArgument(
                    f"i ell / (r x - v t + i reg) underflows to 0 at "
                    f"ell = {ell:.3g}, pair separation x = {x:.3g}, "
                    f"t = {t:.3g}") from None
        raise


def free_finite_L(spec: CorrelatorSpec, L: float) -> complex:
    """Equal-time free-fermion N-point function at finite L.

    klein_sign times the product over same-chirality pairs of
    (i / (2 L sin(pi/L [r (x_n - x_m) + i reg])))^(-q_n q_m); returns 0 on
    selection violation.
    """
    word = [(p.r, p.q) for p in spec.insertions]
    sign = klein_sign(word)
    if sign == 0:
        return 0.0j
    out = complex(sign)
    pts = spec.insertions
    for n in range(len(pts)):
        if pts[n].t != 0.0:
            raise BadArgument("free_finite_L is an equal-time formula")
        for m in range(n + 1, len(pts)):
            if pts[n].r != pts[m].r:
                continue
            u = (math.pi / L) * (pts[n].r * (pts[n].x - pts[m].x)
                                 + 1j * spec.regulator)
            base = 1j / (2.0 * L * cmath.sin(u))
            out *= cmath.exp(-pts[n].q * pts[m].q * cmath.log(base))
    return out


def _pair_exponent(r: int, flavor: str, rn: int, rm: int,
                   sol: BogoliubovSolution) -> float:
    """c_{r,X;r_n,r_m}: rho^2/sigma^2 on equal chiralities, rho sigma across."""
    if rn == rm:
        return sol.rho(flavor) ** 2 if r == rn else sol.sigma(flavor) ** 2
    return sol.rho(flavor) * sol.sigma(flavor)


def npoint_continuum(spec: CorrelatorSpec, sol: BogoliubovSolution,
                     xs: Optional[Sequence[float]] = None):
    """Renormalized N-point function in the continuum and thermodynamic
    limits: klein_sign x (1 / 2 pi ell)^(N/2) x the product of regulated
    power-law factors over pairs, chiralities, and flavors.

    With xs, a sweep: one value per position x in xs of the first insertion
    (its t and the other insertions as in spec), each checked as the spec
    checks its own.  Evaluated by columns, SWEEP_BLOCK positions at a time:
    each (pair, chirality, flavor) factor of the first insertion for all
    positions at once, multiplied into one running product per position in
    the order of a lone evaluation, then the factors of the other pairs,
    evaluated once.  Every value is bit for bit a lone evaluation at its x,
    in O(len(xs)) memory, and a sweep that fails raises what its first
    failing point raises alone.  Without xs, the value at spec itself (a
    one-point sweep).  Raises BadArgument when (1 / 2 pi ell)^(N/2)
    overflows.
    """
    pts = spec.insertions
    n_pts = len(pts)
    positions = xs if xs is not None else [pts[0].x if pts else 0.0]
    sign = klein_sign([(p.r, p.q) for p in pts])
    if sign == 0:
        values = [0.0j] * len(positions)
        return values if xs is not None else values[0]
    try:
        start = complex(sign) * (1.0 / (2.0 * math.pi * spec.ell)) ** (
            n_pts / 2.0)
    except OverflowError:
        raise BadArgument(f"(1 / 2 pi ell)^(N/2) overflows at ell = "
                          f"{spec.ell:.3g}, N = {n_pts}") from None

    def factors(n, m, dxs):
        """The columns of pair (n, m) over the separations dxs, one per
        chirality and flavor, each made when asked for."""
        qq = pts[n].q * pts[m].q
        for r in (+1, -1):
            for flavor in FLAVORS:
                yield _regulated_powers(
                    spec.ell, r, dxs, pts[n].t - pts[m].t,
                    sol.vtilde(flavor),
                    -qq * _pair_exponent(r, flavor, pts[n].r, pts[m].r, sol),
                    spec.regulator)

    fixed = [factor for n in range(1, n_pts) for m in range(n + 1, n_pts)
             for column in factors(n, m, [pts[n].x - pts[m].x])
             for factor in column]

    def sweep(positions):
        if pts:
            check_positions(positions, pts[0].t)
        values = [start] * len(positions)
        for m in range(1, n_pts):
            for column in factors(0, m, [x - pts[m].x for x in positions]):
                values = list(map(operator.mul, values, column))
        for factor in fixed:
            values = [value * factor for value in values]
        return values

    values = sweep_blocks(sweep, positions)
    return values if xs is not None else values[0]


def sweep_blocks(sweep, positions: Sequence[float]) -> list:
    """sweep(block) over consecutive blocks of SWEEP_BLOCK positions,
    joined.  A column-wise sweep fails at the first failing point of a
    column, not of the block; so a block that fails is swept again one
    point at a time, and the first failing point raises as its lone
    evaluation does."""
    out = []
    for lo in range(0, len(positions), SWEEP_BLOCK):
        block = positions[lo:lo + SWEEP_BLOCK]
        try:
            out += sweep(block)
        except (FermiphonError, ArithmeticError, ValueError):
            for x in block:
                sweep([x])
            raise
    return out


def _square(x):
    """x^2 through libm pow, as Python's float ** 2 takes it, also on
    arrays (numpy's x ** 2 multiplies, which can differ in the last bit)."""
    import numpy as np
    return np.float_power(x, 2.0)


def exponents(sol: BogoliubovSolution) -> ExponentTable:
    """Scaling exponents derived from one Bogoliubov solution, elementwise
    when its fields are arrays over a coupling grid."""
    delta_cdw = sum(_square(sol.rho(fl) - sol.sigma(fl)) for fl in FLAVORS)
    delta_sc = sum(_square(sol.rho(fl) + sol.sigma(fl)) for fl in FLAVORS)
    dim = sum(_square(sol.rho(fl)) + _square(sol.sigma(fl))
              for fl in FLAVORS)
    return ExponentTable(delta_cdw=delta_cdw, delta_sc=delta_sc,
                         fermion_dimension=dim)

