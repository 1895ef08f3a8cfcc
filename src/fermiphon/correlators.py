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
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .bogoliubov import BogoliubovSolution
from .errors import BadArgument

FLAVORS = ("F", "P")


@dataclass(frozen=True)
class InsertionPoint:
    """One field insertion: chirality r, dagger flag q (+1 means psi^dag),
    position x, time t."""

    r: int
    q: int
    x: float
    t: float = 0.0


def check_position(x: float, t: float) -> None:
    """Raise BadArgument unless an insertion's x and t are finite."""
    if not (math.isfinite(x) and math.isfinite(t)):
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
            check_position(p.x, p.t)
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


def regulated_power(ell: float, r: int, x: float, t: float, v: float,
                    exponent: float, regulator: float) -> complex:
    """(i ell / (r x - v t + i 0+))^exponent with the principal branch.

    The positive regulator keeps the base off the cut; powers from different
    factors are never combined algebraically.  Raises BadArgument when the
    base underflows to 0.
    """
    z = 1j * ell / (r * x - v * t + 1j * regulator)
    if exponent == 0.0:
        return 1.0 + 0.0j
    if z == 0:
        raise BadArgument(f"i ell / (r x - v t + i reg) underflows to 0 at "
                          f"ell = {ell:.3g}, pair separation x = {x:.3g}, "
                          f"t = {t:.3g}")
    return cmath.exp(exponent * cmath.log(z))


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
    checks its own.  The exponent and velocity of every (pair, chirality,
    flavor) are found once, and the factors of pairs without the first
    insertion are the same at every x, so they are evaluated once; every
    value takes the same products in the same order as a lone evaluation.
    Without xs, the value at spec itself.
    """
    pts = spec.insertions
    n_pts = len(pts)
    positions = xs if xs is not None else [pts[0].x if pts else 0.0]
    sign = klein_sign([(p.r, p.q) for p in pts])
    if sign == 0:
        values = [0.0j] * len(positions)
        return values if xs is not None else values[0]
    start = complex(sign) * (1.0 / (2.0 * math.pi * spec.ell)) ** (n_pts / 2.0)

    def channels(n, m):
        """(r, velocity, exponent) of each regulated factor of pair (n, m)."""
        qq = pts[n].q * pts[m].q
        return [(r, sol.vtilde(flavor),
                 -qq * _pair_exponent(r, flavor, pts[n].r, pts[m].r, sol))
                for r in (+1, -1) for flavor in FLAVORS]

    moving = [(pts[m].x, pts[0].t - pts[m].t, channels(0, m))
              for m in range(1, n_pts)]
    fixed = [regulated_power(spec.ell, r, pts[n].x - pts[m].x,
                             pts[n].t - pts[m].t, v, c, spec.regulator)
             for n in range(1, n_pts) for m in range(n + 1, n_pts)
             for r, v, c in channels(n, m)]
    values = []
    for x in positions:
        if pts:
            check_position(x, pts[0].t)
        out = start
        for x_m, dt, chans in moving:
            dx = x - x_m
            for r, v, c in chans:
                out *= regulated_power(spec.ell, r, dx, dt, v, c,
                                       spec.regulator)
        for factor in fixed:
            out *= factor
        values.append(out)
    return values if xs is not None else values[0]


def _square(x):
    """x^2 through libm pow, as Python's float ** 2 takes it, also on
    arrays (numpy's x ** 2 multiplies, which can differ in the last bit)."""
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

