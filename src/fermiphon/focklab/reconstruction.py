"""Reconstruction of fermion field operators from densities and Klein factors.

V_r(k) acts on a charge eigenstate eta (charge q_r) through the finite
restricted sums

    V_r(k) eta = sqrt(L / 2 pi) * sum~ U_r(nu+) U_r(nu-) R_r^{-r} eta

over integer vectors nu+/- >= 0 subject to

    r k = (2 pi / L) (q_r - 1/2) - [P(nu+) - P(nu-)],

with U_r built from density operators.  The q_r-dependence of the
constraint was fixed against the Klein-shift covariance
R_r V_r(k) = V_r(k + 2 pi / L) R_r and direct evaluation on charged states.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..errors import ModeOutOfWindow
from .operators import _accumulate, density_op, klein_factor
from .space import FockSpace


def _cached(space, build, *labels):
    """build(space, *labels), built once per space."""
    key = (build, *labels)
    op = space.op_cache.get(key)
    if op is None:
        op = space.op_cache[key] = build(space, *labels)
    return op


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int):
    """Partitions of n with parts <= max_part as descending tuples."""
    if n == 0:
        return ((),)
    out = []
    for part in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - part, part):
            out.append((part,) + rest)
    return tuple(out)


def _apply_u(space, r, parts, sign_mode, vec):
    """Apply U_r(nu) for one partition (multiset of parts m) to a vector.

    sign_mode = -1 builds U(nu+) with factors -(1/m) J_r(-r m); +1 builds
    U(nu-) with factors +(1/m) J_r(+r m).  Includes the 1/count! weights.
    """
    counts = {}
    for m in parts:
        counts[m] = counts.get(m, 0) + 1
    coef = Fraction(1)
    for m, c in counts.items():
        coef *= Fraction((-1 if sign_mode < 0 else 1) ** c,
                         (m ** c) * math.factorial(c))
    out = vec
    for m in parts:
        if m > 2 * space.K - 1:
            raise ModeOutOfWindow(
                f"density mode {m} exceeds the truncated window")
        J = _cached(space, density_op, r, sign_mode * r * m)
        out = J.apply_col(out)
        if not out:
            return {}
    return _accumulate({}, out, coef)


def reconstructed_field(space: FockSpace, r: int, nu, state_index: int) -> dict:
    """Image vector of V_r(k) applied to one basis state, k = (2 pi / L) nu.

    Exact (int and Fraction amplitudes); valid while the input state and
    all intermediate density modes stay inside the truncation window.
    """
    nu = Fraction(nu)
    if not space.has_mode(r, nu):
        raise ModeOutOfWindow(f"target momentum nu={nu} outside window")
    q_r = space.charge(state_index, r)

    klein = _cached(space, klein_factor, r, r == +1)  # R_r^{-r}
    phi = klein.cols[state_index]
    if phi is None:
        raise ModeOutOfWindow("Klein shift leaves the window for this state")

    # r k = (q_r - 1/2) - (n+ - n-) in lab units
    delta = q_r - Fraction(1, 2) - r * nu
    if delta.denominator != 1:
        return {}
    delta = int(delta)

    e_phi = max(space.energy(i) for i in phi)
    result = {}
    for n_minus in range(int(e_phi) + 1):
        n_plus = n_minus + delta
        if n_plus < 0:
            continue
        for parts_minus in _partitions(n_minus, max(n_minus, 1)):
            lowered = _apply_u(space, r, parts_minus, +1, phi)
            if not lowered:
                continue
            for parts_plus in _partitions(n_plus, max(n_plus, 1)):
                _accumulate(result, _apply_u(space, r, parts_plus, -1,
                                             lowered))
    return result
