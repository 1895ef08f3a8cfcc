"""Degeneracy matching between fermion and boson state counts, and the
truncated triple-product identity backing it."""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import BadArgument
from .space import FockSpace


def degeneracy_counts(space: FockSpace, e_max) -> dict:
    """Map energy -> (dim_F, dim_B) for all energies <= e_max (units 2 pi / L).

    dim_F counts occupation states in the truncated space; dim_B counts
    boson labels (q+, q-, m(p)) with (q+^2 + q-^2)/2 + sum |p| m(p) equal to
    the energy, enumerated directly over integer labels.  Counts agree below
    the truncation artifact threshold (e_max <= K recommended).
    """
    e_max = Fraction(e_max)
    if e_max < 0:
        return {}
    fermi = {}
    for mask in space.interior_indices(e_max):
        e = space.energy(mask)
        fermi[e] = fermi.get(e, 0) + 1

    # boson-mode part: number of multisets over modes |p| = 1, 2, ... with
    # two signs of p each, at total integer energy e
    n_int = int(e_max)
    ways = [0] * (n_int + 1)
    ways[0] = 1
    for m in range(1, n_int + 1):
        for _sign in (0, 1):
            for e in range(m, n_int + 1):
                ways[e] += ways[e - m]

    bose = {}
    qmax = int(math.isqrt(2 * n_int)) + 1
    for qp in range(-qmax, qmax + 1):
        for qm in range(-qmax, qmax + 1):
            e0 = Fraction(qp * qp + qm * qm, 2)
            if e0 > e_max:
                continue
            for e_b in range(int(e_max - e0) + 1):
                e = e0 + e_b
                if e <= e_max:
                    bose[e] = bose.get(e, 0) + ways[e_b]

    energies = sorted(set(fermi) | set(bose))
    return {e: (fermi.get(e, 0), bose.get(e, 0)) for e in energies}


def jacobi_check(z: float, order: int):
    """Truncated two sides of the special triple-product identity.

    Evaluates (prod_{n<=order} (1 + z^{2n-1}))^2 and
    (sum_{|q|<=order} z^{q^2}) / prod_{n<=order} (1 - z^{2n}) in
    high-precision arithmetic (working precision scaled with the order so
    rounding sits far below the truncation tails) and returns
    (residual, tail_bound): the absolute difference of the truncated sides
    together with a rigorous bound on the truncation error of either side
    (geometric tails, with constants taken from the computed partial
    products).
    """
    if not (0.0 < z < 1.0):
        raise BadArgument("z must lie in (0, 1)")
    if order < 1:
        raise BadArgument("order must be >= 1")
    import mpmath as mp
    with mp.workdps(int(40 - 2.5 * order * math.log10(z))):
        zz = mp.mpf(z)
        lhs = mp.mpf(1)
        for n in range(1, order + 1):
            lhs *= 1 + zz**(2 * n - 1)
        lhs = lhs * lhs
        theta = 1 + 2 * mp.fsum(zz**(q * q) for q in range(1, order + 1))
        euler = mp.mpf(1)
        for n in range(1, order + 1):
            euler *= 1 - zz**(2 * n)
        rhs = theta / euler

        # tails: lhs misses factors (1+z^{2n-1})^2, n > order, bounded by
        # exp(2 z^{2 order + 1} / (1 - z^2)); rhs misses theta terms
        # (< 2 z^{(order+1)^2} / (1 - z)) and euler factors
        # (< exp(z^{2 order + 2} / ((1 - z^2)(1 - z^{2 order + 2})))).
        t = zz**(2 * order + 1)
        lhs_tail = lhs * mp.expm1(2 * t / (1 - zz * zz))
        theta_tail = 2 * zz**((order + 1) ** 2) / (1 - zz)
        eu = zz**(2 * order + 2)
        rhs_tail = rhs * mp.expm1(eu / ((1 - zz * zz) * (1 - eu))) \
            + theta_tail / euler
        return float(abs(lhs - rhs)), float(lhs_tail + rhs_tail)
