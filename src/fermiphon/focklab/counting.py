"""Degeneracy matching between fermion and boson state counts, and the
triple-product identity backing it as an exact identity of integer
coefficients."""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import BadArgument
from .identities import IdentityReport
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


def _product_coefficients(degree: int) -> list:
    """Coefficients of prod_{n>=1} (1 - q^{2n}) (1 + q^{2n-1})^2 up to
    q^degree, in integers: factors of degree above `degree` change none."""
    c = [1] + [0] * degree
    for m in range(1, degree + 1):
        # multiply by (1 - q^m) once if m is even, by (1 + q^m) twice if odd
        sign, times = (-1, 1) if m % 2 == 0 else (1, 2)
        for _ in range(times):
            for e in range(degree, m - 1, -1):
                c[e] += sign * c[e - m]
    return c


def _theta_coefficients(degree: int) -> list:
    """Coefficients of sum_{k in Z} q^{k^2} up to q^degree: 1 at q^0 and 2
    at each positive square."""
    c = [0] * (degree + 1)
    for k in range(-math.isqrt(degree), math.isqrt(degree) + 1):
        c[k * k] += 1
    return c


def jacobi_check(degree: int) -> IdentityReport:
    """JACOBI: the special triple-product identity behind the degeneracy
    counts, prod_{n>=1} (1 - q^{2n}) (1 + q^{2n-1})^2 = sum_{k in Z} q^{k^2},
    compared coefficient by coefficient up to q^degree.  The residual is the
    exact largest difference of the degree + 1 coefficient pairs; the
    identity involves no truncated space, so the report's K is None."""
    if degree < 0:
        raise BadArgument("degree must be >= 0")
    diff = max(abs(a - b) for a, b in zip(_product_coefficients(degree),
                                          _theta_coefficients(degree)))
    return IdentityReport(identity="JACOBI", K=None, window=degree,
                          max_residual=diff, checks=degree + 1)
