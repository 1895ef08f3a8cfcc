"""Reconstruction of fermion field operators from densities and Klein factors.

V_r(k) acts on a charge eigenstate eta (charge q_r) through the finite
restricted sums

    V_r(k) eta = sqrt(L / 2 pi) * sum~ U_r(nu+) U_r(nu-) R_r^{-r} eta

over integers n+/- >= 0 subject to

    r k = (2 pi / L) (q_r - 1/2) - (n+ - n-).

U_r(nu-) and U_r(nu+) are the z^n coefficients U_n of the vertex-operator
series exp(s sum_{m >= 1} J_r(s r m) z^m / m), with s = +1 for nu- and
s = -1 for nu+.  Within one series the densities J_r(s r m) commute, so
U_0 = 1 and n U_n = s sum_{m=1..n} J_r(s r m) U_{n-m} (the power-series
exponential); the recursion runs on n! U_n, a matrix over the integers, and
each result term is divided by n-! n+! once.  The q_r-dependence of the
constraint was fixed against the Klein-shift covariance
R_r V_r(k) = V_r(k + 2 pi / L) R_r and direct evaluation on charged states.

ModeOutOfWindow is raised when k is outside the window, when R_r^{-r}
shifts a mode of eta out of it, and when a density mode m > 2K - 1 (outside
the truncation) would act on a nonzero U_{n-m} vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..errors import ModeOutOfWindow
from .operators import _accumulate, density_op, klein_factor
from .space import FockSpace


def _cached(ops, space, build, *labels):
    """build(space, *labels), built once per `ops` dict."""
    key = (build, *labels)
    op = ops.get(key)
    if op is None:
        op = ops[key] = build(space, *labels)
    return op


def _series(space, ops, r, s, vec, top):
    """[T_0, ..., T_top] with T_n = n! U_n vec for the chirality-r series of
    sign s: T_0 = vec and T_n = s sum_{m=1..n} (n-1)!/(n-m)! J_r(s r m)
    T_{n-m}, integer for an integer vec."""
    terms = [vec]
    for n in range(1, top + 1):
        out = {}
        scale = s
        for m in range(1, n + 1):
            if m > 1:
                scale *= n - m + 1      # s (n-1)! / (n-m)!
            if not terms[n - m]:
                continue
            if m > 2 * space.K - 1:
                raise ModeOutOfWindow(
                    f"density mode {m} exceeds the truncated window")
            J = _cached(ops, space, density_op, r, s * r * m)
            _accumulate(out, J.apply_col(terms[n - m]), scale)
        terms.append(out)
    return terms


def reconstructed_field(space: FockSpace, r: int, nu, state_index: int,
                        ops=None) -> dict:
    """Image vector of V_r(k) applied to one basis state, k = (2 pi / L) nu.

    Exact (int and Fraction amplitudes); valid while the input state and
    all intermediate density modes stay inside the truncation window.
    `ops` is a dict that keeps the density and Klein operators between the
    calls that share it; without one, the call builds its own.
    """
    ops = {} if ops is None else ops
    nu = Fraction(nu)
    if not space.has_mode(r, nu):
        raise ModeOutOfWindow(f"target momentum nu={nu} outside window")
    q_r = space.charge(state_index, r)

    klein = _cached(ops, space, klein_factor, r, r == +1)  # R_r^{-r}
    image = klein.image(state_index)
    if image is None:
        raise ModeOutOfWindow("Klein shift leaves the window for this state")

    # r k = (q_r - 1/2) - (n+ - n-) in lab units; nu is half-odd, so
    # delta = n+ - n- is an integer
    delta = int(q_r - Fraction(1, 2) - r * nu)

    result = {}
    lowered = _series(space, ops, r, +1, dict([image]),
                      int(space.energy(image[0])))
    for n_minus, vec in enumerate(lowered):
        n_plus = n_minus + delta
        if n_plus >= 0:
            _accumulate(result, _series(space, ops, r, -1, vec, n_plus)[-1],
                        Fraction(1, factorial(n_minus) * factorial(n_plus)))
    return result
