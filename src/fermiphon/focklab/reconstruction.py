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
exponential); the recursion runs on n! U_n, a matrix over the integers.
The series depend on the state and r but not on k, so one `FieldSeries`
holds them for every k: the lowered (nu-) series of R_r^{-r} eta, and one
raised (nu+) series per lowered term, each extended as far as some k needs
it.  A k's image is summed in integers over a common denominator, and
divided by it once.  The q_r-dependence of the constraint was fixed
against the Klein-shift covariance R_r V_r(k) = V_r(k + 2 pi / L) R_r and
direct evaluation on charged states.

ModeOutOfWindow is raised when k is outside the window, when R_r^{-r}
shifts a mode of eta out of it, and when a density mode m > 2K - 1 (outside
the truncation) would act on a nonzero U_{n-m} vector.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ..errors import ModeOutOfWindow
from .operators import _accumulate, density_op, klein_factor
from .space import FockSpace, twice


def _cached(ops, space, build, *labels):
    """build(space, *labels), built once per `ops` dict."""
    key = (build, *labels)
    op = ops.get(key)
    if op is None:
        op = ops[key] = build(space, *labels)
    return op


def _extend(space, ops, r, s, terms, top):
    """Extend terms = [T_0, ...] in place to [T_0, ..., T_top], T_n = n! U_n
    T_0 for the chirality-r series of sign s: T_n = s sum_{m=1..n}
    (n-1)!/(n-m)! J_r(s r m) T_{n-m}, integer for an integer T_0."""
    for n in range(len(terms), top + 1):
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


class FieldSeries:
    """The series of V_r on one basis state, shared by every momentum.

    `ops` keeps the density and Klein operators between the series that
    share it."""

    def __init__(self, space: FockSpace, ops: dict, r: int, state: int):
        klein = _cached(ops, space, klein_factor, r, r == +1)  # R_r^{-r}
        image = klein.image(state)
        if image is None:
            raise ModeOutOfWindow(
                "Klein shift leaves the window for this state")
        self._space, self._ops, self._r = space, ops, r
        # 2 (q_r - 1/2), so that 2 delta = this - r t
        self._twice_offset = 2 * space.charge(state, r) - 1
        lowered = _extend(space, ops, r, +1, [dict([image])],
                          space.twice_energy(image[0]) >> 1)
        self._raised = [[vec] for vec in lowered]

    def vector(self, t: int):
        """(v, d) with V_r(k) state = v / d at k = (2 pi / L) t / 2: v an
        integer vector and d = n-_max! n+_max! over its nonzero terms."""
        # r k = (q_r - 1/2) - (n+ - n-) in lab units; t is odd, so
        # delta = n+ - n- is an integer
        delta = (self._twice_offset - self._r * t) // 2
        terms = []
        for n_minus, raised in enumerate(self._raised):
            n_plus = n_minus + delta
            if n_plus >= 0 and raised[0]:
                _extend(self._space, self._ops, self._r, -1, raised, n_plus)
                if raised[n_plus]:
                    terms.append((n_minus, n_plus, raised[n_plus]))
        if not terms:
            return {}, 1
        d = (factorial(max(n for n, _, _ in terms))
             * factorial(max(n for _, n, _ in terms)))
        v = {}
        for n_minus, n_plus, term in terms:
            _accumulate(v, term, d // (factorial(n_minus) * factorial(n_plus)))
        return v, d


def reconstructed_field(space: FockSpace, r: int, nu, state_index: int,
                        ops=None) -> dict:
    """Image vector of V_r(k) applied to one basis state, k = (2 pi / L) nu.

    Exact (Fraction amplitudes); valid while the input state and all
    intermediate density modes stay inside the truncation window.  `ops` is
    a dict that keeps the density and Klein operators between the calls
    that share it; without one, the call builds its own.
    """
    ops = {} if ops is None else ops
    t = twice(nu)
    if (r, t) not in space.positions:
        raise ModeOutOfWindow(
            f"target momentum nu={Fraction(nu)} outside window")
    v, d = FieldSeries(space, ops, r, state_index).vector(t)
    return {row: Fraction(amp, d) for row, amp in v.items()}
