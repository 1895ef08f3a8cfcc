"""Exact verification of the bosonization operator identities.

Each identity is evaluated as a matrix difference between truncated
operators; the residual is the exact maximum magnitude of the difference
over the interior block (bra and ket energies <= the interior window).  In
the window every residual is expected to be exactly zero -- no tolerances.
Operators are column functions, so only the interior columns (and the
states they reach) are ever computed.

Lab units: 2 pi / L = 1, so pi / L = 1/2 and L / (2 pi) = 1.  Every
residual is computed in integers: H0_J, H0_R and KRONIG with H0 in units
of pi / L (`twice_hamiltonian`), so their residual is twice the lab's, and
RECONSTRUCTION with one integer denominator per column; each report
converts its maximum back.  Windows are counted as 2E, like the space's
`states_below`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from ..errors import ModeOutOfWindow, UnknownIdentity
from .operators import (SparseOperator, _add, charge_op, density_op, field_op,
                        klein_factor, linear, twice_hamiltonian)
from .reconstruction import FieldSeries
from .space import CHIRALITIES, FockSpace


@dataclass
class IdentityReport:
    identity: str
    K: int  # the truncation; None for an identity with no space (JACOBI)
    window: Fraction
    max_residual: Fraction  # exact: an int or a Fraction
    checks: int
    worst_pair: tuple = None  # (bra index, ket index) of the max residual

    @property
    def passed(self) -> bool:
        return self.max_residual == 0


def _max_block(space, checks, window):
    """Max residual over (op, op_window) pairs and the number of pairs; each
    op is restricted to the smaller of the identity window and its own
    momentum-dependent validity window (windows as 2E, integers)."""
    best = 0
    worst = None
    cache = {}
    n = 0
    for n, (op, w_op) in enumerate(checks, 1):
        w = window if w_op is None else min(window, w_op)
        if w < 0:
            continue
        if w not in cache:
            idx = space.states_below(w)
            cache[w] = (set(idx), idx)
        v, pair = op.max_entry(*cache[w])
        if v > best:
            best, worst = v, pair
    return best, worst, n


def _modes(space):
    """(t, nu) for every mode label of one chirality, descending."""
    return list(zip(space.labels, space.fermion_modes()))


def _car_residuals(space):
    modes = [(r, t, nu) for r in CHIRALITIES for t, nu in _modes(space)]
    fields = {(r, t): field_op(space, r, nu) for r, t, nu in modes}
    fields_dag = {(r, t): field_op(space, r, nu, dagger=True)
                  for r, t, nu in modes}
    ident = SparseOperator.identity(space)
    for r1, t1, _ in modes:
        for r2, t2, _ in modes:
            res = fields[r1, t1].anticommutator(fields_dag[r2, t2])
            if (r1, t1) == (r2, t2):
                res = res - ident
            yield res, None
            yield fields[r1, t1].anticommutator(fields[r2, t2]), None


def _schwinger_residuals(space):
    # [J_r(p), J_r'(p')] = r delta_{r,r'} (L p / 2 pi) delta_{p,-p'}; the
    # leftover edge bilinears of the regularized commutator live above
    # |k| = edge - |p| - |p'| (sharper: edge - |p| for the conjugate pair),
    # which sets the per-pair validity window, 2E <= 2 (edge - ... + 1/2).
    K = space.K
    mrange = range(1, K)
    dens = {(r, sm * m): density_op(space, r, sm * m)
            for r in CHIRALITIES for m in mrange for sm in (1, -1)}
    for r in CHIRALITIES:
        for rp in CHIRALITIES:
            for m in mrange:
                for mp in mrange:
                    for sm in (1, -1):
                        for smp in (1, -1):
                            p, pp = sm * m, smp * mp
                            lhs = dens[(r, p)].commutator(dens[(rp, pp)])
                            if r == rp and p + pp == 0:
                                lhs = lhs - SparseOperator.identity(
                                    space, r * p)
                                w = 2 * (K - m)
                            elif (r, p) == (rp, pp):
                                w = None  # commutator with itself: exact zero
                            else:
                                w = 2 * (K - m - mp)
                            yield lhs, w
            if r == CHIRALITIES[-1]:
                # the r' densities are not read again: drop them before
                # the next block fills more columns
                for key in [key for key in dens if key[0] == rp]:
                    del dens[key]


def _j_psi_residuals(space):
    # [J_r(p), psi^dag_r'(k)] = delta_{r,r'} psi^dag_r(k - p), exact on the
    # whole lattice whenever both modes sit in the window, where the
    # density keeps the connecting term.
    psi_dag = {(r, t): field_op(space, r, nu, dagger=True)
               for r in CHIRALITIES for t, nu in _modes(space)}
    for r in CHIRALITIES:
        for m in range(1, 2 * space.K):
            for sm in (1, -1):
                p = sm * m
                J = density_op(space, r, p)
                for rp in CHIRALITIES:
                    for t in space.labels:
                        if (rp, t - 2 * p) not in psi_dag:
                            continue
                        res = J.commutator(psi_dag[rp, t])
                        if r == rp:
                            res = res - psi_dag[rp, t - 2 * p]
                        yield res, None


def _h0_j_residuals(space):
    # [H0, J^Lambda_r(p)] = -r p J^Lambda_r(p), exact on the whole lattice;
    # with 2 H0, [2 H0, J] + 2 r p J.
    h0 = twice_hamiltonian(space)
    for r in CHIRALITIES:
        for m in range(1, 2 * space.K):
            for p in (m, -m):
                J = density_op(space, r, p)
                yield h0.commutator(J) + J * (2 * r * p), None


def _j_r_residuals(space):
    kleins = {r: klein_factor(space, r) for r in CHIRALITIES}
    for r in CHIRALITIES:
        for rp in CHIRALITIES:
            R = kleins[rp]
            for m in range(-(space.K - 1), space.K):
                res = density_op(space, r, m).commutator(R)
                if r == rp and m == 0:
                    res = res - R * r
                # 2E <= 2 (edge - |m| - 1/2)
                yield res, 2 * (space.K - 1 - abs(m))


def _h0_r_residuals(space):
    # [H0, R_r] = r (pi / L) {J_r(0), R_r}: [2 H0, R_r] = r {Q_r, R_r}.
    h0 = twice_hamiltonian(space)
    for r in CHIRALITIES:
        R = klein_factor(space, r)
        res = h0.commutator(R) - charge_op(space, r).anticommutator(R) * r
        yield res, None


def _rr_residuals(space):
    rp = klein_factor(space, +1)
    rm = klein_factor(space, -1)
    yield rp.anticommutator(rm), None


def _kronig_residuals(space):
    # H0 = sum_r [Q_r^2 / 2 + sum_{m >= 1} J_r(-r m) J_r(r m)], doubled
    h0 = twice_hamiltonian(space)
    terms = []
    for r in CHIRALITIES:
        q = charge_op(space, r)
        terms.append((1, q @ q))
        terms += [(2, density_op(space, r, -r * m)
                   @ density_op(space, r, r * m))
                  for m in range(1, space.K + 1)]
    yield h0 - linear(space, *terms), None


_BUILDERS = {
    "CAR": _car_residuals,
    "SCHWINGER": _schwinger_residuals,
    "J_PSI": _j_psi_residuals,
    "H0_J": _h0_j_residuals,
    "J_R": _j_r_residuals,
    "H0_R": _h0_r_residuals,
    "RR_ANTI": _rr_residuals,
    "KRONIG": _kronig_residuals,
}

SUPPORTED_IDENTITIES = tuple(_BUILDERS)

# the identities whose residual is computed with 2 H0, twice the lab's
_WITH_TWICE_H0 = ("H0_J", "H0_R", "KRONIG")


def _report(space, identity, checks, unit=1) -> IdentityReport:
    """The report of the checks; their largest entry is unit times the
    residual."""
    best, worst, n = _max_block(space, checks, 2 * (space.K - 1))
    if unit != 1:
        best = Fraction(best, unit)
    return IdentityReport(
        identity=identity, K=space.K, window=space.interior_window(),
        max_residual=best, checks=n, worst_pair=worst)


def identity_residual(space: FockSpace, identity: str) -> IdentityReport:
    """Evaluate one identity on the interior block and report the residual."""
    if identity not in _BUILDERS:
        raise UnknownIdentity(f"{identity!r} not in {SUPPORTED_IDENTITIES}")
    return _report(space, identity, _BUILDERS[identity](space),
                   2 if identity in _WITH_TWICE_H0 else 1)


class _FieldResidual(SparseOperator):
    """V_r(k) - psi-hat_r(k) for one (r, k) in integers: scaled(c) is
    (d (V_r(k) - psi-hat_r(k)) c, d), d the denominator of V_r(k) c, and
    cols[c] its integer column.  images(c) maps each label t to
    V_r(t / 2) c as FieldSeries.vector gives it, or to the ModeOutOfWindow
    that computing it raised."""

    def __init__(self, space, images, t, psi):
        def scaled(c):
            image = images(c)[t]
            if isinstance(image, ModeOutOfWindow):
                raise image
            v, d = image
            out = dict(v)
            row, sign = psi(c)
            if row is not None:
                _add(out, row, -d * sign)
            return out, d
        self.scaled = scaled
        super().__init__(space, lambda c: scaled(c)[0])

    def max_entry(self, rows: set, cols):
        """SparseOperator.max_entry of the exact entries, column / d."""
        best = 0
        worst = None
        for c in cols:
            col, d = self.scaled(c)
            top = 0
            for r, amp in col.items():
                if r in rows and abs(amp) > top:
                    top, row = abs(amp), r
            if top and Fraction(top, d) > best:
                best, worst = Fraction(top, d), (row, c)
        return best, worst


def _field_images(space, ops, images, r, c):
    """{t: V_r(k) c as FieldSeries.vector gives it, or the ModeOutOfWindow
    that computing it raised} over every label t = 2 nu of the window; the
    first call for c builds c's series once for every k and keeps the
    images in `images`, and `ops` keeps the operators the series share."""
    if c not in images:
        try:
            series = FieldSeries(space, ops, r, c)
        except ModeOutOfWindow as exc:
            images[c] = dict.fromkeys(space.labels, exc)
        else:
            images[c] = {}
            for t in space.labels:
                try:
                    images[c][t] = series.vector(t)
                except ModeOutOfWindow as exc:
                    images[c][t] = exc
    return images[c]


def _reconstruction_residuals(space):
    # one chirality's checks share its density and Klein operators and its
    # images; both dicts are dropped with the chirality's last check
    for r in CHIRALITIES:
        images = partial(_field_images, space, {}, {}, r)
        for t, nu in _modes(space):
            yield _FieldResidual(space, images, t,
                                 field_op(space, r, nu).image), None


def reconstruction_report(space: FockSpace) -> IdentityReport:
    """RECONSTRUCTION: V_r(k) = psi-hat_r(k) entrywise on the interior block,
    for both chiralities and every k in the window."""
    return _report(space, "RECONSTRUCTION", _reconstruction_residuals(space))
