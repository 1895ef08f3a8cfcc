"""Exact verification of the bosonization operator identities.

Each identity is evaluated as a matrix difference between truncated
operators; the residual is the exact maximum magnitude of the difference
over the interior block (bra and ket energies <= the interior window).  In
the window every residual is expected to be exactly zero -- no tolerances.
Operators are column functions, so only the interior columns (and the
states they reach) are ever computed.

Lab units: 2 pi / L = 1, so pi / L = 1/2 and L / (2 pi) = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from ..errors import UnknownIdentity
from .operators import (SparseOperator, charge_op, density_op, field_op,
                        free_hamiltonian, klein_factor, linear)
from .reconstruction import reconstructed_field
from .space import CHIRALITIES, FockSpace


@dataclass
class IdentityReport:
    identity: str
    K: int
    window: Fraction
    max_residual: Fraction
    checks: int
    worst_pair: tuple = None  # (bra index, ket index) of the max residual

    @property
    def passed(self) -> bool:
        return self.max_residual == 0


def _max_block(space, checks, window):
    """Max residual over (op, op_window) pairs and the number of pairs; each
    op is restricted to the smaller of the identity window and its own
    momentum-dependent validity window."""
    best = 0
    worst = None
    cache = {}
    n = 0
    for n, (op, w_op) in enumerate(checks, 1):
        w = window if w_op is None else min(window, Fraction(w_op))
        if w < 0:
            continue
        if w not in cache:
            idx = space.interior_indices(w)
            cache[w] = (set(idx), idx)
        v, pair = op.max_entry(*cache[w])
        if v > best:
            best, worst = v, pair
    return best, worst, n


def _car_residuals(space):
    modes = [(r, nu) for r in CHIRALITIES for nu in space.fermion_modes()]
    fields = {m: field_op(space, *m) for m in modes}
    fields_dag = {m: field_op(space, *m, dagger=True) for m in modes}
    ident = SparseOperator.identity(space)
    for m1 in modes:
        for m2 in modes:
            res = fields[m1].anticommutator(fields_dag[m2])
            if m1 == m2:
                res = res - ident
            yield res, None
            yield fields[m1].anticommutator(fields[m2]), None


def _schwinger_residuals(space):
    # [J_r(p), J_r'(p')] = r delta_{r,r'} (L p / 2 pi) delta_{p,-p'}; the
    # leftover edge bilinears of the regularized commutator live above
    # |k| = edge - |p| - |p'| (sharper: edge - |p| for the conjugate pair),
    # which sets the per-pair validity window.
    edge = space.edge()
    mrange = range(1, space.K)
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
                                w = edge - m + Fraction(1, 2)
                            elif (r, p) == (rp, pp):
                                w = None  # commutator with itself: exact zero
                            else:
                                w = edge - m - mp + Fraction(1, 2)
                            yield lhs, w


def _j_psi_residuals(space):
    # [J_r(p), psi^dag_r'(k)] = delta_{r,r'} psi^dag_r(k - p), exact on the
    # whole lattice whenever both modes sit in the window, where the
    # density keeps the connecting term.
    psi_dag = {(r, nu): field_op(space, r, nu, dagger=True)
               for r in CHIRALITIES for nu in space.fermion_modes()}
    for r in CHIRALITIES:
        for m in range(1, 2 * space.K):
            for sm in (1, -1):
                p = sm * m
                J = density_op(space, r, p)
                for rp in CHIRALITIES:
                    for nu in space.fermion_modes():
                        if not space.has_mode(rp, nu - p):
                            continue
                        res = J.commutator(psi_dag[rp, nu])
                        if r == rp:
                            res = res - psi_dag[rp, nu - p]
                        yield res, None


def _h0_j_residuals(space):
    # [H0, J^Lambda_r(p)] = -r p J^Lambda_r(p), exact on the whole lattice.
    h0 = free_hamiltonian(space)
    for r in CHIRALITIES:
        for m in range(1, 2 * space.K):
            for p in (m, -m):
                J = density_op(space, r, p)
                yield h0.commutator(J) + J * (r * p), None


def _j_r_residuals(space):
    kleins = {r: klein_factor(space, r) for r in CHIRALITIES}
    for r in CHIRALITIES:
        for rp in CHIRALITIES:
            R = kleins[rp]
            for m in range(-(space.K - 1), space.K):
                res = density_op(space, r, m).commutator(R)
                if r == rp and m == 0:
                    res = res - R * r
                yield res, space.edge() - abs(m) - Fraction(1, 2)


def _h0_r_residuals(space):
    # [H0, R_r] = r (pi / L) {J_r(0), R_r}; pi / L = 1/2 in lab units.
    h0 = free_hamiltonian(space)
    for r in CHIRALITIES:
        R = klein_factor(space, r)
        res = (h0.commutator(R)
               - charge_op(space, r).anticommutator(R) * Fraction(r, 2))
        yield res, None


def _rr_residuals(space):
    rp = klein_factor(space, +1)
    rm = klein_factor(space, -1)
    yield rp.anticommutator(rm), None


def _kronig_residuals(space):
    # H0 = sum_r [Q_r^2 / 2 + sum_{m >= 1} J_r(-r m) J_r(r m)]
    h0 = free_hamiltonian(space)
    terms = []
    for r in CHIRALITIES:
        q = charge_op(space, r)
        terms.append((Fraction(1, 2), q @ q))
        terms += [(1, density_op(space, r, -r * m) @ density_op(space, r, r * m))
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


def _report(space, identity, checks) -> IdentityReport:
    w = space.interior_window()
    best, worst, n = _max_block(space, checks, w)
    return IdentityReport(
        identity=identity, K=space.K, window=w,
        max_residual=best, checks=n, worst_pair=worst)


def identity_residual(space: FockSpace, identity: str) -> IdentityReport:
    """Evaluate one identity on the interior block and report the residual."""
    if identity not in _BUILDERS:
        raise UnknownIdentity(f"{identity!r} not in {SUPPORTED_IDENTITIES}")
    return _report(space, identity, _BUILDERS[identity](space))


def _reconstruction_residuals(space):
    for r in CHIRALITIES:
        for nu in space.fermion_modes():
            V = SparseOperator(space, partial(reconstructed_field, space, r, nu))
            yield V - field_op(space, r, nu), None


def reconstruction_report(space: FockSpace) -> IdentityReport:
    """RECONSTRUCTION: V_r(k) = psi-hat_r(k) entrywise on the interior block,
    for both chiralities and every k in the window."""
    return _report(space, "RECONSTRUCTION", _reconstruction_residuals(space))


def run_identity_suite(space: FockSpace):
    """Run the full suite; returns a list of IdentityReport."""
    return [identity_residual(space, name) for name in SUPPORTED_IDENTITIES]
