"""Diagonalization of the bosonized fermion-phonon Hamiltonian.

Two independent routes to the same solution: closed-form expressions for
the renormalized velocities and mixing coefficients, and a numeric 2x2
eigen pipeline through the kinetic/potential block matrices.  They are
cross-validated against each other in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import BadArgument, DegenerateBranches, GridTooSmall, ZeroMode
from .params import (TWO_PI, DerivedCouplings, ModelParams, MomentumGrid,
                     coupled_abs_p_sum, derived_couplings, mode_count,
                     validate_params)

# relative eigenvalue-gap floor below which branch labels would be guesses
DEGENERACY_FLOOR = 1e-8


@dataclass(frozen=True)
class BlockMatrices:
    """Kinetic block A, potential block B, and C = A^{1/2} B A^{1/2} at one p."""

    p: float
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


@dataclass(frozen=True)
class BogoliubovSolution:
    """Closed-form solution: velocities, mixing coefficients, E0."""

    params: ModelParams
    couplings: DerivedCouplings
    vtilde_f: float
    vtilde_p: float
    rho_f: float
    rho_p: float
    sigma_f: float
    sigma_p: float
    e0: float

    def rho(self, flavor: str) -> float:
        return self.rho_f if flavor == "F" else self.rho_p

    def sigma(self, flavor: str) -> float:
        return self.sigma_f if flavor == "F" else self.sigma_p

    def vtilde(self, flavor: str) -> float:
        return self.vtilde_f if flavor == "F" else self.vtilde_p

    def v_bare(self, flavor: str) -> float:
        return self.params.v_f if flavor == "F" else self.params.v_p


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenstate label set with its exact eigenvalue."""

    q_plus: int
    q_minus: int
    m_p0: int
    occupations: Tuple[Tuple[str, int, int], ...]  # (flavor, m, occupation)
    energy: float
    degeneracy: int


def block_matrices(params: ModelParams, p: float) -> BlockMatrices:
    """A = diag(1 - gamma1(p), 1) and B, C per the coupled-boson blocks;
    couplings switch off outside the coupled modes |m| <= n_a.  The cut sits
    half a spacing past mode n_a, so a grid p is classified by its m however
    it was rounded."""
    if p == 0:
        raise ZeroMode("p = 0 is handled analytically, not by 2x2 blocks")
    validate_params(params)
    cpl = derived_couplings(params)
    n_a = mode_count(params.L, params.a)
    inside = abs(p) <= (n_a + 0.5) * TWO_PI / params.L
    g1 = cpl.gamma1 if inside else 0.0
    g2 = cpl.gamma2 if inside else 0.0
    vf, vp = params.v_f, params.v_p
    A = np.array([[1.0 - g1, 0.0], [0.0, 1.0]])
    B = p * p * np.array([[vf**2 * (1.0 + g1), vf * vp * g2],
                          [vf * vp * g2, vp**2]])
    sqa = np.sqrt(np.diag(A))
    C = (B * sqa[:, None]) * sqa[None, :]
    return BlockMatrices(p=p, A=A, B=B, C=C)


def diagonalize_numeric(params: ModelParams, p: float) -> dict:
    """Eigen pipeline at one p: frequencies, M_Pi, M_Phi, and the Bogoliubov
    coefficient matrices curly C and curly S.

    C = U omega^2 U^T with U the orthogonal eigenvector matrix (columns
    sign-normalized so diagonal entries are non-negative; omega_F >= omega_P);
    M_Pi = A^{-1/2} U and M_Phi = A^{1/2} U are the inverse canonical
    transformation, which makes sum_X' (C^2 - S^2)_{X,X'} = 1 row-wise.
    """
    blocks = block_matrices(params, p)
    evals, evecs = np.linalg.eigh(blocks.C)
    # eigh returns ascending; branch F carries the larger frequency
    w2 = evals[::-1]
    U = evecs[:, ::-1].copy()
    vf = params.v_f
    if w2[0] - w2[1] < DEGENERACY_FLOOR * (vf * p) ** 2:
        raise DegenerateBranches(
            f"eigenvalue gap {w2[0] - w2[1]:.3e} too small at p = {p:.6g}")
    # column sign convention: phonon-row entry positive (the parametrization
    # (C12, lambda - C11) of the eigenvectors), diagonal entry positive in
    # the decoupled case -- this is the convention under which the numeric
    # coefficients reproduce the closed forms for either sign of g
    for j in range(2):
        pivot = U[1, j] if abs(U[1, j]) > 1e-14 * abs(U[j, j]) + 1e-300 \
            else U[j, j]
        if pivot < 0:
            U[:, j] = -U[:, j]
    omega = np.sqrt(w2)
    inv_sqa = 1.0 / np.sqrt(np.diag(blocks.A))
    m_pi = U * inv_sqa[:, None]      # A^{-1/2} U
    m_phi = U / inv_sqa[:, None]     # A^{1/2} U
    v_bare = np.array([params.v_f, params.v_p])
    vt = omega / abs(p)
    curly_c = np.empty((2, 2))
    curly_s = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            up = math.sqrt(v_bare[i] / vt[j]) * m_phi[i, j]
            dn = math.sqrt(vt[j] / v_bare[i]) * m_pi[i, j]
            curly_c[i, j] = 0.5 * (up + dn)
            curly_s[i, j] = 0.5 * (up - dn)
    return {"omega_f": omega[0], "omega_p": omega[1], "M_Pi": m_pi,
            "M_Phi": m_phi, "curly_c": curly_c, "curly_s": curly_s}


def solve_closed_form(params: ModelParams) -> BogoliubovSolution:
    """Closed-form renormalized velocities, mixing coefficients, and E0.

    For g = 0 the phonons decouple exactly and the Thirring-limit formulas
    apply (sigma_F carries the sign of lambda); otherwise the generic
    expressions are used verbatim with principal square roots.
    E0 = (1/2) sum_X sum_{0<|m|<=n_a} (vtilde_X - v_X) |p| diverges like
    O(L / a^2) as a -> 0 at fixed couplings.
    """
    validate_params(params)
    cpl = derived_couplings(params)
    vf, vp = params.v_f, params.v_p
    g1, g2, W = cpl.gamma1, cpl.gamma2, cpl.W
    if W <= DEGENERACY_FLOOR * vf * vf:
        raise DegenerateBranches(
            f"W = {W:.3e} below the branch-identification floor")
    if g2 == 0.0:
        vt_f = vf * math.sqrt(1.0 - g1 * g1)
        vt_p = vp
        rho_f = math.sqrt((vf + vt_f) / (2.0 * vt_f))
        sigma_f = math.copysign(
            math.sqrt((vf - vt_f) / (2.0 * vt_f)), params.lam) \
            if params.lam != 0.0 else 0.0
        rho_p = sigma_p = 0.0
    else:
        c2 = vf * vf * (1.0 - g1 * g1)
        s = c2 + vp * vp
        d = c2 - vp * vp
        e = 4.0 * vf * vf * vp * vp * g2 * g2 * (1.0 - g1)
        vt_f = math.sqrt((s + W) / 2.0)
        # s - W = (s^2 - W^2)/(s + W) with s^2 - W^2 = 4 c2 vp^2 - e exactly;
        # avoids cancellation near the stability boundary
        vt_p = math.sqrt((4.0 * c2 * vp * vp - e) / (2.0 * (s + W)))
        # vt_f^2 - c2 = (W - d)/2 and c2 - vt_p^2 = (W + d)/2, each computed
        # on its cancellation-free side via W^2 - d^2 = e
        gap_f = e / (2.0 * (W + d)) if d > 0 else (W - d) / 2.0
        gap_p = e / (2.0 * (W - d)) if d < 0 else (W + d) / 2.0
        if gap_f == 0.0 or gap_p == 0.0:
            # e ~ g^2 underflowed, so the mixing angle is lost
            raise BadArgument(
                f"g = {params.g:.3g} is too small to resolve the branch "
                "mixing (g^2 underflows)")
        den_f = 2.0 * math.sqrt(W) * math.sqrt(gap_f)
        den_p = 2.0 * math.sqrt(W) * math.sqrt(gap_p)
        rho_f = math.sqrt(vf / vt_f) * g2 * vp * (vt_f + vf * (1.0 - g1)) / den_f
        sigma_f = math.sqrt(vf / vt_f) * g2 * vp * (vt_f - vf * (1.0 - g1)) / den_f
        rho_p = -math.sqrt(vf / vt_p) * g2 * vp * (vt_p + vf * (1.0 - g1)) / den_p
        sigma_p = -math.sqrt(vf / vt_p) * g2 * vp * (vt_p - vf * (1.0 - g1)) / den_p
    e0 = 0.5 * (vt_f - vf + vt_p - vp) * coupled_abs_p_sum(params.L, params.a)
    return BogoliubovSolution(
        params=params, couplings=cpl, vtilde_f=vt_f, vtilde_p=vt_p,
        rho_f=rho_f, rho_p=rho_p, sigma_f=sigma_f, sigma_p=sigma_p, e0=e0)


def _occupations(modes, idx, spent, e_max, occ):
    """(energy, occupations) of every boson occupation of modes[idx:] on top
    of `spent`, up to e_max, depth first: each state before its extensions."""
    yield spent, tuple(occ)
    for i in range(idx, len(modes)):
        fl, m, e = modes[i]
        if spent + e > e_max:
            break
        n = 1
        while spent + n * e <= e_max:
            occ.append((fl, m, n))
            yield from _occupations(modes, i + 1, spent + n * e, e_max, occ)
            occ.pop()
            n += 1


def spectrum(params: ModelParams, solution: BogoliubovSolution, e_max: float,
             grid: MomentumGrid) -> List[SpectrumEntry]:
    """All eigenvalue labels with energy - E0 <= e_max, sorted ascending.

    Enumerates charge pairs, the phonon zero mode, and boson occupations
    over grid modes; a mode m moves at vtilde_X if it couples (m <= n_a)
    and at the bare v_X otherwise.  Raises GridTooSmall when the grid
    disagrees with params, or when a mode outside the grid could still
    contribute below e_max.
    """
    if not math.isclose(grid.L, params.L, rel_tol=1e-12) \
            or grid.n_a != mode_count(params.L, params.a):
        raise GridTooSmall("grid and params disagree on L or n_a")
    spacing = TWO_PI / params.L
    # mode energies inside the grid; mode K + 1 must lie above e_max
    modes = []
    for flavor in ("F", "P"):
        for m in range(1, grid.K + 2):
            v = solution.vtilde(flavor) if m <= grid.n_a \
                else solution.v_bare(flavor)
            e = v * m * spacing
            if e > e_max:
                continue
            if m > grid.K:
                raise GridTooSmall(
                    f"mode |m| = {m} of flavor {flavor} still reaches "
                    f"e_max; enlarge K")
            modes.append((flavor, m, e))
    # both signs of p carry independent occupations
    modes = [(fl, sgn * m, e) for (fl, m, e) in modes for sgn in (1, -1)]
    modes.sort(key=lambda t: t[2])

    g1 = solution.couplings.gamma1
    charge_scale = math.pi * params.v_f / params.L

    def charge_energy(qp, qm):
        return charge_scale * (qp * qp + qm * qm + 2.0 * g1 * qp * qm)

    qmax = int(math.floor(math.sqrt(e_max / (charge_scale * (1.0 - abs(g1))))
                          )) + 1 if e_max > 0 else 0

    levels = []     # (q_plus, q_minus, m_p0, occupations, energy)
    for qp in range(-qmax, qmax + 1):
        for qm in range(-qmax, qmax + 1):
            e_q = charge_energy(qp, qm)
            if e_q > e_max:
                continue
            mp0 = 0
            while e_q + mp0 * params.omega0 <= e_max:
                for spent, occ in _occupations(
                        modes, 0, e_q + mp0 * params.omega0, e_max, []):
                    levels.append((qp, qm, mp0, occ, solution.e0 + spent))
                mp0 += 1

    levels.sort(key=lambda t: (t[4], -t[0], -t[1]))
    # attach degeneracy tallies (counts of equal energies up to 1e-12 rel)
    out = []
    i = 0
    while i < len(levels):
        e_i = levels[i][4]
        j = i
        while j < len(levels) and abs(levels[j][4] - e_i) \
                <= 1e-12 * max(1.0, abs(e_i)):
            j += 1
        out += [SpectrumEntry(*levels[k], j - i) for k in range(i, j)]
        i = j
    return out
