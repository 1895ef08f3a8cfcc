"""Diagonalization of the bosonized fermion-phonon Hamiltonian.

The renormalized velocities, mixing coefficients and E0 come from the
closed form: one numpy kernel, closed_form, over a whole (lambda, g) grid,
with a status array in place of exceptions; solve_closed_form is its
one-point case and raises.  A grid point takes the float operations of a
scalar evaluation in the same order (squares through libm pow, as Python's
float ** 2), so `scan` rows equal one-point solves bit for bit.  The 2x2
block matrices and their numeric eigen pipeline (block_matrices,
diagonalize_numeric) are the check the tests hold the closed form to.

Every eigenstate is a charge pair, a phonon zero-mode level and a set of
boson occupations, with a closed-form energy.  spectrum enumerates the
occupations once, as one tree shared by every charge and zero-mode sector,
and walks it one depth at a time over the kept (sector, node) cells only,
with the float additions of a per-sector walk, so it holds memory in
proportion to the levels it keeps.  It returns the levels as columns (a
Spectrum, read as a sequence of SpectrumEntry), and refuses more than
LEVEL_CAP stored occupation entries or levels before storing them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, List, NamedTuple, Tuple

from .errors import (BadArgument, DegenerateBranches, GridTooSmall,
                     TruncationTooLarge, UnstableCouplings, ZeroMode)
from .params import (TWO_PI, DerivedCouplings, ModelParams, MomentumGrid,
                     check_grid, coupled_abs_p_sum, derived_couplings,
                     instabilities, mode_count, validate_params)

if TYPE_CHECKING:
    import numpy as np

# relative eigenvalue-gap floor below which branch labels would be guesses
DEGENERACY_FLOOR = 1e-8

# most occupation-tuple entries the tree stores, and most levels, one
# spectrum call enumerates: about five times the 62k levels of the reference
# model at K = 40, e_max = 1.2 (whose tree stores 28k entries)
LEVEL_CAP = 300_000


@dataclass(frozen=True)
class BlockMatrices:
    """Kinetic block A, potential block B, and C = A^{1/2} B A^{1/2} at one p."""

    p: float
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


@dataclass(frozen=True)
class BogoliubovSolution:
    """Closed-form solution: velocities, mixing coefficients, E0.  Fields are
    floats from solve_closed_form and arrays from closed_form on a grid."""

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


class SpectrumEntry(NamedTuple):
    """One eigenstate label set with its exact eigenvalue."""

    q_plus: int
    q_minus: int
    m_p0: int
    occupations: Tuple[Tuple[str, int, int], ...]  # (flavor, m, occupation)
    energy: float
    degeneracy: int


@dataclass(frozen=True, eq=False)
class Spectrum(Sequence):
    """spectrum's levels as columns, one entry per level in spectrum order,
    and the occupation tuple of each node of the shared occupation tree:
    level i has occupations[node[i]].  As a Sequence, indexed by position,
    its items are SpectrumEntry."""

    q_plus: np.ndarray
    q_minus: np.ndarray
    m_p0: np.ndarray
    node: np.ndarray
    energy: np.ndarray
    degeneracy: np.ndarray
    occupations: List[Tuple[Tuple[str, int, int], ...]]

    def __len__(self) -> int:
        return len(self.energy)

    def __getitem__(self, i: int) -> SpectrumEntry:
        return SpectrumEntry(
            int(self.q_plus[i]), int(self.q_minus[i]), int(self.m_p0[i]),
            self.occupations[self.node[i]], float(self.energy[i]),
            int(self.degeneracy[i]))


def block_matrices(params: ModelParams, p: float) -> BlockMatrices:
    """A = diag(1 - gamma1(p), 1) and B, C per the coupled-boson blocks;
    couplings switch off outside the coupled modes |m| <= n_a.  The cut sits
    half a spacing past mode n_a, so a grid p is classified by its m however
    it was rounded."""
    if p == 0:
        raise ZeroMode("p = 0 is handled analytically, not by 2x2 blocks")
    import numpy as np
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
    import numpy as np
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


# why closed_form has no solution at a grid point (0: it has one)
_INVALID = 1        # non-finite lambda or g, or unstable couplings
_DEGENERATE = 2     # W below the branch-identification floor
_BOUNDARY = 3       # vtilde_P^2 rounds to <= 0 near the stability boundary
_UNDERFLOW = 4      # g^2 underflows, so the mixing angle is lost


def closed_form(params: ModelParams) -> Tuple[BogoliubovSolution, np.ndarray]:
    """Closed-form renormalized velocities, mixing coefficients, and E0,
    elementwise over a coupling grid: params.lam and params.g are numpy
    arrays of one shape and the other fields a validated model.  Returns the
    solution, whose fields are arrays, and an integer status array that is
    0 where the point has a solution and otherwise names the first reason
    it has none.

    For g = 0 the phonons decouple exactly and the Thirring-limit formulas
    apply (sigma_F carries the sign of lambda); otherwise the generic
    expressions are used verbatim with principal square roots.
    E0 = (1/2) sum_X sum_{0<|m|<=n_a} (vtilde_X - v_X) |p| diverges like
    O(L / a^2) as a -> 0 at fixed couplings.  Every point takes the float
    operations of a scalar evaluation in the same order; numpy warnings are
    off, since points without a solution may overflow or take sqrt(< 0).
    """
    import numpy as np
    vf, vp, lam, g = params.v_f, params.v_p, params.lam, params.g
    with np.errstate(all="ignore"):
        cpl = derived_couplings(params)
        g1, g2, W = cpl.gamma1, cpl.gamma2, cpl.W
        decoupled = g2 == 0.0
        # g = 0
        vt_f0 = vf * np.sqrt(1.0 - g1 * g1)
        rho_f0 = np.sqrt((vf + vt_f0) / (2.0 * vt_f0))
        sigma_f0 = np.where(
            lam != 0.0,
            np.copysign(np.sqrt((vf - vt_f0) / (2.0 * vt_f0)), lam), 0.0)
        # g != 0
        c2 = vf * vf * (1.0 - g1 * g1)
        s = c2 + vp * vp
        d = c2 - vp * vp
        e = 4.0 * vf * vf * vp * vp * g2 * g2 * (1.0 - g1)
        vt_f = np.sqrt((s + W) / 2.0)
        # s - W = (s^2 - W^2)/(s + W) with s^2 - W^2 = 4 c2 vp^2 - e exactly;
        # avoids cancellation near the stability boundary
        vt_p_sq = (4.0 * c2 * vp * vp - e) / (2.0 * (s + W))
        vt_p = np.sqrt(vt_p_sq)
        # vt_f^2 - c2 = (W - d)/2 and c2 - vt_p^2 = (W + d)/2, each computed
        # on its cancellation-free side via W^2 - d^2 = e
        gap_f = np.where(d > 0, e / (2.0 * (W + d)), (W - d) / 2.0)
        gap_p = np.where(d < 0, e / (2.0 * (W - d)), (W + d) / 2.0)
        den_f = 2.0 * np.sqrt(W) * np.sqrt(gap_f)
        den_p = 2.0 * np.sqrt(W) * np.sqrt(gap_p)
        rho_f = np.sqrt(vf / vt_f) * g2 * vp * (vt_f + vf * (1.0 - g1)) / den_f
        sigma_f = np.sqrt(vf / vt_f) * g2 * vp * (vt_f - vf * (1.0 - g1)) / den_f
        rho_p = -np.sqrt(vf / vt_p) * g2 * vp * (vt_p + vf * (1.0 - g1)) / den_p
        sigma_p = -np.sqrt(vf / vt_p) * g2 * vp * (vt_p - vf * (1.0 - g1)) / den_p
        # in the order a scalar evaluation meets them
        status = np.select(
            [~(np.isfinite(lam) & np.isfinite(g)) | np.logical_or(
                *instabilities(g1, g2)),
             W <= DEGENERACY_FLOOR * vf * vf,
             ~decoupled & (vt_p_sq < 0.0),
             ~decoupled & ((gap_f == 0.0) | (gap_p == 0.0)),
             ~decoupled & (vt_p == 0.0)],
            [_INVALID, _DEGENERATE, _BOUNDARY, _UNDERFLOW, _BOUNDARY], 0)
        vt_f = np.where(decoupled, vt_f0, vt_f)
        vt_p = np.where(decoupled, vp, vt_p)
        e0 = 0.5 * (vt_f - vf + vt_p - vp) * coupled_abs_p_sum(params.L,
                                                               params.a)
    sol = BogoliubovSolution(
        params=params, couplings=cpl, vtilde_f=vt_f, vtilde_p=vt_p,
        rho_f=np.where(decoupled, rho_f0, rho_f),
        rho_p=np.where(decoupled, 0.0, rho_p),
        sigma_f=np.where(decoupled, sigma_f0, sigma_f),
        sigma_p=np.where(decoupled, 0.0, sigma_p), e0=e0)
    return sol, status


def solve_closed_form(params: ModelParams) -> BogoliubovSolution:
    """closed_form at one point, with float fields; raises where the point
    has no solution (validate_params' errors first)."""
    import numpy as np
    validate_params(params)
    sol, status = closed_form(replace(params, lam=np.array([params.lam]),
                                      g=np.array([params.g])))
    cpl = DerivedCouplings(*(float(v[0]) for v in (
        sol.couplings.gamma1, sol.couplings.gamma2, sol.couplings.W)))
    if status[0] == _DEGENERATE:
        raise DegenerateBranches(
            f"W = {cpl.W:.3e} below the branch-identification floor")
    if status[0] == _BOUNDARY:
        raise UnstableCouplings(
            f"gamma2^2 = {cpl.gamma2 * cpl.gamma2:.6g} lies within rounding "
            f"of 1 + gamma1 = {1 + cpl.gamma1:.6g}: vtilde_P^2 rounds to "
            "zero or below")
    if status[0] == _UNDERFLOW:
        raise BadArgument(
            f"g = {params.g:.3g} is too small to resolve the branch "
            "mixing (g^2 underflows)")
    return BogoliubovSolution(
        params=params, couplings=cpl, vtilde_f=float(sol.vtilde_f[0]),
        vtilde_p=float(sol.vtilde_p[0]), rho_f=float(sol.rho_f[0]),
        rho_p=float(sol.rho_p[0]), sigma_f=float(sol.sigma_f[0]),
        sigma_p=float(sol.sigma_p[0]), e0=float(sol.e0[0]))


def _too_many(what: str, e_max: float) -> TruncationTooLarge:
    return TruncationTooLarge(f"more than {LEVEL_CAP} {what} lie below "
                              f"e_max = {e_max:.6g}; lower e_max")


def _grow(tree, modes, idx, node, spent, e_max, stored):
    """Append to `tree` every extension of `node` (energy `spent`) by boson
    occupations of modes[idx:] up to e_max, in preorder: each state before
    its extensions, modes ascending, occupations ascending.  `stored`
    counts the (flavor, m, n) entries of the tree's occupation tuples, each
    state holding its whole tuple; returns the new count."""
    parent, inc, occs = tree
    for i in range(idx, len(modes)):
        fl, m, e = modes[i]
        if spent + e > e_max:
            break
        n = 1
        while spent + n * e <= e_max:
            k = len(parent)
            occ = occs[node] + ((fl, m, n),)
            stored += len(occ)
            if stored > LEVEL_CAP:
                raise _too_many("boson occupations", e_max)
            parent.append(node)
            inc.append(n * e)
            occs.append(occ)
            stored = _grow(tree, modes, i + 1, k, spent + n * e, e_max,
                           stored)
            n += 1
    return stored


def _sectors(params: ModelParams, solution: BogoliubovSolution,
             e_max: float):
    """(q_plus, q_minus, m_p0, base energy) of every charge and zero-mode
    sector with a base energy up to e_max, in the order of their levels at
    one energy: q_plus and then q_minus descending, then m_p0 ascending."""
    g1 = solution.couplings.gamma1
    charge_scale = math.pi * params.v_f / params.L
    qmax = int(math.floor(math.sqrt(e_max / (charge_scale * (1.0 - abs(g1))))
                          )) + 1 if e_max > 0 else 0
    # row qp holds the q_minus with (q_minus + g1 qp)^2 <= e_max /
    # charge_scale - qp^2 (1 - g1^2); the slack covers the rounding of the
    # charge energy (under 28 ulp of qmax^2) and of this bound, so each row
    # is scanned over a superset of its sectors, not over all of [-qmax, qmax]
    slack = 1.0 + 1e-14 * qmax * qmax
    for qp in range(qmax, -qmax - 1, -1):
        center = -g1 * qp
        half = math.sqrt(max(0.0, e_max / charge_scale
                             - qp * qp * (1.0 - g1 * g1)) + slack)
        for qm in range(min(qmax, math.ceil(center + half) + 1),
                        max(-qmax, math.floor(center - half) - 1) - 1, -1):
            e_q = charge_scale * (qp * qp + qm * qm + 2.0 * g1 * qp * qm)
            mp0 = 0
            while e_q + mp0 * params.omega0 <= e_max:
                yield qp, qm, mp0, e_q + mp0 * params.omega0
                mp0 += 1


def degeneracies(energies: np.ndarray) -> np.ndarray:
    """The degeneracy of each of the ascending `energies`: a group is
    anchored at its first energy e and takes every following energy within
    1e-12 max(1, |e|) of e; each level gets the size of its group.  Runs of
    equal energies are compared once."""
    import numpy as np
    new = np.ones(len(energies), dtype=bool)
    new[1:] = energies[1:] != energies[:-1]
    starts = np.flatnonzero(new).tolist() + [len(energies)]
    values = energies[new].tolist()
    sizes = []
    a = 0
    while a < len(values):
        e = values[a]
        b = a + 1
        while b < len(values) and abs(values[b] - e) \
                <= 1e-12 * max(1.0, abs(e)):
            b += 1
        sizes.append(starts[b] - starts[a])
        a = b
    sizes = np.array(sizes, dtype=np.int64)
    return np.repeat(sizes, sizes)


def spectrum(params: ModelParams, solution: BogoliubovSolution, e_max: float,
             grid: MomentumGrid) -> Spectrum:
    """All eigenvalue labels with energy - E0 <= e_max, sorted ascending by
    energy, then by descending q_plus and q_minus, then by m_p0 and tree
    node (the order of a per-sector enumeration).

    A level is a charge pair, a phonon zero-mode level m_p0 and a set of
    boson occupations over grid modes; a mode m moves at vtilde_X if it
    couples (m <= n_a) and at the bare v_X otherwise.  The occupations form
    one tree, built once at budget e_max from energy 0 and shared by every
    (q_plus, q_minus, m_p0) sector.  The walk extends the kept (sector,
    node, energy) cells of one depth by their kept children only: a child's
    energy is its parent's plus its increment, the float addition of a
    per-sector enumeration, and fl(spent + inc) <= e_max is monotone in inc,
    so a cell keeps a prefix of its children in ascending increment, cut by
    bisection.  One lexsort on (energy, sector, node) orders the levels,
    `degeneracies` counts their groups, and the levels come back as the
    columns of a Spectrum.  Raises GridTooSmall when the grid disagrees
    with params, or when a mode outside the grid could still contribute
    below e_max; TruncationTooLarge once the entries of the tree's
    occupation tuples, or the levels, pass LEVEL_CAP (checked before a
    depth is stored); BadArgument when e_max is not finite.
    """
    if not math.isfinite(e_max):
        raise BadArgument(f"e_max must be finite, got {e_max}")
    check_grid(params, grid)
    import numpy as np
    spacing = TWO_PI / params.L
    # mode energies inside the grid; mode K + 1 must lie above e_max
    modes = []
    for flavor in ("F", "P"):
        m = 1
        while m <= grid.K + 1:
            coupled = m <= grid.n_a
            v = solution.vtilde(flavor) if coupled \
                else solution.v_bare(flavor)
            e = v * m * spacing
            if e > e_max:
                if not coupled:
                    break
                # the coupled modes above m cost more still
                m = grid.n_a + 1
                continue
            if m > grid.K:
                raise GridTooSmall(
                    f"mode |m| = {m} of flavor {flavor} still reaches "
                    f"e_max; enlarge K")
            modes.append((flavor, m, e))
            if 2 * len(modes) > LEVEL_CAP:
                raise _too_many("boson modes", e_max)
            m += 1
    # both signs of p carry independent occupations
    modes = [(fl, sgn * m, e) for (fl, m, e) in modes for sgn in (1, -1)]
    modes.sort(key=lambda t: t[2])
    # preorder lists: parent, energy increment, occupations
    tree = parent, inc, occs = [0], [0.0], [()]
    _grow(tree, modes, 0, 0, 0.0, e_max, 0)
    # node k's children in ascending increment: child[first[k]:][:fanout[k]]
    parent, inc = np.array(parent[1:], dtype=np.intp), np.array(inc[1:])
    child = np.lexsort((inc, parent))
    child_inc, child = inc[child], (child + 1).astype(np.int32)
    fanout = np.bincount(parent, minlength=len(occs))
    first = np.cumsum(fanout) - fanout
    # every sector keeps its root level; a sector's index in _sectors' order
    # is its levels' sort key among equal energies
    found = np.array(list(itertools.islice(_sectors(params, solution, e_max),
                                           LEVEL_CAP + 1))).reshape(-1, 4)
    count = len(found)
    if count > LEVEL_CAP:
        raise _too_many("levels", e_max)
    labels = found[:, :3].astype(np.int64)
    cells = [(np.arange(count, dtype=np.int32), np.zeros(count, np.int32),
              found[:, 3])]
    while len(cells[-1][0]):
        sector, node, spent = cells[-1]
        lo = first[node]
        cut, hi = lo.copy(), lo + fanout[node]
        live = np.flatnonzero(cut < hi)
        while len(live):
            mid = (cut[live] + hi[live]) >> 1
            fits = spent[live] + child_inc[mid] <= e_max
            cut[live] = np.where(fits, mid + 1, cut[live])
            hi[live] = np.where(fits, hi[live], mid)
            live = live[cut[live] < hi[live]]
        kept = cut - lo
        count += int(kept.sum())
        if count > LEVEL_CAP:
            raise _too_many("levels", e_max)
        # cell `of` of this depth and the child position `at` of each new one
        of = np.repeat(np.arange(len(node)), kept)
        at = np.arange(len(of)) + np.repeat(lo + kept - np.cumsum(kept), kept)
        cells.append((sector[of], child[at], spent[of] + child_inc[at]))
    sector, node, energy = (np.concatenate(column) for column in zip(*cells))
    del cells
    energy += solution.e0
    order = np.lexsort((node, sector, energy))
    energy, sector, node = energy[order], sector[order], node[order]
    del order
    q_plus, q_minus, m_p0 = labels[sector].T
    return Spectrum(q_plus=q_plus, q_minus=q_minus, m_p0=m_p0, node=node,
                    energy=energy, degeneracy=degeneracies(energy),
                    occupations=occs)
