"""Oracles the tests hold the engine to: second routes to a result and
closed forms the engine itself has no use for."""

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from fermiphon.bogoliubov import BogoliubovSolution, Spectrum
from fermiphon.correlators import (FLAVORS, CorrelatorSpec, InsertionPoint,
                                   klein_sign, npoint_continuum)
from fermiphon.errors import (BadArgument, FermiphonError, ModeOutOfWindow,
                             ZeroMode)
from fermiphon.focklab import (SUPPORTED_IDENTITIES, FockSpace,
                               SparseOperator, density_op, field_op,
                               identity_residual, klein_factor)
from fermiphon.focklab.operators import _accumulate, _diagonal, linear
from fermiphon.focklab.reconstruction import _cached
from fermiphon.focklab.space import twice
from fermiphon.vertex import (CHANNELS, _DIRECT_SUM_MAX, _U, VertexFactor,
                              _direct_rounding, _euler_maclaurin_log_sums)


class SelectionViolated(FermiphonError):
    """Charge selection rule not satisfied by the insertion word."""


class SingularConfiguration(FermiphonError):
    """Singular input configuration (e.g. sin(U_n - V_m) = 0)."""


# --------------------------------------------------------------------------
# spectrum levels one at a time


class SpectrumEntry(NamedTuple):
    """One eigenstate label set with its exact eigenvalue."""

    q_plus: int
    q_minus: int
    m_p0: int
    occupations: Tuple[Tuple[str, int, int], ...]  # (flavor, m, occupation)
    energy: float
    degeneracy: int


def spectrum_entries(levels: Spectrum) -> List[SpectrumEntry]:
    """The levels of a Spectrum as entries in spectrum order, each tree
    node's occupations built as its parent's plus its own label."""
    occupations = [()]
    for up, label in zip(levels.parent[1:], levels.label[1:]):
        occupations.append(occupations[up] + (label,))
    columns = (levels.q_plus, levels.q_minus, levels.m_p0, levels.node,
               levels.energy, levels.degeneracy)
    return [SpectrumEntry(qp, qm, mp0, occupations[node], energy, deg)
            for qp, qm, mp0, node, energy, deg in zip(
                *(column.tolist() for column in columns))]


# --------------------------------------------------------------------------
# continuum correlators


def two_point(r: int, x: float, t: float, sol: BogoliubovSolution,
              ell: float = 1.0, regulator: float = 1e-8) -> complex:
    """<psi_r(x,t) psi_r^dag(0,0)> in the continuum/thermodynamic limits."""
    spec = CorrelatorSpec(
        insertions=(InsertionPoint(r=r, q=-1, x=x, t=t),
                    InsertionPoint(r=r, q=+1, x=0.0, t=0.0)),
        ell=ell, regulator=regulator)
    return npoint_continuum(spec, sol)


def regulated_power(ell: float, r: int, x: float, t: float, v: float,
                    exponent: float, regulator: float) -> complex:
    """(i ell / (r x - v t + i 0+))^exponent with the principal branch, one
    factor at a time.  Raises BadArgument when the base underflows to 0."""
    z = 1j * ell / (r * x - v * t + 1j * regulator)
    if exponent == 0.0:
        return 1.0 + 0.0j
    if z == 0:
        raise BadArgument(f"i ell / (r x - v t + i reg) underflows to 0 at "
                          f"ell = {ell:.3g}, pair separation x = {x:.3g}, "
                          f"t = {t:.3g}")
    return cmath.exp(exponent * cmath.log(z))


def sum_rules(word: Sequence[Tuple[int, int]]) -> dict:
    """Charge-pair sums over a selection-passing word: same-chirality pairs
    sum to -N/2 and cross-chirality pairs to 0."""
    if klein_sign(word) == 0:
        raise SelectionViolated("word does not pass charge selection")
    same = cross = 0
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n):
            if word[i][0] == word[j][0]:
                same += word[i][1] * word[j][1]
            else:
                cross += word[i][1] * word[j][1]
    return {"same": same, "cross": cross}


def order_correlator(kind: str, x: float, t: float, sol: BogoliubovSolution,
                     ell: float = 1.0, regulator: float = 1e-8) -> complex:
    """CDW or SC order-parameter correlator:
    (1 / 2 pi ell)^2 prod_X (ell^2 / (x^2 - (vtilde_X t - i0+)^2))^((rho -+ sigma)^2).
    """
    if kind not in ("CDW", "SC"):
        raise BadArgument("kind must be 'CDW' or 'SC'")
    out = (1.0 / (2.0 * math.pi * ell)) ** 2
    for flavor in FLAVORS:
        rho, sigma = sol.rho(flavor), sol.sigma(flavor)
        c = (rho - sigma) ** 2 if kind == "CDW" else (rho + sigma) ** 2
        w = x * x - (sol.vtilde(flavor) * t - 1j * regulator) ** 2
        out *= cmath.exp(c * cmath.log(ell * ell / w))
    return out


def _det(mat: List[List[complex]]) -> complex:
    """Exact cofactor-expansion determinant for small matrices."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    out = 0.0 + 0.0j
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = mat[0][j] * _det(minor)
        out += term if j % 2 == 0 else -term
    return out


def cauchy_residual(U: Sequence[float], V: Sequence[float]) -> float:
    """|product form - det(1/sin(U_n - V_m))| for the sine-kernel Cauchy
    determinant identity; cofactor expansion, lists of length M <= 8."""
    M = len(U)
    if M != len(V) or not (1 <= M <= 8):
        raise BadArgument("need equal-length lists with 1 <= M <= 8")
    for u in U:
        for v in V:
            if abs(math.sin(u - v)) < 1e-14:
                raise SingularConfiguration(f"sin({u} - {v}) ~ 0")
    num = 1.0
    for n in range(M):
        for m in range(n + 1, M):
            num *= math.sin(U[n] - U[m]) * math.sin(V[m] - V[n])
    den = 1.0
    for u in U:
        for v in V:
            den *= math.sin(u - v)
    prod_form = num / den
    kernel = [[1.0 / math.sin(u - v) for v in V] for u in U]
    return abs(prod_form - _det(kernel))


# --------------------------------------------------------------------------
# vertex mode sums, one zeta and one pair at a time


def log_sums(zeta: complex, n: int) -> Tuple[complex, complex, float]:
    """(S, T, err) of one zeta, the head summed by its own np.sum."""
    if zeta == 0:
        return 0.0j, 0.0j, 0.0
    if n > _DIRECT_SUM_MAX:
        return _euler_maclaurin_log_sums(zeta, n)
    m = np.arange(1, n + 1, dtype=np.float64)
    head = complex(np.sum(zeta ** m / m))
    err = _direct_rounding([zeta], n)[0]
    if zeta == 1.0:
        return head, complex(math.inf), err
    log_term = -cmath.log(1.0 - zeta)
    return head, log_term - head, err + 2.0 * _U * (abs(log_term) + 1.0)


def _channel_contraction(ch, v1: VertexFactor, v2: VertexFactor):
    """c_channel = sum_{p>0} (2 pi / L) p alpha_1(-r' p) alpha_2(r' p): the
    head of the log series over the inside region, its tail over the
    outside region.  Returns (value, err)."""
    total = 0.0j
    err = 0.0
    regions = ((v1.inside[ch], v2.inside[ch]),
               (v1.outside[ch], v2.outside[ch]))
    for region, (p1, p2) in enumerate(regions):
        amp = p1.amp * p2.amp
        if amp != 0.0:
            zeta = cmath.exp(v1.spacing * (1j * ch[0] * (p1.u - p2.u)
                                           - (p1.eps + p2.eps) / 2))
            sums = log_sums(zeta, v1.n_a)
            total += amp * sums[region]
            err += abs(amp) * sums[2]
    return total, err


def pair_contraction(v1: VertexFactor, v2: VertexFactor):
    """Contraction constant C(v1, v2), one channel at a time.  Returns
    (value, err) with err a bound on the absolute error of log(value)."""
    phase = 0.0j
    for i, rho in enumerate((+1, -1)):
        phase += 0.5j * (v1.zero_c[i] * v2.charge(rho)
                         - v2.zero_c[i] * v1.charge(rho))
    c_total = 0.0j
    err = 0.0
    for ch in CHANNELS:
        c, e = _channel_contraction(ch, v1, v2)
        c_total += c
        err += e
    err += 4.0 * _U * (abs(phase) + abs(c_total) + 1.0)
    return cmath.exp(phase - c_total), err


# --------------------------------------------------------------------------
# lab routes only the tests take


def mode_position(space: FockSpace, r: int, nu) -> int:
    """The bit of fermion mode (r, nu) in the space's canonical order."""
    return space.positions[(r, twice(nu))]


def has_mode(space: FockSpace, r: int, nu) -> bool:
    """Whether fermion mode (r, nu) lies in the window."""
    return (r, twice(nu)) in space.positions


def edge(space: FockSpace) -> Fraction:
    """Largest |nu| in the window."""
    return Fraction(2 * space.K - 1, 2)


def free_hamiltonian(space: FockSpace) -> SparseOperator:
    """H0 = sum_{r, k} |k| c^dag c over the window, diagonal, in units
    2 pi / L (an int or a Fraction per state); the lab's identities use
    `twice_hamiltonian`, 2 H0."""
    return _diagonal(space, space.energy)


# --------------------------------------------------------------------------
# products and sums through dict columns


def dict_product(left: SparseOperator,
                 right: SparseOperator) -> SparseOperator:
    """left @ right read off dict columns only: a column is None unless every
    basis state reached by right's column is a column of left inside its
    validity window (one scan before any product), and otherwise adds left's
    columns scaled by right's entries, in right's entry order."""
    def column(c):
        col = right.cols[c]
        if col is None or any(left.cols[r] is None for r in col):
            return None
        out = {}
        for r, amp in col.items():
            _accumulate(out, left.cols[r], amp)
        return out
    return SparseOperator(left.space, column)


def dict_linear(space: FockSpace, *terms) -> SparseOperator:
    """The sum of scale * op over the (scale, op) terms, each term's dict
    column added left to right; None where any term's column is None."""
    def column(c):
        out = {}
        for scale, op in terms:
            col = op.cols[c]
            if col is None:
                return None
            _accumulate(out, col, scale)
        return out
    return SparseOperator(space, column)


# --------------------------------------------------------------------------
# densities


def density_from_fields(space: FockSpace, r: int, m: int) -> SparseOperator:
    """J-hat_r(p) at p = (2 pi / L) m built in the operator algebra: the
    linear combination of the products psi^dag_r(k) psi_r(k + p) with
    |k + p/2| <= edge - |p|/2 (both modes in the window), in descending k,
    each followed by -1 for m = 0 and r k < 0 (the vacuum part)."""
    cutoff = edge(space) - Fraction(abs(m), 2)
    terms = []
    for nu in space.fermion_modes():
        if abs(nu + Fraction(m, 2)) > cutoff:
            continue
        terms.append((1, field_op(space, r, nu, dagger=True)
                      @ field_op(space, r, nu + m)))
        if m == 0 and r * nu < 0:
            terms.append((-1, SparseOperator.identity(space)))
    return linear(space, *terms)


# --------------------------------------------------------------------------
# boson ladder operators


def exact_sqrt(s: Fraction) -> Fraction:
    """The rational square root of s; ValueError unless s is the square of a
    rational."""
    num, den = math.isqrt(s.numerator), math.isqrt(s.denominator)
    if num * num != s.numerator or den * den != s.denominator:
        raise ValueError(f"{s} is not the square of a rational")
    return Fraction(num, den)


def boson_ladder(space: FockSpace, m: int,
                 dagger=False) -> Tuple[SparseOperator, complex, Fraction]:
    """(op, phase, s) with b(p) = phase sqrt(s) op at p = (2 pi / L) m != 0,
    phase = -i or +i and s = 1 / |m|.

    b(p) = -i sqrt(2 pi / (L |p|)) J_+(p) for p > 0 and
    b(p) = +i sqrt(2 pi / (L |p|)) J_-(p) for p < 0, and 2 pi / (L |p|) is
    1 / |m|; op is the density, a matrix over Q.  b^dag(p) has the
    conjugate phase and uses J_r(p)^dag = J_r(-p), which holds entrywise on
    the whole truncated space.
    """
    if m == 0:
        raise ZeroMode("boson ladder operators need p != 0")
    r = +1 if m > 0 else -1
    phase = -1j if m > 0 else 1j
    s = Fraction(1, abs(m))
    if dagger:
        phase, m = phase.conjugate(), -m
    return density_op(space, r, m), phase, s


# --------------------------------------------------------------------------
# Klein factors


def klein_apply(space: FockSpace, r: int, shift: int, mask: int):
    """Image of a basis state under R_r (shift=+1) or R_r^dagger (shift=-1),
    built as the product of fermion operators the Klein factor makes of the
    state's occupied modes, applied one at a time to R_r^{shift} Omega.

    Returns (vector dict or None); None marks a column outside the validity
    window (a shifted mode would leave the truncation).
    """
    half = Fraction(1, 2)
    special_src = -shift * half      # the mode that turns into an annihilator
    born = shift * half              # mode created from the vacuum by R(^dag)
    ops = []                         # (dagger, r_op, nu) in product order
    for pos in range(space.nmodes):
        if not (mask >> pos) & 1:
            continue
        rr = +1 if pos < 2 * space.K else -1
        nu = space.fermion_modes()[pos % (2 * space.K)]
        if rr != r:
            ops.append((True, rr, nu))
        elif nu == special_src:
            ops.append((False, r, born))
        else:
            nu2 = nu + shift
            if not has_mode(space, r, nu2):
                return None
            ops.append((True, r, nu2))
    # anticommuting R past each opposite-chirality creator gives one -1
    n_opp = sum(1 for dag, rr, _ in ops if rr != r)
    sign = -1 if n_opp & 1 else 1
    # start from R_r^{shift} Omega = c^dag_r(born) Omega
    vec_mask, vec_sign = space.move(0, mode_position(space, r, born), True)
    vec = {vec_mask: sign * vec_sign}
    for dag, rr, nu in reversed(ops):
        pos = mode_position(space, rr, nu)
        out = {}
        for m0, amp in vec.items():
            new, s = space.move(m0, pos, dag)
            if new is not None:
                out[new] = amp * s
        vec = out
        if not vec:
            break
    return vec


# --------------------------------------------------------------------------
# field reconstruction


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int):
    """Partitions of n with parts <= max_part as descending tuples."""
    if n == 0:
        return ((),)
    out = []
    for part in range(min(n, max_part), 0, -1):
        for rest in partitions(n - part, part):
            out.append((part,) + rest)
    return tuple(out)


def apply_u(space: FockSpace, ops: dict, r: int, parts, s: int,
            vec: dict) -> dict:
    """One partition's term of U_r: prod_m (s / m)^{c_m} / c_m! J_r(s r m)^{c_m}
    applied to vec, largest part first; s = +1 for nu-, -1 for nu+.  The
    densities are kept in `ops` as `reconstructed_field` keeps them."""
    coef = Fraction(1)
    for m in set(parts):
        c = parts.count(m)
        coef *= Fraction(s ** c, m ** c * math.factorial(c))
    out = vec
    for m in parts:
        if m > 2 * space.K - 1:
            raise ModeOutOfWindow(
                f"density mode {m} exceeds the truncated window")
        out = _cached(ops, space, density_op, r, s * r * m).apply_col(out)
        if not out:
            return {}
    return _accumulate({}, out, coef)


def partition_reconstructed_field(space: FockSpace, r: int, nu,
                                  state_index: int, ops=None) -> dict:
    """V_r(k) applied to one basis state as the sum over every pair of a
    nu- partition and a nu+ partition, one chain of densities per pair;
    `ops` keeps the densities between calls, as in `reconstructed_field`."""
    ops = {} if ops is None else ops
    nu = Fraction(nu)
    if not has_mode(space, r, nu):
        raise ModeOutOfWindow(f"target momentum nu={nu} outside window")
    phi = klein_factor(space, r, dagger=(r == +1)).cols[state_index]
    if phi is None:
        raise ModeOutOfWindow("Klein shift leaves the window for this state")
    delta = space.charge(state_index, r) - Fraction(1, 2) - r * nu
    if delta.denominator != 1:
        return {}
    e_phi = max(space.energy(i) for i in phi)
    result = {}
    for n_minus in range(int(e_phi) + 1):
        n_plus = n_minus + int(delta)
        if n_plus < 0:
            continue
        for parts_minus in partitions(n_minus, max(n_minus, 1)):
            lowered = apply_u(space, ops, r, parts_minus, +1, phi)
            if not lowered:
                continue
            for parts_plus in partitions(n_plus, max(n_plus, 1)):
                _accumulate(result, apply_u(space, ops, r, parts_plus, -1,
                                            lowered))
    return result


# --------------------------------------------------------------------------
# the Fock lab's identities: the whole suite, and the triple product in
# floating point


def run_identity_suite(space: FockSpace):
    """Run the full suite; returns a list of IdentityReport."""
    return [identity_residual(space, name) for name in SUPPORTED_IDENTITIES]


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
