"""Normal-ordering calculus for multi-flavor vertex operators.

A regularized Heisenberg field of the interacting model is one vertex
factor: a Klein letter, zero-mode phase data, and per-channel boson-mode
coefficients alpha_{r,X}(p) = A e^{-i p u - eps |p| / 2} / (i p), with one
(A, u) on the n_a coupled modes and another beyond.  Products of factors
normal-order into a scalar prefactor built from pairwise contractions

    c = sum_{p > 0} (2 pi / L) p alpha_1(-r p) alpha_2(r p)

per channel; the piecewise structure splits each contraction into the head
(the n_a interior modes) and the tail of a log series summing to
-log(1 - zeta).  Up to 400 modes the head is added directly; beyond, the
tail comes from an Euler-Maclaurin closed form anchored on the exponential
integral E1, so a contraction costs the same at any n_a; E1 comes from its
asymptotic series where its argument has modulus at least 40, and from its
power series or its continued fraction below, all in floats, and the
Bernoulli numbers of the closed form from integer tangent numbers.  Every
mode sum carries a derived bound on its error (rounding, the
Euler-Maclaurin remainder and the error of E1), and finite_correlator
reports their total.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .bogoliubov import BogoliubovSolution
from .correlators import (CorrelatorSpec, check_positions, klein_sign,
                          sweep_blocks)
from .errors import BadRegulator, GridTooSmall
from .params import (TWO_PI, ModelParams, MomentumGrid, check_grid,
                     mode_count)

EULER_GAMMA = 0.5772156649015329

CHANNELS = tuple((r, fl) for r in (+1, -1) for fl in ("F", "P"))

_U = 2.0 ** -53                  # unit roundoff of float64

# Mode sums with at most this many terms are added directly; longer ones use
# the Euler-Maclaurin closed form, whose cost does not depend on n.  Measured
# per sum in process on a 2-core Xeon (numpy 2.4): the direct sum costs
# 0.27 us per term at 400 terms (0.03 below 100, where numpy's power
# multiplies repeatedly); the closed form costs 7-18 us where its E1
# argument N |w| is at least _E1_SERIES_MIN, 6-17 us where E1 comes from its
# power series and 25-180 us from its continued fraction (slowest just
# above |N w| = 1 near the real axis and near |N w| = 1.8 on the imaginary
# one, where the series hands over).  For |w| from 0.16 to 1.6
# the two cross near 200 terms; for |w| below 0.1 past 400.
_DIRECT_SUM_MAX = 400

# Direct sums run over blocks of this many terms (128 KiB).
_HEAD_BLOCK_TERMS = 1 << 13

# E1 comes from its asymptotic series (_e1) at |z| >= _E1_SERIES_MIN, and
# from its power series or continued fraction (_e1_small) below.  The
# asymptotic series reaches float precision where its smallest term,
# min_k k! / |z|^k, is at most u; at integer |z| = R that is R! / R^R
# (about sqrt(2 pi R) e^{-R}), and it falls as |z| grows: R = 40.
_E1_SERIES_MIN = float(next(r for r in range(1, 100)
                            if math.factorial(r) / r ** r <= _U))

_TINY = 5e-324                  # smallest subnormal float64, 2^-1074

# Bernoulli terms shrink like (|w| / 2 pi)^{2k} <= 4^{-k} for |Im w| <= pi,
# so about 27 reach rounding; the cap leaves room for Re w > 0.
_MAX_BERNOULLI = 60


class ModePiece(NamedTuple):
    """alpha(p) = amp * e^{-i p u} e^{-eps |p| / 2} / (i p) on one region."""

    amp: complex
    u: float
    eps: float


@dataclass(frozen=True)
class VertexFactor:
    """One regularized field insertion in vertex-operator form."""

    prefactor: complex
    klein: Tuple[Tuple[int, int], ...]          # (chirality r, q)
    zero_c: Tuple[complex, complex]             # exponent coeffs of (Q_+, Q_-)
    inside: Dict[Tuple[int, str], ModePiece]    # channel -> modes m <= n_a
    outside: Dict[Tuple[int, str], ModePiece]   # channel -> modes m > n_a
    n_a: int
    spacing: float
    rounding: float             # bound on the relative error of prefactor

    def charge(self, rho: int) -> int:
        """Q_rho charge carried by the Klein word."""
        return sum(q for r, q in self.klein if r == rho)


@dataclass
class NormalOrderedProduct:
    prefactor: complex
    klein: Tuple[Tuple[int, int], ...]
    rounding: float             # bound on the relative error of prefactor


def field_vertex(r: int, q: int, x: float, t: float, eps: float,
                 sol: BogoliubovSolution, grid: MomentumGrid) -> VertexFactor:
    """Vertex-operator form of the interacting Heisenberg field psi^q_r(x,t).

    Klein letter (r, q), the factor R_r^{q r}; zero-mode phase
    -2 pi q ((r x - v_F t) Q_r + gamma1 v_F t Q_{-r}) / L; channel (r, X)
    coefficients q r rho_X(p) with phases e^{-i p (x - r vtilde_X(p) t)} and
    channel (-r, X) coefficients -q r sigma_X(p) with x + r vtilde_X(p) t,
    all damped by e^{-eps |p| / 2}; scalar prefactor Z_{a,eps} / sqrt(L).
    Raises GridTooSmall when the grid's L or n_a is not the model's.
    """
    if eps <= 0:
        raise BadRegulator("eps must be positive")
    params = sol.params
    check_grid(params, grid)
    L = params.L
    vf = params.v_f
    g1 = sol.couplings.gamma1
    zp = -(TWO_PI * q / L) * ((x - vf * t) if r == +1 else g1 * vf * t)
    zm = -(TWO_PI * q / L) * ((-x - vf * t) if r == -1 else g1 * vf * t)
    inside = {}
    outside = {}
    for flavor in ("F", "P"):
        inside[(r, flavor)] = ModePiece(
            amp=q * r * sol.rho(flavor), u=x - r * sol.vtilde(flavor) * t,
            eps=eps)
        inside[(-r, flavor)] = ModePiece(
            amp=-q * r * sol.sigma(flavor), u=x + r * sol.vtilde(flavor) * t,
            eps=eps)
        out_amp = q * r if flavor == "F" else 0.0
        outside[(r, flavor)] = ModePiece(
            amp=out_amp, u=x - r * sol.v_bare(flavor) * t, eps=eps)
        outside[(-r, flavor)] = ModePiece(amp=0.0, u=0.0, eps=eps)
    z = z_renorm(params, sol, eps)
    return VertexFactor(
        prefactor=z["Z"] / math.sqrt(L), klein=((r, q),),
        zero_c=(complex(zp), complex(zm)), inside=inside, outside=outside,
        n_a=grid.n_a, spacing=TWO_PI / L, rounding=z["rounding"] + 2.0 * _U)


def _direct_rounding(zetas: Sequence[complex], n: int) -> List[float]:
    """Worst-case rounding of sum_{m=1}^{n} zeta^m / m added in floats, for
    each zeta in zetas (0 for zeta = 0, whose terms all underflow).

    Each term zeta^m / m carries a relative error of at most
    (3 m + m |w| + 3) u, with w = -log zeta and u the unit roundoff (numpy's
    complex power multiplies repeatedly below m = 100 and evaluates
    exp(m log zeta) above); summing n terms in any order adds at most
    (n - 1) u sum |terms|, and sum |terms| <= H_n <= log n + 1.  Together:
    u ((3 + |w|) n + (n + 2) (log n + 1)).
    """
    log = cmath.log
    harmonic = (n + 2) * (math.log(max(n, 1)) + 1.0)
    return [_U * ((3.0 + abs(log(zeta))) * n + harmonic) if zeta else 0.0
            for zeta in zetas]


def _e1(z: complex) -> Tuple[complex, float]:
    """E1(z) for Re z >= 0 and |z| >= _E1_SERIES_MIN, and a bound on its
    absolute error.

    e^z z E1(z) = sum_{k<n} (-1)^k k! / z^k + rho_n (DLMF 6.12.1), with
    |rho_n| <= n! / |z|^n: by DLMF 6.2.2, E1(z) = e^{-z} int_0^inf
    e^{-t} / (t + z) dt, and |t + z| >= |z| for t >= 0 and Re z >= 0.
    Terms are added while that bound is at least u / 4 and n + 1 < |z|
    (beyond, the terms grow); at |z| >= _E1_SERIES_MIN the last bound is
    at most u.

    Rounding, by running error analysis (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3), to first order in u:
    * term k, the product of j (-1/z) over j = 1 .. k, carries 9k u of
      relative error (-1/z within 5u; per factor, the real product u and
      the complex one sqrt(5) u);
    * adding it to the running sum of the terms k >= 1 costs u times that
      sum, and adding the sum to 1 costs u |S|;
    * e^{-z} (exp, cos and sin each within one ulp: 5u) and the two complex
      products of e^{-z} (1/z) S add 15u of the value; 16u covers that
      and every second-order term.
    Where e^{-z} is subnormal or underflows to 0 the value loses its
    relative precision, but its absolute error stays below the smallest
    subnormal float, which the bound adds.
    """
    az = abs(z)
    r = -1.0 / z
    term = 1.0 + 0.0j
    tail = 0.0j                 # sum of the terms k >= 1
    rounding = 0.0              # in units of u
    n, bound = 1, 1.0 / az      # terms k < n are in; bound = n! / |z|^n
    while bound >= _U / 4 and n + 1 < az:
        term *= n * r
        tail += term
        rounding += 9.0 * n * abs(term) + abs(tail)
        n += 1
        bound *= n / az
    total = 1.0 + tail
    err = bound + _U * (rounding + abs(total))
    value = -cmath.exp(-z) * (r * total)
    return value, (16.0 * _U + err / abs(total)) * abs(value) + _TINY


def _e1_small(z: complex) -> Tuple[complex, float]:
    """E1(z) for Re z >= 0 and 0 < |z| < _E1_SERIES_MIN, and a bound on its
    absolute error.

    The power series (_e1_power) is taken below |z| = 1, and up to |z| = 2
    wherever its bound is at most 63u of its value: near the imaginary
    axis, where it cancels least (its bound is 30-76u |E1| at |z| from 1 to
    2 on that axis, against 61-485u on the real one).  The continued
    fraction (_e1_fraction) is taken elsewhere; it needs the most levels
    (about 230) just above |z| = 1 near the imaginary axis, which the
    series takes from it."""
    az = abs(z)
    if az < 2.0:
        value, bound = _e1_power(z)
        if az < 1.0 or bound <= 63.0 * _U * abs(value):
            return value, bound
    return _e1_fraction(z)


def _e1_power(z: complex) -> Tuple[complex, float]:
    """E1(z) for Re z >= 0 and 0 < |z| < 2 from its power series (DLMF
    6.6.2), and a bound on its absolute error.

    E1(z) = -gamma - log z - sum_{k>=1} b_k (-z)^k, b_k = 1 / (k k!), is
    cut after K terms, where the rest is at most
    2 |z|^{K+1} / ((K + 1) (K + 1)!) (its terms fall by half or more:
    |z| k / (k + 1)^2 <= 1 / 2 for |z| <= 2); the polynomial is evaluated
    by Horner's rule.

    Rounding, by running error analysis (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3), to first order in u:
    * a Horner step q <- b_k + (-z) q: the product within sqrt(5) u < 3u,
      the sum and b_k within u each, and the error carried so far times
      |z|;
    * log z: its real part within 2u |log |z|| + 6u (hypot and log each
      within one ulp; CPython takes log1p of (a - 1)(a + 1) + b^2 for
      |z| in [0.71, 1.73], a within 3u (a^2 + b^2) <= 6u), its imaginary
      part (atan2) within 2u |arg z|: together 3u |log z| + 6u; gamma within
      u / 2, and each subtraction u of its result.
    """
    az = abs(z)
    r = -z
    terms, mag = 1, az          # mag = |z|^K / K!
    while 2.0 * mag * az / (terms + 1) ** 2 > _U / 16:
        terms += 1
        mag *= az / terms
    # b_k by int true division, correctly rounded
    q = 1 / (terms * math.factorial(terms))
    rounding = q                # in units of u
    for k in range(terms - 1, 0, -1):
        b = 1 / (k * math.factorial(k))
        p = r * q
        q = b + p
        rounding = az * rounding + 3.0 * abs(p) + abs(q) + b
    s = r * q
    log = cmath.log(z)
    head = -EULER_GAMMA - log
    value = head - s
    rounding = az * rounding + 3.0 * abs(s) + 3.0 * abs(log) + 6.5 \
        + abs(head) + 3.0 * abs(value)
    return value, 2.0 * mag * az / (terms + 1) ** 2 + _U * rounding


def _e1_fraction(z: complex) -> Tuple[complex, float]:
    """E1(z) for Re z >= 0 and 1 <= |z| < _E1_SERIES_MIN from its continued
    fraction (DLMF 6.9.1), and a bound on its absolute error.

    e^z E1(z) = 1/(z + 1/(1 + 1/(z + 2/(1 + 2/(z + ...))))) is a Stieltjes
    fraction in w = 1/z with partial numerators a_1 w, a_k = floor(k / 2).
    For |arg w| <= pi / 2 its approximants f_n obey
    |e^z E1(z) - f_n| <= |f_n - f_{n-1}| (Henrici and Pfluger, Numer. Math.
    9, 1966; Cuyt et al., Handbook of Continued Fractions for Special
    Functions, 2008, ch. 14), and
    |f_n - f_{n-1}| = prod_{k<=n} a_k |w| / |B_n B_{n-1}|.  A forward pass
    carries that difference through h_n = B_n / B_{n-1} =
    1 + a_n w / h_{n-1} up to the first even n = 2m where it is below
    u / (16 (|z| + 2)), about u / 16 of the value; the bound charges twice
    it, which covers its own rounding.  f_{2m} is the m-level even part
    1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))), evaluated backward:
    T_{m-1} = z + 2m - 1, T_j = z + 2j + 1 - (j + 1)^2 / T_{j+1},
    f_{2m} = 1 / T_0.

    Rounding, by running error analysis (as in _e1_power), to first order
    in u: a backward step costs z + 2j + 1 within u of its real part, the
    real by complex division (CPython's Smith algorithm) within 5u, the
    subtraction u of T_j, and the error of T_{j+1} carried by
    (j + 1)^2 / (|T_{j+1}| (|T_{j+1}| - its bound)) (rigorous while that
    bound is below |T_{j+1}|); 1 / T_0 adds 5u, e^{-z} (exp, cos and sin
    each within one ulp) 5u and the product sqrt(5) u < 3u of the value.
    2u of the value covers every second-order term.  e^{-z} is normal on
    this domain (|e^{-z}| >= e^{-40}).
    """
    az = abs(z)
    w = 1.0 / z
    aw = abs(w)
    target = _U / (16.0 * (az + 2.0))
    h, ah = 1.0 + 0.0j, 1.0         # h_1 = B_1 / B_0
    diff, n = aw, 1                 # diff = |f_n - f_{n-1}|
    while n % 2 or diff > target:
        n += 1
        h_next = 1.0 + (n // 2) * w / h
        ah_next = abs(h_next)
        diff *= (n // 2) * aw / (ah_next * ah)
        h, ah = h_next, ah_next
    m = n // 2
    c = z.real + (2 * m - 1)
    t = complex(c, z.imag)
    err = _U * abs(c)               # bounds |computed T_j - T_j|
    for j in range(m - 2, -1, -1):
        num = float((j + 1) ** 2)
        c = z.real + (2 * j + 1)
        q = num / t
        at = abs(t)
        carry = num / (at * (at - err))
        t = complex(c, z.imag) - q
        err = _U * (abs(c) + 5.0 * abs(q) + abs(t)) + carry * err
    at = abs(t)
    f = 1.0 / t
    ex = cmath.exp(-z)
    value = ex * f
    f_err = 2.0 * diff + err / (at * (at - err)) + 13.0 * _U * abs(f)
    return value, abs(ex) * f_err + 2.0 * _U * abs(value)


@lru_cache(maxsize=1)
def _bernoulli_ratios() -> Tuple[float, ...]:
    """B_{2k} / (2k) for k = 1 .. _MAX_BERNOULLI.

    B_{2k} = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers
    T_k, built in integers as Knuth and Buckholtz (Math. Comp. 21, 1967)
    build them; int true division rounds B_{2k} correctly, and the float
    division by 2k rounds once more."""
    n = _MAX_BERNOULLI
    tangent = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return tuple((-1) ** (k - 1) * 2 * k * tangent[k]
                 / (4 ** k * (4 ** k - 1)) / (2 * k) for k in range(1, n + 1))


def _euler_maclaurin_log_sums(zeta: complex,
                              n: int) -> Tuple[complex, complex, float]:
    """Head S_n = sum_{m<=n} zeta^m / m and tail T = sum_{m>n} zeta^m / m
    in O(1) work, with a bound on the absolute error of either.

    With zeta = e^{-w} (Im w in (-pi, pi], Re w >= 0) and N = n + 1,
    Euler-Maclaurin on f(x) = e^{-w x} / x (DLMF 2.10.1) gives
    T = E1(N w) + f(N) / 2 - sum_k B_{2k} / (2k)! f^{(2k-1)}(N), and
    S_n = -log(1 - zeta) - T.  The Taylor coefficients
    c_j = f^{(j)}(N) / j! obey c_j = -c_{j-1} / N + f(N) (-w)^j / j!, so
    the k-th term is B_{2k} / (2k) c_{2k-1}; terms shrink like
    (|w| / 2 pi)^{2k} and are added until they fall below rounding.  At
    w = 0 the tail diverges and the same terms give the harmonic number
    S_n = H_n = log N + gamma - f(N) / 2 + sum_k B_{2k} / (2k) c_{2k-1}.

    The error bound adds three parts:
    * the remainder after p Bernoulli terms, at most
      2 zeta(2p) / (2 pi)^{2p} int_N^inf |f^{(2p)}|, where
      int_N^inf |f^{(j)}| <= e^{-N Re w} (|w|^j log(1 + 1 / (N Re w))
      + ((|w| + j / N)^j - |w|^j) / j) by DLMF 6.8.2 and
      (i - 1)! <= j^{i - 1};
    * the error of E1(N w): the bound that _e1 returns at
      |N w| >= _E1_SERIES_MIN, and the bound of _e1_small below;
    * float rounding: w = -log zeta carries a relative error of about 2u,
      which moves T by |zeta^N / (1 - zeta)| 2u |w| and f(N) and each c_j
      (all multiples of e^{-N w}) by (N |w| + 2) 2u relative; the log, the
      products and the additions add a few u of each magnitude.
    """
    w = -cmath.log(zeta)
    big_n = n + 1
    sigma = w.real
    fn = cmath.exp(-w * big_n) / big_n
    decay = math.exp(-sigma * big_n)
    if w == 0:
        anchor = math.log(big_n) + EULER_GAMMA
        e1, e1_err = 0.0j, 0.0
    else:
        anchor = -cmath.log(1.0 - zeta)
        z = w * big_n
        # Re z < 0 only where rounding left |zeta| above 1, and there the
        # remainder below is infinite
        e1, e1_err = (_e1 if abs(z) >= _E1_SERIES_MIN else _e1_small)(z)
    scale = abs(anchor) + abs(e1)
    ratios = _bernoulli_ratios()
    corr = 0.5 * fn
    mag = abs(corr)
    coeff = taylor = fn
    p = 0
    for j in range(1, 2 * _MAX_BERNOULLI):
        taylor *= -w / j
        coeff = taylor - coeff / big_n
        if j % 2:
            p = (j + 1) // 2
            term = ratios[p - 1] * coeff
            corr -= term
            mag += abs(term)
            if abs(term) <= _U * scale:
                break
    aw = abs(w)
    two_p = 2 * p
    if sigma > 0.0:
        near = (aw / TWO_PI) ** two_p * math.log1p(1.0 / (sigma * big_n))
    else:
        near = 0.0 if aw == 0.0 else math.inf
    far = (((aw + two_p / big_n) / TWO_PI) ** two_p
           - (aw / TWO_PI) ** two_p) / two_p
    remainder = (math.pi ** 2 / 3.0) * decay * (near + far)
    slope = decay * aw / abs(1.0 - zeta) if aw else 0.0
    rounding = 2.0 * _U * (slope + (aw * big_n + 2.0) * mag) \
        + 4.0 * _U * (scale + mag)
    err = remainder + e1_err + rounding
    if w == 0:
        return anchor - corr, complex(math.inf), err
    tail = e1 + corr
    return anchor - tail, tail, err


def _log_sums(zetas: Sequence[complex],
              n: int) -> List[Tuple[complex, complex, float]]:
    """(S, T, err) per zeta: the split -log(1 - zeta) = S + T at m = n, with
    S = sum_{m=1}^{n} zeta^m / m, T the rest, and err a bound on the
    absolute error of either.  Up to _DIRECT_SUM_MAX terms S is summed
    directly, the zetas as the rows of one array (a row sums as np.sum sums
    its terms, bit for bit), and T = -log(1 - zeta) - S; above, both come
    from the Euler-Maclaurin closed form, one zeta at a time.  T is
    infinite at zeta = 1."""
    underflow = (0.0j, 0.0j, 0.0)   # e^{-w} underflowed, and every term
    if n > _DIRECT_SUM_MAX:
        return [_euler_maclaurin_log_sums(zeta, n) if zeta else underflow
                for zeta in zetas]
    import numpy as np
    m = np.arange(1, n + 1, dtype=np.float64)
    rows = max(1, _HEAD_BLOCK_TERMS // max(n, 1))
    heads = []
    for lo in range(0, len(zetas), rows):
        block = np.array(zetas[lo:lo + rows], dtype=complex)[:, None]
        heads += (block ** m / m).sum(axis=1).tolist()
    log = cmath.log
    out = []
    for zeta, head, err in zip(zetas, heads, _direct_rounding(zetas, n)):
        if not zeta:
            out.append(underflow)
        elif zeta == 1.0:
            out.append((head, complex(math.inf), err))
        else:
            log_term = -log(1.0 - zeta)
            out.append((head, log_term - head,
                        err + 2.0 * _U * (abs(log_term) + 1.0)))
    return out


def pair_contractions(pairs) -> List[Tuple[complex, float]]:
    """Contraction constant C(v1, v2) of each pair of vertex factors:
    zero-mode reordering phase times exp(-sum over channels of the mode
    contractions), as (value, err) with err a bound on the absolute error
    of log(value).

    Channel (r', X) contracts to
    c = sum_{p>0} (2 pi / L) p alpha_1(-r' p) alpha_2(r' p), with terms
    A1 A2 zeta^m / m, zeta = exp(s (i r' (u1 - u2) - (eps1 + eps2)/2)) and
    s the mode spacing: the head S of -log(1 - zeta) over the n_a inside
    modes, its tail T outside.  One _log_sums call evaluates every zeta of
    every pair; each pair adds its channels in CHANNELS order, each the
    inside term before the outside one.  Raises GridTooSmall unless all
    factors share one grid.
    """
    pairs = list(pairs)
    if len({(v.n_a, v.spacing) for pair in pairs for v in pair}) > 1:
        raise GridTooSmall("vertex factors on different grids")
    n_a, spacing = (pairs[0][0].n_a, pairs[0][0].spacing) if pairs else (0, 0)
    exp = cmath.exp
    nch = len(CHANNELS)
    terms = []          # (slot, region, A1 A2) of each nonzero term
    zetas = []
    for i, (v1, v2) in enumerate(pairs):
        regions = ((0, v1.inside, v2.inside), (1, v1.outside, v2.outside))
        for c, ch in enumerate(CHANNELS):
            turn = 1j * ch[0]
            for region, a1, a2 in regions:
                p1, p2 = a1[ch], a2[ch]
                amp = p1.amp * p2.amp
                if amp != 0.0:
                    terms.append((i * nch + c, region, amp))
                    zetas.append(exp(spacing * (turn * (p1.u - p2.u)
                                                - (p1.eps + p2.eps) / 2)))
    # slot i * nch + c: the total and error of channel c of pair i
    totals = [0.0j] * (nch * len(pairs))
    errs = [0.0] * (nch * len(pairs))
    for (slot, region, amp), s in zip(terms, _log_sums(zetas, n_a)):
        totals[slot] += amp * s[region]
        errs[slot] += abs(amp) * s[2]
    c_total = [0.0j] * len(pairs)
    err = [0.0] * len(pairs)
    for slot, (c, e) in enumerate(zip(totals, errs)):
        c_total[slot // nch] += c
        err[slot // nch] += e
    words = {v.klein: v for pair in pairs for v in pair}
    charges = {k: (v.charge(+1), v.charge(-1)) for k, v in words.items()}
    out = []
    for (v1, v2), c, e in zip(pairs, c_total, err):
        q1, q2 = charges[v1.klein], charges[v2.klein]
        phase = 0.0j
        for i in (0, 1):
            phase += 0.5j * (v1.zero_c[i] * q2[i] - v2.zero_c[i] * q1[i])
        # rounding of the phase and of exp, relative to the result
        e += 4.0 * _U * (abs(phase) + abs(c) + 1.0)
        out.append((exp(phase - c), e))
    return out


def normal_order_product(factors, contractions=None) -> NormalOrderedProduct:
    """Move all factors into a single boson-normal-ordered vertex: the scalar
    prefactor collects every pairwise contraction (multiplied in index
    order; the result is order-independent) and Klein letters concatenate;
    the leftover zero-mode exponentials act trivially on the vacuum, so
    they are not kept.  `contractions` lists the (value, error bound) of
    the pairs (j, k), j < k, in index order, e.g. as a sweep evaluates them
    for all its points at once; without it they are evaluated here."""
    factors = tuple(factors)
    if contractions is None:
        contractions = pair_contractions(
            (factors[j], factors[k]) for j in range(len(factors))
            for k in range(j + 1, len(factors)))
    prefactor = 1.0 + 0.0j
    rounding = 0.0
    # each complex product adds at most sqrt(5) u < 3 u of relative error
    for f in factors:
        prefactor *= f.prefactor
        rounding += f.rounding + 3.0 * _U
    for c, err in contractions:
        prefactor *= c
        rounding += err + 3.0 * _U
    klein = tuple(letter for f in factors for letter in f.klein)
    return NormalOrderedProduct(prefactor=prefactor, klein=klein,
                                rounding=rounding)


def vacuum_expectation(product: NormalOrderedProduct) -> complex:
    """<Omega, product Omega>: prefactor times the Klein-word sign."""
    return product.prefactor * klein_sign(product.klein)


@lru_cache(maxsize=64)
def _renorm_log_sum(L: float, a: float, eps: float) -> Tuple[float, float]:
    """sum_{m=1}^{n_a} e^{-eps s m} / m with s = 2 pi / L over the coupled
    modes, and its error bound.  Cached: every insertion of a correlator
    asks for the same (L, a, eps)."""
    (head, _, err), = _log_sums([complex(math.exp(-eps * TWO_PI / L))],
                                mode_count(L, a))
    return head.real, err


def z_renorm(params: ModelParams, sol: BogoliubovSolution,
             eps: float) -> dict:
    """Multiplicative renormalization constant.

    Z = exp(-sum_p (2 pi / L p)(sigma_F^2 + sigma_P^2) e^{-eps p}) over the
    coupled modes p = (2 pi / L) m, 1 <= m <= n_a, as a finite sum.
    "rounding" bounds the relative error of Z.
    """
    if eps < 0:
        raise BadRegulator("eps must be nonnegative")
    ssum = sol.sigma_f ** 2 + sol.sigma_p ** 2
    total, err = _renorm_log_sum(params.L, params.a, eps)
    z = math.exp(-ssum * total)
    rounding = ssum * err + 2.0 * _U * (ssum * abs(total) + 1.0)
    return {"Z": z, "rounding": rounding}


def finite_correlator(spec: CorrelatorSpec, params: ModelParams,
                      sol: BogoliubovSolution, grid: MomentumGrid,
                      xs: Optional[Sequence[float]] = None):
    """Finite-(L, a, eps) fermion correlation function of the interacting
    model via the vertex-operator pipeline.

    Builds one vertex factor per insertion with the spec regulator, normal
    orders, and takes the vacuum expectation.  The value is exp of a sum of
    mode sums and phases times Z / sqrt(L) factors, so an absolute error r
    in that exponent gives |delta value| <= |value| (e^{2r} - 1).  The
    reported "tail_bound" is that with r the sum of:

    * per mode sum of n terms (weighted by |A1 A2|): for n <= 400 the
      worst-case rounding of the direct sum, u ((3 + |w|) n + (n + 2) H_n);
      above, the Euler-Maclaurin remainder at the last kept Bernoulli term,
      2 zeta(2p) / (2 pi)^{2p} int |f^{(2p)}|, plus the error of
      E1(N w) (the bound of its asymptotic series at |N w| >= 40, 17u to
      19u relative; below, the bound of its power series or continued
      fraction, 7u to 63u relative) and the rounding of the closed form;
    * per pair, the rounding of the zero-mode phase and of exp;
    * per insertion, the relative error of Z (its own mode sum) and of each
      complex product.

    u = 2^-53.  Returns {"value", "tail_bound"}.  With xs, a sweep: one such
    dict per position x in xs of the first insertion (its t and the other
    insertions as in spec), each checked as the spec checks its own.  The
    vertex factors of the other insertions and their pair contractions are
    built once; the pair contractions of the swept one are evaluated in
    one pair_contractions call, SWEEP_BLOCK points at a time, and each
    point's product is assembled as a lone evaluation assembles it.  Every
    value and bound is bit for bit a lone evaluation at its x, and a sweep
    that fails raises what its first failing point raises alone.  Without
    xs, the dict at spec itself (a one-point sweep).
    """
    pts = spec.insertions
    positions = xs if xs is not None else [pts[0].x if pts else 0.0]
    eps = spec.regulator
    fixed = [field_vertex(p.r, p.q, p.x, p.t, eps, sol, grid)
             for p in pts[1:]]
    n = len(fixed)
    fixed_pairs = pair_contractions((fixed[j], fixed[k]) for j in range(n)
                                    for k in range(j + 1, n))

    def sweep(positions):
        swept = []
        if pts:
            check_positions(positions, pts[0].t)
            swept = [field_vertex(pts[0].r, pts[0].q, x, pts[0].t, eps, sol,
                                  grid) for x in positions]
        moving = pair_contractions((v, f) for v in swept for f in fixed)
        results = []
        for i in range(len(positions)):
            product = normal_order_product(
                swept[i:i + 1] + fixed,
                moving[i * n:(i + 1) * n] + fixed_pairs)
            value = vacuum_expectation(product)
            # e^{2r} - 1 overflows above r = 354; the bound is infinite there
            growth = math.expm1(2.0 * product.rounding) \
                if product.rounding < 354.0 else math.inf
            results.append({"value": value, "tail_bound": abs(value) * growth})
        return results

    results = sweep_blocks(sweep, positions)
    return results if xs is not None else results[0]
