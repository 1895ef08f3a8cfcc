"""Exact sparse operators on the truncated Fock space.

Every operator is a matrix of rationals (int and Fraction amplitudes),
given as a column function: the image of one basis state, computed the
first time that column is read.  Sums, multiples and products are column
functions of their operands, so a check evaluates only the columns it
reads and the states those reach.  Partial operators (Klein factors)
return None for the columns outside their validity window; partiality is
data, not an error.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from ..errors import ModeOutOfWindow
from .space import CHIRALITIES, FockSpace


class Columns(dict):
    """cols[c] is column c as {row: amplitude}, or None outside the validity
    window; each column is computed on first read and kept.  get() treats a
    None column as absent."""

    def __init__(self, column):
        super().__init__()
        self._column = column

    def __missing__(self, c):
        col = self[c] = self._column(c)
        return col

    def get(self, c, default=None):
        col = self[c]
        return default if col is None else col


def _accumulate(out: dict, col: dict, scale=1) -> dict:
    """out += scale * col entrywise; entries that cancel are dropped."""
    for r, amp in col.items():
        new = out.get(r, 0) + amp * scale
        if new:
            out[r] = new
        else:
            out.pop(r, None)
    return out


class SparseOperator:
    """Exact sparse matrix over a FockSpace basis, given column by column."""

    def __init__(self, space: FockSpace, column):
        self.space = space
        self.cols = Columns(column)

    @classmethod
    def identity(cls, space, scalar=1):
        return cls(space, lambda c: {c: scalar} if scalar else {})

    @classmethod
    def zero(cls, space):
        return cls(space, lambda c: {})

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        def column(c):
            a, b = self.cols[c], other.cols[c]
            if a is None or b is None:
                return None
            return _accumulate(_accumulate({}, a), b)
        return SparseOperator(self.space, column)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, scalar):
        def column(c):
            col = self.cols[c]
            return None if col is None else _accumulate({}, col, scalar)
        return SparseOperator(self.space, column)

    __rmul__ = __mul__

    def apply_col(self, vec: dict) -> dict:
        """Apply to a vector given as {basis index: amplitude}."""
        out = {}
        for c, v in vec.items():
            col = self.cols.get(c)
            if col:
                _accumulate(out, col, v)
        return out

    def __matmul__(self, other):
        """self @ other; a result column is None unless every basis state
        reached by the corresponding column of `other` is a column of `self`
        inside its validity window."""
        def column(c):
            col = other.cols[c]
            if col is None or any(self.cols[r] is None for r in col):
                return None
            return self.apply_col(col)
        return SparseOperator(self.space, column)

    def commutator(self, other):
        return self @ other - other @ self

    def anticommutator(self, other):
        return self @ other + other @ self

    # -- inspection ----------------------------------------------------------

    def entry(self, row, col):
        return self.cols.get(col, {}).get(row, 0)

    def max_entry(self, rows: set, cols):
        """(the exact largest magnitude of an entry in the block, (row, col)
        of the first entry in column order that reaches it); (0, None) when
        every block entry is zero."""
        best = 0
        worst = None
        for c in cols:
            col = self.cols.get(c)
            if not col:
                continue
            for r, amp in col.items():
                if r in rows:
                    v = abs(amp)
                    if v > best:
                        best, worst = v, (r, c)
        return best, worst


# --------------------------------------------------------------------------
# single-mode fermion operators


def ladder_op(space: FockSpace, r: int, nu, dagger=False) -> SparseOperator:
    """Matrix of c_r(k) (or c^dagger) at k = (2 pi / L) nu.

    The fermionic sign convention follows the ordered basis products
    (chirality + before -, momenta descending).
    """
    nu = Fraction(nu)
    if not space.has_mode(r, nu):
        raise ModeOutOfWindow(f"mode (r={r:+d}, nu={nu}) outside window")
    pos = space.mode_position(r, nu)
    act = space.create_sign if dagger else space.annihilate_sign

    def column(mask):
        new, sign = act(mask, pos)
        return {} if new is None else {new: sign}
    return SparseOperator(space, column)


def field_op(space: FockSpace, r: int, nu, dagger=False) -> SparseOperator:
    """psi-hat_r(k) in lab units (the sqrt(L / 2 pi) prefactor is 1 at L = 2 pi)."""
    nu = Fraction(nu)
    if not space.has_mode(r, nu):
        raise ModeOutOfWindow(f"mode (r={r:+d}, nu={nu}) outside window")
    if dagger:
        return ladder_op(space, r, nu, dagger=(r * nu > 0))
    return ladder_op(space, r, nu, dagger=(r * nu < 0))


def _bilinear(space, r, nu_dag, nu):
    """Normal-ordered :psi-hat^dag_r(k) psi-hat_r(k'): as an exact matrix."""
    a = field_op(space, r, nu_dag, dagger=True)
    b = field_op(space, r, nu)
    op = a @ b
    if nu_dag == nu and r * nu < 0:
        # vacuum subtraction: :psi^dag psi: = psi^dag psi - Theta(-rk)
        op = op - SparseOperator.identity(space)
    return op


def density_op(space: FockSpace, r: int, m: int, cutoff=None) -> SparseOperator:
    """Regularized density J-hat^Lambda_r(p) at p = (2 pi / L) m.

    Keeps the bilinear at fermion momentum k when |k + p/2| <= cutoff; terms
    whose modes leave the window are dropped (the validity window shrinks
    accordingly).  Default cutoff is the largest that drops nothing:
    edge - |m|/2.
    """
    if cutoff is None:
        cutoff = space.edge() - Fraction(abs(m), 2)
    cutoff = Fraction(cutoff)
    op = SparseOperator.zero(space)
    half_p = Fraction(m, 2)
    for nu in space.fermion_modes():
        if abs(nu + half_p) > cutoff:
            continue
        if not space.has_mode(r, nu + m):
            continue
        op = op + _bilinear(space, r, nu, nu + m)
    return op


def free_hamiltonian(space: FockSpace, cutoff=None) -> SparseOperator:
    """H0 = sum_{r, |k| <= cutoff} |k| c^dag c, diagonal, in units 2 pi / L."""
    cutoff = space.edge() if cutoff is None else Fraction(cutoff)
    keep = sum(1 << space.mode_position(r, nu) for r in CHIRALITIES
               for nu in space.fermion_modes() if abs(nu) <= cutoff)

    def column(mask):
        e = space.energy(mask & keep)
        return {mask: e} if e else {}
    return SparseOperator(space, column)


def charge_op(space: FockSpace, r: int) -> SparseOperator:
    """Q_r = J-hat_r(0), diagonal with the exact integer charges."""
    def column(mask):
        q = space.charge(mask, r)
        return {mask: q} if q else {}
    return SparseOperator(space, column)


# --------------------------------------------------------------------------
# Klein factors


def _klein_apply(space: FockSpace, r: int, shift: int, mask: int):
    """Image of a basis state under R_r (shift=+1) or R_r^dagger (shift=-1).

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
        nu = space._nus[pos % (2 * space.K)]
        if rr != r:
            ops.append((True, rr, nu))
        elif nu == special_src:
            ops.append((False, r, born))
        else:
            nu2 = nu + shift
            if not space.has_mode(r, nu2):
                return None
            ops.append((True, r, nu2))
    # anticommuting R past each opposite-chirality creator gives one -1
    n_opp = sum(1 for dag, rr, _ in ops if rr != r)
    sign = -1 if n_opp & 1 else 1
    # start from R_r^{shift} Omega = c^dag_r(born) Omega
    vec_mask, vec_sign = space.create_sign(0, space.mode_position(r, born))
    vec = {vec_mask: sign * vec_sign}
    for dag, rr, nu in reversed(ops):
        pos = space.mode_position(rr, nu)
        out = {}
        act = space.create_sign if dag else space.annihilate_sign
        for m0, amp in vec.items():
            new, s = act(m0, pos)
            if new is not None:
                out[new] = amp * s
        vec = out
        if not vec:
            break
    return vec


def klein_factor(space: FockSpace, r: int, dagger=False) -> SparseOperator:
    """Klein factor R_r (or its adjoint) as a partial permutation-like matrix.

    R_r shifts chirality-r modes up by one step, anticommutes with the
    opposite chirality, and acts on the vacuum as c^dag_r(pi/L) Omega; the
    adjoint shifts down with R_r^dag Omega = c^dag_r(-pi/L) Omega.  Columns
    whose shifted image leaves the window are None.
    """
    return SparseOperator(space, partial(_klein_apply, space, r,
                                         -1 if dagger else +1))
