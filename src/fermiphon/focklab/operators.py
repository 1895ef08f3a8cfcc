"""Exact sparse operators on the truncated Fock space.

Every operator is a matrix of Python ints, given as a column function: the
image of one basis state (H0 is `twice_hamiltonian`, in units of pi / L, so
its amplitudes are integers too).  Partial operators (Klein factors) return
None for the columns outside their validity window; partiality is data, not
an error.  Two kinds build the rest.  A monomial sends a basis state to at
most one basis state times an amplitude: a ladder operator is one
`FockSpace.move`, the Klein factor one shift of a chirality block
(`_klein_apply`), and H0, Q_r and multiples of the identity are diagonal.
Any other operator, a density (each bilinear two moves) or a sum or
product, has dict columns.  `linear` is one flat linear combination of
operators and products whose column adds its terms' columns left to right;
`+`, `-` and scalar `*` are its short cases, and every `@` is a one-term
`Linear`.  It classifies each product once, by its factors' kinds: two
monomials compose their images and a monomial factor applies through its
image, without a dict; two dict factors build the product's column whole.
A density keeps its columns once read; every other operator computes a
column each time it is read.
"""

from __future__ import annotations

from functools import partial

from ..errors import ModeOutOfWindow
from .space import FockSpace, twice


class Columns(dict):
    """cols[c] is column c as {row: amplitude}, or None outside the validity
    window; each column is computed when read, and kept when `keep` is set.
    get() treats a None column as absent."""

    def __init__(self, column, keep):
        super().__init__()
        self._column = column
        self._keep = keep

    def __missing__(self, c):
        col = self._column(c)
        if self._keep:
            self[c] = col
        return col

    def get(self, c, default=None):
        col = self[c]
        return default if col is None else col

    def reader(self):
        """The function c -> self[c]: the dict's own lookup for kept
        columns, else the column function itself (a column that is not
        kept is computed at every read anyway)."""
        return self.__getitem__ if self._keep else self._column


def _add(out: dict, r, amp):
    """out[r] += amp; an entry that cancels is dropped."""
    new = out.get(r, 0) + amp
    if new:
        out[r] = new
    else:
        out.pop(r, None)


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
    """Exact sparse matrix over a FockSpace basis, given column by column;
    with `keep` set (densities), each column is kept once read."""

    def __init__(self, space: FockSpace, column, keep=False):
        self.space = space
        self.cols = Columns(column, keep)

    @staticmethod
    def identity(space, scalar=1):
        return Monomial(space, lambda c: (c, scalar) if scalar else (None, 0))

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        return linear(self.space, (1, self), (1, other))

    def __sub__(self, other):
        return linear(self.space, (1, self), (-1, other))

    def __mul__(self, scalar):
        return linear(self.space, (scalar, self))

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
        """self @ other, a one-term `Linear`; a result column is None unless
        every basis state reached by the corresponding column of `other` is
        a column of `self` inside its validity window."""
        return Linear(self.space, [(1, self, other)])

    def commutator(self, other):
        return self @ other - other @ self

    def anticommutator(self, other):
        return self @ other + other @ self

    # -- inspection ----------------------------------------------------------

    def max_entry(self, rows: set, cols):
        """(the exact largest magnitude of an entry in the block, (row, col)
        of the first entry in column order that reaches it); (0, None) when
        every block entry is zero."""
        best = 0
        worst = None
        read = self.cols.reader()
        for c in cols:
            col = read(c)
            if not col:
                continue
            for r, amp in col.items():
                if r in rows:
                    v = abs(amp)
                    if v > best:
                        best, worst = v, (r, c)
        return best, worst


class Monomial(SparseOperator):
    """An operator that sends each basis state to at most one basis state,
    and distinct states to distinct ones: image(c) is (row, amplitude) with
    a nonzero amplitude, (None, 0) for a zero column, or None outside the
    validity window.  The amplitude is a sign for ladder
    operators, fields and Klein factors, the energy or charge for H0 and
    Q_r, and the scalar for a multiple of the identity."""

    def __init__(self, space: FockSpace, image):
        self.image = image

        def column(c):
            im = image(c)
            return None if im is None else {} if im[0] is None else {
                im[0]: im[1]}
        super().__init__(space, column)


def _product(left, right, c):
    """Column c of left @ right, given left's `Columns` and right's column
    reader: left's columns added, scaled by the entries of right's column
    c."""
    col = right(c)
    if col is None:
        return None
    out = {}
    for r, amp in col.items():
        lcol = left[r]
        if lcol is None:
            return None
        _accumulate(out, lcol, amp)
    return out


# the kinds of a `Linear` term: an operator with dict columns (a product of
# two of them included), a monomial, and a product of two monomials or with
# one monomial factor on the right or on the left
_DICT, _MONOMIAL, _MONOMIALS, _RIGHT, _LEFT = range(5)


class Linear(SparseOperator):
    """A flat linear combination: `terms` is its list of (scale, op) and
    (scale, left, right) terms, the latter the product left @ right.  Each
    term is classified once, by the kinds of its factors.  A product of two
    monomials composes their images; one with a single monomial factor adds
    the other factor's column through the monomial's image, as a column of
    the product would be built, without a dict of its own: on the right,
    the monomial picks one column of `left`; on the left, it moves each
    entry of right's column, and since a monomial sends distinct basis
    states to distinct ones, no two of those entries meet.  A product of
    two operators with dict columns builds its column whole and adds it
    scaled."""

    def __init__(self, space: FockSpace, terms):
        self.terms = terms
        parts = []
        for scale, *ops in terms:
            if len(ops) == 2:
                left, right = ops
                if isinstance(left, Monomial) and isinstance(right, Monomial):
                    parts.append((_MONOMIALS, scale, right.image, left.image))
                elif isinstance(right, Monomial):
                    parts.append((_RIGHT, scale, right.image,
                                  left.cols.reader()))
                elif isinstance(left, Monomial):
                    parts.append((_LEFT, scale, left.image,
                                  right.cols.reader()))
                else:
                    parts.append((_DICT, scale, None, partial(
                        _product, left.cols, right.cols.reader())))
            elif isinstance(ops[0], Monomial):
                parts.append((_MONOMIAL, scale, ops[0].image, None))
            else:
                parts.append((_DICT, scale, None, ops[0].cols.reader()))

        def column(c):
            out = {}
            for kind, scale, image, cols in parts:
                if kind == _DICT:
                    col = cols(c)
                    if col is None:
                        return None
                    _accumulate(out, col, scale)
                elif kind == _LEFT:
                    col = cols(c)
                    if col is None:
                        return None
                    for r, amp in col.items():
                        im = image(r)
                        if im is None:
                            return None
                        if im[0] is not None:
                            _add(out, im[0], im[1] * amp * scale)
                else:
                    im = image(c)
                    if im is None:
                        return None
                    if im[0] is None:
                        continue
                    if kind == _MONOMIAL:
                        _add(out, im[0], im[1] * scale)
                    elif kind == _MONOMIALS:   # cols is the outer image
                        im2 = cols(im[0])
                        if im2 is None:
                            return None
                        if im2[0] is not None:
                            _add(out, im2[0], im[1] * im2[1] * scale)
                    else:
                        col = cols(im[0])
                        if col is None:
                            return None
                        _accumulate(out, col, im[1] * scale)
            return out
        super().__init__(space, column)


def linear(space: FockSpace, *terms) -> SparseOperator:
    """The sum of scale * op over the (scale, op) terms.  A column adds the
    terms' columns left to right into one dict, in the entry order a chain
    of pairwise sums gives (a cancelled entry is dropped and comes back at
    the end); it is None where any term's column is None.  A monomial term
    adds its one entry.  A combination in first place, or of one term,
    splices in its own terms, scaled: adding them one by one to the empty
    dict, or to the sum so far, leaves the entries where adding its column
    would."""
    flat = []
    for scale, op in terms:
        if isinstance(op, Linear) and (not flat or len(op.terms) == 1):
            flat += [(scale * s, *ops) for s, *ops in op.terms]
        else:
            flat.append((scale, op))
    return Linear(space, flat)


# --------------------------------------------------------------------------
# single-mode fermion operators


def ladder_op(space: FockSpace, r: int, nu, dagger=False) -> SparseOperator:
    """Matrix of c_r(k) (or c^dagger) at k = (2 pi / L) nu.

    The fermionic sign convention follows the ordered basis products
    (chirality + before -, momenta descending).
    """
    pos = space.positions.get((r, twice(nu)))
    if pos is None:
        raise ModeOutOfWindow(f"mode (r={r:+d}, nu={nu}) outside window")
    move = space.move
    return Monomial(space, lambda mask: move(mask, pos, dagger))


def field_op(space: FockSpace, r: int, nu, dagger=False) -> SparseOperator:
    """psi-hat_r(k) in lab units, where sqrt(L / 2 pi) is 1: c_r(k) for
    r k > 0 and c^dagger_r(k) for r k < 0."""
    return ladder_op(space, r, nu, dagger=(dagger == (r * nu > 0)))


def density_op(space: FockSpace, r: int, m: int) -> SparseOperator:
    """Normal-ordered density J-hat_r(p) at p = (2 pi / L) m.

    Keeps the bilinear psi^dag_r(k) psi_r(k + p) at every fermion momentum
    k whose two modes sit in the window, in descending k; each one is two
    moves of a basis state, psi_r(k + p) first.  J_r(0) subtracts the
    vacuum part, one for each of the K momenta with r k < 0; it is
    diagonal, so the subtraction can come last.
    """
    pos, move = space.positions, space.move
    terms = [(pos[(r, t + 2 * m)], r * (t + 2 * m) < 0, pos[(r, t)], r * t > 0)
             for t in space.labels if (r, t + 2 * m) in pos]

    def column(mask):
        out = {}
        for pos_in, create_in, pos_out, create_out in terms:
            mid, sign_in = move(mask, pos_in, create_in)
            if mid is not None:
                new, sign_out = move(mid, pos_out, create_out)
                if new is not None:
                    _add(out, new, sign_in * sign_out)
        if m == 0:
            _add(out, mask, -space.K)
        return out
    return SparseOperator(space, column, keep=True)


def _diagonal(space: FockSpace, value) -> SparseOperator:
    """The diagonal monomial with amplitude value(mask)."""
    def image(mask):
        v = value(mask)
        return (mask, v) if v else (None, 0)
    return Monomial(space, image)


def twice_hamiltonian(space: FockSpace) -> SparseOperator:
    """2 H0: H0 in units of pi / L, diagonal with integer amplitudes."""
    return _diagonal(space, space.twice_energy)


def charge_op(space: FockSpace, r: int) -> SparseOperator:
    """Q_r = J-hat_r(0), diagonal with the exact integer charges."""
    return _diagonal(space, partial(space.charge, r=r))


# --------------------------------------------------------------------------
# Klein factors


def _klein_apply(space: FockSpace, r: int, dagger: bool, mask: int):
    """Image of `mask` under R_r (or R_r^dagger): (image, sign), or None
    when a shifted occupation would leave the window.

    b is the chirality-r block, bit i for nu = K - 1/2 - i.  R_r moves every
    bit up one step (b >> 1) and toggles nu = 1/2, as bits with r nu < 0
    count holes; the sign is the parity of the image's bits below nu = 0,
    and for r = -1 of the + block that R_- anticommutes past.  R_r^dagger
    mirrors it: b << 1, toggle nu = -1/2, parity below nu = -1/2."""
    K = space.K
    low = (1 << 2 * K) - 1             # the chirality-+ block
    b = mask & low if r > 0 else mask >> 2 * K
    if dagger:
        if b >> (2 * K - 1):
            return None
        b = ((b << 1) & low) ^ (1 << K)
        parity = (b >> (K + 1)).bit_count()
    else:
        if b & 1:
            return None
        b = (b >> 1) ^ (1 << (K - 1))
        parity = (b >> K).bit_count()
    if r > 0:
        mask = (mask & ~low) | b
    else:
        parity += (mask & low).bit_count()
        mask = (mask & low) | (b << 2 * K)
    return mask, -1 if parity & 1 else 1


def klein_factor(space: FockSpace, r: int, dagger=False) -> SparseOperator:
    """Klein factor R_r (or its adjoint) as a partial permutation-like matrix.

    R_r shifts chirality-r modes up by one step, anticommutes with the
    opposite chirality, and acts on the vacuum as c^dag_r(pi/L) Omega; the
    adjoint shifts down with R_r^dag Omega = c^dag_r(-pi/L) Omega.  Columns
    whose shifted image leaves the window are None.
    """
    return Monomial(space, partial(_klein_apply, space, r, dagger))
