"""Truncated fermion Fock space on a bitmask basis.

The lab works in dimensionless units where the mode spacing 2 pi / L is 1,
i.e. it is pinned to L = 2 pi.  Fermion momenta are the half-odd-integers
nu = n + 1/2 with -K <= n < K; every momentum/energy stored here is exact
(Fraction, in units of 2 pi / L).  All operator identities verified on this
space are homogeneous in L, so residual-zero statements carry over to any L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import BadGeometry, TruncationTooLarge
from ..params import MomentumGrid

MAX_DIM = 2**24

CHIRALITIES = (+1, -1)


@dataclass(frozen=True)
class OccupationState:
    """One basis state: occupation bitmask plus its exact quantum numbers."""

    mask: int
    charge_plus: int
    charge_minus: int
    energy: Fraction

    def charge(self, r: int) -> int:
        return self.charge_plus if r == +1 else self.charge_minus


class FockSpace:
    """Complete occupation basis over 2 * 2K truncated fermion modes.

    Mode positions follow the ordered-product convention used to define
    basis states: chirality + before -, momenta descending within each
    chirality.  All creation-operator signs derive from this order.
    """

    def __init__(self, grid: MomentumGrid):
        if not math.isclose(grid.L, 2.0 * math.pi, rel_tol=1e-12):
            raise BadGeometry("the Fock lab is pinned to L = 2 pi")
        K = grid.K
        nmodes = 4 * K
        if 2**nmodes > MAX_DIM:
            raise TruncationTooLarge(f"2^{nmodes} exceeds the 2^24 guard")
        self.grid = grid
        self.K = K
        self.nmodes = nmodes
        self.dim = 2**nmodes
        # nu values (times 2, odd integers) per chirality, descending
        self._nus = [Fraction(2 * n + 1, 2) for n in range(K - 1, -K - 1, -1)]
        # position of mode (r, nu): + block first, descending nu
        self._pos = {}
        for i, nu in enumerate(self._nus):
            self._pos[(+1, nu)] = i
            self._pos[(-1, nu)] = 2 * K + i
        self.basis = [self._make_state(m) for m in range(self.dim)]
        self.vacuum = 0
        # operators built once per space, keyed by their kind and labels
        self.op_cache = {}

    def _make_state(self, mask: int) -> OccupationState:
        qp = qm = 0
        energy = Fraction(0)
        for (r, nu), pos in self._pos.items():
            if (mask >> pos) & 1:
                energy += abs(nu)
                sgn = 1 if r * nu > 0 else -1
                if r == +1:
                    qp += sgn
                else:
                    qm += sgn
        return OccupationState(mask=mask, charge_plus=qp, charge_minus=qm,
                               energy=energy)

    def mode_position(self, r: int, nu: Fraction) -> int:
        return self._pos[(r, nu)]

    def has_mode(self, r: int, nu) -> bool:
        return (r, Fraction(nu)) in self._pos

    def fermion_modes(self):
        """All nu values in the window, descending (units 2 pi / L)."""
        return list(self._nus)

    def edge(self) -> Fraction:
        """Largest |nu| in the window."""
        return Fraction(2 * self.K - 1, 2)

    def interior_window(self) -> Fraction:
        """Default interior energy E_int = K - 1 (units 2 pi / L)."""
        return Fraction(self.K - 1)

    def interior_indices(self, window=None):
        """Indices of basis states with energy <= window."""
        w = self.interior_window() if window is None else Fraction(window)
        return [i for i, st in enumerate(self.basis) if st.energy <= w]

    def create_sign(self, mask: int, pos: int):
        """Apply c^dagger at bit pos to a basis mask.

        Returns (new_mask, sign) or (None, 0) when Pauli-blocked.  The sign
        is the parity of occupied modes preceding pos in the canonical order.
        """
        if (mask >> pos) & 1:
            return None, 0
        below = mask & ((1 << pos) - 1)
        return mask | (1 << pos), -1 if below.bit_count() & 1 else 1

    def annihilate_sign(self, mask: int, pos: int):
        if not (mask >> pos) & 1:
            return None, 0
        below = mask & ((1 << pos) - 1)
        return mask ^ (1 << pos), -1 if below.bit_count() & 1 else 1


def build_space(grid: MomentumGrid) -> FockSpace:
    """Construct the complete truncated Fock space for the given grid."""
    return FockSpace(grid)
