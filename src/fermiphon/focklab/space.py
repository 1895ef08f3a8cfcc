"""Truncated fermion Fock space on a bitmask basis.

The lab works in dimensionless units where the mode spacing 2 pi / L is 1,
so it needs only the truncation K.  Fermion momenta are the half-odd-integers
nu = n + 1/2 with -K <= n < K.  Inside the lab a mode is labelled by the odd
integer t = 2 nu and an energy is counted as 2E, in units of pi / L, so every
label, energy and amplitude the lab computes with is a Python int; the
public methods take and return nu and E (an int or a Fraction, in units of
2 pi / L).  All operator identities verified on this space are homogeneous
in L, so residual-zero statements carry over to any L.

Basis states are the integers 0 <= mask < dim; their quantum numbers are
computed from the mask when asked for, and only the states below an energy
are ever enumerated.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..errors import BadGeometry, TruncationTooLarge

CHIRALITIES = (+1, -1)


def twice(nu):
    """The integer 2 nu, or None when 2 nu is not an integer."""
    t = 2 * Fraction(nu)
    return t.numerator if t.denominator == 1 else None


class FockSpace:
    """Occupation basis over 2 * 2K truncated fermion modes (dim = 2^(4K)
    bitmasks, none of them stored).

    Mode positions follow the ordered-product convention used to define
    basis states: chirality + before -, momenta descending within each
    chirality.  Every fermion sign (`move`) derives from this order.
    """

    def __init__(self, K: int):
        if K < 1:
            raise BadGeometry("K must be >= 1")
        if K > 7:
            raise TruncationTooLarge(f"the Fock lab needs K <= 7, got K = {K}")
        nmodes = 4 * K
        self.K = K
        self.nmodes = nmodes
        self.dim = 2**nmodes
        # the labels t = 2 nu of one chirality block, descending odd integers
        self.labels = tuple(range(2 * K - 1, -2 * K, -2))
        # position of mode (r, t): + block first, descending t
        self.positions = {}
        for i, t in enumerate(self.labels):
            self.positions[(+1, t)] = i
            self.positions[(-1, t)] = 2 * K + i
        # 2 |nu| per position, and the positions whose mode adds +1 to Q_r
        # (r nu > 0) or -1 (r nu < 0)
        self._twice_abs_nu = [abs(self.labels[pos % (2 * K)])
                              for pos in range(nmodes)]
        # 2 |nu| summed over the occupied modes of one chirality block
        self._block_energy = [0]
        for e in self._twice_abs_nu[:2 * K]:
            self._block_energy += [t + e for t in self._block_energy]
        low = (1 << K) - 1
        self._charge_bits = {+1: (low, low << K),
                             -1: (low << 3 * K, low << 2 * K)}
        self.vacuum = 0

    def twice_energy(self, mask: int) -> int:
        """2E: the free energy in units of pi / L, sum of 2 |nu| over the
        occupied modes."""
        K2 = 2 * self.K
        return (self._block_energy[mask & ((1 << K2) - 1)]
                + self._block_energy[mask >> K2])

    def energy(self, mask: int):
        """Free energy: sum of |nu| over the occupied modes, an int when it
        is integral and a Fraction otherwise."""
        twice_e = self.twice_energy(mask)
        return Fraction(twice_e, 2) if twice_e & 1 else twice_e >> 1

    def charge(self, mask: int, r: int) -> int:
        """Q_r: occupied modes with r nu > 0 minus those with r nu < 0."""
        up, down = self._charge_bits[r]
        return (mask & up).bit_count() - (mask & down).bit_count()

    def fermion_modes(self):
        """All nu values in the window, descending (units 2 pi / L)."""
        return [Fraction(t, 2) for t in self.labels]

    def interior_window(self) -> Fraction:
        """Default interior energy E_int = K - 1 (units 2 pi / L)."""
        return Fraction(self.K - 1)

    def interior_indices(self, window=None):
        """Basis states with energy <= window, ascending."""
        w = self.interior_window() if window is None else Fraction(window)
        return self.states_below(math.floor(2 * w))

    def states_below(self, budget: int):
        """Basis states with 2E <= budget, ascending.

        Modes are added in ascending |nu| to every state built so far that
        can still afford them, so only states inside the window are visited.
        """
        if budget < 0:
            return []
        states = [(0, 0)]  # (mask, 2E)
        for pos in sorted(range(self.nmodes),
                          key=self._twice_abs_nu.__getitem__):
            e = self._twice_abs_nu[pos]
            states += [(m | 1 << pos, s + e) for m, s in states
                       if s + e <= budget]
        return sorted(m for m, _ in states)

    def move(self, mask: int, pos: int, create: bool):
        """Apply c^dagger (create) or c at bit pos to a basis mask.

        Returns (new_mask, sign), or (None, 0) when the mode is already
        full (c^dagger) or empty (c).  The sign is the parity of the
        occupied modes preceding pos in the canonical order.
        """
        if ((mask >> pos) & 1) == create:
            return None, 0
        below = mask & ((1 << pos) - 1)
        return mask ^ (1 << pos), -1 if below.bit_count() & 1 else 1


def build_space(K: int) -> FockSpace:
    """The truncated Fock space with fermion modes |n + 1/2| <= K."""
    return FockSpace(K)
