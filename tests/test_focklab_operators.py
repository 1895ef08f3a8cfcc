from fractions import Fraction

import pytest

from fermiphon.errors import ModeOutOfWindow, TruncationTooLarge, ZeroMode
from fermiphon.focklab import (SparseOperator, build_space, charge_op,
                               density_op, field_op, free_hamiltonian,
                               klein_factor, ladder_op)
from fermiphon.focklab.operators import _klein_apply, linear
from oracles import (boson_ladder, density_from_fields, dict_linear,
                     dict_product, exact_sqrt, klein_apply)

HALF = Fraction(1, 2)


def full_block(space):
    return set(range(space.dim)), range(space.dim)


def mode_energy(space, mask):
    """Free energy of a basis mask, summed mode by mode."""
    return sum((abs(nu) for r in (+1, -1) for nu in space.fermion_modes()
                if (mask >> space.mode_position(r, nu)) & 1), Fraction(0))


def adjoint(op):
    """Conjugate transpose of a total operator, read off every column."""
    rows = {}
    for c in range(op.space.dim):
        for r, amp in op.cols[c].items():
            rows.setdefault(r, {})[c] = amp.conjugate()
    return SparseOperator(op.space, lambda r: rows.get(r, {}))


def test_space_dimensions():
    sp1 = build_space(1)
    assert sp1.dim == 16
    sp2 = build_space(2)
    assert sp2.dim == 256


def test_space_guard():
    with pytest.raises(TruncationTooLarge):
        build_space(8)


def test_vacuum_quantum_numbers(space_k2):
    vac = space_k2.vacuum
    assert space_k2.energy(vac) == 0
    assert space_k2.charge(vac, +1) == 0 and space_k2.charge(vac, -1) == 0


def test_interior_indices_match_full_scan(space_k2, space_k3):
    # the enumeration below an energy equals filtering every mask, in order
    for sp in (space_k2, space_k3):
        energies = [mode_energy(sp, m) for m in range(sp.dim)]
        for w in (-1, 0, Fraction(1, 2), 1, Fraction(5, 2), 3, sp.K - 1):
            expect = [m for m in range(sp.dim) if energies[m] <= w]
            assert sp.interior_indices(w) == expect
            assert [sp.energy(m) for m in expect] == [energies[m]
                                                      for m in expect]
        assert sp.interior_indices() == sp.interior_indices(sp.K - 1)


def test_ladder_examples(space_k2):
    sp = space_k2
    # c_r(k) Omega = 0
    for r in (+1, -1):
        for nu in sp.fermion_modes():
            assert not ladder_op(sp, r, nu).cols.get(sp.vacuum)
    # {c, c^dag} = I
    c = ladder_op(sp, +1, HALF)
    cd = ladder_op(sp, +1, HALF, dagger=True)
    res = c.anticommutator(cd) - SparseOperator.identity(sp)
    assert res.max_entry(*full_block(sp))[0] == 0
    # creators anticommute
    c1 = ladder_op(sp, +1, HALF, dagger=True)
    c3 = ladder_op(sp, +1, Fraction(3, 2), dagger=True)
    v12 = c1.apply_col(c3.apply_col({sp.vacuum: 1}))
    v21 = c3.apply_col(c1.apply_col({sp.vacuum: 1}))
    assert set(v12) == set(v21)
    for key in v12:
        assert v12[key] == -v21[key]
    with pytest.raises(ModeOutOfWindow):
        ladder_op(sp, +1, Fraction(5, 2))


def test_field_examples(space_k2):
    sp = space_k2
    # psi_+(k) Omega = 0 for k > 0; psi^dag_+(k) Omega = 0 for k < 0
    for nu in (HALF, Fraction(3, 2)):
        assert not field_op(sp, +1, nu).cols.get(sp.vacuum)
        assert not field_op(sp, +1, -nu, dagger=True).cols.get(sp.vacuum)
    # CAR: {psi, psi^dag} = (L / 2 pi) I, unit at L = 2 pi
    for r in (+1, -1):
        for nu in sp.fermion_modes():
            res = field_op(sp, r, nu).anticommutator(
                field_op(sp, r, nu, dagger=True)) - SparseOperator.identity(sp)
            assert res.max_entry(*full_block(sp))[0] == 0
    # unit prefactor at L = 2 pi: psi_+(1/2) = c_+(1/2)
    res = field_op(sp, +1, HALF) - ladder_op(sp, +1, HALF)
    assert res.max_entry(*full_block(sp))[0] == 0


def test_density_examples(space_k2):
    sp = space_k2
    interior = sp.interior_indices()
    # J_r(r p) Omega = 0 for p >= 0
    for r in (+1, -1):
        for m in (0, 1, 2):
            op = density_op(sp, r, r * m)
            if m:
                assert not op.cols.get(sp.vacuum)
    # J_r(0) diagonal with charge eigenvalues
    for r in (+1, -1):
        res = density_op(sp, r, 0) - charge_op(sp, r)
        assert res.max_entry(*full_block(sp))[0] == 0
    # adjoint: J_r(p)^dag = J_r(-p) entrywise on the validity window, and on
    # the whole space (boson_ladder builds b^dag(p) from it)
    for r in (+1, -1):
        for m in (1, 2):
            res = adjoint(density_op(sp, r, m)) - density_op(sp, r, -m)
            assert res.max_entry(set(interior), interior)[0] == 0
            assert res.max_entry(*full_block(sp))[0] == 0


def test_free_hamiltonian_examples(space_k2):
    sp = space_k2
    h0 = free_hamiltonian(sp)
    assert not h0.cols.get(sp.vacuum)  # H0 Omega = 0
    for i in range(sp.dim):
        assert h0.cols.get(i, {}).get(i, 0) == mode_energy(sp, i)
    # [H0, psi^dag_r(k)] = r k psi^dag_r(k) (lab units)
    for r in (+1, -1):
        for nu in sp.fermion_modes():
            psid = field_op(sp, r, nu, dagger=True)
            res = h0.commutator(psid) - psid * (r * nu)
            assert res.max_entry(*full_block(sp))[0] == 0


def test_klein_examples(space_k2):
    sp = space_k2
    interior = sp.interior_indices()
    rp = klein_factor(sp, +1)
    rpd = klein_factor(sp, +1, dagger=True)
    # R_r Omega = c^dag_r(pi/L) Omega; R_r^dag Omega = c^dag_r(-pi/L) Omega
    for r in (+1, -1):
        R = klein_factor(sp, r)
        Rd = klein_factor(sp, r, dagger=True)
        up = ladder_op(sp, r, HALF, dagger=True).apply_col({sp.vacuum: 1})
        dn = ladder_op(sp, r, -HALF, dagger=True).apply_col({sp.vacuum: 1})
        assert R.cols[sp.vacuum] == up
        assert Rd.cols[sp.vacuum] == dn
        # unitarity on the interior window
        for prod in (Rd @ R, R @ Rd):
            res = prod - SparseOperator.identity(sp)
            cols = [c for c in interior if prod.cols[c] is not None]
            assert res.max_entry(set(interior), cols)[0] == 0
    # R_+ R_- = -R_- R_+
    rm = klein_factor(sp, -1)
    res = rp.anticommutator(rm)
    assert res.max_entry(set(interior), interior)[0] == 0


def test_density_moves_match_field_products():
    # each density column, read off two bit moves per bilinear, equals the
    # column of the field-operator products, entry order included, on every
    # basis state, both chiralities and every momentum the window holds
    for K in (1, 2, 3):
        sp = build_space(K)
        for r in (+1, -1):
            for m in range(-(2 * K - 1), 2 * K):
                moves = density_op(sp, r, m)
                fields = density_from_fields(sp, r, m)
                for mask in range(sp.dim):
                    assert (list(moves.cols[mask].items())
                            == list(fields.cols[mask].items())), (K, r, m, mask)


def assert_same_columns(a, b, space, what):
    """Every column of a equals that of b, entry order included, and a
    column is None (outside the validity window) exactly where b's is."""
    for c in range(space.dim):
        x, y = a.cols[c], b.cols[c]
        assert x == y and (x is None or list(x.items()) == list(y.items())), (
            space.K, what, c, x, y)


def monomial_products(sp):
    """(name, left, right) pairs with a monomial factor, at the two window
    edges and the two modes next to the Fermi points."""
    nus = sp.fermion_modes()
    top, up, down, bottom = nus[0], nus[sp.K - 1], nus[sp.K], nus[-1]
    R = {(r, d): klein_factor(sp, r, dagger=d)
         for r in (+1, -1) for d in (False, True)}
    J, Jm = density_op(sp, +1, 1), density_op(sp, -1, 2 * sp.K - 1)
    h0, q = free_hamiltonian(sp), charge_op(sp, -1)
    return [
        ("c c^dag", ladder_op(sp, +1, up), ladder_op(sp, +1, up, True)),
        ("c^dag c", ladder_op(sp, +1, up, True), ladder_op(sp, +1, up)),
        ("c^dag c'", ladder_op(sp, +1, top, True), ladder_op(sp, -1, bottom)),
        ("c c'^dag", ladder_op(sp, -1, down), ladder_op(sp, +1, top, True)),
        ("psi psi^dag", field_op(sp, +1, up), field_op(sp, +1, up, True)),
        ("psi psi'^dag", field_op(sp, -1, top), field_op(sp, +1, down, True)),
        ("R psi^dag edge", R[+1, False], field_op(sp, +1, top, True)),
        ("R^dag psi", R[-1, True], field_op(sp, -1, bottom)),
        ("psi R", field_op(sp, +1, down, True), R[+1, False]),
        ("psi R^dag", field_op(sp, -1, top), R[-1, True]),
        ("R+ R-", R[+1, False], R[-1, False]),
        ("R- R+", R[-1, False], R[+1, False]),
        ("R^dag R", R[+1, True], R[+1, False]),
        ("psi J", field_op(sp, +1, up, True), J),
        ("J psi", J, field_op(sp, +1, up, True)),
        ("R J", R[-1, False], Jm),
        ("J R", Jm, R[-1, False]),
        ("(J R) c", Jm @ R[-1, False], ladder_op(sp, -1, down)),
        ("H0 J", h0, J),
        ("J H0", J, h0),
        ("Q Q", q, q),
        ("Q R", q, R[-1, True]),
        ("2 I psi", SparseOperator.identity(sp, 2), field_op(sp, -1, up)),
    ]


def test_monomial_products_match_dict_product():
    # a product with a monomial factor has the columns of the dict-column
    # product, entry order and None included
    for K in (1, 2, 3):
        sp = build_space(K)
        for name, left, right in monomial_products(sp):
            assert_same_columns(left @ right, dict_product(left, right), sp,
                                name)


def test_linear_monomial_terms_match_dict_sum():
    # a sum with monomial terms, and with sums and products of them, has
    # the columns of the dict-column sum of the same terms
    for K in (1, 2, 3):
        sp = build_space(K)
        up = sp.fermion_modes()[sp.K - 1]
        psi, psid = field_op(sp, +1, up), field_op(sp, +1, up, dagger=True)
        R = klein_factor(sp, +1)
        J = density_op(sp, -1, 1)
        sums = [
            ((1, psi @ psid + psid @ psi), (-1, SparseOperator.identity(sp))),
            ((2, R), (-1, psid @ R), (Fraction(1, 2), J)),
            ((1, J @ psid - psid @ J), (-1, psid)),
            ((1, R), (3, R * Fraction(-1, 3))),
            ((-1, J), (1, J @ R + R @ J), (2, R * -1)),
        ]
        for i, terms in enumerate(sums):
            assert_same_columns(linear(sp, *terms), dict_linear(sp, *terms),
                                sp, i)


def test_klein_map_matches_oracle():
    # the closed-form bit map equals the Klein factor built from fermion
    # operators, on every basis state and both shifts of both chiralities
    for K in (1, 2, 3):
        sp = build_space(K)
        for r in (+1, -1):
            for dagger in (False, True):
                shift = -1 if dagger else +1
                for mask in range(sp.dim):
                    image = _klein_apply(sp, r, dagger, mask)
                    col = None if image is None else dict([image])
                    assert col == klein_apply(sp, r, shift, mask), (
                        K, r, dagger, mask)


def test_linear_is_the_left_fold(space_k2):
    # one flat combination has the columns, entry order included, of the
    # left-nested chain of pairwise sums; the Kronig terms cancel against
    # H0, so entries are dropped and come back along the way
    sp = space_k2
    terms = [(1, free_hamiltonian(sp))]
    for r in (+1, -1):
        q = charge_op(sp, r)
        terms.append((Fraction(-1, 2), q @ q))
        terms += [(-1, density_op(sp, r, -r * m) @ density_op(sp, r, r * m))
                  for m in (1, 2)]
    terms.append((3, klein_factor(sp, +1)))
    flat = linear(sp, *terms)
    nested = terms[0][1] * terms[0][0]
    for scale, op in terms[1:]:
        nested = nested + op * scale
    for c in range(sp.dim):
        a, b = flat.cols[c], nested.cols[c]
        assert (a is None and b is None) or list(a.items()) == list(b.items())
    assert any(flat.cols[c] is None for c in range(sp.dim))


def test_linear_keeps_a_later_sum_whole(space_k2):
    # a combination of several terms in a later place is added as its own
    # column: adding its terms one by one would cancel A against the inner
    # A first and bring C's entries back in C's order, which differs in 32
    # columns
    sp = space_k2
    J, Jm = density_op(sp, +1, 1), density_op(sp, +1, -1)
    A, C = J @ Jm, Jm @ J
    ops = [linear(sp, (1, A), (-1, linear(sp, (1, A), (1, C)))),
           dict_linear(sp, (1, A), (-1, dict_linear(sp, (1, A), (1, C)))),
           dict_linear(sp, (1, A), (-1, A), (-1, C))]
    cols = [[list(op.cols[c].items()) for c in range(sp.dim)] for op in ops]
    assert cols[0] == cols[1]
    assert sum(a != b for a, b in zip(cols[1], cols[2])) == 32


def test_partial_columns_propagate(space_k2):
    # a product column is None when the right factor reaches a state outside
    # the left factor's validity window; sums and multiples inherit it
    sp = space_k2
    R = klein_factor(sp, +1)
    (edge,) = ladder_op(sp, +1, Fraction(3, 2), dagger=True).cols[sp.vacuum]
    assert R.cols[edge] is None  # R_+ would shift 3 pi / L to 5 pi / L
    cd = ladder_op(sp, +1, Fraction(3, 2), dagger=True)
    prod = R @ cd
    for op in (prod, prod * 2, prod + cd, cd - prod, cd @ prod):
        assert op.cols[sp.vacuum] is None
        assert op.cols.get(sp.vacuum) is None
        assert op.cols.get(sp.vacuum, {}).get(edge, 0) == 0
    # inside the window the product column is computed as usual: R_+ moves
    # the mode at pi / L up to the edge and refills pi / L
    inner = R @ ladder_op(sp, +1, HALF, dagger=True)
    both = edge | 1 << sp.mode_position(+1, HALF)
    assert set(inner.cols[sp.vacuum]) == {both}


def test_klein_charge_eigenstates(space_k2):
    # H0 R_+^{q+} R_-^{-q-} Omega = (pi / L)(q+^2 + q-^2) (lab: 1/2 unit)
    sp = space_k2
    h0 = free_hamiltonian(sp)
    ops = {(+1, False): klein_factor(sp, +1),
           (+1, True): klein_factor(sp, +1, dagger=True),
           (-1, False): klein_factor(sp, -1),
           (-1, True): klein_factor(sp, -1, dagger=True)}
    for qp in range(-2, 3):
        for qm in range(-2, 3):
            vec = {sp.vacuum: 1}
            word = [ops[(-1, qm > 0)]] * abs(qm) + [ops[(+1, qp < 0)]] * abs(qp)
            for op in word:
                vec = op.apply_col(vec)
            expect = Fraction(qp * qp + qm * qm, 2)
            hvec = h0.apply_col(vec)
            for key, amp in vec.items():
                assert hvec.get(key, 0) == expect * amp


def test_boson_ladder_examples(space_k2):
    # the oracle's b(p) is phase sqrt(s) op; the unit phase and the scale s
    # are carried explicitly, so op stays a matrix over Q
    sp = space_k2
    interior = sp.interior_indices()
    with pytest.raises(ZeroMode):
        boson_ladder(sp, 0)
    # b(p) Omega = 0
    for m in (1, -1, 2, -2):
        assert not boson_ladder(sp, m)[0].cols.get(sp.vacuum)
    # [b(p), b^dag(p)] = phase phase^dag s [op, op^dag] = 1 on the
    # |p|-reduced window: the phases multiply to 1, the rest is the identity
    for m in (1, -1, 2, -2):
        b, phase, s = boson_ladder(sp, m)
        bd, phase_d, _ = boson_ladder(sp, m, dagger=True)
        assert phase in (1j, -1j) and phase * phase_d == 1
        window = sp.interior_indices(sp.K - abs(m))
        res = b.commutator(bd) * s - SparseOperator.identity(sp)
        assert res.max_entry(set(window), window)[0] == 0
    # [b(p), b(p')] = 0 and [b(p), b^dag(p')] = 0 for p != p' (unit phases
    # and positive scales cannot make a nonzero commutator vanish)
    b1 = boson_ladder(sp, 1)[0]
    b2 = boson_ladder(sp, 2)[0]
    assert b1.commutator(b2).max_entry(set(interior), interior)[0] == 0
    res = b1.commutator(boson_ladder(sp, 2, dagger=True)[0])
    assert res.max_entry(set(interior), interior)[0] == 0
    # normalized one-boson state at p = 2 pi / L
    bd1, phase1, s1 = boson_ladder(sp, 1, dagger=True)
    vec = bd1.cols[sp.vacuum]
    assert phase1.conjugate() * phase1 == 1
    norm2 = sum((amp.conjugate() * amp).real for amp in vec.values()) * s1
    assert norm2 == 1


def test_boson_states_orthonormal(space_k2):
    # <eta^B_m, eta^B_m'> = delta for all window-constructible boson states;
    # a state is (vec, phase, s) with the state phase sqrt(s) vec
    sp = space_k2
    bd1, phase1, s1 = boson_ladder(sp, 1, dagger=True)
    bd1m, phase1m, s1m = boson_ladder(sp, -1, dagger=True)
    rp = klein_factor(sp, +1)
    states = {}
    vac = {sp.vacuum: 1}
    states["vac"] = (vac, 1, Fraction(1))
    states["b1"] = (bd1.apply_col(vac), phase1, s1)
    states["b-1"] = (bd1m.apply_col(vac), phase1m, s1m)
    states["R+"] = (rp.apply_col(vac), 1, Fraction(1))
    two = bd1.apply_col(bd1.apply_col(vac))
    states["b1b1/sqrt2"] = (two, phase1 * phase1, Fraction(1, 2) * s1**2)

    def inner(a, b):
        """(phase, rational part) of the inner product."""
        va, pa, sa = a
        vb, pb, sb = b
        s = 0
        for k, amp in va.items():
            if k in vb:
                s = s + amp.conjugate() * vb[k]
        if s == 0:
            return pa.conjugate() * pb, 0
        # the phases and the scales multiply under inner products
        return pa.conjugate() * pb, s * exact_sqrt(sa * sb)

    names = list(states)
    for i, na in enumerate(names):
        for nb in names:
            phase, val = inner(states[na], states[nb])
            expect = 1 if na == nb else 0
            assert val == expect, (na, nb, val)
            assert na != nb or phase == 1, (na, phase)


def test_cutoff_independence(space_k2, space_k3):
    # entries between interior states agree when rebuilt at K + 1
    sp2, sp3 = space_k2, space_k3

    def embed(mask):
        big = 0
        for pos in range(sp2.nmodes):
            if (mask >> pos) & 1:
                r = +1 if pos < 2 * sp2.K else -1
                nu = sp2.fermion_modes()[pos % (2 * sp2.K)]
                big |= 1 << sp3.mode_position(r, nu)
        return big

    interior = sp2.interior_indices()
    pairs = [
        (density_op(sp2, +1, 1), density_op(sp3, +1, 1)),
        (density_op(sp2, -1, -2), density_op(sp3, -1, -2)),
        (free_hamiltonian(sp2), free_hamiltonian(sp3)),
        (klein_factor(sp2, +1), klein_factor(sp3, +1)),
        (klein_factor(sp2, -1, dagger=True),
         klein_factor(sp3, -1, dagger=True)),
    ]
    for small, big in pairs:
        for col in interior:
            for row in interior:
                a = small.cols.get(col, {}).get(row, 0)
                b = big.cols.get(embed(col), {}).get(embed(row), 0)
                assert a - b == 0
