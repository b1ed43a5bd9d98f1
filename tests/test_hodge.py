from fractions import Fraction as F
from itertools import chain, combinations, product
from math import comb, factorial

import pytest

from taulab import hodge, hurwitz
from taulab.series import Series, FAMILY_P, FAMILY_TQ
from taulab.hodge import (a_coeff, elsv_chvar_coeff, transform_p_to_tu,
                          chvar_elsv, derivative_transform_elsv, h_simple_stable,
                          moduli_caps_for, f_moduli, apply_L, solve_l,
                          exp_l_equals_L_check, ck_report,
                          LISTED_CK, hurwitz_to_hodge,
                          khat_22, kpbar_22, conjugated_equation, kdv_check,
                          kdv_zpart_as_moduli_poly, ModuliPDESolver)
from taulab.diffops import evaluate
from taulab.pic import string_check

import oracles
from oracles import (constant, variable, zop_exp, zop_grade, a_alternating, L_grade_per_tuple,
                     build_L_grade, full_rescan, exp_l_operator_route, l_operator,
                     derivative_inverse_check, elsv_scaled_value)

# caps shared by the heavier extraction tests
W = 10
M = moduli_caps_for(W, 2)


def test_a_coeff_goldens():
    assert a_coeff(0, 1) == 1 and a_coeff(0, 2) == 1
    assert a_coeff(1, 1) == 3 and a_coeff(1, 2) == 7
    assert a_coeff(2, 1) == 6 and a_coeff(2, 2) == 25
    for d in range(9):
        assert a_coeff(d, 0) == 1


def test_a_coeff_integrality():
    for d in range(9):
        for k in range(9):
            v = a_coeff(d, k)
            assert v.denominator == 1, (d, k, v)


def test_a_coeff_matches_alternating_sum():
    for d in range(13):
        for k in range(9):
            assert a_coeff(d, k) == a_alternating(d, k), (d, k)


def test_build_L_grade_matches_per_tuple_sum():
    for cap in (4, 8):
        for k in range(1, 5):
            want = L_grade_per_tuple(k, cap).terms
            assert want and build_L_grade(k, cap).terms == want, (k, cap)


class _CountingSolver(ModuliPDESolver):
    calls = 0

    def equation_affine(self, terms, entry):
        self.calls += 1
        return super().equation_affine(terms, entry)


@pytest.mark.parametrize("kmax, w, reverse, calls", [
    (1, 10, False, (284, 556)), (2, 8, False, (203, 335)),
    (1, 10, True, (293, 695)), (2, 8, True, (207, 402))])
def test_pde_work_list_matches_full_rescan(kmax, w, reverse, calls, monkeypatch):
    # the same primitives, solved in the same order, with fewer equations
    # evaluated than rescanning every monomial on every sweep.  In reverse
    # weight order some primitives are solved only on a second sweep, by an
    # equation that had two unknowns on the first
    if reverse:
        monos = hodge._monomials_up_to_weight
        for module in (hodge, oracles):
            monkeypatch.setattr(module, "_monomials_up_to_weight",
                                lambda cap: monos(cap)[::-1])
    solver = _CountingSolver(kmax, w).run()
    want = full_rescan(_CountingSolver(kmax, w))
    assert list(solver.solved.items()) == list(want.solved.items())
    assert (solver.calls, want.calls) == calls


@pytest.mark.parametrize("kmax, w", [(0, 10), (1, 10), (2, 8), (2, 10), (2, 12)])
def test_pde_solver_matches_entrywise_route(kmax, w):
    # reading only the coefficients the grading allows solves the same
    # primitives, to the same values, in the same order.  The oracle reads
    # every bucket of each equation, which together hold each term once
    for phase in range(kmax + 1):
        eq = conjugated_equation(2, 2, phase)
        single, pairs = hodge._equation_terms(eq)
        assert dict(chain(*single, *pairs)) == eq
        assert sum(map(len, single + pairs)) == len(eq)
    got = ModuliPDESolver(kmax, w).run()
    want = oracles.EntrywiseSolver(kmax, w).run()
    assert list(got.solved.items()) == list(want.solved.items())


@pytest.mark.parametrize("kmax, w, monomials", [(1, 10, 139), (2, 12, 272)])
def test_pde_solver_splits_each_monomial_once(kmax, w, monomials, monkeypatch):
    # run() builds its work list once: one split of each monomial of weight
    # <= w, however many sweeps and phases read it
    calls = []
    subs = hodge._sub_multisets
    monkeypatch.setattr(hodge, "_sub_multisets", lambda vm: calls.append(vm) or subs(vm))
    ModuliPDESolver(kmax, w).run()
    assert len(calls) == len(set(calls)) == len(hodge._monomials_up_to_weight(w)) == monomials


def test_bracket_refuses_an_unsolved_primitive():
    # no z^0 equation of weight <= 6 reaches the primitive <tau_2^3>
    with pytest.raises(ValueError, match="unsolved primitives"):
        ModuliPDESolver(0, 6).bracket(0, (2, 2, 2))


def test_pde_solver_refuses_an_inconsistent_equation(monkeypatch):
    # a doubled coefficient of d^(0,1) F^(0) leaves some equation with no
    # unknown and a nonzero constant
    conj = hodge.conjugated_equation

    def doubled(i, j, k):
        eq = dict(conj(i, j, k))  # the memo's entry stays as it is
        if k == 0:
            eq[((0, (0, 1)),)] *= 2
        return eq
    monkeypatch.setattr(hodge, "conjugated_equation", doubled)
    with pytest.raises(ValueError, match="inconsistent equation"):
        ModuliPDESolver(0, 8).run()


@pytest.mark.parametrize("g, n", [(2, 2), (2, 3), (3, 1)])
def test_hodge_table_matches_entrywise_connected_table(g, n, monkeypatch):
    # the oracle's rows, scaled as the packed slots are: entry at j times K! / k!
    got = hurwitz_to_hodge(g, n)
    monkeypatch.setattr(hurwitz, "_connected_rows", lambda family, K: {
        vm: [h * (factorial(K) // factorial(hurwitz._excess(vm) + j))
             for j, h in enumerate(oracles.connected_simple_rows(vm, J)[1]) if j % 2 == 0]
        for vm, J in family.items()})
    assert list(hurwitz_to_hodge(g, n).items()) == list(got.items())


def test_hodge_table_builds_one_connected_table(monkeypatch):
    # the whole lattice of (3, 3), b_1 + b_2 + b_3 <= 13, and every
    # sub-multiset of its profiles make one family, built once at
    # J = 2g + 2n - 2 = 10 and K = 10 + the largest excess |b| - n = 10
    calls = []
    rows = hurwitz._connected_rows

    def counting(family, K):
        calls.append((dict(family), K))
        return rows(family, K)
    monkeypatch.setattr(hurwitz, "_connected_rows", counting)
    hurwitz_to_hodge(3, 3)
    want = set()
    for b in product(range(1, 12), repeat=3):
        if sum(b) <= 13:
            for r in range(1, 4):
                for t in combinations(b, r):
                    want.add(tuple((x, t.count(x)) for x in sorted(set(t))))
    (family, K), = calls
    assert set(family) == want and set(family.values()) == {10} and K == 20


@pytest.mark.parametrize("g, n", [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                  (2, 3), (3, 1)])
def test_hodge_table_matches_tensor_route(g, n):
    # the principal lattice and the tensor grid with its held-out point give
    # the same table; its dict order differs once n >= 2
    assert hurwitz_to_hodge(g, n) == oracles.hodge_by_tensor_grid(g, n)


@pytest.mark.parametrize("bs", [(1, 1), (3, 4), (7, 1), (2, 6)])
def test_hodge_table_refuses_a_perturbed_lattice_value(bs, monkeypatch):
    # (2, 2) reads b_1 + b_2 <= 8: (3, 4) lies inside the fitted lattice, (7, 1)
    # and (2, 6) on the layer whose differences must vanish
    numbers = hodge._simple_numbers
    monkeypatch.setattr(hodge, "_simple_numbers", lambda g, profiles: [
        h + (F(1, 7) if b == bs else 0) for b, h in zip(profiles, numbers(g, profiles))])
    with pytest.raises(ValueError, match="difference of order 6"):
        hurwitz_to_hodge(2, 2)


# caps for F^(0..4) exact to weight 14: the second route for the genus-3 and
# genus-4 tables and for the z^3 conjugated equation
M14 = moduli_caps_for(14, 4)


def test_hodge_lambda_1_2_entries_match_transform_route():
    # <prod tau_d lambda_k> = |Aut(ds)| times the coefficient of prod t_d in F^(k),
    # for every k <= 4 entry of the shapes the weight-14 slices cover
    fs = {k: f_moduli(k, 14, M14) for k in range(5)}
    assert [f.cap_weight for f in fs.values()] == [14, 13, 12, 11, 10]
    compared = 0
    for g, n in ((3, 2), (3, 3), (4, 1), (4, 2), (5, 1)):
        for (k, ds), v in hurwitz_to_hodge(g, n).items():
            if k not in fs:
                assert (g, n, k, ds) == (5, 1, 5, (8,))  # <tau_8 lambda_5> needs z^5
                continue
            assert sum(d + 1 for d in ds) <= fs[k].cap_weight, (g, n, k, ds)
            aut = 1
            for d in set(ds):
                aut *= factorial(ds.count(d))
            assert fs[k].coeff(0, {d: ds.count(d) for d in ds}) * aut == v, (g, n, k, ds)
            compared += 1
    assert compared == 16 + 37 + 5 + 26 + 5


def test_reduction_is_pure_and_shared_by_solvers():
    # solved values are substituted when a reduction is read and never stored
    # in it, so a second solver reusing the memoized reductions solves the same
    first = ModuliPDESolver(1, 10).run()
    assert first.solved[(0, (4,))] == F(1, 1152)
    assert hodge._reduce(0, (4,)) == {(0, (4,)): 1}
    assert hodge._reduce(0, (0, 5)) == {(0, (4,)): 1}  # string: <tau_0 tau_5> = <tau_4>
    assert hodge._reduce(0, (0, 0, 0)) == {None: 1}
    assert first.bracket(0, (5, 0)) == F(1, 1152)
    second = ModuliPDESolver(1, 10).run()
    assert list(second.solved.items()) == list(first.solved.items())


def test_kdv_zpart_is_left_alone_by_a_check():
    poly = kdv_zpart_as_moduli_poly("F01", 1)
    before = dict(poly)
    fs = {s: f_moduli(s, W, M) for s in range(2)}
    assert kdv_check("F01", 1, fs).is_zero()
    again = kdv_zpart_as_moduli_poly("F01", 1)
    assert poly == before and list(again.items()) == list(before.items())


def test_transform_images_of_p():
    # leading image terms: p_1 -> u^{-4} t_0 - u^{-6} t_1 + 1/2 u^{-8} t_2
    p1 = variable(FAMILY_P, 1, 8, 12)
    img = transform_p_to_tu(p1)
    assert img.terms[(-4, ((0, 1),))] == 1
    assert img.terms[(-6, ((1, 1),))] == -1
    assert img.terms[(-8, ((2, 1),))] == F(1, 2)
    # p_2 starts at 1/2 u^{-9} t_1; p_3 at 1/9 u^{-14} t_2
    assert elsv_chvar_coeff(2, 1) == F(1, 2)
    assert elsv_chvar_coeff(3, 2) == F(1, 9)
    assert elsv_chvar_coeff(2, 2) == F(-1, 2)


@pytest.mark.parametrize("W, M", [(4, 4), (8, 14), (10, 19)])
def test_stable_part_is_the_table_without_the_closed_unstable_part(W, M):
    # the grading filter keeps exactly what subtracting the closed form keeps,
    # down to the stored numerators, denominator and term order
    got = h_simple_stable(W, M)
    want = hurwitz.h_simple_series(W, M) - oracles.h_unst_simple(W, M)
    assert (got.num, got.den, list(got.num)) == (want.num, want.den, list(want.num))


def test_transform_stable_is_even_nonnegative():
    img = chvar_elsv(h_simple_stable(8, 14))
    assert img.lowest() >= 0
    assert all(u % 2 == 0 for u, _ in img.terms)


def test_transform_staircase_slices():
    # u-picture staircase u + 5 sum d + 4 n <= 3M: the z^k = u^{2k} slices
    img = chvar_elsv(h_simple_stable(8, 10))
    assert [img.slice(2 * k).cap_weight for k in range(5)] == [6, 5, 5, 5, 4]
    assert [f_moduli(k, 10, 19).cap_weight for k in range(3)] == [10, 9, 8]
    with pytest.raises(ValueError):
        transform_p_to_tu(img.slice(0))


def test_derivative_transform_displayed():
    assert derivative_transform_elsv(1) == [(0, 4, F(1))]
    assert derivative_transform_elsv(2) == [(0, 7, F(2)), (1, 9, F(2))]
    assert derivative_transform_elsv(3) == [(0, 10, F(9, 2)), (1, 12, F(9)),
                                            (2, 14, F(9))]


def test_derivative_inverse():
    assert derivative_inverse_check(10, derivative_transform_elsv, elsv_chvar_coeff)


def test_build_L_displayed_slots():
    L1 = build_L_grade(1, 8)
    assert L1.terms[((0,), (1,))] == 1  # a_{0,1} = 1
    assert L1.terms[((1,), (2,))] == 3  # a_{1,2} = 3
    with pytest.raises(ValueError):  # L_1 lowers the weight by 1
        apply_L(1, constant(FAMILY_TQ, 0, 0, 1))
    L2 = build_L_grade(2, 8)
    assert L2.terms[((0,), (2,))] == 1          # a_{0,2} = 1
    assert L2.terms[((0, 0), (1, 1))] == F(1, 2)  # 1/2 a_{0,1}^2
    assert L2.terms[((0, 1), (1, 2))] == 3        # a_{0,1} a_{1,2} (two orders)


def test_apply_L_matches_build_L_terms():
    # sum c * t^tm * d^dm f over the normal-ordered terms of L_k.  f has no
    # term above weight w, so d^dm f is 0 when dm is heavier than w and has
    # no term above w - wt(dm) otherwise; it is re-capped at w - k before the
    # t factors raise its weight back by wt(tm) = wt(dm) - k
    for s in (0, 1):
        f = f_moduli(s, W, moduli_caps_for(W, s))
        w = f.cap_weight
        for k in (1, 2):
            want = Series(FAMILY_TQ, w - k, f.cap_aux)
            for (tm, dm), c in build_L_grade(k, w).terms.items():
                if sum(d + 1 for d in dm) > w:
                    continue
                piece = f
                for d in dm:
                    piece = oracles.partial(piece, d)
                piece = Series(FAMILY_TQ, w - k, f.cap_aux, piece.terms) * c
                for t in tm:
                    piece = piece * variable(FAMILY_TQ, t, w - k, f.cap_aux)
                want = want + piece
            got = apply_L(k, f)
            assert got == want, (s, k)
            assert (got.cap_weight, got.cap_aux) == (want.cap_weight, want.cap_aux)
            assert not got.is_zero()
    with pytest.raises(ValueError):  # aux would mix with z
        apply_L(1, Series.from_terms(FAMILY_TQ, 4, 1, [(1, {0: 1}, 1)]))
    with pytest.raises(ValueError):  # family P has no t variables
        apply_L(1, variable(FAMILY_P, 1, 4, 0))


@pytest.mark.parametrize("W", [8, 10, 12, 14])
def test_apply_L_matches_substitution_oracle(W):
    M = moduli_caps_for(W, 2)
    f0, f1 = f_moduli(0, W, M), f_moduli(1, W, M)
    for k, f in ((1, f0), (2, f0), (1, f1), (2, f1)):
        got, want = apply_L(k, f), oracles.apply_L_by_substitution(k, f)
        assert (got.num, got.den) == (want.num, want.den), (k, W)
        assert list(got.num) == list(want.num), (k, W)
        assert (got.cap_weight, got.cap_aux) == (want.cap_weight, want.cap_aux)


def test_solve_l_values():
    alpha = solve_l(2, 2)
    assert alpha[0, 1] == 1
    assert alpha[0, 2] == F(-1, 2)  # a_{0,2} - 1/2 a_{0,1} a_{1,2}
    assert alpha[1, 2] == 3


def test_exp_l_equals_L():
    for zmax, cap in ((3, 6), (4, 8), (8, 16), (12, 24)):
        assert exp_l_equals_L_check(zmax, cap), (zmax, cap)


def test_exp_l_operator_route_agrees():
    for zmax, cap in ((3, 6), (4, 8)):
        assert exp_l_operator_route(zmax, cap), (zmax, cap)


def test_exp_of_l_operator_is_L_grade_by_grade():
    m = solve_l(4, 8)
    assert m[0, 1] == 1 and m[0, 2] == F(-1, 2) and m[1, 2] == 3
    assert all(1 <= j - i <= 4 and j <= 8 for i, j in m)
    expl = zop_exp(l_operator(m), 4, 8)
    assert zop_grade(expl, 0).terms == {((), ()): 1}
    for k in range(1, 5):
        assert zop_grade(expl, k) == build_L_grade(k, 8), k


def test_exp_l_check_refuses_a_perturbed_entry(monkeypatch):
    m = solve_l(4, 8)
    assert hodge._exp_matrix(m, 4, 8) == hodge._one_plus_A(4, 8)
    bent_m = dict(m)
    bent_m[2, 4] += F(1, 7)
    with monkeypatch.context() as mp:
        mp.setattr(hodge, "solve_l", lambda zmax, cap: bent_m)
        assert not exp_l_equals_L_check(4, 8)
    bent_a = hodge._one_plus_A(4, 8)
    bent_a[3, 6] += 1
    with monkeypatch.context() as mp:
        mp.setattr(hodge, "_one_plus_A", lambda zmax, cap: bent_a)
        assert not exp_l_equals_L_check(4, 8)
    assert exp_l_equals_L_check(4, 8)


def test_ck_sequence():
    rep = ck_report(len(LISTED_CK), nmax=4)
    for k in range(1, len(LISTED_CK) + 1):
        assert rep[k]["lowering"] == LISTED_CK[k - 1], k
    # the transposed orientation is not constant once k >= 1 has data
    assert rep[1]["transposed"] is None
    assert rep[2]["transposed"] is None


def test_elsv_solve_small():
    t03 = hurwitz_to_hodge(0, 3)
    assert t03 == {(0, (0, 0, 0)): F(1)}
    t11 = hurwitz_to_hodge(1, 1)
    assert t11 == {(0, (1,)): F(1, 24), (1, (0,)): F(1, 24)}


def test_elsv_scaled_value_is_polynomial_data():
    # spot values underlying the (1,1) solve: (b-1)/24
    for b in (1, 2, 3, 4):
        assert elsv_scaled_value(1, (b,)) == F(b - 1, 24)


def test_khat_22_golden():
    assert khat_22() == {
        (0, ((2, 2),)): F(1),
        (0, ((1, 3),)): F(-1),
        (0, ((1, 1), (1, 1))): F(1, 2),
        (0, ((1, 1, 1, 1),)): F(1, 12),
        (2, ((1, 1),)): F(1, 2),
    }


def test_kpbar_22_golden():
    assert kpbar_22() == {
        (0, ((0, 1),)): F(-1),
        (0, ((0, 0), (0, 0))): F(1, 2),
        (0, ((0, 0, 0, 0),)): F(1, 12),
        (1, ((1, 1),)): F(4),
        (1, ((0, 2),)): F(-9),
    }


def test_khat_and_kpbar_refuse_broken_invariants_with_value_error(monkeypatch):
    # raised, not asserted, so python -O keeps the checks
    from taulab import hierarchy
    monkeypatch.setattr(hierarchy, "kp_form", lambda i, j: {((1,), (1, 1)): F(1)})
    with pytest.raises(ValueError, match="first-derivative terms are not supported"):
        khat_22()
    # u_{1,1} = beta^2 / 2 is left alone by the second-derivative term
    monkeypatch.setattr(hierarchy, "kp_form", lambda i, j: {((1, 1),): F(1)})
    with pytest.raises(ValueError, match="did not cancel"):
        khat_22()
    # d/dp_1 carries u^4, d/dp_2 u^7 or u^9: no common parity
    monkeypatch.setattr(hodge, "khat_22", lambda: {(0, ((1,),)): F(1), (0, ((2,),)): F(1)})
    with pytest.raises(ValueError, match="differ in parity"):
        kpbar_22()


def test_conjugated_equation_z0():
    eq = conjugated_equation(2, 2, 0)
    assert eq == {
        ((0, (0, 1)),): F(-1),
        ((0, (0, 0)), (0, (0, 0))): F(1, 2),
        ((0, (0, 0, 0, 0)),): F(1, 12),
    }


DISPLAYED_Z1 = {
    ((1, (0, 1)),): F(-1),
    ((0, (0, 0)), (1, (0, 0))): F(1),
    ((1, (0, 0, 0, 0)),): F(1, 12),
    ((0, (0, 2)),): F(12),
    ((0, (1, 1)),): F(-3),
    ((0, (0, 0)), (0, (0, 1))): F(-2),
    ((0, (0, 0, 0, 1)),): F(-1, 3),
}


def test_conjugated_equation_z1_matches_displayed():
    eq = conjugated_equation(2, 2, 1)
    assert {k: -v for k, v in eq.items()} == DISPLAYED_Z1


def test_conjugated_equation_not_implemented_elsewhere():
    with pytest.raises(NotImplementedError):
        conjugated_equation(2, 3, 1)


def test_extracted_f0_basics():
    f0 = f_moduli(0, W, M)
    assert f0.coeff(0, {0: 3}) == F(1, 6)      # <tau_0^3> = 1
    assert f0.coeff(0, {1: 1}) == F(1, 24)     # <tau_1> = 1/24
    assert f0.coeff(0, {0: 3, 1: 1}) == F(1, 6)  # <tau_0^3 tau_1> = 1
    assert f0.coeff(0, {0: 1, 2: 1}) == F(1, 24)  # <tau_0 tau_2> = 1/24
    assert f0.coeff(0, {2: 1}) == 0            # dimension filter
    assert string_check(f0)


def test_extracted_f1_matches_elsv_solve():
    f1 = f_moduli(1, W, M)
    t11 = hurwitz_to_hodge(1, 1)
    assert f1.coeff(0, {0: 1}) == t11[(1, (0,))]
    t12 = hurwitz_to_hodge(1, 2)
    # coefficient of t_0 t_1 is <tau_0 tau_1 lambda_1> / 1
    assert f1.coeff(0, {0: 1, 1: 1}) == t12[(1, (0, 1))]
    # string equation with its exceptional one-pointed genus-one source,
    # whose value comes from the independent grid solve
    assert string_check(f1, source={(): t11[(1, (0,))]})


def test_conjugated_residuals_vanish_on_extracted_series():
    fs = {0: f_moduli(0, W, M), 1: f_moduli(1, W, M)}
    r0 = evaluate(conjugated_equation(2, 2, 0), {0: fs[0]})
    assert r0.is_zero()
    r1 = evaluate(conjugated_equation(2, 2, 1), fs)
    assert r1.is_zero()
    assert r1.cap_weight >= 3  # the checked region is not empty


def test_conjugated_residual_vanishes_at_z2():
    # no displayed golden exists at z^2 or z^3; the extracted series pin them
    for z, w, m, cap_weight in ((2, W, M, 4), (3, 14, M14, 7)):
        fs = {k: f_moduli(k, w, m) for k in range(z + 1)}
        r = evaluate(conjugated_equation(2, 2, z), fs)
        assert r.is_zero(), z
        assert r.cap_weight == cap_weight, z


def test_kdv_equations():
    fs = {0: f_moduli(0, W, M), 1: f_moduli(1, W, M), 2: f_moduli(2, W, M)}
    for name in ("F01", "F02", "F11", "F03", "F12"):
        r = kdv_check(name, 0, {0: fs[0]})
        assert r.is_zero(), name
    for name in ("F01", "F11"):
        r = kdv_check(name, 1, {0: fs[0], 1: fs[1]})
        assert r.is_zero(), name
    r2 = kdv_check("F01", 2, fs)
    assert r2.is_zero()


def test_pde_route_matches_elsv_solve():
    from taulab.hodge import ModuliPDESolver
    solver = ModuliPDESolver(kmax=1, weight_cap=10).run()
    # seeded only at <tau_0^3> = 1; compare all g <= 2, n <= 2, k <= 1 values
    for g in (1, 2):
        for n in (1, 2):
            table = hurwitz_to_hodge(g, n)
            for (k, ds), v in table.items():
                if k > 1:
                    continue
                assert solver.bracket(k, ds) == v, (g, n, k, ds)
    # a couple of named primitives for the record
    assert solver.solved[(0, (4,))] == F(1, 1152)
    assert solver.solved[(1, (0,))] == F(1, 24)


def _bernoulli(n):
    """B_n with B_1 = -1/2, from sum_{j<=n} C(n+1, j) B_j = 0."""
    bs = [F(1)]
    for m in range(1, n + 1):
        bs.append(-sum(comb(m + 1, j) * bs[j] for j in range(m)) / (m + 1))
    return bs[n]


def _lambda_g_top(g):
    """<tau_{2g-2} lambda_g> = (2^{2g-1} - 1)|B_{2g}| / (2^{2g-1} (2g)!)
    (Faber-Pandharipande)."""
    return (2 ** (2 * g - 1) - 1) * abs(_bernoulli(2 * g)) / (2 ** (2 * g - 1)
                                                              * factorial(2 * g))


def _multinomial(ds):
    out = factorial(sum(ds))
    for d in ds:
        out //= factorial(d)
    return out


def test_lambda_g_formula_values():
    assert [_lambda_g_top(g) for g in (1, 2, 3)] == [F(1, 24), F(7, 5760),
                                                      F(31, 967680)]


def test_elsv_solve_genus3_one_point():
    # <tau_7> is Witten's 1/82944 and <tau_4 lambda_3> the lambda_g formula;
    # the middle values are pinned by the one-point series test below
    assert hurwitz_to_hodge(3, 1) == {
        (0, (7,)): F(1, 82944), (1, (6,)): F(7, 138240),
        (2, (5,)): F(41, 580608), (3, (4,)): F(31, 967680),
    }


def test_pde_route_at_z2_matches_elsv_solve():
    from taulab.hodge import ModuliPDESolver
    solver = ModuliPDESolver(kmax=2, weight_cap=10).run()
    for (k, ds), v in hurwitz_to_hodge(2, 1).items():
        assert solver.bracket(k, ds) == v, (k, ds)
    assert solver.bracket(2, (2,)) == _lambda_g_top(2) == F(7, 5760)


@pytest.mark.parametrize("g, n", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (4, 2),
                                  (4, 3)])
def test_lambda_g_theorem(g, n):
    # <prod tau_{d_i} lambda_g> = C(2g-3+n; d) <tau_{2g-2} lambda_g>
    # (Getzler-Pandharipande), on every lambda_g entry of the table
    table = hurwitz_to_hodge(g, n)
    top = {key: v for key, v in table.items() if key[0] == g}
    assert top
    for (_, ds), v in top.items():
        assert sum(ds) == 2 * g - 3 + n
        assert v == _multinomial(ds) * _lambda_g_top(g), ds


def _one_point_hodge_series(gmax):
    """(t/2 / sin(t/2))^{K+1} = A exp(K log A) as {(g, i): coeff of t^{2g} K^i}.

    Faber-Pandharipande: that coefficient is <tau_{2g-2+i} lambda_{g-i}>."""
    def mul(a, b):
        return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(gmax + 1)]

    # sin(t/2)/(t/2) in powers of x = t^2, and its inverse A
    s = [F((-1) ** j, factorial(2 * j + 1) * 4 ** j) for j in range(gmax + 1)]
    A = [F(1)] + [F(0)] * gmax
    for j in range(1, gmax + 1):
        A[j] = -sum(s[i] * A[j - i] for i in range(1, j + 1))
    # log A = sum_{r >= 1} (-1)^{r+1} (A - 1)^r / r
    log_a = [F(0)] * (gmax + 1)
    power = [F(1)] + [F(0)] * gmax
    for r in range(1, gmax + 1):
        power = mul(power, [F(0)] + A[1:])
        log_a = [x + F((-1) ** (r + 1), r) * y for x, y in zip(log_a, power)]
    out = {}
    term = A  # A (log A)^i / i!
    for i in range(gmax + 1):
        for g in range(gmax + 1):
            out[(g, i)] = term[g]
        term = [c / (i + 1) for c in mul(term, log_a)]
    return out


def test_one_point_tables_match_hodge_series():
    coeffs = _one_point_hodge_series(3)
    assert coeffs[(1, 0)] == F(1, 24) and coeffs[(2, 2)] == F(1, 1152)
    for g in (1, 2, 3):
        table = hurwitz_to_hodge(g, 1)
        assert len(table) == g + 1
        for (k, (d,)), v in table.items():
            assert d == 3 * g - 2 - k
            assert v == coeffs[(g, g - k)], (g, k)


@pytest.mark.parametrize("g, n", [(0, 1), (0, 2), (-1, 5), (1, 0), (-1, 1)])
def test_unstable_hodge_shape_rejected(g, n):
    # the message names the shape
    with pytest.raises(ValueError, match="not stable"):
        hurwitz_to_hodge(g, n)
