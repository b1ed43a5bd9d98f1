"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single summary line (visible with pytest -s); the
assertions themselves are the gate.  All arithmetic is rational, so every
tolerance is zero.
"""

from fractions import Fraction as F
import random

from taulab.partitions import partitions_of, partitions_upto, \
    cut_and_join_eigenvalue, zee
from taulab.symfunc import character, schur_poly
from taulab.series import Series, Rat, FAMILY_P
from taulab.hierarchy import (hirota_form, hirota_residual, lkp_residual,
                              kp_residual, kp_form, lkp_form, cut_and_join,
                              corner_descent_check, character_identity_check,
                              hirota_s_tensor, weight_flow_equivalence_check)
from taulab.diffops import _accumulate
from taulab import hurwitz as hw
from taulab import pic
from taulab import hodge
from oracles import (aux_slice, hook_sum_identity_check, partial, polynomiality_check,
                     substitute)


def _line(n, text):
    print("ACCEPTANCE %d: PASS - %s" % (n, text))


def test_acceptance_1_golden_bracket_table():
    golden = {
        (0, 0, 0): F(1),
        (2,): F(1, 24),
        (6,): F(1, 1920),
        (2, 5): F(19, 5760),
        (3, 4): F(11, 1920),
        (2, 2, 4): F(37, 1440),
        (2, 3, 3): F(5, 144),
        (2, 2, 2, 3): F(5, 24),
        (2, 2, 2, 2, 2): F(25, 16),
    }
    for ds, want in golden.items():
        assert pic.bracket(ds) == want, ds
    _line(1, "all %d golden bracket values reproduced exactly" % len(golden))


def _all_queries(kind, dmax=5, mmax=7):
    out = []
    for d in range(1, dmax + 1):
        for nu in partitions_of(d):
            for g in range(0, 6):
                q = hw.HurwitzQuery(kind, g, nu.parts)
                if 0 <= q.branch_points <= mmax:
                    out.append(q)
    return out


def test_acceptance_2_oracle_equivalence():
    count = 0
    for q in _all_queries(hw.ONEPART):
        brute = hw.hurwitz_bruteforce(q)
        assert brute == hw.hurwitz_frobenius(q) == hw.hurwitz_closed(q), q
        count += 1
    for q in _all_queries(hw.SIMPLE):
        assert hw.hurwitz_bruteforce(q) == hw.hurwitz_frobenius(q), q
        count += 1
    _line(2, "three-route (one-part) and two-route (simple) agreement on "
             "%d queries with degree <= 5, branch points <= 7" % count)


def test_acceptance_3_unstable_goldens():
    W = 8
    H1 = hw.h_onepart_series(W, 3)
    unst1 = hw.h_unst_onepart(W, 3)
    for (aux, vm), c in unst1.terms.items():
        assert H1.coeff(aux, dict(vm)) == c, (aux, vm)
    H2 = hw.h_simple_series(W, W + 1)
    unst2 = hw.h_unst_simple(W, W + 1)
    for (aux, vm), c in unst2.terms.items():
        n = sum(e for _, e in vm)
        d = sum(i * e for i, e in vm)
        if aux == d + n - 2:  # the g = 0 slot of this monomial
            assert H2.coeff(aux, dict(vm)) == c, (aux, vm)
    _line(3, "one-part and simple unstable parts match the closed formulas "
             "through weight %d" % W)


def test_acceptance_4_cut_and_join_eigenbasis():
    for d in range(1, 9):
        for la in partitions_of(d):
            s = schur_poly(la)
            assert cut_and_join(s) == s * cut_and_join_eigenvalue(la), la
    W = 8
    beta_free = aux_slice(hw.hook_series(W, 4), 0)
    want = Series.from_terms(FAMILY_P, W, 4,
                             [(0, {i: 1}, 1) for i in range(1, W + 1)])
    assert beta_free == want
    for d in range(1, 9):
        assert hook_sum_identity_check(d)
    _line(4, "eigenbasis through size 8, beta-free part of the squared-scaled "
             "series, and hook-sum identity through degree 8")


HIR22_DISPLAYED = {
    ((), (2, 2)): F(1), ((2,), (2,)): F(-1), ((), (1, 3)): F(-1),
    ((1,), (3,)): F(1), ((1, 1), (1, 1)): F(1, 4), ((1,), (1, 1, 1)): F(-1, 3),
    ((), (1, 1, 1, 1)): F(1, 12),
}

KP22_DISPLAYED = {
    ((2, 2),): F(1), ((1, 3),): F(-1), ((1, 1), (1, 1)): F(1, 2),
    ((1, 1, 1, 1),): F(1, 12),
}

LKP22_DISPLAYED = {((2, 2),): F(1), ((1, 3),): F(-1), ((1, 1, 1, 1),): F(1, 12)}

LKP23_DISPLAYED = {
    ((2, 3),): F(1), ((1, 4),): F(-1), ((1, 1, 1, 2),): F(1, 6),
    ((1, 2, 2),): F(1, 2), ((1, 1, 3),): F(-1, 2), ((1, 1, 1, 1, 1),): F(1, 24),
}


def test_acceptance_5_hirota_kp_lkp():
    W, M = 10, 6
    lp2h = hw.lp(hw.lp(hw.h_onepart_series(W, M)))
    for (i, j) in ((2, 2), (2, 3)):
        for c in (Rat(0), Rat(1), Rat(5, 7)):
            res = hirota_residual(i, j, lp2h + c)
            assert res.is_zero(), (i, j, c)
            assert res.cap_weight == W - (i + j)
        assert lkp_residual(i, j, lp2h).is_zero(), (i, j)
    H = hw.h_simple_series(8, 8)
    assert kp_residual(2, 2, H).is_zero()
    # displayed expansions, symbolically
    assert hirota_form(2, 2) == HIR22_DISPLAYED
    assert kp_form(2, 2) == KP22_DISPLAYED
    assert lkp_form(2, 2) == LKP22_DISPLAYED
    assert lkp_form(2, 3) == LKP23_DISPLAYED
    # the (2,3) tables are checked term-by-term in tests/test_hierarchy.py,
    # including the two display typos pinned there; assert the reduction
    # identity that reconstructs the printed KP_{2,3} from the literal one
    half = {tuple(sorted(key + ((1,),))): c * F(-1, 2) for key, c in kp_form(2, 2).items()}
    printed_f1_terms = _accumulate(dict(kp_form(2, 3)), half.items(), 1)
    assert printed_f1_terms[((1,), (2, 2))] == F(1, 2)
    assert printed_f1_terms[((1,), (1, 1, 1, 1))] == F(1, 24)
    _line(5, "Hirota residuals of c + scaled series vanish to weight %d for "
             "three shifts, linearized and appendix KP residuals vanish, "
             "displayed expansions match" % (W - 4))


def test_acceptance_6_corner_calculus():
    for d in range(1, 9):
        for mu in partitions_of(d):
            assert corner_descent_check(mu), mu
            for la in partitions_of(d - 1):
                assert character_identity_check(mu, la), (mu, la)
    assert hirota_s_tensor(2, 2) == {}
    assert hirota_s_tensor(2, 3) == {k: 2 * c for k, c in hirota_form(2, 2).items()}
    assert hirota_s_tensor(3, 3) == hirota_form(2, 3)
    for mu in partitions_upto(6):
        assert weight_flow_equivalence_check(mu), mu
    _line(6, "corner descent and the character identity through size 8, "
             "descent of the bilinear forms, weight-flow lemma through size 6")


def test_acceptance_7_tau_function_in_T():
    W = 14
    res = pic.u_hierarchy_residuals(W)
    degree6 = 0
    for key, series in res.items():
        assert series.is_zero(), key
        kind, (i, j), _ = key
        assert series.cap_weight == W - (i + j)
        # count degree-6 monomials inside the checked region
        from taulab.pic import _monomials_up_to_weight
        degree6 = max(degree6, sum(1 for m in _monomials_up_to_weight(series.cap_weight)
                                   if sum(m.values()) == 6))
    assert degree6 >= 7
    _line(7, "Hirota residuals of c' + U (two shifts) and linearized residuals "
             "vanish in the T variables through weight %d, covering %d "
             "degree-6 monomials" % (W - 4, degree6))


DISPLAYED_CONJ_Z1 = {
    ((1, (0, 1)),): F(-1),
    ((0, (0, 0)), (1, (0, 0))): F(1),
    ((1, (0, 0, 0, 0)),): F(1, 12),
    ((0, (0, 2)),): F(12),
    ((0, (1, 1)),): F(-3),
    ((0, (0, 0)), (0, (0, 1))): F(-2),
    ((0, (0, 0, 0, 1)),): F(-1, 3),
}


def test_acceptance_8_appendix():
    assert (hodge.a_coeff(0, 1), hodge.a_coeff(0, 2)) == (1, 1)
    assert (hodge.a_coeff(1, 1), hodge.a_coeff(1, 2)) == (3, 7)
    assert (hodge.a_coeff(2, 1), hodge.a_coeff(2, 2)) == (6, 25)
    for d in range(9):
        for k in range(9):
            assert hodge.a_coeff(d, k).denominator == 1
    assert hodge.exp_l_equals_L_check(4, 8)
    rep = hodge.ck_report(12)
    assert [rep[k]["lowering"] for k in range(1, 13)] == hodge.LISTED_CK
    assert hodge.khat_22() == {
        (0, ((2, 2),)): F(1), (0, ((1, 3),)): F(-1),
        (0, ((1, 1), (1, 1))): F(1, 2), (0, ((1, 1, 1, 1),)): F(1, 12),
        (2, ((1, 1),)): F(1, 2),
    }
    eq1 = hodge.conjugated_equation(2, 2, 1)
    assert {k: -v for k, v in eq1.items()} == DISPLAYED_CONJ_Z1
    W = 10
    M = hodge.moduli_caps_for(W, 2)
    fs = {k: hodge.f_moduli(k, W, M) for k in (0, 1)}
    for name in ("F01", "F11"):
        assert hodge.kdv_check(name, 0, {0: fs[0]}).is_zero(), name
        assert hodge.kdv_check(name, 1, fs).is_zero(), name
    solver = hodge.ModuliPDESolver(kmax=1, weight_cap=10).run()
    compared = 0
    for g in (1, 2):
        for n in (1, 2):
            for (k, ds), v in hodge.hurwitz_to_hodge(g, n).items():
                if k <= 1:
                    assert solver.bracket(k, ds) == v, (g, n, k, ds)
                    compared += 1
    _line(8, "expansion-constant goldens and integrality, exp(l) = L through "
             "z^4, listed ratio sequence through k = 12, displayed rewritten "
             "and conjugated equations match, KdV-organized equations hold, "
             "and %d cross-route Hodge values agree" % compared)


def test_acceptance_9_property_suites():
    rng = random.Random(20260809)

    def rand_series():
        items = []
        for _ in range(rng.randrange(1, 5)):
            aux = rng.randrange(0, 3)
            vm = {rng.randrange(1, 4): rng.randrange(1, 3)
                  for _ in range(rng.randrange(0, 3))}
            items.append((aux, vm, F(rng.randrange(-6, 7), rng.randrange(1, 5))))
        return Series.from_terms(FAMILY_P, 6, 4, items)

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert partial(a * b, 2) == partial(a, 2) * b + a * partial(b, 2)
    images = {i: Series.from_terms(FAMILY_P, 6, 4, [(1, {i: 1}, 1), (0, {i + 1: 1}, 2)])
              for i in (1, 2, 3)}
    for _ in range(10):
        a, b = rand_series(), rand_series()
        assert substitute(a * b, images) == substitute(a, images) * substitute(b, images)
    for d in range(1, 8):
        for mu in partitions_of(d):
            for nv in partitions_of(d):
                s = sum(F(character(mu, la) * character(nv, la), zee(la))
                        for la in partitions_of(d))
                assert s == (1 if mu == nv else 0)
    okA, coeffs = polynomiality_check(1, 1, [(b,) for b in (2, 3, 4, 5, 6)], [(7,), (8,)])
    assert okA and coeffs == [F(-1, 24), F(0), F(1, 24)]
    okB, _ = polynomiality_check(1, 2, [(i, j) for i in (1, 2, 3, 4)
                                        for j in (1, 2, 3, 4)], [(5, 3), (3, 5)])
    assert okB
    _line(9, "ring axioms, Leibniz, substitution morphism, character "
             "orthogonality, and polynomiality held-out checks all pass")
