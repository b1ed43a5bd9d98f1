from fractions import Fraction as F
from functools import partial
from math import factorial, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from taulab import hurwitz
from taulab.partitions import (Partition, partitions_of, partitions_upto, aut_order,
                               hook, cut_and_join_eigenvalue, _hook_poly, _hook_sum)
from taulab.symfunc import character
from taulab.series import Series, FAMILY_P
from taulab.hierarchy import cut_and_join, kp_residual
from taulab.hurwitz import (HurwitzQuery, ONEPART, SIMPLE, hurwitz_bruteforce,
                            hurwitz_frobenius, hurwitz_closed,
                            h_onepart_series, h_simple_series,
                            h_unst_onepart, hook_series, lp, _simple_numbers)
import oracles
from oracles import (aux_partial, aux_slice, series_log, disconnected_simple_series,
                     cut_and_join_simple_series, fit_1d, lagrange_fit_1d, tensor_fit,
                     polynomiality_check, connected_simple_rows, connected_simple_series,
                     elsv_scaled_value, h_unst_simple)


def q1(g, *b):
    return HurwitzQuery(ONEPART, g, b)


def qs(g, *b):
    return HurwitzQuery(SIMPLE, g, b)


def test_onepart_golden_values():
    for b in range(1, 6):
        assert hurwitz_bruteforce(q1(0, b)) == F(1, b)
    assert hurwitz_bruteforce(q1(0, 1, 1)) == 1
    assert hurwitz_bruteforce(q1(0, 1, 1, 1)) == 6
    assert hurwitz_bruteforce(q1(1, 2)) == F(1, 2)
    assert hurwitz_bruteforce(q1(1, 3)) == 2


def test_simple_golden_values():
    # one-point genus-0 values b^{b-2}/b
    assert hurwitz_bruteforce(qs(0, 1)) == 1
    assert hurwitz_bruteforce(qs(0, 2)) == F(1, 2)
    assert hurwitz_bruteforce(qs(0, 3)) == 1
    assert hurwitz_bruteforce(qs(0, 4)) == 4
    # degree-1 genus-1 needs transpositions in S_1: impossible
    assert hurwitz_bruteforce(qs(1, 1)) == 0
    assert hurwitz_frobenius(qs(1, 1)) == 0
    assert hurwitz_bruteforce(qs(1, 2)) == F(1, 2)
    assert hurwitz_bruteforce(qs(1, 1, 1)) == 1
    assert hurwitz_bruteforce(qs(0, 1, 1, 2)) == 240


def all_queries(kind, dmax=5, mmax=7):
    out = []
    for d in range(1, dmax + 1):
        for nu in partitions_of(d):
            n = len(nu)
            for g in range(0, 5):
                q = HurwitzQuery(kind, g, nu.parts)
                if 0 <= q.branch_points <= mmax:
                    out.append(q)
    return out


def test_three_route_agreement_onepart():
    for q in all_queries(ONEPART):
        brute = hurwitz_bruteforce(q)
        frob = hurwitz_frobenius(q)
        closed = hurwitz_closed(q)
        assert brute == frob == closed, (q, brute, frob, closed)


def test_two_route_agreement_simple():
    for q in all_queries(SIMPLE):
        brute = hurwitz_bruteforce(q)
        frob = hurwitz_frobenius(q)
        assert brute == frob, (q, brute, frob)


def test_frobenius_onepart_closed_form_degree():
    for d in range(1, 11):
        assert hurwitz_frobenius(q1(0, d)) == F(1, d)


def test_hook_polynomial_matches_murnaghan_nakayama():
    # the hook generating function against Murnaghan-Nakayama characters:
    # the f_j are distinct, so agreement for m = 0..D-1 (a Vandermonde
    # system in the f_j) pins every hook character of every nu
    for D in range(1, 11):
        hooks = [hook(D - 1 - j, j) for j in range(D)]
        fs = [cut_and_join_eigenvalue(la) for la in hooks]
        assert fs == [F(D * (D - 1 - 2 * j), 2) for j in range(D)]
        signs = [character(la, Partition((D,))) for la in hooks]
        assert signs == [(-1) ** j for j in range(D)]
        for nu in partitions_of(D):
            chis = [character(la, nu) for la in hooks]
            for m in range(D):
                want = sum(s * f ** m * c for s, f, c in zip(signs, fs, chis))
                assert F(_hook_sum(_hook_poly(nu), D, m), 2 ** m) == want, (nu, m)


def test_h_onepart_unstable_restriction():
    W, M = 8, 3
    H = h_onepart_series(W, M)
    unst = h_unst_onepart(W, M)
    # g = 0, n <= 2 terms of H equal the closed form exactly
    for (aux, vm), c in unst.terms.items():
        assert H.coeff(aux, dict(vm)) == c, (aux, vm)
    # one spot check of the bookkeeping: coefficient of beta^2 p_3 is
    # h_{1;3}/(m! |Aut| d) = 2/(2*1*3) = 1/3
    assert H.coeff(2, {3: 1}) == F(1, 3)


def test_h_simple_unstable_restriction():
    W, M = 8, 8
    H = h_simple_series(W, M)
    unst = h_unst_simple(W, M)
    for (aux, vm), c in unst.terms.items():
        n = sum(e for _, e in vm)
        d = sum(i * e for i, e in vm)
        g2 = aux - d - n + 2
        if g2 == 0:  # only the g = 0, n <= 2 slots are the unstable part
            assert H.coeff(aux, dict(vm)) == c, (aux, vm)
    assert H.coeff(0, {1: 1}) == 1  # d = 1: only the trivial cover


def test_simple_series_cut_and_join_evolution():
    W, M = 6, 6
    E = disconnected_simple_series(W, M)
    lhs = aux_partial(E)
    rhs = cut_and_join(E)
    # beta-derivative drops exactness at the top aux order
    for (aux, vm), c in lhs.terms.items():
        if aux <= M - 1:
            assert rhs.coeff(aux, dict(vm)) == c
    for (aux, vm), c in rhs.terms.items():
        if aux <= M - 1:
            assert lhs.coeff(aux, dict(vm)) == c


def test_onepart_cut_and_join_evolution():
    W, M = 7, 5
    H = h_onepart_series(W, M)
    for s in (lp(H), lp(lp(H))):
        lhs = aux_partial(s)
        rhs = cut_and_join(s)
        for (aux, vm), c in lhs.terms.items():
            if aux <= M - 1:
                assert rhs.coeff(aux, dict(vm)) == c
        for (aux, vm), c in rhs.terms.items():
            if aux <= M - 1:
                assert lhs.coeff(aux, dict(vm)) == c


def test_lp2h_equals_hook_series():
    W, M = 8, 6
    assert lp(lp(h_onepart_series(W, M))) == hook_series(W, M)


def test_lp2h_beta_free_part():
    W = 8
    s = aux_slice(hook_series(W, 4), 0)
    want = Series.from_terms(FAMILY_P, W, 4, [(0, {i: 1}, 1) for i in range(1, W + 1)])
    assert s == want


def test_kp22_of_simple_h():
    H = h_simple_series(8, 8)
    assert kp_residual(2, 2, H).is_zero()


def test_polynomiality():
    # stable cases only: for g = 0, n <= 2 the scaled numbers are 1/b^2 and
    # 1/(b1+b2), not polynomials; those live in the unstable part
    ok1, coeffs1 = polynomiality_check(1, 1, [(b,) for b in (2, 3, 4, 5, 6)], [(7,)])
    assert ok1
    assert coeffs1 == [F(-1, 24), F(0), F(1, 24)]  # (b^2 - 1)/24
    ok0, coeffs0 = polynomiality_check(0, 3, [(i, j, k) for i in (1, 2) for j in (1, 2)
                                              for k in (1, 2)],
                                       [(3, 1, 2), (3, 3, 3)])
    assert ok0
    assert coeffs0 == {(0, 0, 0): F(1)}  # constant 1: <tau_0^3> alone
    ok2, _ = polynomiality_check(1, 2, [(i, j) for i in (1, 2, 3, 4) for j in (1, 2, 3, 4)],
                                 [(5, 2), (2, 5)])
    assert ok2


def test_polynomiality_genus2_one_part():
    ok, coeffs = polynomiality_check(2, 1, [(b,) for b in range(1, 8)], [(8,)])
    assert ok
    # leading coefficient is the top bracket <tau_6> = 1/1920
    assert coeffs[6] == F(1, 1920)


@st.composite
def _fit_points(draw):
    xs = draw(st.lists(st.fractions(-20, 20, max_denominator=6), min_size=1,
                       max_size=7, unique=True))
    ys = draw(st.one_of(st.just([F(0)] * len(xs)),
                        st.lists(st.fractions(-50, 50, max_denominator=9),
                                 min_size=len(xs), max_size=len(xs))))
    return list(zip(xs, ys))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_fit_points())
@example([(F(3), F(7))])
@example([(F(-4), F(0)), (F(1), F(0)), (F(9), F(0))])
@example([(F(-3), F(2)), (F(0), F(-1)), (F(5), F(4)), (F(11), F(1, 3))])
def test_divided_differences_match_lagrange(points):
    assert fit_1d(points) == lagrange_fit_1d(points)


@pytest.mark.parametrize("g, n", [(2, 2), (3, 1)])
def test_tensor_fit_matches_lagrange_oracle(g, n, monkeypatch):
    # the grids of the tensor route to the Hodge tables: b_i in 1..3g-2+n
    axes = [range(1, 3 * g - 1 + n)] * n
    fit = tensor_fit(axes, partial(elsv_scaled_value, g))
    monkeypatch.setattr(oracles, "fit_1d", lagrange_fit_1d)
    slow = tensor_fit(axes, partial(elsv_scaled_value, g))
    assert fit == slow
    assert list(fit.items()) == list(slow.items())


def test_onepart_g0_map_b_times_h_constant():
    for b in range(1, 9):
        assert hurwitz_frobenius(q1(0, b)) * b == 1


def test_lattice_log_matches_full_series_log():
    # the oracle: the logarithm of the whole disconnected series, coefficient
    # by coefficient; at (8, 8) every coefficient, zero ones included, is
    # also read as a single query through m! |Aut(nu)|
    for W, M in ((8, 8), (10, 19)):
        assert h_simple_series(W, M) == series_log(disconnected_simple_series(W, M))
    W, M = 8, 8
    H = h_simple_series(W, M)
    checked = 0
    for d in range(1, W + 1):
        for nu in partitions_of(d):
            n = len(nu)
            for m in range(M + 1):
                coeff = H.coeff(m, nu.multiplicities())
                twice_g = m - d - n + 2
                if twice_g < 0 or twice_g % 2:
                    assert coeff == 0, (m, nu)
                    continue
                got = hurwitz_frobenius(qs(twice_g // 2, *nu.parts))
                assert got == coeff * factorial(m) * aut_order(nu), (m, nu)
                checked += 1
    assert checked == 76


def test_simple_series_matches_cut_and_join_equation():
    # character-free oracle: the connected series solved from the
    # cut-and-join equation, beta order by beta order
    for W, M in ((8, 8), (10, 19)):
        assert cut_and_join_simple_series(W, M) == h_simple_series(W, M)


def test_connected_table_reads_genus_zero_and_nothing_below():
    # for p_1 p_2^2, j = 0 is k = e(s) = 2, below every genus (J = 2g + 2n - 2
    # at g = -2), so H is 0 there; genus 0 sits at k = d + n - 2 = 6, j = 4,
    # scaled by 2^k d! prod b
    assert _simple_numbers(-2, [(2, 2, 1)]) == [0]
    assert _simple_numbers(0, [(2, 2, 1), (2,)]) == [hurwitz_frobenius(qs(0, 2, 2, 1)),
                                                     hurwitz_frobenius(qs(0, 2))]
    assert F(connected_simple_rows(((1, 1), (2, 2)), 4)[1][4], 2 ** 6 * 120 * 4) == \
        hurwitz_frobenius(qs(0, 2, 2, 1))


def test_connected_table_refuses_a_remainder(monkeypatch):
    # a member below K reads its slot times K! / k!: one unit more leaves a
    # remainder, which raises rather than rounds.  Here p_1 is at J = k = 0
    # and p_1 p_2 at J = 2, so K = 3
    rows = hurwitz._connected_rows

    def bumped(family, K):
        out = rows(family, K)
        out[((1, 1),)][0] += 1
        return out
    monkeypatch.setattr(hurwitz, "_connected_rows", bumped)
    with pytest.raises(ValueError, match="remainder"):
        _simple_numbers(0, [(1,), (2, 1)])


def test_connected_table_refuses_a_negative_z(monkeypatch):
    # Z's slots are nonnegative: with every character negated the packed sum
    # comes out negative, which raises before the logarithm reads it
    column = hurwitz._column
    monkeypatch.setattr(hurwitz, "_column", lambda parts: {
        mask: -c for mask, c in column(parts).items()})
    with pytest.raises(ValueError, match="came out negative"):
        _simple_numbers(0, [(2, 1)])


@pytest.mark.parametrize("W, M", [(8, 12), (10, 19), (12, 22)])
def test_simple_series_matches_entrywise_table(W, M):
    # the packed table against the rows summed entry by entry: the same
    # numerators, in the same order, over the same denominator
    got, want = h_simple_series(W, M), connected_simple_series(W, M)
    assert (got.num, got.den) == (want.num, want.den)
    assert list(got.num) == list(want.num)


def test_single_profile_rows_match_entrywise_table():
    # one call per genus reads every profile of size <= 8 at J = 2g + 2l - 2:
    # a sub-multiset that is also a profile takes the largest J, and each
    # member is divided back from its own slot
    profiles = [la.parts for la in partitions_upto(8)[1:]]
    for g in range(4):
        got = _simple_numbers(g, profiles)
        for b, h in zip(profiles, got):
            vm, J = tuple(sorted(Partition(b).multiplicities().items())), 2 * g + 2 * len(b) - 2
            scale = 2 ** (sum(b) + J - len(b)) * factorial(sum(b)) * prod(b)
            assert h == F(connected_simple_rows(vm, J)[1][J], scale), (g, b)


def test_packed_logarithm_refuses_inexact_slots():
    # l(s) H = l(s) Z - acc / K!, slot by slot, here with l(s) = 1, K = 2 and
    # one-byte slots: a remainder or a negative slot raises, not rounds
    z, nb = hurwitz._pack([3, 1], 1), 1
    assert hurwitz._log_slots(1, z, hurwitz._pack([2, 0], nb), 2, nb, 2) == [2, 1]
    for acc in ([1, 0], [8, 0], [2, 1]):
        with pytest.raises(ValueError):
            hurwitz._log_slots(1, z, hurwitz._pack(acc, nb), 2, nb, 2)


def test_simple_genus0_hurwitz_formula():
    # Hurwitz: h_{0;nu} = m! d^{n-3} prod b^b/b!, m = d + n - 2
    for d in range(1, 13):
        for nu in partitions_of(d):
            n = len(nu)
            want = F(factorial(d + n - 2)) * F(d) ** (n - 3)
            for b in nu.parts:
                want *= F(b ** b, factorial(b))
            assert hurwitz_frobenius(qs(0, *nu.parts)) == want, nu


def test_simple_value_independent_of_profile_order():
    assert hurwitz_frobenius(qs(1, 1, 3, 2)) == hurwitz_frobenius(qs(1, 3, 2, 1))


@pytest.mark.parametrize("kind, genus, profile", [
    (SIMPLE, -1, (3,)),
    (ONEPART, 0, ()),
    (SIMPLE, 0, (2, 0)),
    (SIMPLE, 0, (-1,)),
    ("double", 0, (2,)),
])
def test_query_rejects_bad_input(kind, genus, profile):
    with pytest.raises(ValueError):
        HurwitzQuery(kind, genus, profile)
