from fractions import Fraction as F
from itertools import product
from math import factorial

import pytest

from taulab.partitions import partitions_of
from taulab.series import Series, Rat, FAMILY_P, FAMILY_TQ
from taulab.hurwitz import (HurwitzQuery, ONEPART, hurwitz_frobenius,
                            h_onepart_series, h_unst_onepart, lp)
from taulab.hierarchy import hirota_residual
from taulab.pic import (Laurent, transform_p_to_tq, chvar_pic,
                        bracket, genus_table, f_series, u_series, u_in_T,
                        string_check, dilaton_check, u_hierarchy_residuals,
                        chvar_coeff, _q_exp, _monomials_up_to_weight)
from taulab.hodge import (transform_p_to_tu, elsv_chvar_coeff, _u_exp, h_simple_stable, f_moduli,
                          moduli_caps_for, hurwitz_to_hodge)
from oracles import (variable, partial, bump, lowered, expand_then_cancel,
                     derivative_transform_pic, derivative_inverse_check, string_check_by_coeff,
                     dilaton_check_by_coeff)

GOLDEN = {
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


def test_bracket_golden_table():
    for ds, want in GOLDEN.items():
        assert bracket(ds) == want, ds


def _bracket_by_tuples(ds):
    """The defining sum, term by term: one one-part Hurwitz number per
    ordered b with 1 <= b_i <= d_i + 1."""
    n, total = len(ds), sum(ds)
    if not n or (total - n + 3) % 4 or total - n + 3 < 0:
        return F(0)
    g = (total - n + 3) // 4
    m = 2 * g - 1 + n
    acc = F(0)
    for bs in product(*[range(1, d + 2) for d in ds]):
        coeff = F(1)
        for d, b in zip(ds, bs):
            coeff *= chvar_coeff(b, d)
        h = hurwitz_frobenius(HurwitzQuery(ONEPART, g, bs))
        acc += coeff * h / (factorial(m) * sum(bs))
    return acc


def test_bracket_equals_per_tuple_sum():
    # every genus <= 2 bracket of weight sum (d_i + 1) <= 12, then the
    # genus-3 brackets with one or two points
    cases = []
    for w in range(1, 13):
        for la in partitions_of(w):
            ds = tuple(sorted(p - 1 for p in la.parts))
            g4 = sum(ds) - len(ds) + 3
            if g4 % 4 == 0 and 0 <= g4 <= 8:
                cases.append(ds)
    cases += [(10,)] + [(d, 11 - d) for d in range(6)]
    assert len(cases) == 57
    for ds in cases:
        assert bracket(ds) == _bracket_by_tuples(ds), ds


def test_bracket_dimension_filter():
    assert bracket((1,)) == 0
    assert bracket((0,)) == 0
    assert bracket((3,)) == 0
    assert bracket((2, 2)) == 0
    assert bracket(()) == 0


def test_genus_table():
    assert genus_table(0) == {(0, 0, 0): F(1)}
    assert genus_table(1) == {(2,): F(1, 24)}
    g2 = genus_table(2)
    assert g2 == {k: v for k, v in GOLDEN.items() if sum(k) - len(k) + 3 == 8}


def test_transform_image_of_p1():
    # image of p_1 alone: q^{-1} t_0 - q^{-2} t_1 + 1/2 q^{-3} t_2 - ...
    p1 = variable(FAMILY_P, 1, 6, 0)
    img = transform_p_to_tq(p1)
    assert img.terms[(-1, ((0, 1),))] == 1
    assert img.terms[(-2, ((1, 1),))] == -1
    assert img.terms[(-3, ((2, 1),))] == F(1, 2)
    assert chvar_coeff(1, 3) == F(-1, 6)


def test_transform_h_st_has_only_positive_q():
    W, M = 9, 5
    H = h_onepart_series(W, M)
    H_st = H - h_unst_onepart(W, M)
    img = chvar_pic(H_st, q_floor=1)  # raises if any exact term below q^1
    assert img.lowest_nonzero_q() == 1


def test_double_extraction_bracket_vs_transform():
    # weight 12 covers every bracket with g <= 2, n <= 3, sum d <= 9;
    # weight 13 adds the genus-3 coefficients with one or two points,
    # weight 15 those with up to three
    for W, M in ((12, 7), (13, 7), (15, 8)):
        H = h_onepart_series(W, M)
        H_st = H - h_unst_onepart(W, M)
        img = chvar_pic(H_st, q_floor=1)
        got_F = img.q_slice(1)
        assert got_F.cap_weight == W
        want_F = f_series(got_F.cap_weight)
        assert got_F == want_F


def test_genus4_transform_matches_brackets():
    # weight 17 reaches the genus-4 brackets (4g = sum d - n + 3) with one
    # or two points
    W, M = 17, 9
    img = chvar_pic(h_onepart_series(W, M) - h_unst_onepart(W, M), q_floor=1)
    assert img.lowest() == 1
    got_F = img.q_slice(1)
    assert got_F.cap_weight == W
    assert got_F == f_series(W)
    assert got_F.coeff(0, {14: 1}) == bracket((14,)) != 0


PICTURES = {"q": (transform_p_to_tq, (chvar_coeff, _q_exp, 2)),
            "u": (transform_p_to_tu, (elsv_chvar_coeff, _u_exp, 3))}
ORACLE_CASES = {  # name: (input series, picture)
    "q(10,6)": (lambda: h_onepart_series(10, 6) - h_unst_onepart(10, 6), "q"),
    "lp2 q(9,5)": (lambda: lp(lp(h_onepart_series(9, 5))), "q"),
    "u(8,10)": (lambda: h_simple_stable(8, 10), "u"),
}


@pytest.mark.parametrize("case", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_change_of_variables_matches_expand_then_cancel(case):
    # the per-target sum against the literal definition, term by term
    build, picture = case
    H = build()
    transform, args = PICTURES[picture]
    img = transform(H)
    want = expand_then_cancel(H, *args)
    assert img.terms and img.terms == want.terms
    assert (img.w_cap, img.m_cap) == (want.w_cap, want.m_cap)
    assert img.w_cap == H.cap_weight


def test_lp2h_transform_gives_u_at_q_minus_one():
    W, M = 9, 5
    H = h_onepart_series(W, M)
    img = transform_p_to_tq(lp(lp(H)))
    assert img.lowest_nonzero_q() == -1
    got_U = img.q_slice(-1)
    want_U = u_series(got_U.cap_weight)
    assert got_U == want_U


def lp2_h_unst_transformed(w_cap):
    """Closed form of the transform of L_p^2 H_unst:
    q^{-1} t_0 (t_1 + 1) + t_0^2, entered directly."""
    terms = {
        (-1, ((0, 1),)): Rat(1),
        (-1, ((0, 1), (1, 1))): Rat(1),
        (0, ((0, 2),)): Rat(1),
    }
    return Laurent(terms, w_cap, 1, 2, _q_exp)


def test_lp2h_unst_closed_form():
    W, M = 7, 1
    unst = h_unst_onepart(W, M)
    img = transform_p_to_tq(lp(lp(unst)))
    want = lp2_h_unst_transformed(W)
    # compare on the staircase both objects share
    keys = set(img.terms) | set(want.terms)
    for k in keys:
        j, vm = k
        wt = sum((d + 1) * e for d, e in vm)
        if j + wt <= 2 * M and wt <= W:
            assert img.terms.get(k, Rat(0)) == want.terms.get(k, Rat(0)), k


def test_transform_staircase_slices():
    # q-picture staircase j + wt <= 2M, cut at w_cap = 12
    W, M = 12, 7
    img = chvar_pic(h_onepart_series(W, M) - h_unst_onepart(W, M), q_floor=1)
    assert [img.q_slice(j).cap_weight for j in range(-1, 6)] == \
        [12, 12, 12, 12, 11, 10, 9]
    # q^14 = beta^7 is exact only in its constant; above it nothing is, so an
    # empty slice would be no answer
    assert img.q_slice(2 * M).cap_weight == 0
    with pytest.raises(ValueError, match="above the staircase"):
        img.q_slice(2 * M + 1)
    # a non-P input is rejected
    with pytest.raises(ValueError):
        transform_p_to_tq(img.q_slice(1))


def test_chvar_rejects_bad_input():
    # the raw one-point series transforms to negative q powers
    p1 = variable(FAMILY_P, 1, 6, 0)
    with pytest.raises(ValueError):
        chvar_pic(p1, q_floor=1)


def test_string_dilaton():
    # weight 16 spans genus 3 and 4
    for W in (10, 16):
        Fser = f_series(W)
        assert string_check(Fser)
        assert dilaton_check(Fser)


def _verdicts(F, source=None):
    got = (string_check(F) if source is None else string_check(F, source), dilaton_check(F))
    want = (string_check_by_coeff(F) if source is None else string_check_by_coeff(F, source),
            dilaton_check_by_coeff(F))
    assert got == want, F
    return got


def test_string_dilaton_match_coefficient_oracle():
    for W in range(13):
        assert _verdicts(f_series(W)) == (True, True), W
    W, M = 10, moduli_caps_for(10, 1)
    f1, t11 = f_moduli(1, W, M), hurwitz_to_hodge(1, 1)
    assert _verdicts(f1, {(): t11[(1, (0,))]})[0]
    assert _verdicts(f_moduli(0, W, M))[0]
    # one coefficient off, at every monomial up to the cap: the top weight
    # is read by dF/dt_0 alone, so a region one weight short misses it; a
    # top monomial with neither t_0 nor t_1 is read by neither check
    Fser = f_series(7)
    seen = set()
    for mono in _monomials_up_to_weight(7):
        bad = Fser + Series(FAMILY_TQ, 7, 0, {(0, tuple(sorted(mono.items()))): F(1, 7)})
        seen.add(_verdicts(bad))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_string_examples():
    assert bracket((0, 3)) == bracket((2,)) == F(1, 24)
    # dilaton: <tau_1 tau_2> = 3/2 <tau_2> - 1/2 <tau_2> = <tau_2>
    assert bracket((1, 2)) == bracket((2,))


def lt_second_identity_check(F):
    """L_t (dF/dt_0) = 2 d^2F/dt_0 dt_1 + (1/sqrt(beta)) (d^2F/dt_0^2 - t_0)."""
    W = F.cap_weight
    G = partial(F, 0)
    for mono in _monomials_up_to_weight(W - 3):
        weight = sum((d + 1) * e for d, e in mono.items())
        lhs0 = Rat(weight) * G.coeff(0, mono)
        rhs0 = 2 * (mono.get(0, 0) + 1) * (mono.get(1, 0) + 1) * \
            F.coeff(0, bump(bump(mono, 0), 1))
        if lhs0 != rhs0:
            return False
        lhs1 = lowered(G, mono)
        rhs1 = (mono.get(0, 0) + 2) * (mono.get(0, 0) + 1) * F.coeff(0, bump(mono, 0, 2))
        if mono == {0: 1}:
            rhs1 -= 1
        if lhs1 != rhs1:
            return False
    return True


def test_lt_identities():
    # L_t F = F + 2 dF/dt_1 + (1/sqrt(beta)) (dF/dt_0 - t_0^2/2), split into
    # the q^0 and q^{-1} parts: twice the dilaton equation, and the string
    # equation with its t_0^2/2 source
    Fser = f_series(10)
    assert string_check(Fser) and dilaton_check(Fser)
    assert lt_second_identity_check(Fser)
    # a wrong constant breaks only the q^0 part, a wrong t_0 only the q^{-1}
    for vm in ((), ((0, 1),)):
        bad = Fser + Series(Fser.family, Fser.cap_weight, 0, {(0, vm): F(1)})
        assert not all(_verdicts(bad)), vm


def test_u_in_T_weights():
    UT = u_in_T(8)
    # coefficient of T_1 is <tau_0^3> = 1; of T_1 T_2 is <tau_0^2 tau_0 tau_1> * 1!
    assert UT.coeff(0, {1: 1}) == 1
    assert UT.family == FAMILY_P


def test_u_hierarchy_residuals_vanish():
    res = u_hierarchy_residuals(10)
    # any constant shift c' solves the Hirota equations; c' = 5/7 beside 0 and 1
    res.update((("hirota", ij, Rat(5, 7)), hirota_residual(*ij, u_in_T(10) + Rat(5, 7)))
               for ij in ((2, 2), (2, 3)))
    for key, series in res.items():
        assert series.is_zero(), (key, series.pretty())
        kind, (i, j), _ = key
        assert series.cap_weight == 10 - (i + j)


def psi_expansion_check(d):
    """The alternating sum of 1/(1 - b psi) telescopes to psi^d + higher:
    coefficient of psi^k is 0 for k < d and 1 for k = d."""
    for k in range(d + 1):
        s = sum(chvar_coeff(b, d) * Rat(b) ** k for b in range(1, d + 2))
        want = Rat(1) if k == d else Rat(0)
        if s != want:
            return False
    return True


def test_psi_expansion():
    for d in range(9):
        assert psi_expansion_check(d)


def test_pic_derivative_transform():
    assert derivative_transform_pic(1) == [(0, 1, F(1))]
    assert derivative_transform_pic(2) == [(0, 1, F(1)), (1, 2, F(1))]
    assert derivative_transform_pic(3) == [(0, 1, F(1)), (1, 2, F(2)), (2, 3, F(2))]
    assert derivative_inverse_check(10, derivative_transform_pic, chvar_coeff)
