"""Exported entry points, and the identity checks kept in ``oracles``, refuse
bad input with ValueError rather than assert, so the refusal also holds
under ``python -O``."""

import pytest

from taulab.partitions import (Partition, partitions_of, partitions_upto, hook, aut_order, zee,
                               class_size, cut_and_join_eigenvalue)
from taulab import series
from taulab.series import Series, Rat, FAMILY_P, FAMILY_TQ
from taulab.diffops import TOp, ZOp, evaluate
from taulab.symfunc import character, dimension, schur_poly, power_to_schur
from taulab.hierarchy import (cut_and_join, character_identity_check, corner_descent_check,
                              d_mu, hirota_form, kp_form, lkp_form, hirota_residual,
                              kp_residual, lkp_residual, hirota_descent_check)
from taulab.hodge import (a_coeff, f_moduli, derivative_transform_elsv, elsv_chvar_coeff,
                          hurwitz_to_hodge, ModuliPDESolver, conjugated_equation,
                          kdv_zpart_as_moduli_poly, kdv_check, ck_report, exp_l_equals_L_check,
                          solve_l, apply_L, moduli_caps_for, transformed_stable, chvar_elsv,
                          transform_p_to_tu)
from taulab.hurwitz import (HurwitzQuery, ONEPART, SIMPLE, h_simple_series, h_onepart_series,
                            h_unst_onepart, hook_series, hurwitz, hurwitz_bruteforce,
                            hurwitz_frobenius, hurwitz_closed, lp)
from taulab.pic import (bracket, chvar_coeff, f_series, u_in_T, genus_table,
                        u_hierarchy_residuals, string_check, dilaton_check, chvar_pic,
                        transform_p_to_tq)
from oracles import (constant, variable, aux_shift, partial, zop_exp, hook_arm_leg,
                     hook_sum_identity_check, polynomiality_check, derivative_transform_pic)

P1 = variable(FAMILY_P, 1, 4, 2)
P3 = Series(FAMILY_P, 3, 0, {(0, ((1, 3),)): 1})
# beta^3 p_1 p_2 is 2/3, as in h_simple_series(4, 4), and beta^3 p_1^2 is 1
B3 = Series(FAMILY_P, 4, 4, {(3, ((1, 1), (2, 1))): Rat(2, 3), (3, ((1, 2),)): 1})
T0 = Series(FAMILY_TQ, 4, 0, {(0, ((0, 1),)): 1})
T10 = Series(FAMILY_TQ, 10, 0, {(0, ((0, 1),)): 1})  # its weight cap admits d^8, as F01 at z^2 needs

BAD_CALLS = {
    "partitions_of(-1)": (partitions_of, -1),
    "hook(-1,0)": (hook, -1, 0),
    "hook(0,-1)": (hook, 0, -1),
    "hook_arm_leg(2,2)": (hook_arm_leg, Partition((2, 2))),
    "a_coeff(-1,0)": (a_coeff, -1, 0),
    "a_coeff(0,-1)": (a_coeff, 0, -1),
    "f_moduli(-1,6)": (f_moduli, -1, 6, 11),
    # any int k >= 0 has a slice; a float or a bool k would share its memo key
    "f_moduli(1.0,6)": (f_moduli, 1.0, 6, 11),
    "f_moduli(True,6)": (f_moduli, True, 6, 11),
    # nothing is exact: L_7 lowers the weight below the cap 6, and z^17 = u^34
    # lies above the staircase u <= 33 of beta^11
    "f_moduli(7,6)": (f_moduli, 7, 6, 11),
    "f_moduli(17,6)": (f_moduli, 17, 6, 11),
    # a float cap used to raise TypeError
    "hurwitz_to_hodge(1.0,1)": (hurwitz_to_hodge, 1.0, 1),
    "hurwitz_to_hodge(1,1.0)": (hurwitz_to_hodge, 1, 1.0),
    # a bool used to pass the isinstance test: (2, True) gave the (2, 1) table,
    # and (True, 2) was refused only later, by HurwitzQuery
    "hurwitz_to_hodge(2,True)": (hurwitz_to_hodge, 2, True),
    "hurwitz_to_hodge(True,2)": (hurwitz_to_hodge, True, 2),
    # a float used to raise TypeError, a bool or a float to be stored under its memo key
    "conjugated_equation(2,2,1.0)": (conjugated_equation, 2, 2, 1.0),
    "conjugated_equation(2,2,True)": (conjugated_equation, 2, 2, True),
    "kdv_zpart(F01,1.0,1)": (kdv_zpart_as_moduli_poly, "F01", 1.0),
    "kdv_zpart(F01,True,1)": (kdv_zpart_as_moduli_poly, "F01", True),
    "kdv_check(F01,1.0)": (kdv_check, "F01", 1.0, {0: T0}),
    # z^zk reads every slice 0..zk: without slice 2 the residual read zero, without
    # slice 1 a true equation left a residual, and without slice 0 a KeyError
    "kdv_check(F01,2,{0,1})": (kdv_check, "F01", 2, {0: T10, 1: T10}),
    "kdv_check(F01,1,{0})": (kdv_check, "F01", 1, {0: T10}),
    "kdv_check(F01,1,{1})": (kdv_check, "F01", 1, {1: T10}),
    # refused up front: expanded without the check, k = -1 gives an empty
    # series at cap_weight + 1
    "apply_L(-1)": (apply_L, -1, T0),
    "apply_L(1.5)": (apply_L, 1.5, T0),
    "apply_L(True)": (apply_L, True, T0),
    # a malformed window used to raise KeyError or IndexError; a check with
    # nothing held out, or held out inside the window, verified nothing
    "polynomiality_check(not a grid)": (polynomiality_check, 1, 2, [(1, 1), (2, 2)], [(3, 3)]),
    "polynomiality_check(len(b) != n)": (polynomiality_check, 1, 2, [(2,)], [(3, 3)]),
    "polynomiality_check(held_out=[])": (polynomiality_check, 1, 1, [(2,)], []),
    "polynomiality_check(held out in window)": (polynomiality_check, 1, 1, [(2,), (3,)], [(2,)]),
    "polynomiality_check(window=[])": (polynomiality_check, 1, 1, [], [(3,)]),
    "derivative_transform_pic(0)": (derivative_transform_pic, 0),
    "derivative_transform_elsv(0)": (derivative_transform_elsv, 0),
    "variable(P,0)": (variable, FAMILY_P, 0, 4, 0),
    "variable(T_Q,-1)": (variable, FAMILY_TQ, -1, 4, 0),
    "aux_shift(-2)": (aux_shift, P1, -2),
    "cut_and_join(T_Q)": (cut_and_join, variable(FAMILY_TQ, 0, 4, 0)),
    "ZOp.exp(z^0 part)": (zop_exp, ZOp({0: TOp({((), ()): 1})}), 2),
    "hook_sum_identity_check(0)": (hook_sum_identity_check, 0),
    # without the check each returns 0, {} or True on an empty region, or a KeyError
    "bracket(0,(-1,2))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), 0, (-1, 2)),
    "bracket(-1,(0,0,0))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), -1, (0, 0, 0)),
    "conjugated_equation(2,2,-1)": (conjugated_equation, 2, 2, -1),
    "kdv_zpart(F01,-1,0)": (kdv_zpart_as_moduli_poly, "F01", -1),
    "kdv_zpart(nope,0,0)": (kdv_zpart_as_moduli_poly, "nope", 0),
    "ck_report(0)": (ck_report, 0),
    "ck_report(2,nmax=-1)": (ck_report, 2, -1),
    "exp_l_equals_L_check(-1,3)": (exp_l_equals_L_check, -1, 3),
    "exp_l_equals_L_check(2,-1)": (exp_l_equals_L_check, 2, -1),
    "solve_l(-1,3)": (solve_l, -1, 3),
    # a float cap used to return the memo value of the equal int, or raise TypeError
    "a_coeff(2.0,1)": (a_coeff, 2.0, 1),
    "exp_l_equals_L_check(2.5,3)": (exp_l_equals_L_check, 2.5, 3),
    "solve_l(2,2.0)": (solve_l, 2, 2.0),
    "ck_report(2.0,3)": (ck_report, 2.0, 3),
    # a float used to be stored as its binary value, 0.1 as 3602879701896397/2^55
    "Series(terms=0.1)": (Series, FAMILY_P, 4, 2, {(0, ()): 0.1}),
    "constant(0.1)": (constant, FAMILY_P, 4, 2, 0.1),
    "variable(coeff=0.1)": (variable, FAMILY_P, 1, 4, 2, 0.1),
    "from_terms(0.1)": (Series.from_terms, FAMILY_P, 4, 2, [(0, {1: 1}, 0.1)]),
    "P1*0.1": (Series.__mul__, P1, 0.1),
    "P1*'1/2'": (Series.__mul__, P1, "1/2"),
    "P1+0.1": (Series.__add__, P1, 0.1),
    "P1-0.1": (Series.__sub__, P1, 0.1),
    "P1/0.1": (Series.__truediv__, P1, 0.1),
    "P1==0.1": (Series.__eq__, P1, 0.1),
    "P1*T0": (Series.__mul__, P1, T0),
    # int() used to truncate a float part and read a bool as 0 or 1: (2.7,)
    # gave the value of (2,), and this fit passed on values taken at 2, 3, 4
    "HurwitzQuery(profile=(2.7,))": (HurwitzQuery, ONEPART, 1, (2.7,)),
    "HurwitzQuery(profile=(True,))": (HurwitzQuery, SIMPLE, 0, (True,)),
    "HurwitzQuery(genus=1.5)": (HurwitzQuery, ONEPART, 1.5, (2,)),
    "HurwitzQuery(genus=True)": (HurwitzQuery, ONEPART, True, (2,)),
    "polynomiality_check(float window)": (polynomiality_check, 1, 1,
                                          [(2.5,), (3.5,), (4.5,)], [(5.5,)]),
    "Partition((2.7,1))": (Partition, (2.7, 1)),
    "Partition((True,))": (Partition, (True,)),
    # a negative or bool cap used to solve nothing, a float one to raise TypeError
    "ModuliPDESolver(-1,10)": (ModuliPDESolver, -1, 10),
    "ModuliPDESolver(1,-3)": (ModuliPDESolver, 1, -3),
    "ModuliPDESolver(1,True)": (ModuliPDESolver, 1, True),
    "ModuliPDESolver(1,2.5)": (ModuliPDESolver, 1, 2.5),
    # a float index used to give 0, and True the value of tau_1
    "bracket(0,(2.5,))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), 0, (2.5,)),
    "bracket(0,(True,True,True))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), 0,
                                    (True, True, True)),
    # True used to build a weight-1 series, a float cap to raise TypeError
    "h_simple_series(True,2)": (h_simple_series, True, 2),
    "h_onepart_series(True,2)": (h_onepart_series, True, 2),
    "h_simple_series(3.0,2)": (h_simple_series, 3.0, 2),
    "h_simple_series(2,2.0)": (h_simple_series, 2, 2.0),
    "f_moduli(0,10,19.0)": (f_moduli, 0, 10, 19.0),
    # a malformed key used to be stored: an unsorted one compared unequal to
    # the sorted one, and p_2^0 hid the constant term
    "Series(unsorted key)": (Series, FAMILY_P, 5, 0, {(0, ((2, 1), (1, 1))): 1}),
    "Series(zero exponent)": (Series, FAMILY_P, 5, 0, {(0, ((2, 0),)): 7}),
    "Series(T_Q,index -1)": (Series, FAMILY_TQ, 5, 0, {(0, ((-1, 1),)): 1}),
    "Series(P,index 0)": (Series, FAMILY_P, 5, 0, {(0, ((0, 1),)): 1}),
    # a float cap used to be kept, a bool one read as 0 or 1
    # coeff used to look such a key up as given and answer 0, or for 2.0 the
    # value at 2: beta^3 p_1 p_2 is 2/3 but read 0 unsorted, and the constant 7
    # read 0 under p_1^0
    "coeff(unsorted key)": (Series.coeff, B3, 3, ((2, 1), (1, 1))),
    "coeff(zero exponent)": (Series.coeff, constant(FAMILY_P, 3, 3, 7), 0, ((1, 0),)),
    "coeff(float exponent)": (Series.coeff, B3, 3, {1: 2.0}),
    "Series(cap 2.5)": (Series, FAMILY_P, 2.5, 0),
    "Series(cap True)": (Series, FAMILY_P, True, 0),
    # partial(-1) used to give 0 with cap_weight 4, partial(0) 0 in family P
    "partial(-1)": (partial, P3, -1),
    "partial(P,0)": (partial, P3, 0),
    "partial(1.0)": (partial, P3, 1.0),
    "partial(True)": (partial, P3, True),
    # 2.0 used to share the memo key of 2, and True read as 1
    "bracket((2.0,))": (bracket, (2.0,)),
    "bracket((True,)*3)": (bracket, (True, True, True)),
    "f_series(-1)": (f_series, -1),
    "f_series(True)": (f_series, True),
    "u_in_T(True)": (u_in_T, True),
    "genus_table(True)": (genus_table, True),
    "f_series(3.0)": (f_series, 3.0),
    "genus_table(1.0)": (genus_table, 1.0),
    "u_hierarchy_residuals(6.0)": (u_hierarchy_residuals, 6.0),
    # a family-P series has no t variables; both checks used to return False
    "string_check(P)": (string_check, P3),
    "dilaton_check(P)": (dilaton_check, P3),
    # neither check reads an aux power: both used to pass on any aux term
    "string_check(aux term)": (string_check, Series(FAMILY_TQ, 4, 2, {(1, ((0, 2),)): 7}), {}),
    "dilaton_check(aux term)": (dilaton_check, Series(FAMILY_TQ, 4, 2, {(1, ((1, 1),)): 1})),
    # a negative cap used to be kept, a float one to raise TypeError or return a float
    "hook_series(-1,2)": (hook_series, -1, 2),
    "hook_series(2.0,2)": (hook_series, 2.0, 2),
    "h_unst_onepart(2.0,1)": (h_unst_onepart, 2.0, 1),
    "moduli_caps_for(2.0,2)": (moduli_caps_for, 2.0, 2),
    "moduli_caps_for(-1,2)": (moduli_caps_for, -1, 2),
    # 2.0 used to share the memo key of 2 and True read as 1; upto(-1) gave []
    "partitions_of(2.0)": (partitions_of, 2.0),
    "partitions_of(True)": (partitions_of, True),
    "partitions_upto(-1)": (partitions_upto, -1),
    "hook(True,0)": (hook, True, 0),
    # row 0 and row -1 used to bump the last part, row 5 to raise IndexError
    "add_to_part(0)": (Partition.add_to_part, Partition((2, 1)), 0),
    "add_to_part(-1)": (Partition.add_to_part, Partition((3, 1)), -1),
    "add_to_part(5)": (Partition.add_to_part, Partition((3, 1)), 5),
    "remove_corner(5)": (Partition.remove_corner, Partition((3, 1)), 5),
    # used to raise StopIteration
    "evaluate({},{})": (evaluate, {}, {}),
    # refusals that no other test reached
    "Series(family X)": (Series, "X", 2, 2),
    "character((2),(1))": (character, Partition((2,)), Partition((1,))),
    "schur_poly((3),2)": (schur_poly, Partition((3,)), 2),
    "character_identity_check((2),(2))": (character_identity_check, Partition((2,)),
                                          Partition((2,))),
    "hurwitz(method=x)": (hurwitz, HurwitzQuery(ONEPART, 0, (2,)), "x"),
    # used to raise AttributeError
    "d_mu(2)": (d_mu, 2),
    "d_mu((2,1))": (d_mu, (2, 1)),
    "corner_descent_check(2)": (corner_descent_check, 2),
    "kp_residual(2,2,0)": (kp_residual, 2, 2, 0),
    "hirota_residual(2,2,0)": (hirota_residual, 2, 2, 0),
    "lkp_residual(2,2,0)": (lkp_residual, 2, 2, 0),
    "character_identity_check((2,),(1))": (character_identity_check, (2,), Partition((1,))),
    # True used to read as 1, and a float to raise TypeError
    "chvar_coeff(True,2)": (chvar_coeff, True, 2),
    "chvar_coeff(2.0,2)": (chvar_coeff, 2.0, 2),
    "elsv_chvar_coeff(2.0,2)": (elsv_chvar_coeff, 2.0, 2),
    "derivative_transform_elsv(2.0)": (derivative_transform_elsv, 2.0),
    # an unknown family used to read as T_Q
    "var_weight(-1,2)": (series.var_weight, -1, 2),
    # a tuple or a string in place of a Partition, HurwitzQuery or Series used
    # to raise AttributeError, and hirota_descent_check("x", 2) TypeError
    "character((2,),(2))": (character, (2,), Partition((2,))),
    "dimension('x')": (dimension, "x"),
    "schur_poly((2,))": (schur_poly, (2,)),
    "power_to_schur((2,))": (power_to_schur, (2,)),
    "aut_order((2,))": (aut_order, (2,)),
    "zee('x')": (zee, "x"),
    "class_size((2,))": (class_size, (2,)),
    "cut_and_join_eigenvalue((2,))": (cut_and_join_eigenvalue, (2,)),
    "hurwitz_frobenius((2,))": (hurwitz_frobenius, (2,)),
    "hurwitz_closed('x')": (hurwitz_closed, "x"),
    "hurwitz_bruteforce((2,))": (hurwitz_bruteforce, (2,)),
    "hurwitz((2,))": (hurwitz, (2,)),
    "cut_and_join((2,))": (cut_and_join, (2,)),
    "hirota_descent_check('x',2)": (hirota_descent_check, "x", 2),
    # a tuple in place of a Series used to raise AttributeError
    "lp((2,))": (lp, (2,)),
    "chvar_pic((2,))": (chvar_pic, (2,)),
    "transform_p_to_tq((2,))": (transform_p_to_tq, (2,)),
    "string_check((2,))": (string_check, (2,)),
    "dilaton_check((2,))": (dilaton_check, (2,)),
    "chvar_elsv((2,))": (chvar_elsv, (2,)),
    "transform_p_to_tu((2,))": (transform_p_to_tu, (2,)),
    "apply_L(2,(2,))": (apply_L, 2, (2,)),
}

# a float or a bool argument shares the memo key of the equal int: each row is
# refused on an empty memo and again once the int call has filled that key
MEMO_CALLS = {
    # these used to answer from the memo once (2, 2) was in it
    "kp_form(2.0,2)": (kp_form, (2.0, 2), (2, 2)),
    "lkp_form(2,2.0)": (lkp_form, (2, 2.0), (2, 2)),
    "transformed_stable(2.0,2)": (transformed_stable, (2.0, 2), (2, 2)),
    # refused only because the Hirota pairs, built on every call, read 2.0
    "hirota_form(2.0,2)": (hirota_form, (2.0, 2), (2, 2)),
    # refused only by the range check, as 1
    "kp_form(True,2)": (kp_form, (True, 2), (2, 2)),
    "hirota_form(2,True)": (hirota_form, (2, True), (2, 2)),
    # the float row used to answer cold, the bool one to raise NotImplementedError
    "conjugated_equation(2.0,2,2)": (conjugated_equation, (2.0, 2, 2), (2, 2, 2)),
    "conjugated_equation(True,2,2)": (conjugated_equation, (True, 2, 2), (2, 2, 2)),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_entry_point_raises_value_error(call):
    fn, *args = call
    with pytest.raises(ValueError):
        fn(*args)


@pytest.mark.parametrize("fn, bad, good", MEMO_CALLS.values(), ids=MEMO_CALLS.keys())
def test_memoized_entry_point_refuses_cold_and_warm(fn, bad, good, monkeypatch):
    monkeypatch.setattr(series, "_memo", {})
    with pytest.raises(ValueError):
        fn(*bad)
    fn(*good)
    with pytest.raises(ValueError):
        fn(*bad)
