"""Exported entry points, and the identity checks kept in ``oracles``, refuse
bad input with ValueError rather than assert, so the refusal also holds
under ``python -O``."""

import pytest

from taulab.partitions import Partition, partitions_of, hook
from taulab.series import Series, FAMILY_P, FAMILY_TQ
from taulab.diffops import TOp, ZOp, evaluate
from taulab.hierarchy import cut_and_join
from taulab.hodge import (a_coeff, f_moduli, derivative_transform_elsv, hurwitz_to_hodge,
                          ModuliPDESolver, conjugated_equation, kdv_zpart_as_moduli_poly,
                          ck_report, exp_l_equals_L_check, solve_l)
from taulab.hurwitz import HurwitzQuery, ONEPART, SIMPLE, h_simple_series, h_onepart_series
from taulab.pic import (bracket, f_series, u_in_T, genus_table, u_hierarchy_residuals,
                        string_check, dilaton_check)
from oracles import (variable, aux_shift, zop_exp, hook_arm_leg, hook_sum_identity_check,
                     polynomiality_check, derivative_transform_pic)

P1 = variable(FAMILY_P, 1, 4, 2)
P3 = Series(FAMILY_P, 3, 0, {(0, ((1, 3),)): 1})

BAD_CALLS = {
    "partitions_of(-1)": (partitions_of, -1),
    "hook(-1,0)": (hook, -1, 0),
    "hook(0,-1)": (hook, 0, -1),
    "hook_arm_leg(2,2)": (hook_arm_leg, Partition((2, 2))),
    "a_coeff(-1,0)": (a_coeff, -1, 0),
    "a_coeff(0,-1)": (a_coeff, 0, -1),
    "f_moduli(3,6)": (f_moduli, 3, 6, 11),
    "f_moduli(-1,6)": (f_moduli, -1, 6, 11),
    # a float cap used to raise TypeError
    "hurwitz_to_hodge(1.0,1)": (hurwitz_to_hodge, 1.0, 1),
    "hurwitz_to_hodge(1,1.0)": (hurwitz_to_hodge, 1, 1.0),
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
    # under -O a negative power used to loop forever (-1 >> 1 == -1)
    "pow(-1)": (Series.__pow__, P1, -1),
    "aux_shift(-2)": (aux_shift, P1, -2),
    "cut_and_join(T_Q)": (cut_and_join, variable(FAMILY_TQ, 0, 4, 0)),
    "ZOp.exp(z^0 part)": (zop_exp, ZOp({0: TOp({((), ()): 1})}), 2),
    "hook_sum_identity_check(0)": (hook_sum_identity_check, 0),
    # without the check each returns 0, {} or True on an empty region, or a KeyError
    "bracket(0,(-1,2))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), 0, (-1, 2)),
    "bracket(-1,(0,0,0))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), -1, (0, 0, 0)),
    "conjugated_equation(2,2,-1)": (conjugated_equation, 2, 2, -1),
    "kdv_zpart(F01,-1,0)": (kdv_zpart_as_moduli_poly, "F01", -1, 0),
    "kdv_zpart(F01,0,-1)": (kdv_zpart_as_moduli_poly, "F01", 0, -1),
    "kdv_zpart(nope,0,0)": (kdv_zpart_as_moduli_poly, "nope", 0, 0),
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
    "constant(0.1)": (Series.constant, FAMILY_P, 4, 2, 0.1),
    "variable(coeff=0.1)": (variable, FAMILY_P, 1, 4, 2, 0.1),
    "from_terms(0.1)": (Series.from_terms, FAMILY_P, 4, 2, [(0, {1: 1}, 0.1)]),
    "P1*0.1": (Series.__mul__, P1, 0.1),
    "P1*'1/2'": (Series.__mul__, P1, "1/2"),
    "P1+0.1": (Series.__add__, P1, 0.1),
    "P1-0.1": (Series.__sub__, P1, 0.1),
    "P1/0.1": (Series.__truediv__, P1, 0.1),
    "P1==0.1": (Series.__eq__, P1, 0.1),
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
    "Series(cap 2.5)": (Series, FAMILY_P, 2.5, 0),
    "Series(cap True)": (Series, FAMILY_P, True, 0),
    # partial(-1) used to give 0 with cap_weight 4, partial(0) 0 in family P
    "partial(-1)": (Series.partial, P3, -1),
    "partial(P,0)": (Series.partial, P3, 0),
    "partial(1.0)": (Series.partial, P3, 1.0),
    "partial(True)": (Series.partial, P3, True),
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
    # used to raise StopIteration
    "evaluate({},{})": (evaluate, {}, {}),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_entry_point_raises_value_error(call):
    fn, *args = call
    with pytest.raises(ValueError):
        fn(*args)
