"""Exported entry points refuse bad input with ValueError rather than
assert, so the refusal also holds under ``python -O``."""

import pytest

from taulab.partitions import Partition, partitions_of, hook, hook_arm_leg
from taulab.series import Series, FAMILY_P, FAMILY_TQ
from taulab.symfunc import hook_sum_identity_check
from taulab.diffops import TOp, ZOp
from taulab.hierarchy import cut_and_join
from taulab.hodge import (a_coeff, f_moduli, derivative_transform_elsv, hurwitz_to_hodge,
                          transform_p_to_tu, chvar_elsv, ModuliPDESolver,
                          conjugated_equation, kdv_zpart_as_moduli_poly, ck_report,
                          alpha_coeff, exp_l_equals_L_check, solve_l)
from taulab.hurwitz import polynomiality_check
from taulab.pic import derivative_transform_pic, transform_p_to_tq, chvar_pic

P1 = Series.variable(FAMILY_P, 1, 4, 2)

BAD_CALLS = {
    "partitions_of(-1)": (partitions_of, -1),
    "hook(-1,0)": (hook, -1, 0),
    "hook(0,-1)": (hook, 0, -1),
    "hook_arm_leg(2,2)": (hook_arm_leg, Partition((2, 2))),
    "a_coeff(-1,0)": (a_coeff, -1, 0),
    "a_coeff(0,-1)": (a_coeff, 0, -1),
    "f_moduli(3,6)": (f_moduli, 3, 6),
    "f_moduli(-1,6)": (f_moduli, -1, 6),
    "hurwitz_to_hodge(1,1,max_k=-1)": (hurwitz_to_hodge, 1, 1, -1),
    # a float cap used to cut the table at k = 0 or raise TypeError
    "hurwitz_to_hodge(1,1,max_k=0.5)": (hurwitz_to_hodge, 1, 1, 0.5),
    "hurwitz_to_hodge(1.0,1)": (hurwitz_to_hodge, 1.0, 1),
    "hurwitz_to_hodge(1,1.0)": (hurwitz_to_hodge, 1, 1.0),
    "hurwitz_to_hodge(2,1,max_k='1')": (hurwitz_to_hodge, 2, 1, "1"),
    # a malformed window used to raise KeyError or IndexError; a check with
    # nothing held out, or held out inside the window, verified nothing
    "polynomiality_check(not a grid)": (polynomiality_check, 1, 2, [(1, 1), (2, 2)], [(3, 3)]),
    "polynomiality_check(len(b) != n)": (polynomiality_check, 1, 2, [(2,)], [(3, 3)]),
    "polynomiality_check(held_out=[])": (polynomiality_check, 1, 1, [(2,)], []),
    "polynomiality_check(held out in window)": (polynomiality_check, 1, 1, [(2,), (3,)], [(2,)]),
    "polynomiality_check(window=[])": (polynomiality_check, 1, 1, [], [(3,)]),
    "derivative_transform_pic(0)": (derivative_transform_pic, 0),
    "derivative_transform_elsv(0)": (derivative_transform_elsv, 0),
    "variable(P,0)": (Series.variable, FAMILY_P, 0, 4, 0),
    "variable(T_Q,-1)": (Series.variable, FAMILY_TQ, -1, 4, 0),
    # under -O a negative power used to loop forever (-1 >> 1 == -1)
    "pow(-1)": (Series.__pow__, P1, -1),
    "aux_shift(-2)": (Series.aux_shift, P1, -2),
    "cut_and_join(T_Q)": (cut_and_join, Series.variable(FAMILY_TQ, 0, 4, 0)),
    "ZOp.exp(z^0 part)": (ZOp.exp, ZOp({0: TOp.single((), (), 1)}), 2),
    "hook_sum_identity_check(0)": (hook_sum_identity_check, 0),
    # a negative weight cap used to return an empty image, failing only at slice
    "transform_p_to_tq(w_cap=-1)": (transform_p_to_tq, P1, -1),
    "transform_p_to_tu(w_cap=-1)": (transform_p_to_tu, P1, -1),
    "chvar_pic(w_cap=-1)": (chvar_pic, P1, -1),
    "chvar_elsv(w_cap=-1)": (chvar_elsv, P1, -1),
    # without the check each returns 0, {} or True on an empty region, or a KeyError
    "bracket(0,(-1,2))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), 0, (-1, 2)),
    "bracket(-1,(0,0,0))": (ModuliPDESolver.bracket, ModuliPDESolver(0, 1), -1, (0, 0, 0)),
    "conjugated_equation(2,2,-1)": (conjugated_equation, 2, 2, -1),
    "kdv_zpart(F01,-1,0)": (kdv_zpart_as_moduli_poly, "F01", -1, 0),
    "kdv_zpart(F01,0,-1)": (kdv_zpart_as_moduli_poly, "F01", 0, -1),
    "kdv_zpart(nope,0,0)": (kdv_zpart_as_moduli_poly, "nope", 0, 0),
    "ck_report(0)": (ck_report, 0),
    "ck_report(2,nmax=-1)": (ck_report, 2, -1),
    "alpha_coeff(2,-1)": (alpha_coeff, 2, -1),
    "alpha_coeff(-1,0)": (alpha_coeff, -1, 0),
    "exp_l_equals_L_check(-1,3)": (exp_l_equals_L_check, -1, 3),
    "exp_l_equals_L_check(2,-1)": (exp_l_equals_L_check, 2, -1),
    "solve_l(-1,3)": (solve_l, -1, 3),
    # a float cap used to return the memo value of the equal int, or raise TypeError
    "a_coeff(2.0,1)": (a_coeff, 2.0, 1),
    "exp_l_equals_L_check(2.5,3)": (exp_l_equals_L_check, 2.5, 3),
    "solve_l(2,2.0)": (solve_l, 2, 2.0),
    "alpha_coeff(1.5,1)": (alpha_coeff, 1.5, 1),
    "ck_report(2.0,3)": (ck_report, 2.0, 3),
    # a float used to be stored as its binary value, 0.1 as 3602879701896397/2^55
    "Series(terms=0.1)": (Series, FAMILY_P, 4, 2, {(0, ()): 0.1}),
    "constant(0.1)": (Series.constant, FAMILY_P, 4, 2, 0.1),
    "variable(coeff=0.1)": (Series.variable, FAMILY_P, 1, 4, 2, 0.1),
    "from_terms(0.1)": (Series.from_terms, FAMILY_P, 4, 2, [(0, {1: 1}, 0.1)]),
    "P1*0.1": (Series.__mul__, P1, 0.1),
    "P1*'1/2'": (Series.__mul__, P1, "1/2"),
    "P1+0.1": (Series.__add__, P1, 0.1),
    "P1-0.1": (Series.__sub__, P1, 0.1),
    "P1/0.1": (Series.__truediv__, P1, 0.1),
    "P1==0.1": (Series.__eq__, P1, 0.1),
}


@pytest.mark.parametrize("call", BAD_CALLS.values(), ids=BAD_CALLS.keys())
def test_entry_point_raises_value_error(call):
    fn, *args = call
    with pytest.raises(ValueError):
        fn(*args)
