from fractions import Fraction
from math import factorial

from taulab.partitions import Partition, partitions_of, zee, is_hook
from taulab.symfunc import (character, dimension, column_orthogonality_check,
                            schur_poly,
                            power_to_schur, power_monomial,
                            hook_sum_identity_check, wedge_minor_coefficient,
                            expected_hook_wedge)
from taulab.series import Series, Rat, FAMILY_P


def test_character_degree_three():
    mu = Partition((2, 1))
    assert character(mu, Partition((1, 1, 1))) == 2
    assert character(mu, Partition((3,))) == -1
    assert character(mu, Partition((2, 1))) == 0


def test_character_dimension_agreement():
    for d in range(1, 9):
        ones = Partition((1,) * d)
        for mu in partitions_of(d):
            assert character(mu, ones) == dimension(mu)


def test_row_orthogonality():
    for d in range(1, 9):
        for mu in partitions_of(d):
            for nv in partitions_of(d):
                s = sum(Fraction(character(mu, la) * character(nv, la), zee(la))
                        for la in partitions_of(d))
                assert s == (1 if mu == nv else 0)


def test_column_orthogonality_small():
    for d in range(1, 7):
        assert column_orthogonality_check(d)


def test_schur_small():
    assert schur_poly(Partition((1,))) == power_monomial(Partition((1,)))
    s2 = schur_poly(Partition((2,)))
    assert s2.coeff(vm={1: 2}) == Fraction(1, 2)
    assert s2.coeff(vm={2: 1}) == Fraction(1, 2)
    s11 = schur_poly(Partition((1, 1)))
    assert s11.coeff(vm={1: 2}) == Fraction(1, 2)
    assert s11.coeff(vm={2: 1}) == Fraction(-1, 2)


def test_schur_p1_coefficient_is_dimension():
    for d in range(1, 8):
        for mu in partitions_of(d):
            c = schur_poly(mu).coeff(vm={1: d})
            assert c == Fraction(dimension(mu), factorial(d))


def test_power_to_schur_roundtrip():
    assert power_to_schur(Partition((1,))) == {Partition((1,)): 1}
    p2 = power_to_schur(Partition((2,)))
    assert p2 == {Partition((2,)): 1, Partition((1, 1)): -1}
    for d in range(1, 7):
        for nu in partitions_of(d):
            acc = Series.zero(FAMILY_P, d, 0)
            for mu, c in power_to_schur(nu).items():
                acc = acc + schur_poly(mu) * c
            assert acc == power_monomial(nu)


def test_hook_sum_identity():
    for d in range(1, 9):
        assert hook_sum_identity_check(d)


def test_wedge_minor_empty_diagram():
    for c in (Rat(0), Rat(1), Rat(5, 7)):
        got = wedge_minor_coefficient(Partition(()), c, 4)
        assert got == Series.from_terms(FAMILY_P, 0, 4, [(0, {}, c)])


def test_wedge_minor_hooks():
    for total in range(1, 9):
        for mu in partitions_of(total):
            if not is_hook(mu):
                continue
            got = wedge_minor_coefficient(mu, Rat(1), 5)
            assert got == expected_hook_wedge(mu, 5), mu


def test_wedge_minor_vanishes_off_hooks():
    for total in range(2, 7):
        for mu in partitions_of(total):
            if is_hook(mu):
                continue
            assert wedge_minor_coefficient(mu, Rat(3), 4).is_zero(), mu


def test_wedge_minor_stable_under_padding():
    # enlarging the minor must not change the answer
    from taulab.symfunc import _row_entry, _det
    for mu in (Partition((3, 1)), Partition((2, 2)), Partition((1, 1, 1))):
        vals = []
        for size in (len(mu) + 1, len(mu) + 3):
            pad = list(mu.parts) + [0] * (size - len(mu))
            targets = [j + 1 - pad[j] for j in range(size)]
            m = [[_row_entry(i + 1, targets[j], Rat(1), 4) for j in range(size)]
                 for i in range(size)]
            vals.append(_det(m))
        assert vals[0] == vals[1]


def test_schur_quasihomogeneous():
    from taulab.series import vm_weight, FAMILY_P as FAM
    for d in range(1, 9):
        for mu in partitions_of(d):
            s = schur_poly(mu)
            assert s.terms
            for (aux, vm) in s.terms:
                assert aux == 0 and vm_weight(FAM, vm) == d
