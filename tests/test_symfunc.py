from fractions import Fraction
from math import factorial

from taulab.partitions import Partition, partitions_of, zee, class_size
from taulab.symfunc import character, dimension, schur_poly, power_to_schur, _column
from taulab.series import Series, Rat, FAMILY_P
from oracles import (series_exp, power_monomial, hook_sum_identity_check, is_hook, hook_arm_leg,
                     mn_character, hook_length_dimension)


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


def test_columns_match_recursive_characters():
    # every (lambda, nu) with |nu| <= 10, zeros included, against the
    # Murnaghan-Nakayama recursion one pair at a time; a column holds one
    # mask of |nu| beads per lambda with a nonzero character, and no other
    for d in range(11):
        lambdas = partitions_of(d)
        for nu in lambdas:
            column = _column(nu.parts)
            want = {la: mn_character(la.parts, nu.parts) for la in lambdas}
            assert all(c and bin(mask).count("1") == d for mask, c in column.items())
            assert len(column) == sum(1 for c in want.values() if c)
            for la, c in want.items():
                assert character(la, nu) == c, (la, nu)


def test_dimension_matches_hook_lengths():
    for d in range(15):
        for mu in partitions_of(d):
            assert dimension(mu) == hook_length_dimension(mu), mu


def test_row_orthogonality():
    for d in range(1, 9):
        for mu in partitions_of(d):
            for nv in partitions_of(d):
                s = sum(Fraction(character(mu, la) * character(nv, la), zee(la))
                        for la in partitions_of(d))
                assert s == (1 if mu == nv else 0)


def column_orthogonality_check(d):
    """True iff sum_mu chi_mu(la) chi_mu(lb) = [la = lb] d!/|class of la|
    for all cycle types la, lb of degree d."""
    classes = partitions_of(d)
    return all(sum(character(mu, la) * character(mu, lb) for mu in classes)
               == (factorial(d) // class_size(la) if la == lb else 0)
               for la in classes for lb in classes)


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


# -- wedge minor coefficients -----------------------------------------------
#
# Laurent rows: row 1 has coefficient c at z^1 and e^{n(n+1)/2 beta} at
# z^{-n}; row i >= 2 has 1 at z^i and -e^{-(i-1) beta} at z^{i-1}.  The
# coefficient of the basis wedge labeled by mu (column lengths, padded with
# zeros) is the determinant of the finite minor whose column j targets the
# exponent j - mu_j.  Entries are family-P series in beta alone, truncated
# at the requested beta order.


def _exp_beta(rate, beta_order):
    """e^{rate * beta} to the given beta order."""
    return series_exp(Series.from_terms(FAMILY_P, 0, beta_order, [(1, {}, rate)]))


def _row_entry(i, zexp, c, beta_order):
    """Coefficient of z^zexp in row i, as a series in beta."""
    if i == 1:
        if zexp == 1:
            return Series.constant(FAMILY_P, 0, beta_order, c)
        if zexp <= 0:
            return _exp_beta(Rat(-zexp * (1 - zexp), 2), beta_order)
    elif zexp == i:
        return Series.constant(FAMILY_P, 0, beta_order, 1)
    elif zexp == i - 1:
        return -_exp_beta(Rat(1 - i), beta_order)
    return Series.zero(FAMILY_P, 0, beta_order)


def wedge_minor_coefficient(mu, c, beta_order):
    """Coefficient of the wedge basis element labeled mu (column lengths)
    in the wedge of the rows, expanded to the given beta order.

    Returns a family-P series in beta alone.  Nonzero only for the empty
    diagram (value c) and for hooks, where it equals
    (-1)^b e^{[a(a+1)/2 - b(b+1)/2] beta}.
    """
    size = max(len(mu), 1) + 1
    pad = list(mu.parts) + [0] * (size - len(mu))
    targets = [j + 1 - pad[j] for j in range(size)]
    return _det([[_row_entry(i + 1, targets[j], c, beta_order) for j in range(size)]
                 for i in range(size)])


def _det(matrix):
    """Determinant of a matrix of series, by expansion along the first
    remaining row with memoization on column subsets."""
    n = len(matrix)
    one = Series.constant(FAMILY_P, 0, matrix[0][0].cap_aux, 1)
    memo = {}

    def go(row, cols):
        if row == n:
            return one
        got = memo.get(cols)
        if got is None:
            got = Series.zero(FAMILY_P, 0, one.cap_aux)
            for pos, j in enumerate(cols):
                if not matrix[row][j].is_zero():
                    term = matrix[row][j] * go(row + 1, cols[:pos] + cols[pos + 1:])
                    got = got - term if pos % 2 else got + term
            memo[cols] = got
        return got

    return go(0, tuple(range(n)))


def expected_hook_wedge(mu, beta_order):
    """Closed form for the wedge coefficient of a hook, for cross-checks."""
    a, b = hook_arm_leg(mu)
    return _exp_beta(Rat(a * (a + 1) - b * (b + 1), 2), beta_order) * (-1) ** b


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
