"""Symmetric group characters, Schur polynomials, and wedge minors.

Characters are computed by the Murnaghan-Nakayama rule on beta-sets and
memoized under the "char" tag of the process-wide memo in ``series``.  Schur
polynomials use the classical normalization

    s_mu = sum over cycle types nu of chi_mu(nu) p_nu / z_nu,

so that the coefficient of p_1^d in s_mu is dim(mu)/d! and the hook-sum
identity p_d = sum_{a+b+1=d} (-1)^b s_{hook(a,b)} holds on the nose.
"""

from __future__ import annotations

from math import factorial

from .partitions import Partition, partitions_of, zee, class_size, hook, hook_arm_leg
from .series import Series, Rat, FAMILY_P, _cached


def character(mu, nu):
    """chi_mu(nu): character of the class with cycle type nu in the
    irreducible representation labeled mu.  Exact integer."""
    if mu.size != nu.size:
        raise ValueError("sizes differ: |mu|=%d, |nu|=%d" % (mu.size, nu.size))
    return _mn(mu.parts, nu.parts)


def _mn(mu, nu):
    if not nu:
        return 1
    return _cached(("char", mu, nu), _mn_raw, mu, nu)


def _mn_raw(mu, nu):
    strip = nu[0]
    rest = nu[1:]
    k = len(mu)
    betas = [mu[i] + (k - 1 - i) for i in range(k)]
    bset = set(betas)
    total = 0
    for b in betas:
        nb = b - strip
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for x in betas if nb < x < b)
        newbetas = sorted((x for x in betas if x != b), reverse=True)
        # insert nb keeping decreasing order, then convert back to parts
        newbetas.append(nb)
        newbetas.sort(reverse=True)
        newmu = tuple(x - (k - 1 - i) for i, x in enumerate(newbetas))
        newmu = tuple(x for x in newmu if x > 0)
        total += (-1) ** height * _mn(newmu, rest)
    return total


def dimension(mu):
    """Dimension of the irreducible representation, by hook lengths."""
    parts = mu.parts
    if not parts:
        return 1
    conj = mu.conjugate().parts
    out = factorial(mu.size)
    for i, p in enumerate(parts):
        for j in range(p):
            out //= (p - j) + (conj[j] - i) - 1
    return out


def column_orthogonality_check(d):
    """True iff sum_mu chi_mu(la) chi_mu(lb) = [la = lb] d!/|class of la|
    for all cycle types la, lb of degree d."""
    classes = partitions_of(d)
    return all(sum(character(mu, la) * character(mu, lb) for mu in classes)
               == (factorial(d) // class_size(la) if la == lb else 0)
               for la in classes for lb in classes)


def schur_poly(mu, cap_weight=None, cap_aux=0):
    """Schur polynomial of mu in power sums, as a family-P series."""
    d = mu.size
    w = d if cap_weight is None else cap_weight
    if d > w:
        raise ValueError("cap_weight %d below |mu| = %d" % (w, d))
    items = []
    for nu in partitions_of(d):
        c = character(mu, nu)
        if c:
            items.append((0, {b: m for b, m in nu.multiplicities().items()},
                          Rat(c, zee(nu))))
    return Series.from_terms(FAMILY_P, w, cap_aux, items)


def power_to_schur(nu):
    """Expansion p_nu = sum_mu chi_mu(nu) s_mu, returned as {mu: coeff}."""
    return {mu: Rat(character(mu, nu))
            for mu in partitions_of(nu.size) if character(mu, nu)}


def power_monomial(nu, cap_weight=None, cap_aux=0):
    """The monomial p_nu as a family-P series."""
    w = nu.size if cap_weight is None else cap_weight
    return Series.from_terms(FAMILY_P, w, cap_aux,
                             [(0, nu.multiplicities(), Rat(1))])


def hook_sum_identity_check(d):
    """True iff p_d = sum_{a+b+1=d} (-1)^b s_{hook(a,b)}."""
    if d < 1:
        raise ValueError("p_d needs d >= 1, got %d" % d)
    acc = Series.zero(FAMILY_P, d, 0)
    for b in range(d):
        a = d - 1 - b
        acc = acc + schur_poly(hook(a, b)) * Rat((-1) ** b)
    return acc == power_monomial(Partition((d,)))


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
    return Series.from_terms(FAMILY_P, 0, beta_order, [(1, {}, rate)]).exp()


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
