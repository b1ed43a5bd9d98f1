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


class CharacterTable:
    """Thin per-degree view over the memoized character values."""

    def __init__(self, d):
        self.d = d
        self.classes = partitions_of(d)

    def chi(self, mu, nu):
        return character(mu, nu)

    def check_column_orthogonality(self):
        d = self.d
        for la in self.classes:
            for lb in self.classes:
                s = sum(character(mu, la) * character(mu, lb) for mu in self.classes)
                want = factorial(d) // class_size(la) if la == lb else 0
                if s != want:
                    return False
        return True


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
# exponent j - mu_j.  Exponentials are expanded to the requested beta order.


def _exp_poly(rate, beta_order):
    """Truncated e^{rate * beta} as {beta_exp: coeff}."""
    out = {}
    c = Rat(1)
    for k in range(beta_order + 1):
        out[k] = c
        c = c * rate / (k + 1)
    return out


def _poly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Rat(0)) + v
    return {k: v for k, v in out.items() if v}


def _poly_mul(a, b, beta_order):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            if k1 + k2 > beta_order:
                continue
            out[k1 + k2] = out.get(k1 + k2, Rat(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def _row_entry(i, zexp, c, beta_order):
    """Coefficient of z^zexp in row i, as a beta polynomial dict."""
    if i == 1:
        if zexp == 1:
            return {0: Rat(c)} if c else {}
        if zexp <= 0:
            n = -zexp
            return _exp_poly(Rat(n * (n + 1), 2), beta_order)
        return {}
    if zexp == i:
        return {0: Rat(1)}
    if zexp == i - 1:
        poly = _exp_poly(Rat(-(i - 1)), beta_order)
        return {k: -v for k, v in poly.items()}
    return {}


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
    matrix = [[_row_entry(i + 1, targets[j], c, beta_order) for j in range(size)]
              for i in range(size)]
    det = _det(matrix, beta_order)
    return Series.from_terms(FAMILY_P, 0, beta_order,
                             [(k, {}, v) for k, v in det.items()])


def _det(matrix, beta_order):
    """Determinant over truncated beta polynomials, by expansion along the
    first remaining row with memoization on column subsets."""
    n = len(matrix)
    memo = {}

    def go(row, cols):
        if row == n:
            return {0: Rat(1)}
        key = cols
        got = memo.get(key)
        if got is not None:
            return got
        acc = {}
        for pos, j in enumerate(cols):
            entry = matrix[row][j]
            if not entry:
                continue
            sub = go(row + 1, cols[:pos] + cols[pos + 1:])
            term = _poly_mul(entry, sub, beta_order)
            if pos % 2:
                term = {k: -v for k, v in term.items()}
            acc = _poly_add(acc, term)
        memo[key] = acc
        return acc

    return go(0, tuple(range(n)))


def expected_hook_wedge(mu, beta_order):
    """Closed form for the wedge coefficient of a hook, for cross-checks."""
    a, b = hook_arm_leg(mu)
    rate = Rat(a * (a + 1) - b * (b + 1), 2)
    poly = _exp_poly(rate, beta_order)
    sign = (-1) ** b
    return Series.from_terms(FAMILY_P, 0, beta_order,
                             [(k, {}, sign * v) for k, v in poly.items()])
