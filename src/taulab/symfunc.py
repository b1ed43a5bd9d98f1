"""Symmetric group characters and Schur polynomials.

Characters are computed by the Murnaghan-Nakayama rule on beta-sets and
memoized under the "char" tag of the process-wide memo in ``series``.  Schur
polynomials use the classical normalization

    s_mu = sum over cycle types nu of chi_mu(nu) p_nu / z_nu,

so that the coefficient of p_1^d in s_mu is dim(mu)/d! and the hook-sum
identity p_d = sum_{a+b+1=d} (-1)^b s_{hook(a,b)} holds on the nose.
"""

from __future__ import annotations

from math import factorial

from .partitions import partitions_of, zee
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
