"""Bilinear Hirota equations, KP and linearized KP, cut-and-join, and the
corner-bite calculus for the partition operators D_mu.

D_mu = sum over cycle types lambda of |mu| of
       chi_mu(lambda) d_{lambda_1} ... d_{lambda_k} / |Aut(lambda)|.

Hir_{i,j}(tau) = D_{()}tau * D_{(j,i)}tau - D_{(i-1)}tau * D_{(j,1)}tau
                 + D_{(j)}tau * D_{(i-1,1)}tau          for 2 <= i <= j.

KP_{i,j}(F) = Hir_{i,j}(e^F) / e^{2F}; LKP_{i,j} is its linear part, which
works out to the single operator D_{(j,i)}.

Every polynomial here is a plain dict {sorted symbol tuple: nonzero
Fraction}, the form ``diffops.expand`` multiplies out and ``hodge`` reads.
The symbols of D_mu (``d_mu``, ``lkp_op``) are derivative indices i, the
d_i of weight i, and S = sum_i i d_i d/dd_{i+1} (``s_action``) acts on
them.  The symbols of the Hirota, KP and LKP forms are derivative monomials
m, sorted index tuples: D^m tau in ``hirota_form``, d^m F in ``kp_form``,
``lkp_form`` and ``bell_poly``.  Each product of such polynomials is one
``expand`` call, each linear combination one ``diffops._accumulate``, and
``diffops.evaluate`` computes every residual through ``_residual``: Hir and
closed KP directly, LKP on D_{(j,i)} with each monomial made one symbol.
"""

from __future__ import annotations

from math import comb

from .partitions import Partition, partitions_of, aut_order, _check_partition
from .symfunc import character
from .series import Series, Rat, FAMILY_P, _cached, _check_caps, _check_series, _make
from .diffops import _accumulate, evaluate, expand


def d_mu(mu):
    _check_partition("d_mu", mu)

    def build():
        terms = {}
        for la in partitions_of(mu.size):
            c = character(mu, la)
            if c:
                terms[tuple(sorted(la.parts))] = Rat(c, aut_order(la))
        return terms
    return _cached(("d_mu", mu.parts), build)


def _check_ij(i, j):
    _check_caps("a Hirota index", 2, i, j)
    if i > j:
        raise ValueError("need 2 <= i <= j, got i = %d, j = %d" % (i, j))


def _hirota_pairs(i, j):
    """The three factor pairs (c, D_a, D_b) of Hir_{i,j} = sum c (D_a tau)(D_b tau)."""
    return [(1, d_mu(Partition(())), d_mu(Partition((j, i)))),
            (-1, d_mu(Partition((i - 1,))), d_mu(Partition((j, 1)))),
            (1, d_mu(Partition((j,))), d_mu(Partition((i - 1, 1))))]


def _bilinear(pairs):
    """sum c * a * b over the pairs (c, a, b) of polynomials in the d_i, each
    monomial m of a or b made one symbol: a form in the D^m tau."""
    out = expand(((0, (a, b), c) for c, a, b in pairs),
                 lambda p: [(0, (m,), k) for m, k in p.items()])
    return {key: v for (_, key), v in out.items()}


def _leibniz(pairs, op):
    """The pairs of op applied to one factor of each pair, then to the other."""
    return [(c, op(a), b) for c, a, b in pairs] + [(c, a, op(b)) for c, a, b in pairs]


def _residual(form, F):
    """``evaluate`` of a form in derivative monomials m, each read as d^m F."""
    return evaluate({tuple((0, m) for m in key): c for key, c in form.items()}, {0: F})


def hirota_form(i, j):
    """Hir_{i,j} in the monomials m, each standing for D^m tau."""
    _check_ij(i, j)
    return _cached(("hirota", i, j), lambda: _bilinear(_hirota_pairs(i, j)))


def hirota_residual(i, j, tau):
    return _residual(hirota_form(i, j), tau)


def lkp_op(i, j):
    """Linear part of KP_{i,j}; equals D_{(j,i)}."""
    _check_ij(i, j)
    return d_mu(Partition((j, i)))


def lkp_residual(i, j, F):
    return _residual({(m,): c for m, c in lkp_op(i, j).items()}, F)


def kp_residual(i, j, F):
    """KP_{i,j}(F) = Hir_{i,j}(e^F) e^{-2F}, evaluated as the closed
    polynomial ``kp_form`` in derivatives of F.  F must have zero constant
    term."""
    if isinstance(F, Series) and F.constant_term():  # else ``evaluate`` refuses F
        raise ValueError("KP residual needs zero constant term")
    return _residual(kp_form(i, j), F)


# -- KP closed forms: polynomials in derivatives of F -------------------------


def _set_partition_classes(items):
    """The set partitions of a list (positions distinct), merged by their
    sorted block multiset: {key: [first representative, count]} in order of
    first appearance.  Each level of the recursion merges before the next
    grows, so equal indices do not multiply the work by a Bell number."""
    if not items:
        return {(): [[], 1]}
    first, rest = items[0], items[1:]
    out = {}
    for part, n in _set_partition_classes(rest).values():
        for new in ([part[:k] + [part[k] + [first]] + part[k + 1:]
                     for k in range(len(part))] + [[[first]] + part]):
            key = tuple(sorted(tuple(sorted(block)) for block in new))
            if key in out:
                out[key][1] += n
            else:
                out[key] = [new, n]
    return out


def bell_poly(dp):
    """e^{-F} (dp applied to e^F), in the monomials m of d^m F (Faa di Bruno)."""
    out = {}
    for mono, c in dp.items():
        for key, (_, n) in _set_partition_classes(list(mono)).items():
            out[key] = out.get(key, 0) + c * n
    return {k: v for k, v in out.items() if v}


def kp_form(i, j):
    """KP_{i,j} expanded in the monomials m of d^m F."""
    _check_ij(i, j)
    return _cached(("kp", i, j), _kp_form_raw, i, j)


def _kp_form_raw(i, j):
    out = expand(((0, (bell_poly(a), bell_poly(b)), c) for c, a, b in _hirota_pairs(i, j)),
                 lambda p: [(0, m, k) for m, k in p.items()])
    return {key: v for (_, key), v in out.items()}


def lkp_form(i, j):
    """Terms of kp_form with exactly one derivative factor."""
    return {k: v for k, v in kp_form(i, j).items() if len(k) == 1}


# -- cut-and-join --------------------------------------------------------------


def cut_and_join(s):
    """A = 1/2 sum_{i,j} [(i+j) p_i p_j d/dp_{i+j} + i j p_{i+j} d^2/dp_i dp_j]."""
    _check_series("cut_and_join", s, FAMILY_P)
    out = {}

    def bump(aux, vmdict, c):
        key = (aux, tuple(sorted((i, e) for i, e in vmdict.items() if e)))
        out[key] = out.get(key, 0) + c
        if not out[key]:
            del out[key]

    # numerators over 2 * s.den: the weight and aux of each term are kept
    for (aux, vm), n in s.num.items():
        d = dict(vm)
        # join piece: replace one p_k by p_i p_{k-i}, ordered splits
        for k, e in vm:
            for i in range(1, k):
                nd = dict(d)
                nd[k] -= 1
                nd[i] = nd.get(i, 0) + 1
                nd[k - i] = nd.get(k - i, 0) + 1
                bump(aux, nd, k * e * n)
        # cut piece: replace p_i p_j by p_{i+j}, ordered pairs
        idxs = [i for i, _ in vm]
        for i in idxs:
            for j in idxs:
                ei = d[i]
                ej = d[j] - (1 if i == j else 0)
                if ej <= 0 or ei <= 0:
                    continue
                nd = dict(d)
                nd[i] -= 1
                nd[j] -= 1
                nd[i + j] = nd.get(i + j, 0) + 1
                bump(aux, nd, i * j * ei * ej * n)
    return _make(s.family, s.cap_weight, s.cap_aux, out, 2 * s.den)


# -- corner calculus -----------------------------------------------------------


def s_action(dp):
    """S = sum_i i d_i d/dd_{i+1}, acting on a polynomial in the d_i."""
    out = {}
    for mono, c in dp.items():
        seen = set()
        for x in mono:
            if x in seen or x < 2:
                continue
            seen.add(x)
            at = mono.index(x)
            new = tuple(sorted(mono[:at] + mono[at + 1:] + (x - 1,)))
            out[new] = out.get(new, 0) + c * mono.count(x) * (x - 1)
    return {k: v for k, v in out.items() if v}


def corner_descent_check(mu):
    """S D_mu == sum over corners (i, mu_i) of (mu_i - i) D_{mu - box_i}."""
    lhs = s_action(d_mu(mu))
    rhs = {}
    for i, part in mu.corners():
        _accumulate(rhs, d_mu(mu.remove_corner(i)).items(), part - i)
    return lhs == rhs


def character_identity_check(mu, la):
    """sum over corners (mu_i - i) chi_{mu - box_i}(la)
       == sum_i la_i chi_mu(la + 1_i), for |la| = |mu| - 1."""
    if not (isinstance(mu, Partition) and isinstance(la, Partition) and la.size == mu.size - 1):
        raise ValueError("need Partitions with |lambda| = |mu| - 1, got %r, %r" % (mu, la))
    lhs = sum((part - i) * character(mu.remove_corner(i), la)
              for i, part in mu.corners())
    rhs = sum(la[i - 1] * character(mu, la.add_to_part(i))
              for i in range(1, len(la) + 1))
    return lhs == rhs


def hirota_s_tensor(i, j):
    """(S (x) 1 + 1 (x) S) Hir_{i,j}: S applied to each factor D_a, D_b."""
    _check_ij(i, j)
    return _bilinear(_leibniz(_hirota_pairs(i, j), s_action))


def hirota_descent_check(i, j):
    """(S (x) 1 + 1 (x) S) Hir_{i,j} equals the stated lower combination.

    Returns True iff the identity holds as bilinear forms:
      i < j:  (i-2) Hir_{i-1,j} + (j-1) Hir_{i,j-1}
      i == j: (i-2) Hir_{i-1,i}
    A term whose coefficient is 0 or whose indices leave 2 <= i <= j drops.
    """
    _check_ij(i, j)
    rhs = {}
    for c, a, b in [(i - 2, i - 1, j), (j - 1, i, j - 1)]:
        if c and a <= b:
            _accumulate(rhs, hirota_form(a, b).items(), c)
    return hirota_s_tensor(i, j) == rhs


def weight_flow_equivalence_check(mu):
    """The binomial change of derivative variables
    d_i -> sum_{k=1..i} C(i-1, k-1) q^k delta_k agrees with
    beta^{n/2} e^{S/sqrt(beta)} on D_mu (n = |mu|), as {(q exponent,
    delta monomial): coeff} in integer q = sqrt(beta) exponents."""
    dp = d_mu(mu)
    lhs = expand(((0, mono, c) for mono, c in dp.items()),
                 lambda i: [(k, (k,), comb(i - 1, k - 1)) for k in range(1, i + 1)])
    rhs = {}
    k, fact = 0, 1
    while dp:
        _accumulate(rhs, (((mu.size - k, mono), c) for mono, c in dp.items()), Rat(1, fact))
        dp = s_action(dp)
        k += 1
        fact *= k
    return lhs == rhs
