"""Bilinear Hirota equations, KP and linearized KP, cut-and-join, and the
corner-bite calculus for the partition operators D_mu.

D_mu = sum over cycle types lambda of |mu| of
       chi_mu(lambda) d_{lambda_1} ... d_{lambda_k} / |Aut(lambda)|.

Hir_{i,j}(tau) = D_{()}tau * D_{(j,i)}tau - D_{(i-1)}tau * D_{(j,1)}tau
                 + D_{(j)}tau * D_{(i-1,1)}tau          for 2 <= i <= j.

KP_{i,j}(F) = Hir_{i,j}(e^F) / e^{2F}; LKP_{i,j} is its linear part, which
works out to the single operator D_{(j,i)}.

Every residual here is a polynomial in derivatives of one series, and
``diffops.evaluate`` computes all of them: Hir and LKP through
``BForm.apply`` and ``DPoly.apply``, KP in closed form directly.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition, partitions_of, aut_order
from .symfunc import character
from .series import Rat, FAMILY_P, _cached, _make
from .diffops import DPoly, BForm, evaluate, expand


def d_mu(mu):
    def build():
        terms = {}
        for la in partitions_of(mu.size):
            c = character(mu, la)
            if c:
                terms[la.parts] = Rat(c, aut_order(la))
        return DPoly(terms)
    return _cached(("d_mu", mu.parts), build)


def _check_ij(i, j):
    if not 2 <= i <= j:
        raise ValueError("need 2 <= i <= j, got i = %d, j = %d" % (i, j))


def hirota_form(i, j):
    _check_ij(i, j)
    return BForm([
        (1, d_mu(Partition(())), d_mu(Partition((j, i)))),
        (-1, d_mu(Partition((i - 1,))), d_mu(Partition((j, 1)))),
        (1, d_mu(Partition((j,))), d_mu(Partition((i - 1, 1)))),
    ])


def hirota_residual(i, j, tau):
    return hirota_form(i, j).apply(tau)


def lkp_op(i, j):
    """Linear part of KP_{i,j}; equals D_{(j,i)}."""
    _check_ij(i, j)
    return d_mu(Partition((j, i)))


def lkp_residual(i, j, F):
    return lkp_op(i, j).apply(F)


def kp_residual(i, j, F, method="exp"):
    """KP_{i,j}(F).  F must have zero constant term.

    method "exp": Hir_{i,j}(e^F) * e^{-2F}.
    method "closed": evaluate the expanded polynomial in derivatives of F.
    Both agree on the retained range.
    """
    if F.constant_term():
        raise ValueError("KP residual needs zero constant term")
    if method == "exp":
        tau = F.exp()
        return hirota_residual(i, j, tau) * (F * Rat(-2)).exp()
    if method == "closed":
        return evaluate({tuple((0, eta) for eta in key): c
                         for key, c in kp_form(i, j).items()}, {0: F})
    raise ValueError("unknown method %r" % (method,))


# -- KP closed forms: polynomials in derivatives of F -------------------------
#
# An FPoly is a dict {(eta_1, eta_2, ...): coeff} where each eta is a sorted
# tuple of p-indices and the key tuple is sorted; it denotes
# sum coeff * prod_r (d^{|eta_r|} F / d p_{eta_r}), which diffops.evaluate
# computes with every factor on the one slice F.


def fpoly_mul(a, b):
    return {key: c for (_, key), c
            in expand((a, b), lambda p: [(0, k, c) for k, c in p.items()]).items()}


def fpoly_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Rat(0)) + v
    return {k: v for k, v in out.items() if v}


def fpoly_scale(a, c):
    c = Rat(c)
    return {k: v * c for k, v in a.items() if v * c}


def _set_partitions(items):
    """All set partitions of a list (positions distinct)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1:]
        yield [[first]] + part


def bell_poly(dp):
    """e^{-F} (dp applied to e^F), as an FPoly (Faa di Bruno)."""
    out = {}
    for mono, c in dp.terms.items():
        for part in _set_partitions(list(mono)):
            key = tuple(sorted(tuple(sorted(block)) for block in part))
            out[key] = out.get(key, Rat(0)) + c
    return {k: v for k, v in out.items() if v}


def kp_form(i, j):
    """KP_{i,j} expanded as an FPoly in the derivatives of F."""
    acc = {}
    for c, a, b in hirota_form(i, j).parts:
        acc = fpoly_add(acc, fpoly_scale(fpoly_mul(bell_poly(a), bell_poly(b)), c))
    return acc


def lkp_form(i, j):
    """Terms of kp_form with exactly one derivative factor."""
    return {k: v for k, v in kp_form(i, j).items() if len(k) == 1}


# -- cut-and-join --------------------------------------------------------------


def cut_and_join(s):
    """A = 1/2 sum_{i,j} [(i+j) p_i p_j d/dp_{i+j} + i j p_{i+j} d^2/dp_i dp_j]."""
    if s.family != FAMILY_P:
        raise ValueError("cut-and-join acts on family-P series, got %s" % s.family)
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


def corner_descent_check(mu):
    """S D_mu == sum over corners (i, mu_i) of (mu_i - i) D_{mu - box_i}."""
    lhs = d_mu(mu).s_action()
    rhs = DPoly()
    for i, part in mu.corners():
        rhs = rhs + d_mu(mu.remove_corner(i)) * Rat(part - i)
    return lhs == rhs


def character_identity_check(mu, la):
    """sum over corners (mu_i - i) chi_{mu - box_i}(la)
       == sum_i la_i chi_mu(la + 1_i), for |la| = |mu| - 1."""
    if la.size != mu.size - 1:
        raise ValueError("need |lambda| = |mu| - 1")
    lhs = sum((part - i) * character(mu.remove_corner(i), la)
              for i, part in mu.corners())
    rhs = sum(la[i - 1] * character(mu, la.add_to_part(i))
              for i in range(1, len(la) + 1))
    return lhs == rhs


def hirota_descent_check(i, j):
    """(S (x) 1 + 1 (x) S) Hir_{i,j} equals the stated lower combination.

    Returns True iff the identity holds as bilinear forms:
      i < j:  (i-2) Hir_{i-1,j} + (j-1) Hir_{i,j-1}
      i == j: (i-2) Hir_{i-1,i}
    """
    lhs = hirota_form(i, j).s_tensor()
    if i < j:
        rhs = BForm([])
        if i - 2:
            rhs = rhs + hirota_form(i - 1, j).scale(i - 2)
        if j - 1 and j - 1 >= i:
            rhs = rhs + hirota_form(i, j - 1).scale(j - 1)
    else:
        rhs = BForm([])
        if i - 2:
            rhs = rhs + hirota_form(i - 1, i).scale(i - 2)
    return lhs.equals(rhs)


def simplified_hirota_23():
    """Hir_{2,3} - 1/2 d(Hir_{2,2})/dp_1 as a bilinear form."""
    return hirota_form(2, 3) + hirota_form(2, 2).d1_derivative().scale(Fraction(-1, 2))


def weight_flow_equivalence_check(mu):
    """The binomial change of derivative variables agrees with
    beta^{n/2} e^{S/sqrt(beta)} on D_mu (n = |mu|), in integer q = sqrt(beta)
    exponents."""
    dp = d_mu(mu)
    n = mu.size
    lhs = dp.subst_binomial_q()
    rhs = {}
    cur = dp
    k = 0
    fact = 1
    while not cur.is_zero():
        for mono, c in cur.terms.items():
            key = (n - k, mono)
            rhs[key] = rhs.get(key, Rat(0)) + c / fact
        cur = cur.s_action()
        k += 1
        fact *= k
    rhs = {k: v for k, v in rhs.items() if v}
    return lhs == rhs
