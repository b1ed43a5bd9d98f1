"""Slow reference routes the library no longer takes, kept as test oracles.

* ``series_log``: the logarithm of a whole truncated series, term by term.
* ``fraction_mul``, ``fraction_add``, ``fraction_scale``,
  ``fraction_partial``: the ``Series`` product, sum, scalar product and
  partial derivative computed term by term in ``Fraction``s.  Each returns
  ``(terms, cap_weight, cap_aux)``, terms without zeros in insertion order.
* ``disconnected_simple_series``: Z = sum over lambda of (dim/d!)
  e^{beta f} s_lambda, whose logarithm is the connected simple series.
* ``cut_and_join_simple_series``: the connected simple series from the
  cut-and-join equation alone (Goulden-Jackson, "Transitive factorizations
  into transpositions and holomorphic mappings on the sphere", 1997), with no
  characters.
* ``expand_then_cancel``: the change of variables of ``pic`` by its literal
  definition, expanding every p-monomial into every t-monomial it reaches
  and letting the image cancel.
* ``term_by_term``: a polynomial in derivatives evaluated one product at a
  time, each factor its own chain of partials.
* ``a_alternating``: a(d, k) as the alternating ``Fraction`` sum.
* ``L_grade_per_tuple``: the z^k part of L, one index tuple at a time.
* ``build_L_grade``: the z^k part of L, normal ordered, summed per
  composition of k.
* ``exp_l_operator_route``: exp(l) = L checked in the normal-ordered
  operator algebra, by ``ZOp.exp`` of the operator form of ``solve_l``'s
  matrix (``l_operator``), grade by grade against ``build_L_grade``.
* ``full_rescan``: the PDE route re-evaluating every monomial's
  equation on every sweep.
* ``bell_poly_by_set_partitions``: Faa di Bruno's expansion summed over
  every set partition of each monomial's positions, one at a time.
* ``lagrange_fit_1d``: the 1-d exact polynomial fit of ``hurwitz._tensor_fit``
  through the Lagrange basis, rebuilt for every node.
"""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import factorial

from taulab.diffops import DPoly, TOp, ZOp
from taulab.hierarchy import cut_and_join
from taulab.hodge import a_coeff, conjugated_equation, solve_l
from taulab.hurwitz import _exp_schur_sum
from taulab.partitions import partitions_upto
from taulab.pic import Laurent, _monomials_up_to_weight
from taulab.series import Series, Rat, FAMILY_P, vm_mul, vm_weight, var_weight
from taulab.symfunc import dimension


def series_log(s):
    """log of a series with constant term 1: sum_k (-1)^{k+1} (s - 1)^k / k."""
    if s.constant_term() != 1:
        raise ValueError("log needs constant term 1")
    x = s - 1
    acc = Series.zero(s.family, s.cap_weight, s.cap_aux)
    term = Series.constant(s.family, s.cap_weight, s.cap_aux, 1)
    for k in range(1, s.cap_weight + s.cap_aux + 1):
        term = term * x
        if term.is_zero():
            break
        acc = acc + term * F((-1) ** (k + 1), k)
    return acc


def _kept(s, terms, w, a):
    """The nonzero terms within caps (w, a), as Series.__init__ keeps them."""
    return ({k: c for k, c in terms.items()
             if c and k[0] <= a and vm_weight(s.family, k[1]) <= w}, w, a)


def fraction_mul(x, y):
    w = min(x.cap_weight, y.cap_weight)
    a = min(x.cap_aux, y.cap_aux)
    fam = x.family
    out = {}
    buckets = {}
    for (aux2, vm2), c2 in y.terms.items():
        w2 = vm_weight(fam, vm2)
        if w2 <= w:
            buckets.setdefault(w2, []).append((aux2, vm2, c2))
    weights = sorted(buckets)
    for (aux1, vm1), c1 in x.terms.items():
        w1 = vm_weight(fam, vm1)
        room = w - w1
        if room < 0:
            continue
        aroom = a - aux1
        for w2 in weights:
            if w2 > room:
                break
            for aux2, vm2, c2 in buckets[w2]:
                if aux2 > aroom:
                    continue
                key = (aux1 + aux2, vm_mul(vm1, vm2))
                prev = out.get(key)
                out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return _kept(x, out, w, a)


def fraction_add(x, y):
    terms = dict(x.terms)
    for k, c in y.terms.items():
        terms[k] = terms.get(k, F(0)) + c
    return _kept(x, terms, min(x.cap_weight, y.cap_weight), min(x.cap_aux, y.cap_aux))


def fraction_scale(x, c):
    return _kept(x, {k: F(c) * v for k, v in x.terms.items()}, x.cap_weight, x.cap_aux)


def fraction_partial(x, index):
    out = {}
    for (aux, vm), c in x.terms.items():
        d = dict(vm)
        e = d.get(index)
        if not e:
            continue
        if e == 1:
            del d[index]
        else:
            d[index] = e - 1
        key = (aux, tuple(sorted(d.items())))
        out[key] = out.get(key, F(0)) + e * c
    return _kept(x, out, x.cap_weight - var_weight(x.family, index), x.cap_aux)


def disconnected_simple_series(cap_weight, cap_aux):
    """sum over partitions lambda of (dim/d!) e^{beta f_lambda} s_lambda."""
    return _exp_schur_sum(((la, F(dimension(la), factorial(la.size)))
                           for la in partitions_upto(cap_weight)),
                          cap_weight, cap_aux)


def _drop(vm, i):
    """The monomial vm divided by p_i (p_i must divide it)."""
    return tuple((b, e - (b == i)) for b, e in vm if b != i or e > 1)


def cut_and_join_simple_series(cap_weight, cap_aux):
    """Solve dH/dbeta = Delta H + 1/2 sum_{i,j} i j p_{i+j} dH/dp_i dH/dp_j
    from H = p_1 at beta = 0, one beta order at a time.  The quadratic term
    keeps the weight, so each order is exact to cap_weight."""
    slices = [{((1, 1),): F(1)}]  # slices[k]: {monomial: coefficient of beta^k}
    for k in range(cap_aux):
        delta = cut_and_join(Series(FAMILY_P, cap_weight, 0,
                                    {(0, vm): c for vm, c in slices[k].items()}))
        nxt = {vm: c for (_, vm), c in delta.terms.items()}
        for a in range(k + 1):
            for vm1, c1 in slices[a].items():
                room = cap_weight - vm_weight(FAMILY_P, vm1)
                for vm2, c2 in slices[k - a].items():
                    if vm_weight(FAMILY_P, vm2) > room:
                        continue
                    for i, e1 in vm1:
                        left = _drop(vm1, i)
                        for j, e2 in vm2:
                            vm = vm_mul(vm_mul(left, _drop(vm2, j)), ((i + j, 1),))
                            nxt[vm] = nxt.get(vm, 0) + F(i * j * e1 * e2, 2) * c1 * c2
        slices.append({vm: c / (k + 1) for vm, c in nxt.items() if c})
    return Series(FAMILY_P, cap_weight, cap_aux,
                  {(k, vm): c for k, sl in enumerate(slices) for vm, c in sl.items()})


def _top(aux_exp, mono):
    """sum top(d_i) over a t-monomial: the aux exponent its factors lose
    from their largest sources p_{d_i + 1}."""
    return -sum(aux_exp(d + 1, d) * e for d, e in mono)


def expand_then_cancel(series, w_cap, coeff, aux_exp, base):
    """Image of a family-P series under p_b -> sum_{d >= b-1} coeff(b, d)
    aux^{aux_exp(b, d)} t_d, beta -> aux^base, kept on its exact staircase.

    Each distinct p-monomial is expanded once and then shifted by base * m
    for every beta^m that carries it."""
    if series.family != FAMILY_P:
        raise ValueError("the change of variables needs a family-P series, "
                         "got family %s" % series.family)
    w_eff = series.cap_weight if w_cap is None else min(w_cap, series.cap_weight)
    powers = {}
    for (m, vm), c in series.terms.items():
        powers.setdefault(vm, []).append((m, c))
    out = {}
    for vm, pairs in powers.items():
        bs = [b for b, e in vm for _ in range(e)]
        expansion = {}
        mono = {}

        def assign(idx, budget, cc, e):
            if idx == len(bs):
                key = (e, tuple(sorted(mono.items())))
                expansion[key] = expansion.get(key, 0) + cc
                return
            b = bs[idx]
            for d in range(b - 1, budget):
                mono[d] = mono.get(d, 0) + 1
                assign(idx + 1, budget - (d + 1), cc * coeff(b, d), e + aux_exp(b, d))
                mono[d] -= 1
                if not mono[d]:
                    del mono[d]

        assign(0, w_eff, Rat(1), 0)
        for (e, tm), cc in expansion.items():
            # room left on the staircase once beta^m is shifted in
            room = base * series.cap_aux - e - _top(aux_exp, tm)
            for m, c in pairs:
                if base * m <= room:
                    key = (base * m + e, tm)
                    out[key] = out.get(key, 0) + c * cc
    return Laurent({k: v for k, v in out.items() if v}, w_eff, series.cap_aux,
                   base, aux_exp)


def term_by_term(poly, fs):
    """sum c * prod d^eta fs[s], each factor its own chain of partials."""
    some = next(iter(fs.values()))
    out = Series.zero(some.family, some.cap_weight, some.cap_aux)
    for key, c in poly.items():
        piece = Series.constant(some.family, some.cap_weight, some.cap_aux, c)
        for s, eta in key:
            factor = fs[s]
            for i in eta:
                factor = factor.partial(i)
            piece = piece * factor
        out = out + piece
    return out


@lru_cache(maxsize=None)
def a_alternating(d, k):
    """Coefficient of psi^{d+k} in sum_b (-1)^{d-b+1} / ((d-b+1)! (b-1)!)
    * 1/(1 - b psi), summed as Fractions."""
    acc = F(0)
    for b in range(1, d + 2):
        acc += F((-1) ** (d - b + 1) * b ** (d + k),
                 factorial(d - b + 1) * factorial(b - 1))
    return acc


def L_grade_per_tuple(k, index_cap):
    """z^k part of L: over ordered compositions (k_1..k_r) of k and index
    tuples (n_1..n_r), (1/r!) prod a(n_i, k_i) t_{n_i} d/dt_{n_i + k_i}."""
    terms = {}
    compositions = [c for r in range(1, k + 1) for c in product(range(1, k + 1), repeat=r)
                    if sum(c) == k]
    for compn in compositions:
        for ns in product(range(index_cap + 1), repeat=len(compn)):
            if any(n + ki > index_cap for n, ki in zip(ns, compn)):
                continue
            coeff = F(1, factorial(len(compn)))
            for n, ki in zip(ns, compn):
                coeff *= a_alternating(n, ki)
            key = (tuple(sorted(ns)), tuple(sorted(n + ki for n, ki in zip(ns, compn))))
            terms[key] = terms.get(key, F(0)) + coeff
    return TOp(terms)


def _compositions(k):
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(1, k + 1)
            for rest in _compositions(k - first)]


@lru_cache(maxsize=None)
def build_L_grade(k, index_cap):
    """z^k part of L: sum over ordered compositions (k_1..k_r) of k of
    (1/r!) prod a_{n_i, n_i+k_i} t_{n_1}..t_{n_r} d/dt_{n_1+k_1}..d/dt_{n_r+k_r}.
    The products are summed as integers per key and divided by r! once."""
    a = {(n, j): int(a_coeff(n, j)) for j in range(1, k + 1)
         for n in range(index_cap - j + 1)}
    terms = {}
    for compn in _compositions(k) if k else []:
        sums = {}
        for ns in product(*[range(index_cap - ki + 1) for ki in compn]):
            coeff = 1
            for n, ki in zip(ns, compn):
                coeff *= a[n, ki]
            key = (tuple(sorted(ns)), tuple(sorted(n + ki for n, ki in zip(ns, compn))))
            sums[key] = sums.get(key, 0) + coeff
        for key, c in sums.items():
            terms[key] = terms.get(key, F(0)) + F(c, factorial(len(compn)))
    return TOp(terms)


def l_operator(m):
    """The first-order operator sum c z^(j-i) t_i d/dt_j of a matrix {(i, j): c}."""
    grades = {}
    for (i, j), c in m.items():
        grades.setdefault(j - i, {})[((i,), (j,))] = c
    return ZOp({k: TOp(terms) for k, terms in grades.items()})


def exp_l_operator_route(zmax, index_cap):
    """exp(l), summed in the normal-ordered operator algebra, reproduces every
    coefficient of L through z^zmax on terms with all indices within the cap."""
    expl = l_operator(solve_l(zmax, index_cap)).exp(zmax, index_cap)
    for k in range(zmax + 1):
        want = TOp.single((), (), 1) if k == 0 else build_L_grade(k, index_cap)
        if expl.grade(k) != want:
            return False
    return True


def full_rescan(solver):
    """Run a fresh ModuliPDESolver with each sweep re-evaluating the equation
    at every monomial, until a whole sweep solves nothing."""
    kmax, weight_cap = solver.kmax, solver.weight_cap
    for phase in range(kmax + 1):
        eq = conjugated_equation(2, 2, phase)
        progress = True
        while progress:
            progress = False
            for mono in _monomials_up_to_weight(weight_cap):
                aff = solver.equation_affine(eq, mono)
                if aff is None:
                    continue
                const = aff.pop(None, 0)
                if len(aff) == 1:
                    (prim, coeff), = aff.items()
                    solver.solved[prim] = -const / coeff
                    progress = True
                elif not aff and const:
                    raise ValueError("inconsistent equation at %r" % (mono,))
    return solver


def set_partitions(items):
    """All set partitions of a list (positions distinct)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1:]
        yield [[first]] + part


def bell_poly_by_set_partitions(dp):
    """``hierarchy.bell_poly`` with one step per set partition."""
    out = {}
    for mono, c in dp.terms.items():
        for part in set_partitions(list(mono)):
            key = tuple(sorted(tuple(sorted(block)) for block in part))
            out[key] = out.get(key, Rat(0)) + c
    return DPoly(out)


def lagrange_fit_1d(points):
    """Exact polynomial through (x, y) points, as a coefficient list."""
    n = len(points)
    coeffs = [Rat(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Rat(1)]
        denom = Rat(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            denom *= xi - xj
            basis = _poly_mul_linear(basis, -xj)
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mul_linear(coeffs, const):
    out = [Rat(0)] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        out[k] += c * const
        out[k + 1] += c
    return out
