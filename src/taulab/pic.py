"""Intersection brackets from one-part Hurwitz numbers, the triangular
change of variables into t-variables, and tau-function checks for the
bracket generating series.

The change of variables sends p_b to sum_{d >= b-1} c(b, d) aux^{e(b, d)} t_d
and beta to aux^base.  It is used in two pictures, by one engine
(``_change_variables``) and one image class (``Laurent``):

* the q-picture (here): c(b, d) = (-1)^{d-b+1} / ((d-b+1)! (b-1)!),
  e(b, d) = -(d + 1), base 2 (q^2 = beta);
* the u-picture (``hodge``): c(b, d) = (-1)^{d-b+1} / ((d-b+1)! b^{b-1}),
  e(b, d) = -(3b + 2d + 1), base 3 (u^3 = beta, z = u^2).

The engine computes the image one target t-monomial prod_d t_d^{k_d} at a
time: its coefficient in the image of p^vm = prod_b p_b^{e_b} is
prod_b e_b! / prod_d k_d! times the sum of prod_i c(b_i, d_i) over the
b-tuples 1 <= b_i <= d_i + 1 (the d_i listed in order) with multiset vm.
That sum stays in integers: row d of the table holds s_d c(b, d), with s_d
the least common denominator of the row (s_d = d! in the q-picture, where
c(b, d) d! = (-1)^{d-b+1} C(d, b-1)), and the input is put over one
denominator, so each image coefficient costs one division.

Applied to a series whose beta^m p-monomials are exact to p-weight <= W and
m <= M, the image coefficient at (aux^j, prod t_{d_i}) is exact iff
wt = sum (d_i + 1) <= W and j + sum top(d_i) <= base * M, where
top(d) = -e(d + 1, d): the contributing p-monomials have sum b_i <= wt, and
the largest beta power reaching the coefficient comes from b_i = d_i + 1.
That staircase reads j + wt <= 2M in the q-picture and
j + 5 sum d_i + 4n <= 3M in the u-picture.  Each slice aux^j is returned
exact to the largest weight whose monomials all lie on it.

The bracket itself is defined combinatorially:
    <tau_{d_1} ... tau_{d_n}> =
        sum over 1 <= b_i <= d_i + 1 of
        prod (-1)^{d_i - b_i + 1} / ((d_i - b_i + 1)! (b_i - 1)!)
        * h_{g; b} / ((2g - 1 + n)! sum b_i),
with 4g = sum d_i - n + 3 (zero if no such integer g >= 0 exists).
With the hook form of h_{g; b} (see hurwitz: the sum over j below is the
hook-character sum ``partitions._hook_sum``) and c(b, d) / b =
(-1)^{d+1-b} C(d+1, b) / (d+1)!, the sum over b is linear and factors into
    P(x, y) = prod_i sum_{b=1}^{d_i+1} (-1)^{d_i+1-b} C(d_i+1, b) x^b (1 - (-y)^b),
    <...> = sum_D (1/D^2) sum_j (-1)^j f_j^m [x^D y^j] P / (1 + y)
            / (m! prod (d_i + 1)!),  f_j = D (D - 1 - 2j) / 2, m = 2g - 1 + n.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from math import comb, factorial, lcm, prod

from .partitions import partitions_of, _hook_sum
from .series import (Series, Rat, FAMILY_P, FAMILY_TQ, _cached, _check_caps, _check_indices,
                     _check_series, _make, _ratio, _trade, vm_weight)


class Laurent:
    """Image of the change of variables: {(aux_exponent, t_monomial): coeff}
    with integer (possibly negative) aux exponents and no zero coefficients,
    exact on the staircase of the module docstring for inputs exact to
    beta^m_cap."""

    __slots__ = ("terms", "w_cap", "m_cap", "base", "aux_exp")

    def __init__(self, terms, w_cap, m_cap, base, aux_exp):
        self.terms = terms
        self.w_cap = w_cap
        self.m_cap = m_cap
        self.base = base
        self.aux_exp = aux_exp

    def slice(self, j):
        """t-polynomial at aux^j, as a family T_Q series with aux 0, exact
        to the largest weight whose monomials all lie on the staircase;
        ValueError when even its constant lies above the staircase."""
        if j > self.base * self.m_cap:
            raise ValueError("aux^%d is above the staircase, aux <= %d" % (j, self.base * self.m_cap))
        # worst[w]: the largest sum top(d_i) over t-monomials of weight w
        worst = [0]
        for w in range(1, self.w_cap + 1):
            worst.append(max(worst[w - d - 1] - self.aux_exp(d + 1, d) for d in range(w)))
        w = self.w_cap
        while w > 0 and j + worst[w] > self.base * self.m_cap:
            w -= 1
        return Series(FAMILY_TQ, w, 0,
                      {(0, vm): c for (a, vm), c in self.terms.items() if a == j})

    def lowest(self):
        """Lowest aux exponent present (None for the zero image)."""
        return min((j for j, _ in self.terms), default=None)

    # the q-picture names
    q_slice = slice
    lowest_nonzero_q = lowest


def _change_variables(series, coeff, aux_exp, base):
    """Image of a family-P series under p_b -> sum_{d >= b-1} coeff(b, d)
    aux^{aux_exp(b, d)} t_d, beta -> aux^base, kept on its exact staircase.

    One integer sum per target t-monomial (module docstring).  The targets
    are walked depth first, d_1 <= d_2 <= ..., so each extends its parent's
    sums by one row of the table."""
    _check_series("the change of variables", series, FAMILY_P)
    W = series.cap_weight
    # the input as integers over den, keyed by the sorted b-tuple of each
    # p-monomial p^vm, each numerator times prod_b e_b!
    den = series.den
    powers = {}
    for (m, vm), n in series.num.items():
        n *= prod(factorial(e) for _, e in vm)
        powers.setdefault(tuple(b for b, e in vm for _ in range(e)), []).append((m, n))
    rows = []  # rows[d]: (s_d, [(b, s_d coeff(b, d), aux_exp(b, d))])
    for d in range(W):
        cs = [(b, coeff(b, d), aux_exp(b, d)) for b in range(1, d + 2)]
        s = lcm(*(c.denominator for _, c, _ in cs))
        rows.append((s, [(b, int(c * s), a) for b, c, a in cs if c]))
    cap = base * series.cap_aux
    out = {}

    def visit(sums, tm, w, scale, top):
        # sums: {(b-tuple, aux exponent): integer sum over the b-tuples};
        # scale = prod_d s_d^{k_d} k_d!, top = sum_i top(d_i)
        acc = {}
        for (bs, e), v in sums.items():
            for m, n in powers.get(bs, ()):
                j = base * m + e
                if j + top <= cap:  # the staircase
                    acc[j] = acc.get(j, 0) + n * v
        for j, a in acc.items():
            if a:
                out[(j, tm)] = Rat(a, den * scale)
        for d in range(tm[-1][0] if tm else 0, W - w):
            s, row = rows[d]
            nxt = {}
            for (bs, e), v in sums.items():
                for b, c, a in row:
                    i = bisect_right(bs, b)
                    key = (bs[:i] + (b,) + bs[i:], e + a)
                    nxt[key] = nxt.get(key, 0) + v * c
            k = tm[-1][1] + 1 if tm and tm[-1][0] == d else 1
            visit(nxt, tm[:len(tm) - (k > 1)] + ((d, k),), w + d + 1, scale * s * k,
                  top - aux_exp(d + 1, d))

    visit({((), 0): 1}, (), 0, 1, 0)
    return Laurent(out, W, series.cap_aux, base, aux_exp)


def chvar_coeff(b, d):
    """Coefficient of t_d in the image of p_b (without the q power)."""
    _check_caps("chvar_coeff", 1, b)
    _check_caps("chvar_coeff", 0, d)
    if d < b - 1:
        return Rat(0)
    return Rat((-1) ** (d - b + 1), factorial(d - b + 1) * factorial(b - 1))


def _q_exp(b, d):
    return -(d + 1)


def transform_p_to_tq(series):
    """Exact transform of a family-P series into the Laurent t-picture."""
    return _change_variables(series, chvar_coeff, _q_exp, 2)


def chvar_pic(series, q_floor=1):
    """Transform and verify that every q exponent is >= q_floor.

    Raises if an exactly-computed coefficient below the floor is nonzero
    (the input was outside the guaranteed class)."""
    img = transform_p_to_tq(series)
    bad = [(k, v) for k, v in img.terms.items() if k[0] < q_floor]
    if bad:
        raise ValueError("transform has %d terms below q^%d, e.g. %r"
                         % (len(bad), q_floor, bad[0]))
    return img


# -- brackets ------------------------------------------------------------------


def bracket(indices):
    """<tau_{d_1} ... tau_{d_n}> for a multiset of nonnegative indices."""
    key = _check_indices("bracket", indices)
    return _cached(("bracket", key), _bracket_raw, key)


def _bracket_raw(ds):
    g4 = sum(ds) - len(ds) + 3  # 4g
    if g4 % 4 or g4 < 0:
        return Rat(0)
    m = g4 // 2 - 1 + len(ds)  # 2g - 1 + n
    # P of the module docstring, as {x power: y coefficients}
    P = {0: [1]}
    scale = factorial(m)
    for d in ds:
        scale *= factorial(d + 1)
        nxt = {}
        for b in range(1, d + 2):
            e = (-1) ** (d + 1 - b) * comb(d + 1, b)
            eb = -e if b % 2 == 0 else e  # e x^b (1 - (-y)^b)
            for D, ys in P.items():
                out = nxt.setdefault(D + b, [0] * (D + b + 1))
                for j, c in enumerate(ys):
                    if c:
                        out[j] += e * c
                        out[j + b] += eb * c
        P = nxt
    return sum(Rat(_hook_sum(ys, D, m), D * D) for D, ys in P.items()) / (scale << m)


def genus_table(g):
    """All brackets with every index >= 2 (the generators modulo the string
    and dilaton recursions) for the given genus, as {multiset: value}."""
    _check_caps("genus_table", 0, g)
    out = {}
    if g == 0:
        out[(0, 0, 0)] = bracket((0, 0, 0))
        return out
    for n in range(1, 4 * g - 3 + 3 + 1):
        total = 4 * g - 3 + n
        if total < 2 * n:
            continue
        for la in partitions_of(total - 2 * n):
            if len(la) > n:
                continue
            ds = tuple(sorted((2,) * (n - len(la)) + tuple(x + 2 for x in la)))
            out[ds] = bracket(ds)
    return out


# -- generating series of brackets ----------------------------------------------


def _monomials_up_to_weight(W):
    """All t-monomials with sum (d+1) e_d <= W, as {d: e} dicts."""
    return [dict(Counter(part - 1 for part in la.parts))
            for w in range(W + 1) for la in partitions_of(w)]


def _mono_factorials(mono):
    return prod(factorial(e) for e in mono.values())


def _bracket_series(W, extra):
    """Coefficient of prod t_d^{e_d} is <tau_extra prod tau_d^{e_d}> / prod e_d!,
    as integers over one denominator; memoized."""
    _check_caps("the bracket series", 0, W)
    return _cached(("bracket_series", W, extra), _bracket_series_raw, W, extra)


def _bracket_series_raw(W, extra):
    items = [(tuple(sorted(mono.items())), bracket(extra + tuple(Counter(mono).elements())),
              _mono_factorials(mono)) for mono in _monomials_up_to_weight(W)]
    den = lcm(*(b.denominator * f for _, b, f in items))
    return _make(FAMILY_TQ, W, 0, {(0, vm): b.numerator * (den // (b.denominator * f))
                                   for vm, b, f in items}, den)


def f_series(W):
    """F: coefficient of prod t_d^{e_d} is bracket / prod e_d!."""
    return _bracket_series(W, ())


def u_series(W):
    """U = d^2 F / d t_0^2, built directly from brackets."""
    return _bracket_series(W, (0, 0))


# -- string / dilaton ------------------------------------------------------------


def _t_terms(F, name):
    """(numerator, t-monomial, weight) of F's terms.  A family-P series has
    no t variables, and neither check reads an aux power, so a series with
    an aux term is refused too."""
    _check_series(name, F, FAMILY_TQ, aux=False)
    return [(n, vm, vm_weight(F.family, vm)) for (_, vm), n in F.num.items()]


STRING_SOURCE_PIC = {((0, 2),): Rat(1, 2)}


def string_check(F, source=STRING_SOURCE_PIC):
    """dF/dt_0 = sum_{d>=1} t_d dF/dt_{d-1} + source, coefficient-wise on
    every t-monomial of weight <= F.cap_weight - 1, whose coefficients read
    F to its cap.

    The default source t_0^2/2 is the genus-zero three-point slot of the
    bracket series.  Lambda-class slices carry their own exceptional slots
    (e.g. the one-pointed genus-one value as a constant source); pass them
    as {monomial-key: value}.  One pass over F's integer numerators: each
    term t^vm feeds dF/dt_0 at vm / t_0 and t_{d+1} dF/dt_d at vm t_{d+1} / t_d,
    each key made by ``series._trade``."""
    res, terms = {}, _t_terms(F, "string_check")
    cap = F.cap_weight - 1  # the checked monomials
    for n, vm, w in terms:
        moves = [((0,), (), 1)] + [((d,), (d + 1,), -1) for d, _ in vm if w < cap]
        for take, give, sign in moves:
            m, mono = _trade(vm, take, give)
            if m:
                res[mono] = res.get(mono, 0) + sign * m * n
    for mono, v in (source or {}).items():
        if vm_weight(F.family, mono) <= cap:
            p, q = _ratio(v)
            res[mono] = res.get(mono, 0) * q - p * F.den
    return not any(res.values())


def dilaton_check(F):
    """dF/dt_1 = 1/2 sum (d+1) t_d dF/dt_d - F/2, coefficient-wise on every
    t-monomial of weight <= F.cap_weight - 2.  Twice the equation, one pass
    over F's integer numerators: t^vm feeds 2 dF/dt_1 at vm / t_1, the key
    made by ``series._trade``, and (weight - 1) F at vm."""
    res = {}
    for n, vm, w in _t_terms(F, "dilaton_check"):
        m, low = _trade(vm, (1,), ())
        if m:
            res[low] = res.get(low, 0) + 2 * m * n
        if w <= F.cap_weight - 2:
            res[vm] = res.get(vm, 0) - (w - 1) * n
    return not any(res.values())


# -- tau-function checks for U in the T variables ---------------------------


def u_in_T(W):
    """U re-expressed in T_i = t_{i-1}/(i-1)!: a family-P style series in
    the T variables (weight(T_i) = i), suitable for the Hirota machinery."""
    u = u_series(W)
    return _make(FAMILY_P, W, 0, {(0, tuple((d + 1, e) for d, e in vm)):
                                  n * prod(factorial(d) ** e for d, e in vm)
                                  for (_, vm), n in u.num.items()}, u.den)


def u_hierarchy_residuals(W):
    """Hirota residuals of c' + U for c' = 0, 1 and linearized residuals of U,
    in the T variables, for (i, j) = (2, 2) and (2, 3).  Returns
    {(kind, (i,j), shift): residual_series}; the caps of each residual
    delimit the exactly-checked region."""
    from .hierarchy import hirota_residual, lkp_residual
    UT = u_in_T(W)
    out = {}
    for (i, j) in ((2, 2), (2, 3)):
        for c in (Rat(0), Rat(1)):
            out[("hirota", (i, j), c)] = hirota_residual(i, j, UT + c)
        out[("lkp", (i, j), None)] = lkp_residual(i, j, UT)
    return out
