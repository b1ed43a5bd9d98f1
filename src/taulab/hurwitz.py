"""Hurwitz numbers by independent routes, and their generating series.

Two families are computed:

* one-part numbers ("onepart"): degree-d covers with a single fully
  ramified point over 0 (monodromy a d-cycle), n numbered points over
  infinity with multiplicities b_1..b_n, and m = 2g-1+n simple branch
  points.  The d-cycle forces connectedness.

* simple numbers ("simple"): no point over 0, m = d+n+2g-2 simple branch
  points, covers required connected.

Counting convention (pinned by the unstable-part goldens, not assumed):
h = |Aut(profile)| * #{(sigma, tau_1..tau_m, pi) : product = id, classes as
required, connected} / d!, where |Aut| counts the assignments of the n
labels to the cycles of pi.

Routes:
  * brute force: explicit tuple counting over S_d (dynamic programming on
    the running product, plus a sheet-partition state for the simple kind's
    transitivity filter);
  * character sums: for one-part numbers the class-algebra formula
    collapses onto hook diagrams, h = (1/(d prod b_i)) sum over hooks of
    chi(hook at the d-cycle) f^m chi(hook at profile).  With the hook
    generating function sum_j chi_{hook(d-1-j, j)}(nu) y^j =
    prod_i (1 - (-y)^{nu_i}) / (1 + y), the content sum f_j = d (d-1-2j) / 2
    of hook(d-1-j, j) and chi_{hook(d-1-j, j)}((d)) = (-1)^j this reads
    h = (1/(d prod b_i)) sum_j (-1)^j f_j^m [y^j] prod_i (1-(-y)^{b_i}) / (1+y)
    (``_hook_sum``, which pic's brackets share); for the simple kind
    the character sum counts possibly-disconnected covers, and the
    connected values are the coefficients of its logarithm.  One memoized
    table (``_connected_simple``) computes that logarithm for each multiset
    s of parts, in rows indexed by j = k - (|s| - l(s)) up to a cap J: a
    query reads J = 2g + 2n - 2, and h_simple_series(W, M) assembles its
    rows at J = M.  The whole-series logarithm is a test oracle;
  * closed hook series (one-part only): coefficient extraction from
    sum_{a,b} (-1)^b s_{hook(a,b)} e^{f beta}.
"""

from __future__ import annotations

import json
import os
import warnings
from itertools import permutations, product
from math import comb, factorial, lcm, prod

from .partitions import (Partition, partitions_of, partitions_upto, aut_order,
                         zee, hook, cut_and_join_eigenvalue)
from .symfunc import character, dimension, schur_poly
from .series import Series, Rat, FAMILY_P, _cached, _make, vm_weight

ONEPART = "onepart"
SIMPLE = "simple"


class HurwitzQuery:
    """kind, genus, and ordered ramification profile over infinity."""

    __slots__ = ("kind", "genus", "profile")

    def __init__(self, kind, genus, profile):
        if kind not in (ONEPART, SIMPLE):
            raise ValueError("unknown kind %r" % (kind,))
        profile = tuple(int(b) for b in profile)
        if genus < 0:
            raise ValueError("genus must be >= 0, got %d" % genus)
        if not profile:
            raise ValueError("the profile needs at least one part")
        if min(profile) < 1:
            raise ValueError("profile parts must be >= 1, got %r" % (profile,))
        self.kind = kind
        self.genus = genus
        self.profile = profile

    @property
    def degree(self):
        return sum(self.profile)

    @property
    def npoints(self):
        return len(self.profile)

    @property
    def branch_points(self):
        if self.kind == ONEPART:
            return 2 * self.genus - 1 + self.npoints
        return self.degree + self.npoints + 2 * self.genus - 2

    @property
    def cycle_type(self):
        return Partition.from_multiset(self.profile)

    def key(self):
        return (self.kind, self.genus, tuple(sorted(self.profile, reverse=True)))

    def __repr__(self):
        return "HurwitzQuery(%s, g=%d, b=%r)" % (self.kind, self.genus, self.profile)


# -- brute force ---------------------------------------------------------------


def _cycle_type_of(perm):
    return Partition.from_multiset(len(cyc) for cyc in _cycles_of(perm))


def _merge_blocks(blocks, i, j):
    bi = bj = None
    for b in blocks:
        if i in b:
            bi = b
        if j in b:
            bj = b
    if bi is bj:
        return blocks
    rest = tuple(b for b in blocks if b is not bi and b is not bj)
    return tuple(sorted(rest + (tuple(sorted(bi + bj)),)))


def hurwitz_bruteforce(q):
    """Exact count by explicit factorization enumeration; desk scale only."""
    d, m = q.degree, q.branch_points
    if d > 5 or m > 7:
        raise ValueError("brute force limited to degree <= 5, branch points <= 7")
    if m < 0:
        return Rat(0)
    target = q.cycle_type
    transpositions = [(i, j) for i in range(d) for j in range(i + 1, d)]
    full = (tuple(range(d)),)
    # DP over (running product sigma tau_1 ... tau_k, partition of the sheets
    # the factors generated so far), to filter for connectedness at the end.
    # A one-part sigma is a d-cycle, so its sheets start in one block.
    if q.kind == ONEPART:
        state = {(sigma, full): 1 for sigma in permutations(range(d))
                 if len(_cycle_type_of(sigma)) == 1}
    else:
        state = {(tuple(range(d)), tuple((i,) for i in range(d))): 1}
    for _ in range(m):
        nxt = {}
        for (perm, blocks), cnt in state.items():
            for i, j in transpositions:
                np = list(perm)
                np[i], np[j] = np[j], np[i]
                key = (tuple(np), _merge_blocks(blocks, i, j))
                nxt[key] = nxt.get(key, 0) + cnt
        state = nxt
    total = 0
    for (perm, blocks), cnt in state.items():
        # pi = perm^{-1} has the cycle type of perm and joins its own cycles
        if _cycle_type_of(perm) != target:
            continue
        joined = blocks
        for cyc in _cycles_of(perm):
            for x in cyc[1:]:
                joined = _merge_blocks(joined, cyc[0], x)
        if joined == full:
            total += cnt
    return Rat(total * aut_order(target), factorial(d))


def _cycles_of(perm):
    d = len(perm)
    seen = [False] * d
    out = []
    for s in range(d):
        if seen[s]:
            continue
        cyc = []
        x = s
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        out.append(tuple(cyc))
    return out


# -- character sums ------------------------------------------------------------


def _hook_sum(poly, d, m):
    """sum_j (-1)^j f_j^m [y^j] poly / (1 + y), f_j = d (d - 1 - 2j) / 2: the
    one-part character sum for poly = prod_i (1 - (-y)^{nu_i}), |nu| = d (see
    the module docstring).  poly must be divisible by 1 + y; (-1)^j times the
    quotient's y^j coefficient is the alternating prefix sum of poly to y^j."""
    acc = prefix = 0
    for j, c in enumerate(poly[:d]):
        prefix += -c if j % 2 else c
        acc += prefix * (d * (d - 1 - 2 * j)) ** m
    return Rat(acc, 2 ** m)


def _onepart_character_sum(nu, m):
    """sum over hooks lambda of |nu| of chi_lambda((d)) f^m chi_lambda(nu)."""
    poly = [1]
    for b in nu:
        out = poly + [0] * b
        for j, c in enumerate(poly):  # times 1 - (-y)^b
            out[j + b] -= c if b % 2 == 0 else -c
        poly = out
    return _hook_sum(poly, nu.size, m)


def hurwitz_frobenius(q):
    """Character-sum route; one-part directly, simple from the connected table."""
    d, m = q.degree, q.branch_points
    if m < 0:
        return Rat(0)
    nu, prod_b = q.cycle_type, prod(q.profile)
    if q.kind == ONEPART:
        return _onepart_character_sum(nu, m) / (d * prod_b)
    return Rat(_connected_simple(tuple(sorted(nu.multiplicities().items())),
                                 m - d + len(nu))[1][-1], 2 ** m * factorial(d) * prod_b)


def _dim_f2(size):
    """(lambda, dim lambda, 2 f_lambda) for every partition lambda of size."""
    return tuple((la, dimension(la), int(2 * cut_and_join_eigenvalue(la)))
                 for la in partitions_of(size))


def _connected_simple(vm, J):
    """Rows (Z, H) of the multiset s = vm = ((b, mult), ...), for j = 0..J.

    Entry j holds the coefficient at beta^k p_s, k = e(s) + j with
    e(s) = |s| - l(s), of Z = sum (dim/d!) e^{beta f} s_lambda and of
    H = log Z, each times k! 2^k |s|! z_s, which makes both integers:
    Z's is sum over lambda of |s| of dim(lambda) chi_lambda(s) (2f)^k, and
    H's is 2^k |s|! (product of the parts) times the connected number
    h_{g;s} with k = |s| + l(s) + 2g - 2 branch points, or 0 if no g fits.
    Both vanish below k = e(s) (k transpositions leave at least |s| - k
    cycles).  The number of parts l is a derivation, so DZ = Z DH gives
    l(s) H_{k,s} = l(s) Z_{k,s} - sum l(t) H_{k',t} Z_{k-k',s-t} over
    nonempty proper sub-multisets t of s; scaled, each product gains the
    factor C(k, k') C(|s|, |t|) prod_b C(mult_b(s), mult_b(t)).  e is
    additive, so j is too, and one cap J serves every sub-multiset.
    """
    return _cached(("simple", vm, J), _connected_simple_raw, vm, J)


def _connected_simple_raw(vm, J):
    values, mults = zip(*vm)
    size = sum(b * c for b, c in vm)
    n = sum(mults)
    excess = size - n
    mu = Partition(tuple(b for b, c in reversed(vm) for _ in range(c)))
    Z = [0] * (J + 1)
    for la, dim, f2 in _cached(("dim_f2", size), _dim_f2, size):
        if c := character(la, mu):
            c *= dim * f2 ** excess
            for j in range(J + 1):
                Z[j] += c
                c *= f2
    H = [n * z for z in Z]
    # sub-multisets t as exponent vectors against the multiplicities of s
    for t in product(*[range(c + 1) for c in mults]):
        nt = sum(t)
        if not 0 < nt < n:
            continue
        tsize = sum(b * x for b, x in zip(values, t))
        Ht = _connected_simple(tuple((b, x) for b, x in zip(values, t) if x), J)[1]
        Zu = _connected_simple(tuple((b, c - x) for b, c, x in zip(values, mults, t)
                                     if c > x), J)[0]
        w = nt * comb(size, tsize) * prod(map(comb, mults, t))
        shift = tsize - nt
        for j1, h in enumerate(Ht):
            if h:
                h *= w
                for j2 in range(J + 1 - j1):
                    H[j1 + j2] -= comb(excess + j1 + j2, shift + j1) * h * Zu[j2]
    return tuple(Z), tuple(v // n for v in H)


# -- generating series ---------------------------------------------------------


def _exp_schur_sum(weighted, cap_weight, cap_aux):
    """sum of w e^{f(lambda) beta} s_lambda over the (lambda, w) pairs, over one
    denominator: f^k / k! = f2^k (top / (2^k k!)) / top with f2 = 2f an integer."""
    parts = [(schur_poly(la, cap_weight=cap_weight, cap_aux=cap_aux), w,
              int(2 * cut_and_join_eigenvalue(la))) for la, w in weighted]
    top = 2 ** cap_aux * factorial(cap_aux)
    den = top * lcm(*(s.den * w.denominator for s, w, _ in parts))
    acc = {}
    for s, w, f2 in parts:
        scale = den // (s.den * w.denominator) * w.numerator
        for (_, vm), n in s.num.items():
            v = n * scale
            for k in range(cap_aux + 1):
                acc[(k, vm)] = acc.get((k, vm), 0) + v
                v = v * f2 // (2 * k + 2)
    return _make(FAMILY_P, cap_weight, cap_aux, acc, den)


def h_simple_series(cap_weight, cap_aux):
    """Connected simple series H = log sum (dim/d!) e^{beta f} s_lambda:
    coefficient of beta^m p_nu is h_{g;nu} / (m! |Aut(nu)|) with
    m = d + n + 2g - 2, read from the connected table at J = cap_aux."""
    def build():
        terms = {}
        for la in partitions_upto(cap_weight)[1:]:
            excess, vm = la.size - len(la), tuple(sorted(la.multiplicities().items()))
            row = _connected_simple(vm, cap_aux)[1] if excess <= cap_aux else ()
            for k, h in enumerate(row[:cap_aux + 1 - excess], start=excess):
                terms[k, vm] = Rat(h, factorial(la.size) * zee(la) * 2 ** k * factorial(k))
        return Series(FAMILY_P, cap_weight, cap_aux, terms)
    return _cached(("H_simple", cap_weight, cap_aux), build)


def h_onepart_series(cap_weight, cap_aux):
    """One-part series H: coefficient of beta^m p_nu is
    h_{g;nu} / (m! |Aut(nu)| d) with m = 2g - 1 + n."""
    def build():
        items = []
        for d in range(1, cap_weight + 1):
            for nu in partitions_of(d):
                n = len(nu)
                for m in range(cap_aux + 1):
                    if (m + 1 - n) % 2 or m + 1 - n < 0:
                        continue
                    g = (m + 1 - n) // 2
                    h = hurwitz_frobenius(HurwitzQuery(ONEPART, g, nu.parts))
                    if h:
                        items.append((m, nu.multiplicities(),
                                      h / (factorial(m) * aut_order(nu) * d)))
        return Series.from_terms(FAMILY_P, cap_weight, cap_aux, items)
    return _cached(("H_onepart", cap_weight, cap_aux), build)


def h_unst_onepart(cap_weight, cap_aux):
    """Unstable part (g = 0, n <= 2) of the one-part H, closed form."""
    items = []
    for b in range(1, cap_weight + 1):
        items.append((0, {b: 1}, Rat(1, b * b)))
    if cap_aux >= 1:
        for b1 in range(1, cap_weight):
            for b2 in range(1, cap_weight - b1 + 1):
                vm = {b1: 1}
                vm[b2] = vm.get(b2, 0) + 1
                items.append((1, vm, Rat(1, 2 * (b1 + b2))))
    return Series.from_terms(FAMILY_P, cap_weight, cap_aux, items)


def h_unst_simple(cap_weight, cap_aux):
    """Unstable part (g = 0, n <= 2) of the simple H, closed form.

    One-point coefficients are beta^{b-1} b^{b-2}/b!, where b = 1 reads
    1^{-1}/1! = 1.
    """
    items = [(0, {1: 1}, Rat(1))]
    for b in range(2, cap_weight + 1):
        if b - 1 <= cap_aux:
            items.append((b - 1, {b: 1}, Rat(b ** (b - 2), factorial(b))))
    for b1 in range(1, cap_weight):
        for b2 in range(1, cap_weight - b1 + 1):
            if b1 + b2 > cap_aux:
                continue
            vm = {b1: 1}
            vm[b2] = vm.get(b2, 0) + 1
            c = Rat(b1 ** b1 * b2 ** b2, (b1 + b2) * factorial(b1) * factorial(b2))
            items.append((b1 + b2, vm, c / 2))
    return Series.from_terms(FAMILY_P, cap_weight, cap_aux, items)


def lp(series):
    """L_p = sum b p_b d/dp_b: multiply each term by its p-weight."""
    return _make(series.family, series.cap_weight, series.cap_aux,
                 {(aux, vm): n * vm_weight(series.family, vm)
                  for (aux, vm), n in series.num.items()}, series.den)


def hook_series(cap_weight, cap_aux):
    """sum_{a,b >= 0} (-1)^b s_{hook(a,b)} e^{f beta}; equals L_p^2 H."""
    def build():
        return _exp_schur_sum(((hook(d - 1 - b, b), Rat((-1) ** b))
                               for d in range(1, cap_weight + 1) for b in range(d)),
                              cap_weight, cap_aux)
    return _cached(("hooks", cap_weight, cap_aux), build)


def hurwitz_closed(q):
    """One-part value extracted from the hook closed-form series."""
    if q.kind != ONEPART:
        raise ValueError("the hook closed form applies to one-part numbers only")
    d, m = q.degree, q.branch_points
    if m < 0:
        return Rat(0)
    nu = q.cycle_type
    coeff = hook_series(d, m).coeff(aux=m, vm=nu.multiplicities())
    return coeff * factorial(m) * aut_order(nu) / d


def hurwitz(q, method="frobenius"):
    if method == "frobenius":
        return hurwitz_frobenius(q)
    if method == "brute":
        return hurwitz_bruteforce(q)
    if method == "closed":
        return hurwitz_closed(q)
    raise ValueError("unknown method %r" % (method,))


# -- polynomiality -------------------------------------------------------------


def _fit_1d(points):
    """Exact polynomial through (x, y) points with distinct x, as a coefficient
    list: Newton's divided differences, expanded by Horner's rule."""
    xs = [x for x, _ in points]
    c = [y for _, y in points]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    coeffs = []
    for x, ck in zip(reversed(xs), reversed(c)):  # coeffs * (X - x) + ck
        coeffs = [a - x * b for a, b in zip([ck] + coeffs, coeffs + [0])]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _tensor_fit(axes, value):
    """Exact polynomial through value(point) on the grid axes[0] x axes[1]
    x ..., by 1-d interpolation along each axis in turn (Newton's divided
    differences, ``_fit_1d``); returns {exponent tuple: coeff} without zero
    coefficients."""
    def fit_rec(prefix):
        if len(prefix) == len(axes):
            return {(): value(prefix)}
        per_x = [(Rat(x), fit_rec(prefix + (x,))) for x in axes[len(prefix)]]
        keys = set()
        for _, sub in per_x:
            keys.update(sub)
        out = {}
        for key in keys:
            pts = [(x, sub.get(key, Rat(0))) for x, sub in per_x]
            for e, c in enumerate(_fit_1d(pts)):
                if c:
                    out[(e,) + key] = c
        return out
    return fit_rec(())


def _tensor_eval(coeffs, point):
    """Evaluate a _tensor_fit result at a point."""
    acc = Rat(0)
    for exps, c in coeffs.items():
        term = c
        for x, e in zip(point, exps):
            term *= Rat(x) ** e
        acc += term
    return acc


def polynomiality_check(g, n, window, held_out):
    """Fit h_{g;b}/(m! d) on the window of b-tuples as a polynomial and
    verify exactly on held-out tuples.

    window and held_out are lists of b-tuples of length n; the window must
    be a full grid.  Returns (ok, coefficients): a coefficient list for
    n = 1, {exponent tuple: coeff} for n > 1.  Degree must stay below the
    window size per axis.  A malformed or empty window, or a held-out list
    that is empty or meets the window, verifies nothing: ValueError.
    """
    def value(b):
        q = HurwitzQuery(ONEPART, g, b)
        m = q.branch_points
        return hurwitz_frobenius(q) / (factorial(m) * q.degree)

    window, held_out = [tuple(b) for b in window], [tuple(b) for b in held_out]
    if any(len(b) != n for b in window + held_out):
        raise ValueError("every b-tuple needs length n = %d" % n)
    if not window or not held_out:
        raise ValueError("the window and the held-out list must be nonempty")
    axes = [sorted({b[i] for b in window}) for i in range(n)]
    if set(window) != set(product(*axes)):
        raise ValueError("the window is not a full grid")
    if set(held_out) & set(window):
        raise ValueError("a held-out point lies in the window")
    table = {b: value(b) for b in window}
    coeffs = _tensor_fit(axes, table.__getitem__)
    ok = all(_tensor_eval(coeffs, b) == value(b) for b in held_out)
    if n == 1:
        top = max((exps[0] for exps in coeffs), default=-1)
        coeffs = [coeffs.get((e,), Rat(0)) for e in range(top + 1)]
    return ok, coeffs


# -- advisory value cache --------------------------------------------------------


def cache_path():
    return os.environ.get("TAU_LAB_CACHE", "")


def cache_lookup(q):
    path = cache_path()
    if not path or not os.path.exists(path):
        return None
    key = list(q.key())
    want = [key[0], key[1], list(key[2])]
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            # a malformed or half-written line is skipped: the cache is advisory
            try:
                row = json.loads(line)
                if row.get("query") != want:
                    continue
                num, den = row["value"].split("/")
                return Rat(int(num), int(den))
            except (ValueError, KeyError, TypeError, AttributeError,
                    ZeroDivisionError) as exc:
                warnings.warn("%s:%d: skipping malformed cache line (%s)"
                              % (path, lineno, exc))
    return None


def cache_store(q, value):
    path = cache_path()
    if not path:
        return
    key = q.key()
    row = {"query": [key[0], key[1], list(key[2])],
           "value": "%d/%d" % (value.numerator, value.denominator)}
    with open(path, "a") as fh:
        fh.write(json.dumps(row) + "\n")
