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
    (``partitions._hook_sum``, which pic's brackets read too); for the simple
    kind the character sum counts possibly-disconnected covers, and the
    connected values are the coefficients of its logarithm.  One engine
    (``_connected_rows``) computes that logarithm for each multiset s of a
    family closed under sub-multisets (``partitions._sub_multisets``), in
    rows indexed by j = k - (|s| - l(s)) up to a cap J, in one pass per call:
    one table, built per call, gives the numbers of a query or of a whole
    Hodge lattice at J = 2g + 2n - 2 (``_simple_numbers``), and
    h_simple_series(W, M) reads every partition's row at J = M - e(s).  The
    whole-series logarithm is a test oracle;
  * closed hook series (one-part only): coefficient extraction from
    sum_{a,b} (-1)^b s_{hook(a,b)} e^{f beta}.
"""

from __future__ import annotations

from itertools import permutations
from math import comb, factorial, lcm, prod

from .partitions import (Partition, partitions_of, partitions_upto, aut_order,
                         zee, hook, cut_and_join_eigenvalue, _hook_poly, _hook_sum,
                         _sub_multisets)
from .symfunc import schur_poly, _column, _shape
from .series import Series, Rat, FAMILY_P, _check_caps, _check_series, _make, vm_weight

ONEPART = "onepart"
SIMPLE = "simple"


class HurwitzQuery:
    """kind, genus, and ordered ramification profile over infinity."""

    __slots__ = ("kind", "genus", "profile")

    def __init__(self, kind, genus, profile):
        if kind not in (ONEPART, SIMPLE):
            raise ValueError("unknown kind %r" % (kind,))
        profile = tuple(profile)
        # one type test per value: int() would truncate 2.7 and read True as 1
        if type(genus) is not int or genus < 0:
            raise ValueError("genus must be an int >= 0, got %r" % (genus,))
        if not profile:
            raise ValueError("the profile needs at least one part")
        if not all(type(b) is int for b in profile) or min(profile) < 1:
            raise ValueError("profile parts must be ints >= 1, got %r" % (profile,))
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


def _check_query(name, q):
    if not isinstance(q, HurwitzQuery):
        raise ValueError("%s needs a HurwitzQuery, got %r" % (name, q))


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
    _check_query("hurwitz_bruteforce", q)
    d, m = q.degree, q.branch_points
    if d > 5 or m > 7:
        raise ValueError("brute force limited to degree <= 5, branch points <= 7")
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


def hurwitz_frobenius(q):
    """Character-sum route; one-part directly, simple from the connected table."""
    _check_query("hurwitz_frobenius", q)
    if q.kind == ONEPART:  # _hook_sum is 2^m times the module docstring's hook sum
        m = q.branch_points
        return Rat(_hook_sum(_hook_poly(q.profile), q.degree, m), q.degree * prod(q.profile) << m)
    return _simple_numbers(q.genus, [q.profile])[0]


def _simple_numbers(g, profiles):
    """[h_{g;b} for b in profiles], the simple numbers of genus g, from one
    ``_connected_rows`` call.  The multiset vm of b is a member at
    J = 2g + 2 l(b) - 2, each sub-multiset of a member enters at the largest
    J of a member that contains it, and the call is at K = max(e(vm) + J).
    The H entry of b at j = J is 2^m |b|! (prod b) h_{g;b}, with
    m = |b| + l(b) + 2g - 2 = |b| + J - l(b); its slot holds that entry times
    K! / k!, k = e(vm) + J, so each member divides once, and a remainder
    raises.  No later call reads the table, so it is not memoized."""
    members = [(tuple((x, b.count(x)) for x in sorted(set(b))), 2 * g + 2 * len(b) - 2)
               for b in profiles]
    family = {}
    for vm, J in members:
        for t in [vm] + [t for t, *_ in _sub_multisets(vm)[1:-1]]:
            family[t] = max(family.get(t, J), J)
    K = max(_excess(vm) + J for vm, J in members)
    rows = _connected_rows(dict(sorted(family.items(), key=lambda item: _size(item[0]))), K)
    out = []
    for (vm, J), b in zip(members, profiles):
        h, r = divmod(rows[vm][J // 2], factorial(K) // factorial(_excess(vm) + J))
        if r:
            raise ValueError("the connected table left a remainder")
        out.append(Rat(h, 2 ** (sum(b) + J - len(b)) * factorial(sum(b)) * prod(b)))
    return out


def _connected_rows(family, K):
    """{vm: H slots} for the multisets of family = {vm: J}, which lists every
    sub-multiset of a member before it, with no smaller J (a sub-multiset has
    no larger excess).  Slot i of s = vm is at j = 2i <= J, k = e(s) + j <= K
    with e(s) = |s| - l(s).

    Take the coefficients at beta^k p_s of Z = sum (dim/d!) e^{beta f}
    s_lambda and of H = log Z, each times k! 2^k |s|! z_s, which makes both
    integers: Z's is sum over lambda of |s| of dim(lambda) chi_lambda(s)
    (2f)^k, and H's is 2^k |s|! (product of the parts) times the connected
    number h_{g;s} with k = |s| + l(s) + 2g - 2 branch points, or 0 if no g
    fits.  Both are nonnegative, and vanish below k = e(s) (k transpositions
    leave at least |s| - k cycles) and at odd j (k - e(s) = 2 l(s) + 2g - 2
    for H; for Z, the conjugate of lambda has the opposite f and multiplies
    chi_lambda(s) by (-1)^e(s)).  The number of parts l is a derivation, so
    DZ = Z DH gives l(s) H_{k,s} = l(s) Z_{k,s} - sum l(t) H_{k',t}
    Z_{k-k',s-t} over nonempty proper sub-multisets t of s; scaled, each
    product gains the factor C(k, k') C(|s|, |t|) prod_b C(mult_b(s),
    mult_b(t)).  e is additive, so j is too, and a cap J serves every
    sub-multiset.

    Divided by k!, C(k, k') splits between the two factors, so the sum over
    k' is a convolution in j; scaled by K!, every entry is a nonnegative
    integer, and that is what a slot holds.  So the Z and H slots of each row
    are packed into integers (``_pack``) once, at one width that never
    carries (``_slot_bytes``), and cut to the slots of each multiset they
    enter: each product is one multiplication.
    """
    nb = _slot_bytes(max(map(_size, family), default=0), K)
    lows = {}  # (size, parity of e): the least e of the family
    for vm in family:
        key = (_size(vm), _excess(vm) % 2)
        lows[key] = min(lows.get(key, K), _excess(vm))
    exp_rows, rows, out = {}, {}, {}
    for vm, J in family.items():
        parts = tuple(b for b, c in reversed(vm) for _ in range(c))
        count = J // 2 + 1
        keep = (1 << 8 * nb * count) - 1
        acc, total = 0, _size(vm)
        for t, u, w, nt, size in _sub_multisets(vm)[1:-1]:  # t nonempty and proper
            acc += nt * comb(total, size) * w * ((rows[t][1] & keep) * (rows[u][0] & keep))
        z = _z_packed(parts, K, lows[_size(vm), _excess(vm) % 2], nb, exp_rows)
        out[vm] = _log_slots(len(parts), z, acc, K, nb, count)
        rows[vm] = (z, _pack(out[vm], nb))
    return out


def _size(vm):
    return sum(b * c for b, c in vm)


def _excess(vm):
    return sum((b - 1) * c for b, c in vm)


def _z_packed(parts, K, lo, nb, exp_rows):
    """Z of the multiset s = parts at k = e, e + 2, ..., <= K, e = e(s),
    each divided by k! and scaled by K!, packed from slot 0: the
    sum over the column of s of chi_lambda(s) times the row of dim(lambda)
    (2f)^k K! / k!.  exp_rows holds that row per mask, packed in absolute
    values at k = lo, lo + 2, ..., K for the given lo <= e with e's parity;
    as k - e is even, a negative f gives it the sign (-1)^e.  The sum's
    slots are nonnegative and narrower than nb bytes (``_slot_bytes``), so
    the signed rows add up to the packed Z."""
    bits = 8 * nb
    e = sum(parts) - len(parts)
    scales = [(k, factorial(K) // factorial(k)) for k in range(lo, K + 1, 2)]
    z = 0
    for mask, c in _column(parts).items():
        row = exp_rows.get((mask, lo))
        if row is None:
            dim, f2 = _shape(mask)
            row = exp_rows[mask, lo] = (_pack([dim * abs(f2) ** k * scale for k, scale in scales],
                                              nb), f2 < 0)
        packed, negative = row
        z += (-c if negative and e % 2 else c) * (packed >> bits * ((e - lo) // 2))
    if z < 0:
        raise ValueError("Z of %r came out negative" % (parts,))
    return z


def _slot_bytes(size, K):
    """Bytes per slot of the packed rows of multisets of size <= size, for
    k <= K.  A row entry at k, divided by k! and scaled by K!, is a
    nonnegative integer.  Z's is at most size! (size (size - 1))^k K! / k!
    (|chi| <= dim, sum dim^2 = size!, |2f| <= size (size - 1)) and H's is at
    most Z's.  A slot of the summed products of a multiset s is at most
    l(s) K! times s's Z slot, as H_s >= 0 (``_connected_rows``), so no
    slot reaches size size! (K!)^2 max_k (size (size - 1))^k / k!."""
    kf = factorial(K)
    top = max((size * (size - 1)) ** k * (kf // factorial(k)) for k in range(K + 1))
    return ((size * factorial(size) * kf * top).bit_length() + 7) // 8


def _pack(slots, nb):
    """The nonnegative slots as one integer, nb bytes each, slot 0 lowest."""
    return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in slots), "little")


def _unpack(x, nb, count):
    """The first count slots of a packed integer."""
    raw = (x & ((1 << 8 * nb * count) - 1)).to_bytes(nb * count, "little")
    return [int.from_bytes(raw[i:i + nb], "little") for i in range(0, nb * count, nb)]


def _log_slots(n, z, acc, K, nb, count):
    """The first count scaled slots of H_s from those of the packed Z_s and
    the packed sum acc of the weighted products: l(s) H = l(s) Z - acc / K!,
    slot by slot, n = l(s).  A remainder or a negative entry raises."""
    scale = n * factorial(K)
    out = []
    for z, p in zip(_unpack(z, nb, count), _unpack(acc, nb, count)):
        h, r = divmod(scale * z - p, scale)
        if r or h < 0:
            raise ValueError("the connected table left a remainder")
        out.append(h)
    return out


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
    m = d + n + 2g - 2, read from the connected table at K = cap_aux."""
    _check_caps("h_simple_series", 0, cap_weight, cap_aux)
    # h / (|s|! z_s 2^k k!) with h = slot k! / K!, over K! 2^K (W!)^2
    K, top = cap_aux, factorial(cap_weight) ** 2
    vms = (tuple(sorted(la.multiplicities().items()))
           for la in partitions_upto(cap_weight)[1:])
    family = {vm: K - _excess(vm) for vm in vms if _excess(vm) <= K}
    rows = _connected_rows(family, K)
    num = {}
    for vm in family:
        e = _excess(vm)
        scale = top // (factorial(_size(vm)) * prod(b ** c * factorial(c) for b, c in vm))
        for i, h in enumerate(rows[vm]):
            if h:
                num[e + 2 * i, vm] = h * scale << K - e - 2 * i
    return _make(FAMILY_P, cap_weight, K, num, factorial(K) * top << K)


def h_onepart_series(cap_weight, cap_aux):
    """One-part series H: coefficient of beta^m p_nu is
    h_{g;nu} / (m! |Aut(nu)| d) with m = 2g - 1 + n."""
    _check_caps("h_onepart_series", 0, cap_weight, cap_aux)
    # h_{g;nu} / (m! |Aut(nu)| d) = (hook sum) / (2^m m! d^2 z_nu), over
    # 2^M M! lcm(1..W)^2 W!, as d^2 z_nu divides lcm(1..W)^2 W!
    W, M = cap_weight, cap_aux
    top = lcm(*range(1, W + 1)) ** 2 * factorial(W)
    num = {}
    for d in range(1, W + 1):
        for nu in partitions_of(d):
            n, poly = len(nu), _hook_poly(nu)
            vm = tuple(sorted(nu.multiplicities().items()))
            scale = top // (d * d * zee(nu))
            for m in range(n - 1, M + 1, 2):
                if acc := _hook_sum(poly, d, m):
                    num[m, vm] = acc * scale * (factorial(M) // factorial(m)) << M - m
    return _make(FAMILY_P, W, M, num, factorial(M) * top << M)


def h_unst_onepart(cap_weight, cap_aux):
    """Unstable part (g = 0, n <= 2) of the one-part H, closed form."""
    _check_caps("h_unst_onepart", 0, cap_weight, cap_aux)
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


def lp(series):
    """L_p = sum b p_b d/dp_b: multiply each term by its p-weight."""
    _check_series("lp", series)
    return _make(series.family, series.cap_weight, series.cap_aux,
                 {(aux, vm): n * vm_weight(series.family, vm)
                  for (aux, vm), n in series.num.items()}, series.den)


def hook_series(cap_weight, cap_aux):
    """sum_{a,b >= 0} (-1)^b s_{hook(a,b)} e^{f beta}; equals L_p^2 H."""
    _check_caps("hook_series", 0, cap_weight, cap_aux)
    return _exp_schur_sum(((hook(d - 1 - b, b), Rat((-1) ** b))
                           for d in range(1, cap_weight + 1) for b in range(d)),
                          cap_weight, cap_aux)


def hurwitz_closed(q):
    """One-part value extracted from the hook closed-form series."""
    _check_query("hurwitz_closed", q)
    if q.kind != ONEPART:
        raise ValueError("the hook closed form applies to one-part numbers only")
    d, m = q.degree, q.branch_points
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

