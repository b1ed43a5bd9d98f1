"""Hodge-integral extraction from simple Hurwitz numbers and the
operator calculus tying the two generating series together.

Conventions pinned here (each enforced by tests against displayed values):

* a(d, d+k) are the expansion constants of the alternating sum of
  1/(1 - b psi): psi^d + sum_k a_{d,d+k} psi^{d+k}; they are integers.

* The change of variables is the u-picture of the one in ``pic`` (same
  engine, same image class and staircase): p_b goes to
  sum_{d >= b-1} u^{-(3b + 2d + 1)} (-1)^{d-b+1}/((d-b+1)! b^{b-1}) t_d
  with u^3 = beta and z = u^2.  On the stable simple series every retained
  u exponent is even and nonnegative; the z^k slice (u^{2k}) carries the
  weight-k lambda-class data.

* The regrouping operator is L = 1 + z L_1 + z^2 L_2 + ... with first-order
  parts sum_n a_{n,n+k} t_n d/dt_{n+k} (index-lowering).  The transformed
  stable series equals L applied to sum_k (-z)^k F^{(k)}, so its z^k slice
  gives F^{(k)} for every k (``f_moduli``).  L = :exp(A): is
  the normal-ordered exponential of the lowering matrix A[n][n+k] =
  z^k a(n, k), so it is the substitution t -> (1 + A)^T t, and ``apply_L``
  multiplies that substitution out by ``diffops.expand``, every monomial in
  one call.  The first-order l whose matrix is M = log(1 + A) (finite, since A
  raises the z-degree) is a linear vector field, so exp(l) substitutes by
  exp(M): L = exp(l) exactly when exp(M) = 1 + A (``exp_l_equals_L_check``).
  Conjugation acts on each derivative as
  e^{-l} d_i e^{l} = d_i + sum_k z^k a(i, k) d_{i+k}.

* The transformed KP equation, its conjugation and the displayed KdV
  equations over the bold series sum (-z)^k F^{(k)} are each multiplied
  out by ``diffops.expand``.  Each is a plain dict {symbols: coeff}, the
  form ``hierarchy.kp_form(2, 2)``, their source, already has; the PDE
  route sums its affine forms with ``diffops._accumulate``.

* The Hodge table is fitted on the principal lattice: by ELSV the scaled
  simple numbers are a polynomial of total degree 3g-3+n
  (``hurwitz_to_hodge``).
"""

from __future__ import annotations

from itertools import groupby
from math import comb, factorial, prod

from .series import Rat, FAMILY_P, _cached, _check_caps, _make
from .diffops import _accumulate, evaluate, expand
from .hurwitz import _simple_numbers, h_simple_series, h_unst_simple
from .pic import _change_variables, _monomials_up_to_weight


# -- expansion constants --------------------------------------------------------


def a_coeff(d, k):
    """Coefficient of psi^{d+k} in the alternating sum; a(d, 0) = 1.  It is
    the integer (sum_{b=1}^{d+1} (-1)^{d-b+1} C(d, b-1) b^{d+k}) / d!."""
    _check_caps("a_coeff", 0, d, k)
    return _cached(("a", d, k), _a_raw, d, k)


def _a_raw(d, k):
    q, r = divmod(sum((-1) ** (d - b + 1) * comb(d, b - 1) * b ** (d + k)
                      for b in range(1, d + 2)), factorial(d))
    if r:
        raise ValueError("a(%d, %d) is not an integer" % (d, k))
    return Rat(q)


# -- the appendix change of variables ---------------------------------------------


def elsv_chvar_coeff(b, d):
    """Coefficient of t_d in the image of p_b (u power handled separately)."""
    if d < b - 1:
        return Rat(0)
    return Rat((-1) ** (d - b + 1), factorial(d - b + 1) * b ** (b - 1))


def _u_exp(b, d):
    return -(3 * b + 2 * d + 1)


def transform_p_to_tu(series):
    """Exact transform of a family-P series into the (u, t) Laurent picture."""
    return _change_variables(series, elsv_chvar_coeff, _u_exp, 3)


def chvar_elsv(series):
    """Transform and verify nonnegative, even u exponents on the exact range."""
    img = transform_p_to_tu(series)
    bad = [(k, v) for k, v in img.terms.items() if k[0] < 0 or k[0] % 2]
    if bad:
        raise ValueError("transform outside the guaranteed class, e.g. %r" % (bad[0],))
    return img


def derivative_transform_elsv(b):
    """d/dp_b as sum over d < b of coeff u^{3b+2d+1} d/dt_d;
    returns [(d, u_exponent, coeff)]."""
    if b < 1:
        raise ValueError("p_b needs b >= 1, got %d" % b)
    return [(d, -_u_exp(b, d), Rat(b ** (b - 1), factorial(b - 1 - d)))
            for d in range(b)]


# -- stable simple series and moduli generating functions -------------------------


def h_simple_stable(W, M):
    return h_simple_series(W, M) - h_unst_simple(W, M)


def moduli_caps_for(W, kmax):
    """Auxiliary cap needed so the z^k slices are exact to weight W."""
    _check_caps("moduli_caps_for", 0, W, kmax)
    return (2 * kmax + max(5 * (W - 1) + 4, 4 * W) + 2) // 3 + 1


def transformed_stable(W, M):
    _check_caps("transformed_stable", 0, W, M)

    def build():
        return chvar_elsv(h_simple_stable(W, M))
    return _cached(("LbF", W, M), build)


def f_moduli(k, W, M):
    """F^{(k)}, any integer k >= 0, solved from the z^k = u^{2k} slice
    slice_{2k} = sum_{j=0..k} (-1)^{k-j} L_j F^{(k-j)} (L_0 = 1) of the
    transformed stable series: F^{(k)} = (-1)^k slice_{2k}
    + sum_{j=1..k} (-1)^{j+1} L_j F^{(k-j)}, summed from j = k down.
    M = moduli_caps_for(W, k) keeps the z^k slice exact to weight W."""
    _check_caps("f_moduli", 0, k, W, M)

    def build():
        out = (-1) ** k * transformed_stable(W, M).slice(2 * k)
        for j in range(k, 0, -1):
            out = out + (-1) ** (j + 1) * apply_L(j, f_moduli(k - j, W, M))
        return out
    return _cached(("F", k, W, M), build)


# -- the regrouping operator L and its logarithm l --------------------------------


def apply_L(k, f):
    """z^k part of L f for a series f in the t variables alone: the z^k slice
    of the substitution t_m -> sum_{j >= 0} z^j a(m - j, j) t_{m-j}, which
    lowers the weight by k, so it is exact to cap_weight - k.  f is multiplied
    out by one ``diffops.expand`` call in integers, capped at z^k."""
    _check_caps("apply_L", 0, k)
    w = f.cap_weight - k
    if w < 0:
        raise ValueError("L_%d lowers the weight by %d, below the cap %d"
                         % (k, k, f.cap_weight))
    if f.family == FAMILY_P or any(aux for aux, _ in f.num):
        raise ValueError("L acts on series in the t variables alone")
    images = {m: [(j, (m - j,), a_coeff(m - j, j).numerator) for j in range(min(m, k) + 1)]
              for m in range(f.cap_weight)}
    got = expand(((0, [m for m, e in vm for _ in range(e)], n) for (_, vm), n in f.num.items()),
                 images.__getitem__, k)
    return _make(f.family, w, f.cap_aux,
                 {(0, tuple((m, len(list(run))) for m, run in groupby(ms))): c
                  for (z, ms), c in got.items() if z == k}, f.den)


def _row_series(n, kmax, entry, coeff):
    """Row n of sum_{1 <= r <= kmax} coeff(r) X^r as {k: value at (n, n+k)}, for
    the triangular X[i][i+k] = entry(i, k), k >= 1: X^r raises the z-degree
    by at least r; only indices n..n+kmax enter."""
    row = {}
    power = {0: Rat(1)}  # row n of X^r, keyed by z-degree
    for r in range(1, kmax + 1):
        step = {}
        for j, c in power.items():
            for k in range(1, kmax - j + 1):
                step[j + k] = step.get(j + k, Rat(0)) + c * entry(n + j, k)
        power = step
        for j, c in power.items():
            row[j] = row.get(j, Rat(0)) + c * coeff(r)
    return row


def _log_row(n, kmax):
    """Row n of log(1 + A) = sum (-1)^{r+1} A^r / r as {k: alpha(n, n+k)}."""
    return _row_series(n, kmax, a_coeff, lambda r: Rat((-1) ** (r + 1), r))


def solve_l(zmax, index_cap):
    """The first-order l = sum alpha z^k t_n d/dt_{n+k} with exp(l) = L, as its matrix
    M = log(1 + A): {(n, n + k): alpha} for 1 <= k <= zmax, n + k <= index_cap."""
    _check_caps("solve_l", 0, zmax, index_cap)
    return {(n, n + k): alpha for n in range(index_cap)
            for k, alpha in _log_row(n, min(zmax, index_cap - n)).items() if alpha}


def _exp_matrix(m, zmax, index_cap):
    """exp(m) = 1 + sum_r m^r / r! through z^zmax on indices up to the cap, for
    a matrix {(i, i + k): c} with 1 <= k, so the z-degree k bounds r."""
    out = {}
    for n in range(index_cap + 1):
        out[n, n] = Rat(1)
        row = _row_series(n, min(zmax, index_cap - n), lambda i, k: m.get((i, i + k), 0),
                          lambda r: Rat(1, factorial(r)))
        out.update(((n, n + k), c) for k, c in row.items())
    return out


def _one_plus_A(zmax, index_cap):
    """1 + A through z^zmax on indices up to the cap, A[n][n+k] = a(n, k)."""
    return {(n, n + k): a_coeff(n, k) for n in range(index_cap + 1)
            for k in range(min(zmax, index_cap - n) + 1)}


def exp_l_equals_L_check(zmax, index_cap):
    """exp(l) = L through z^zmax on indices up to the cap, as the triangular
    matrix identity exp(M) = 1 + A (lowering chains never leave the cap)."""
    _check_caps("exp_l_equals_L_check", 0, zmax, index_cap)
    return _exp_matrix(solve_l(zmax, index_cap), zmax, index_cap) == _one_plus_A(zmax, index_cap)


LISTED_CK = [Rat(1), Rat(-1, 2), Rat(1, 2), Rat(-2, 3), Rat(11, 12), Rat(-3, 4),
             Rat(-11, 6), Rat(29, 4), Rat(493, 12), Rat(-2711, 6),
             Rat(-12406, 15), Rat(2636317, 60)]


def ck_report(kmax, nmax=4):
    """For each k, test both candidate binomial normalizations of
    alpha_{n,n+k} for constancy in n.  Returns
    {k: {"lowering": value-or-None, "transposed": value-or-None}} where the
    value is the constant ratio when one exists."""
    _check_caps("ck_report", 1, kmax)
    _check_caps("ck_report", 0, nmax)
    rows = [_log_row(n, kmax) for n in range(nmax + 1)]
    out = {}
    for k in range(1, kmax + 1):
        ratios_a = []
        ratios_b = []
        for n in range(nmax + 1):
            alpha = rows[n].get(k, Rat(0))
            ratios_a.append(alpha / comb(n + k + 1, k + 1))
            ratios_b.append(alpha / comb(n + 1, k + 1) if comb(n + 1, k + 1) else None)
        const_a = ratios_a[0] if all(r == ratios_a[0] for r in ratios_a) else None
        valid_b = [r for r in ratios_b if r is not None]
        const_b = valid_b[0] if valid_b and all(r == valid_b[0] for r in valid_b) \
            and len(valid_b) == len(ratios_b) else None
        out[k] = {"lowering": const_a, "transposed": const_b}
    return out


# -- ELSV linear solve -------------------------------------------------------------


def stable_dim(g, n):
    """dim = 3g - 3 + n of a stable (g, n); ValueError for an unstable (g, n)
    and for a g or n that is not an integer."""
    if type(g) is not int or type(n) is not int:
        _check_caps("hurwitz_to_hodge", 0, g, n)
    dim = 3 * g - 3 + n
    if g < 0 or n < 1 or dim < 0:
        raise ValueError("(g, n) = (%d, %d) is not stable: need g >= 0, n >= 1 "
                         "and 3g - 3 + n >= 0" % (g, n))
    return dim


def hurwitz_to_hodge(g, n):
    """Solve the lattice interpolation for all brackets <prod tau_{d_i} lambda_k>,
    0 <= k <= g, with the given (g, n); returns {(k, sorted d-tuple): value}.

    By ELSV the scaled count P(a) = h_{g;b} / (m! prod b_i^{b_i}/b_i!) at
    b = a + 1, m = |b| + n + 2g - 2, is a polynomial of total degree
    dim = 3g-3+n, so it is fixed by its values on the principal lattice
    {a in N^n : |a| <= dim}, and its coefficient at prod_i C(a_i, e_i) is the
    forward difference Delta^e P(0) (Newton-Gregory; Gasca-Sauer 2000).  The
    values are taken on |a| <= dim + 1, from one connected table
    (``_simple_numbers``), one difference pass per axis, and every
    difference of order dim + 1 must be zero.  A per-axis change of basis
    from C(b - 1, e) to powers of b then gives the coefficients.  A nonzero
    difference of order dim + 1, an off-grading coefficient or an asymmetric
    solve raises ValueError; so does a cap that is not an integer.
    """
    dim = stable_dim(g, n)
    points = [()]
    for _ in range(n):
        points = [a + (x,) for a in points for x in range(dim + 2 - sum(a))]
    profiles = [tuple(x + 1 for x in a) for a in points]
    diff = {a: h * prod(map(factorial, b)) / (factorial(sum(b) + n + 2 * g - 2)
                                               * prod(x ** x for x in b))
            for a, b, h in zip(points, profiles, _simple_numbers(g, profiles))}
    for i in range(n):
        # each line along axis i: its values become Delta_i^{a_i} at a_i = 0
        for a in points:
            if a[i]:
                continue
            line = [a[:i] + (x,) + a[i + 1:] for x in range(dim + 2 - sum(a))]
            vals = [diff[p] for p in line]
            for j in range(1, len(vals)):
                for m in range(len(vals) - 1, j - 1, -1):
                    vals[m] -= vals[m - 1]
            diff.update(zip(line, vals))
    if any(diff[a] for a in points if sum(a) > dim):
        raise ValueError("a difference of order %d is not zero" % (dim + 1))
    # C(b - 1, e) = prod_{i=1..e} (b - i) / i as a coefficient list in b
    basis = [[Rat(1)]]
    for e in range(1, dim + 1):
        basis.append([(lo - e * hi) / e for lo, hi in zip([0] + basis[-1], basis[-1] + [0])])
    coeffs = {a: c for a, c in diff.items() if c}
    for i in range(n):
        out = {}
        for a, c in coeffs.items():
            for j, s in enumerate(basis[a[i]]):
                key = a[:i] + (j,) + a[i + 1:]
                out[key] = out.get(key, 0) + c * s
        coeffs = {a: c for a, c in out.items() if c}
    table = {}
    for exps, c in coeffs.items():
        k = dim - sum(exps)
        if k < 0 or k > g:
            raise ValueError("off-grading coefficient at %r: %r" % (exps, c))
        key = (k, tuple(sorted(exps)))
        prev = table.get(key)
        value = c * Rat((-1) ** k)
        if prev is not None and prev != value:
            raise ValueError("asymmetric solve at %r" % (key,))
        table[key] = value
    return table


# -- the transformed KP equation and its conjugation --------------------------------


def khat_22():
    """KP_{2,2} rewritten on the stable part: terms {(beta_exp, etas): coeff}
    where etas is a sorted tuple of p-derivative multi-indices.

    The second derivatives of the unstable part are constants
    u(a,b) = beta^{a+b} a^a b^b / ((a+b) a! b!); the pure-constant part
    cancels identically, and a surviving one raises ValueError."""
    from .hierarchy import kp_form

    def image(eta):
        # S_eta + u_eta; the unstable part is quadratic, so u_eta vanishes
        # for third and higher derivatives
        if len(eta) < 2:
            raise ValueError("first-derivative terms are not supported")
        if len(eta) > 2:
            return [(0, (eta,), 1)]
        a, b = eta
        return [(0, (eta,), 1),
                (a + b, (), Rat(a ** a * b ** b, (a + b) * factorial(a) * factorial(b)))]

    out = expand(((0, etas, c) for etas, c in kp_form(2, 2).items()), image)
    if any(not etas for (_, etas) in out):
        raise ValueError("the pure-constant part of KP_{2,2} did not cancel")
    return out


def kpbar_22():
    """khat transformed to the t picture and normalized by the leading z
    power: {(z, t_etas): coeff}.  Matches the displayed form."""
    def image(eta):
        # d^eta/dp through the derivative transform, graded by the u power
        inner = expand([(0, eta, 1)], lambda b: [(u, (d,), c) for d, u, c
                                                 in derivative_transform_elsv(b)])
        return [(u, (teta,), c) for (u, teta), c in inner.items()]

    # beta^bexp carries u^{3 bexp}
    raw = expand(((3 * bexp, etas, c) for (bexp, etas), c in khat_22().items()), image)
    base = min(u for u, _ in raw)
    if any((u - base) % 2 for u, _ in raw):
        raise ValueError("the u powers of KP_{2,2} in the t picture differ in parity")
    return {((u - base) // 2, etas): c for (u, etas), c in raw.items()}


def conjugated_equation(i, j, k):
    """z^k coefficient of the conjugated transformed KP equation, as
    {multiset of (slice, t_eta): coeff} acting on the moduli series
    F^{(0)}, ..., F^{(k)}.  Each derivative factor is conjugated directly:
    e^{-l} d_i e^{l} = d_i + sum_k z^k a(i, k) d_{i+k}.

    Implemented for (i, j) = (2, 2); other equations contain first-order
    derivative terms whose unstable corrections are not polynomial
    operators."""
    _check_caps("conjugated_equation", 0, i, j, k)
    if (i, j) != (2, 2):
        raise NotImplementedError(
            "conjugated equations are provided for (2,2) only; "
            "first-derivative terms of higher equations need non-polynomial "
            "unstable corrections")

    def build():
        return _distribute(kpbar_22(), k, lambda i: [(z, (i + z,), a_coeff(i, z))
                                                     for z in range(k + 1)])
    return _cached(("conj", i, j, k), build)


def _distribute(eq, k, conj):
    """z^k coefficient of an equation {(z0, etas): coeff} whose derivative
    index i has the z-graded image conj(i) = [(z, (i',), coeff)], expanded
    over the bold series sum (-z)^s F^{(s)}: {multiset of (s, eta'): coeff}."""
    def image(eta):
        graded = expand([(0, eta, 1)], conj, k)
        return [(z + s, ((s, dm),), c * (-1) ** s) for z in range(k + 1)
                for s in range(k - z + 1) for (zz, dm), c in graded.items() if zz == z]

    return {key: v for (z, key), v in expand(((z0, etas, c) for (z0, etas), c in eq.items()),
                                              image, k).items() if z == k}


# -- displayed hierarchy equations on the moduli series ------------------------------

# Each equation is {z: {multiset of bold-F derivative etas: coeff}} with the
# convention lhs - rhs = 0; eta indices are t indices.

KDV_EQUATIONS = {
    "F01": {
        0: {((0, 1),): Rat(1),
            ((0, 0), (0, 0)): Rat(-1, 2),
            ((0, 0, 0, 0),): Rat(-1, 12)},
        1: {((0, 0, 0), (0, 0, 0)): Rat(1, 24),
            ((0,) * 6,): Rat(1, 720)},
        2: {((0, 0, 0), (0, 0, 0, 0, 0)): Rat(-1, 720),
            ((0, 0, 0, 0), (0, 0, 0, 0)): Rat(-1, 360),
            ((0,) * 8,): Rat(-1, 30240)},
    },
    "F02": {
        0: {((0, 2),): Rat(1),
            ((0, 0), (0, 0), (0, 0)): Rat(-1, 6),
            ((0, 0), (0, 0, 0, 0)): Rat(-1, 12),
            ((0, 0, 0), (0, 0, 0)): Rat(-1, 24),
            ((0,) * 6,): Rat(-1, 240)},
        1: {((0, 0), (0, 0, 0), (0, 0, 0)): Rat(1, 24),
            ((0, 0), (0,) * 6): Rat(1, 720),
            ((0, 0, 0), (0, 0, 0, 0, 0)): Rat(7, 720),
            ((0, 0, 0, 0), (0, 0, 0, 0)): Rat(1, 180),
            ((0,) * 8,): Rat(1, 7560)},
    },
    "F11": {
        0: {((1, 1),): Rat(1),
            ((0, 0), (0, 0), (0, 0)): Rat(-1, 3),
            ((0, 0), (0, 0, 0, 0)): Rat(-1, 6),
            ((0, 0, 0), (0, 0, 0)): Rat(-1, 24),
            ((0,) * 6,): Rat(-1, 144)},
        1: {((0, 0), (0, 0, 0), (0, 0, 0)): Rat(1, 12),
            ((0, 0), (0,) * 6): Rat(1, 360),
            ((0, 0, 0), (0, 0, 0, 0, 0)): Rat(13, 720),
            ((0, 0, 0, 0), (0, 0, 0, 0)): Rat(1, 120),
            ((0,) * 8,): Rat(1, 4320)},
    },
    "F03": {
        0: {((0, 3),): Rat(1),
            ((0, 0), (0, 0), (0, 0), (0, 0)): Rat(-1, 24),
            ((0, 0), (0, 0), (0, 0, 0, 0)): Rat(-1, 24),
            ((0, 0), (0, 0, 0), (0, 0, 0)): Rat(-1, 24),
            ((0, 0), (0,) * 6): Rat(-1, 240),
            ((0, 0, 0), (0, 0, 0, 0, 0)): Rat(-1, 120),
            ((0, 0, 0, 0), (0, 0, 0, 0)): Rat(-1, 160),
            ((0,) * 8,): Rat(-1, 6720)},
    },
    "F12": {
        0: {((1, 2),): Rat(1),
            ((0, 0), (0, 0), (0, 0), (0, 0)): Rat(-1, 8),
            ((0, 0), (0, 0), (0, 0, 0, 0)): Rat(-1, 8),
            ((0, 0), (0, 0, 0), (0, 0, 0)): Rat(-1, 12),
            ((0, 0), (0,) * 6): Rat(-1, 90),
            ((0, 0, 0), (0, 0, 0, 0, 0)): Rat(-1, 60),
            ((0, 0, 0, 0), (0, 0, 0, 0)): Rat(-23, 1440),
            ((0,) * 8,): Rat(-1, 2880)},
    },
}


def kdv_zpart_as_moduli_poly(name, zk):
    """Expand the z^zk coefficient of a displayed equation over the bold
    series sum (-z)^k F^{(k)}: returns {multiset of (slice, eta): coeff}.
    The slices of each term sum with its z power to zk, so every slice
    0..zk may enter."""
    _check_caps("kdv_zpart_as_moduli_poly", 0, zk)
    if name not in KDV_EQUATIONS:
        raise ValueError("no equation %r at z^%d" % (name, zk))

    def build():
        eq = {(z0, etas): c for z0, terms in KDV_EQUATIONS[name].items()
              for etas, c in terms.items()}
        # the displayed equations act on F itself: the identity conjugation
        return _distribute(eq, zk, lambda i: [(0, (i,), 1)])
    return _cached(("kdvz", name, zk), build)


def kdv_check(name, zk, fs):
    """Verify the z^zk part of a displayed equation on the moduli series
    fs = {k: F^{(k)}}, which must hold every slice 0..zk; returns the
    residual (zero on the exactly-checked region)."""
    poly = kdv_zpart_as_moduli_poly(name, zk)
    if any(k not in fs for k in range(zk + 1)):
        raise ValueError("kdv_check %s at z^%d reads F^(k) for every k = 0..%d, got k in %r"
                         % (name, zk, zk, list(fs)))
    return evaluate(poly, fs)


# -- PDE route: solve bracket values from the equations alone ------------------------


def _reduce(k, ds):
    """<tau_ds lambda_k> as an affine form {primitive or None: integer
    coeff}, None marking the constant.  A tau_0 beside other points is removed by the
    string recursion, seeded at <tau_0^3> = 1, and then a tau_1 by the
    dilaton factor 2g - 2 + n; a bracket with neither is a primitive.  It
    reads no solved values, so one memo entry serves every solver."""
    ds = tuple(sorted(ds))

    def build():
        n = len(ds)
        g, r = divmod(k + sum(ds) + 3 - n, 3)
        if n == 0 or r or g < k:
            return {}
        if n >= 2 and ds[0] == 0:
            rest = ds[1:]
            out = {None: 1} if k == 0 and rest == (0, 0) else {}
            for i, v in enumerate(rest):
                if v:
                    _accumulate(out, _reduce(k, rest[:i] + (v - 1,) + rest[i + 1:]).items(), 1)
            return out
        if n >= 2 and ds[0] == 1:
            return _accumulate({}, _reduce(k, ds[1:]).items(), 2 * g - 3 + n)
        return {(k, ds): 1}
    return _cached(("reduce", k, ds), build)


def _monomial_coeff(k, eta, mono):
    """Coefficient of the monomial mono = ((d, e), ...) in d^eta F^{(k)}
    before any value is substituted: <tau_eta prod tau_d^e lambda_k> /
    prod e!, as an affine form.  Pure, so memoized as ``_reduce`` is."""
    return _cached(("monomial", k, eta, mono), _monomial_coeff_raw, k, eta, mono)


def _monomial_coeff_raw(k, eta, mono):
    den = prod(factorial(e) for _, e in mono)
    return {p: Rat(c, den)
            for p, c in _reduce(k, eta + tuple(d for d, e in mono for _ in range(e))).items()}


def _monomial_splits(mono):
    """Every way to share the monomial mono = ((d, e), ...) between two
    factors, as (t, l(t), |t|, mono / t, l, |mono / t|) with l the number of
    points and |.| the index sum, in the order of the exponent vectors of t,
    and bucketed by (|t| - l(t)) % 3: the grading of ``_deriv_coeff`` reads
    a factor at t only from one bucket."""
    return _cached(("splits", mono), _monomial_splits_raw, mono)


def _monomial_splits_raw(mono):
    splits = [((), 0, 0, (), 0, 0)]
    for d, e in mono:
        splits = [(t + ((d, x),) if x else t, lt + x, st + d * x,
                   rest + ((d, e - x),) if x < e else rest, lr + e - x, sr + d * (e - x))
                  for t, lt, st, rest, lr, sr in splits for x in range(e + 1)]
    buckets = ([], [], [])
    for split in splits:
        buckets[(split[2] - split[1]) % 3].append(split)
    return buckets


class ModuliPDESolver:
    """Solve single-lambda bracket values from the conjugated equations plus
    the string and dilaton reductions, seeded only at <tau_0^3> = 1.

    Every bracket reduces by ``_reduce`` to primitives (all indices >= 2,
    and the one-pointed exceptional values), which are extracted one at a
    time from coefficient equations of the z^0 .. z^kmax conjugated
    equations, each solved when it is the only unknown.  The solver holds
    only ``solved`` and substitutes it whenever it reads a reduction.

    A phase sweeps a work list of monomials until a sweep solves nothing.  An
    equation leaves it once it has no unknown (its constant is checked to be
    zero) or has solved its one unknown (it is then zero exactly); solved
    values never change, so re-evaluating it could only give zero again.
    """

    def __init__(self, kmax=1, weight_cap=10):
        _check_caps("ModuliPDESolver", 0, kmax, weight_cap)
        self.kmax = kmax
        self.weight_cap = weight_cap
        self.solved = {}
        self._ran = False
        self._eq_terms = (None, None, None)

    def _deriv_coeff(self, k, eta, mono, points, total):
        """Coefficient of the monomial mono, with the given number of points
        and index sum, in d^eta F^{(k)}, as an affine form in the primitives
        not yet solved.  The grading alone rules out most of them: the
        bracket needs 3g = k + (index sum) + 3 - (points) with g >= k."""
        points += len(eta)
        g, r = divmod(k + total + sum(eta) + 3 - points, 3)
        if not points or r or g < k:
            return {}
        form = _monomial_coeff(k, eta, mono)
        solved = self.solved
        const, out = form.get(None, 0), {}
        for p, c in form.items():
            if p in solved:
                const += c * solved[p]
            elif p is not None:
                out[p] = c
        if const:
            out[None] = const
        return out

    def _terms(self, eq):
        """The equation's one- and two-factor terms, each bucketed by the
        sum over its factors (k, eta) of k + |eta| - l(eta), mod 3; kept for
        the last equation read.  By the grading of ``_deriv_coeff``, a
        monomial with index sum |m| and l(m) points reads only the bucket
        (l(m) - |m|) % 3: a two-factor term outside it has, for each split
        the first factor allows, a second factor that is zero."""
        if self._eq_terms[0] is not eq:
            single, pairs = ([], [], []), ([], [], [])
            for key, c in eq.items():
                if len(key) > 2:
                    raise NotImplementedError("equations with 3+ factors")
                residue = sum(k + sum(eta) - len(eta) for k, eta in key) % 3
                (single if len(key) == 1 else pairs)[residue].append((key, c))
            self._eq_terms = (eq, single, pairs)
        return self._eq_terms[1:]

    def equation_affine(self, eq, mono):
        """Affine form {primitive or None: coeff} of the equation's
        coefficient at the monomial, or None when a product of two
        unknown-bearing factors appears."""
        mono = tuple(sorted(mono.items()))
        points, total = sum(e for _, e in mono), sum(d * e for d, e in mono)
        single, pairs = self._terms(eq)
        bucket = (points - total) % 3
        out = {}
        for ((slice_k, eta),), c in single[bucket]:
            _accumulate(out, self._deriv_coeff(slice_k, eta, mono, points, total).items(), c)
        splits = _monomial_splits(mono)
        for ((k1, e1), (k2, e2)), c in pairs[bucket]:
            for t, lt, st, rest, lr, sr in splits[(len(e1) - k1 - sum(e1)) % 3]:
                a = self._deriv_coeff(k1, e1, t, lt, st)
                b = a and self._deriv_coeff(k2, e2, rest, lr, sr)
                if not b:
                    continue
                if len(a) > (None in a):
                    if len(b) > (None in b):
                        return None
                    a, b = b, a
                _accumulate(out, b.items(), c * a[None])  # a is a nonzero constant
        return out

    def run(self):
        if self._ran:
            return self
        for phase in range(self.kmax + 1):
            eq = conjugated_equation(2, 2, phase)
            work = _monomials_up_to_weight(self.weight_cap)
            progress = True
            while progress:
                progress = False
                keep = []
                for mono in work:
                    aff = self.equation_affine(eq, mono)
                    if aff is None or len(aff) - (None in aff) > 1:
                        keep.append(mono)
                        continue
                    const = aff.pop(None, 0)
                    if aff:
                        (prim, coeff), = aff.items()
                        self.solved[prim] = -const / coeff
                        progress = True
                    elif const:
                        raise ValueError("inconsistent equation at %r" % (mono,))
                work = keep
        self._ran = True
        return self

    def bracket(self, k, ds):
        """<tau_ds lambda_k>: the constant term of d^ds F^{(k)}."""
        ds = tuple(ds)
        _check_caps("bracket", 0, k, *ds)
        self.run()
        form = self._deriv_coeff(k, tuple(sorted(ds)), (), 0, 0)
        const = form.pop(None, Rat(0))
        if form:
            raise ValueError("unsolved primitives %r" % (sorted(form),))
        return const
