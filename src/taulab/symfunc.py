"""Symmetric group characters and Schur polynomials.

Characters are computed by the Murnaghan-Nakayama rule on beta-sets held as
bit masks, one column at a time: ``_column(nu)`` maps the bead mask of every
lambda of |nu| with chi_lambda(nu) != 0 to that character, and is memoized
under the "column" tag of the process-wide memo in ``series``.  Schur
polynomials use the classical normalization

    s_mu = sum over cycle types nu of chi_mu(nu) p_nu / z_nu,

so that the coefficient of p_1^d in s_mu is dim(mu)/d! and the hook-sum
identity p_d = sum_{a+b+1=d} (-1)^b s_{hook(a,b)} holds on the nose.
"""

from __future__ import annotations

from math import factorial, prod

from .partitions import partitions_of, zee, _check_partition
from .series import Series, Rat, FAMILY_P, _cached


def character(mu, nu):
    """chi_mu(nu): character of the class with cycle type nu in the
    irreducible representation labeled mu.  Exact integer."""
    _check_partition("character", mu, nu)
    if mu.size != nu.size:
        raise ValueError("sizes differ: |mu|=%d, |nu|=%d" % (mu.size, nu.size))
    return _column(nu.parts).get(_beads(mu.parts, nu.size), 0)


def _beads(parts, n):
    """Bead mask of a partition with n beads (n >= its length): bit
    parts[i] + n - 1 - i for each row i, the empty rows included."""
    mask = (1 << (n - len(parts))) - 1
    for i, p in enumerate(parts):
        mask |= 1 << (p + n - 1 - i)
    return mask


def _column(parts):
    """{bead mask with |nu| beads: chi_lambda(nu)} over the lambda of |nu|
    whose character at nu = parts (weakly decreasing) is nonzero."""
    return _cached(("column", parts), _column_raw, parts)


def _column_raw(parts):
    """Murnaghan-Nakayama, adding the strip parts[0] to the column of the
    rest: a strip of length b moves a bead from x to an empty x + b, with the
    sign of the number of beads it passes.  The rest's masks gain b beads at
    the bottom first, so every mask has as many beads as boxes."""
    if not parts:
        return {0: 1}
    b = parts[0]
    low, between = (1 << b) - 1, (1 << (b - 1)) - 1
    out = {}
    for mask, c in _column(parts[1:]).items():
        mask = mask << b | low
        free = mask & ~(mask >> b)
        while free:
            bead = free & -free
            free ^= bead
            x = bead.bit_length()  # one above the bead
            moved = mask ^ bead ^ bead << b
            out[moved] = out.get(moved, 0) + (-c if (mask >> x & between).bit_count() & 1 else c)
    return {m: c for m, c in out.items() if c}


def _shape(mask):
    """(dim lambda, 2 f(lambda)) of the partition with this bead mask, read
    once per mask: dim by Frobenius' formula n! prod_{i<j} (b_i - b_j) /
    prod_i b_i! over the beads of the nonempty rows, and 2f = sum over the
    rows i >= 1 of lambda_i (lambda_i - 2i + 1)."""
    return _cached(("shape", mask), _shape_raw, mask)


def _shape_raw(mask):
    mask >>= (~mask & (mask + 1)).bit_length() - 1  # the empty rows' beads
    beads = []
    while mask:
        beads.append(mask.bit_length() - 1)
        mask ^= 1 << beads[-1]
    parts = [b - len(beads) + 1 + i for i, b in enumerate(beads)]
    num = factorial(sum(parts)) * prod(prod(b - c for c in beads[i + 1:])
                                        for i, b in enumerate(beads))
    return (num // prod(map(factorial, beads)),
            sum(p * (p - 2 * i - 1) for i, p in enumerate(parts)))


def dimension(mu):
    """Dimension of the irreducible representation labeled mu."""
    _check_partition("dimension", mu)
    return _shape(_beads(mu.parts, mu.size))[0]


def schur_poly(mu, cap_weight=None, cap_aux=0):
    """Schur polynomial of mu in power sums, as a family-P series."""
    _check_partition("schur_poly", mu)
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
    _check_partition("power_to_schur", nu)
    return {mu: Rat(character(mu, nu))
            for mu in partitions_of(nu.size) if character(mu, nu)}
