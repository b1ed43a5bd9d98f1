"""Tau-function checks.

Builds the scaled one-part series and the simple series, and verifies the
bilinear Hirota, KP, and linearized-KP residuals vanish on their exact
ranges; then does the same for the bracket series U in the T variables.
"""

from fractions import Fraction

from taulab.hurwitz import h_onepart_series, h_simple_series, lp
from taulab.hierarchy import (hirota_residual, kp_residual, lkp_residual,
                              kp_form, lkp_form)
from taulab.pic import u_hierarchy_residuals


def main():
    W, M = 10, 6
    tau = lp(lp(h_onepart_series(W, M)))
    print("tau = L_p^2 H with caps (weight <= %d, beta <= %d)" % (W, M))
    for (i, j) in ((2, 2), (2, 3)):
        for c in (0, 1, Fraction(5, 7)):
            res = hirota_residual(i, j, tau + c)
            state = "vanishes" if res.is_zero() else "FAILS"
            print("  Hir_{%d,%d}(%s + tau) %s through weight %d"
                  % (i, j, c, state, res.cap_weight))
        res = lkp_residual(i, j, tau)
        print("  LKP_{%d,%d}(tau) %s" % (i, j, "vanishes" if res.is_zero() else "FAILS"))

    H = h_simple_series(8, 8)
    res = kp_residual(2, 2, H)
    print("\nKP_{2,2} of the simple series %s through weight %d"
          % ("vanishes" if res.is_zero() else "FAILS", res.cap_weight))

    print("\nClosed KP_{2,2} expansion:", sorted(kp_form(2, 2).items()))
    print("Linear part:", sorted(lkp_form(2, 2).items()))

    print("\nU in the T variables:")
    for key, series in sorted(u_hierarchy_residuals(10).items(), key=str):
        kind, (i, j), shift = key
        state = "vanishes" if series.is_zero() else "FAILS"
        print("  %s (%d,%d) shift=%s %s through weight %d"
              % (kind, i, j, shift, state, series.cap_weight))


if __name__ == "__main__":
    main()
