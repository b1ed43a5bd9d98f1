"""Hodge integrals three ways.

1. Lattice interpolation of scaled simple Hurwitz numbers.
2. Slices of the change-of-variables transform, unpacked with the
   index-lowering operator L.
3. The conjugated finite equations plus string/dilaton, seeded only at
   <tau_0^3> = 1.
"""

from taulab.hodge import (hurwitz_to_hodge, f_moduli, moduli_caps_for,
                          ModuliPDESolver, ck_report, LISTED_CK, kdv_check)


def main():
    print("Grid route, genus 2 with two marked points:")
    table = hurwitz_to_hodge(2, 2)
    for (k, ds), v in sorted(table.items()):
        taus = " ".join("tau_%d" % d for d in ds)
        lam = " lambda_%d" % k if k else ""
        print("  <%s%s> = %s" % (taus, lam, v))

    W = 10
    M = moduli_caps_for(W, 1)
    f0 = f_moduli(0, W, M)
    f1 = f_moduli(1, W, M)
    print("\nTransform route: F0[t_1] = %s, F1[t_0] = %s"
          % (f0.coeff(0, {1: 1}), f1.coeff(0, {0: 1})))

    solver = ModuliPDESolver(kmax=1, weight_cap=10).run()
    print("\nEquation route (seeded at <tau_0^3> = 1):")
    for key in sorted(solver.solved):
        print("  primitive %s = %s" % (key, solver.solved[key]))

    agree = all(solver.bracket(k, ds) == v for (k, ds), v in table.items() if k <= 1)
    print("\nAll three routes agree on genus <= 2:", agree)

    print("\nRatio sequence of the logarithm's coefficients (listed values):")
    rep = ck_report(len(LISTED_CK))
    for k in range(1, len(LISTED_CK) + 1):
        print("  c_%d = %s (listed %s)" % (k, rep[k]["lowering"], LISTED_CK[k - 1]))

    fs = {0: f0, 1: f1}
    r0 = kdv_check("F01", 0, {0: f0})
    r1 = kdv_check("F01", 1, fs)
    print("\nKdV-organized equation (first flow): z^0 %s, z^1 %s"
          % ("holds" if r0.is_zero() else "FAILS",
             "holds" if r1.is_zero() else "FAILS"))


if __name__ == "__main__":
    main()
