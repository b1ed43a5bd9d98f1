"""Exact-arithmetic toolkit for Hurwitz numbers, psi-class brackets, Hodge
integrals, and bilinear integrable-hierarchy verification.

Everything is computed over rational numbers; there is no floating point
anywhere.  Names load on first use: ``import taulab`` imports no submodule,
and ``taulab.X`` imports the module that defines X.  The main entry points:

* ``hurwitz``: one-part and simple Hurwitz numbers by independent routes
  (brute-force factorization counting, character sums, closed hook series)
  and their generating series.
* ``pic``: bracket values extracted from one-part numbers, the triangular
  change of variables, string/dilaton checks, and tau-function residuals.
* ``hierarchy``: partition operators D_mu, Hirota / KP / linearized KP
  residuals, the cut-and-join operator and the corner-bite calculus.
* ``hodge``: single-lambda Hodge integrals from simple numbers by lattice
  interpolation, by the change-of-variables transform, and by the
  conjugated finite equations; the L / l operator calculus.
* ``cli``: the ``tau-lab`` command line front end.
"""

from importlib import import_module

# the public names of each home module, in the order of __all__; hurwitz()
# stays in taulab.hurwitz, so that taulab.hurwitz is the submodule
_EXPORTS = {
    "series": ("Series", "Rat", "FAMILY_P", "FAMILY_TQ"),
    "partitions": ("Partition", "partitions_of", "partitions_upto", "aut_order",
                   "zee", "class_size", "hook", "cut_and_join_eigenvalue"),
    "symfunc": ("character", "dimension", "schur_poly", "power_to_schur"),
    "diffops": ("TOp", "ZOp"),
    "hurwitz": ("HurwitzQuery", "ONEPART", "SIMPLE", "hurwitz_bruteforce",
                "hurwitz_frobenius", "hurwitz_closed", "h_onepart_series",
                "h_simple_series"),
    "hierarchy": ("d_mu", "hirota_residual", "kp_residual", "lkp_residual",
                  "cut_and_join"),
    "pic": ("bracket", "f_series", "u_series", "u_hierarchy_residuals"),
    "hodge": ("a_coeff", "hurwitz_to_hodge", "f_moduli"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(import_module("." + _HOME[name], __name__), name)
    if name in _EXPORTS or name == "cli":
        return import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
