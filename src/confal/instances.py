"""Bundled algebra instances used by the tests and the documentation.

Each constructor returns a fresh algebra, so callers can mutate nothing
shared.  It builds it with `dsl.build_all` from definition text: the text of
the matching .confal file under ``instances/``, or, for the parametric
``cur_matrix(n)`` and ``cur_matrix_presented(n)``, that text written out for n.
"""

from __future__ import annotations

from . import dsl


def _build(text: str):
    (alg,) = dsl.build_all(text).values()
    return alg


def weyl_algebra():
    """(Q[x], d/dx) with generators e = f_1 and L = f_x.

    The coefficient algebra is the first Weyl algebra's Laurent extension;
    e is a conformal identity and L plays the Virasoro-like role with
    L (1) L = -L.

    Note the asymmetry in the product table: e (1) L = -e but L (1) e = 0.
    Both follow from the product rule f_a (m) f_b = (-1)^m f_{a.delta^m(b)}:
    the right slot is differentiated, and delta(1) = 0.  Tables that list
    L (1) e = -e by symmetry with e (1) L disagree with the coefficient-level
    computation, which is authoritative here.
    """
    return _build("algebra weyl { kind differential; base poly x; deriv d/dx;"
                  " generators { e = 1; L = x; } }")


def _matrix_units(n: int) -> list:
    """(name, row, column) of each matrix unit of Mat_n, 1-based, row-major."""
    if n < 1:
        raise ValueError(f"the matrix size must be positive, got {n}")
    return [(f"u{i}{j}", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]


def cur_matrix(n: int = 2):
    """Current algebra over Mat_n(Q): zero derivation, matrix-unit generators.

    Generators are named u11, u12, ..., unn (1-based row, column).  From
    n = 11 on two units share a name (u1,11 and u11,1 are both u111), which
    the definition text rejects as a duplicate generator.
    """
    gens = " ".join(f"{g} = E({i},{j});" for g, i, j in _matrix_units(n))
    return _build(f"algebra cur{n} {{ kind differential; base matpoly {n} x;"
                  f" deriv zero; generators {{ {gens} }} }}")


def cur_dual_numbers():
    """Current algebra over the dual numbers Q[eps]/(eps^2).

    The basis is b1 = 1, b2 = eps, and the generators are u1 = f_1 and
    ueps = f_eps.  The span of eps is a proper two-sided ideal of the base,
    so the probe for delta-stable coefficient ideals finds a witness here.
    """
    return _build("algebra cureps { kind differential; base findim 2 table"
                  " [1, 0, 0, 1, 0, 1, 0, 0]; deriv zero;"
                  " generators { u1 = b1; ueps = b2; } }")


def poly_zero():
    """(Q[x], delta = 0) with generators one = f_1 and g = f_x.

    With a zero derivation every base ideal is delta-stable, so the ideal
    generated by x witnesses non-simplicity.
    """
    return _build("algebra polyzero { kind differential; base poly x; deriv zero;"
                  " generators { one = 1; g = x; } }")


def cur_matrix_presented(n: int = 2):
    """Presented form of cur_matrix(n): u_pq (0) u_rs = u_ps when q = r.

    All products of order >= 1 vanish, so the table is an exact finite
    presentation of the same conformal algebra.  Sizes are checked as in
    cur_matrix.
    """
    units = _matrix_units(n)
    products = " ".join(f"u{p}{q} (0) u{q}{s} = u{p}{s};"
                        for _, p, q in units for s in range(1, n + 1))
    return _build(f"algebra cur{n}p {{ kind presented;"
                  f" generators {', '.join(g for g, _, _ in units)};"
                  f" products {{ {products} }} }}")
