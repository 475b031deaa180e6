"""A seam on the product engine that sees every n-th product formed.

`products.nth_products_terms` is the one engine behind `nth` (one order)
and `nth_orders` (a range), so tests that count or perturb products wrap it
rather than either method.
"""

import pytest

from confal import products


class ProductSeam:
    """Records the order of every product the engine forms, and may alter it.

    `orders` lists the orders in the sequence they were formed; `alter`, when
    set, maps (u_terms, v_terms, n, terms) to the terms the caller sees.
    """

    def __init__(self, engine):
        self.engine = engine
        self.orders: list = []
        self.alter = None

    def __call__(self, u_terms, v_terms, lo, hi, *args, **kwargs):
        out = self.engine(u_terms, v_terms, lo, hi, *args, **kwargs)
        self.orders.extend(range(lo, hi + 1))
        if self.alter is not None:
            out = [self.alter(u_terms, v_terms, n, terms) for n, terms in enumerate(out, lo)]
        return out


@pytest.fixture
def product_seam(monkeypatch):
    seam = ProductSeam(products.nth_products_terms)
    monkeypatch.setattr(products, "nth_products_terms", seam)
    return seam
