"""The d-reduction engine shared by the differential and presented models.

Elements are dicts mapping a basis symbol to a DOp (a polynomial in d).  The
caller supplies the base case: the order-m product of two pure symbols, as
another such dict.  The engine supplies bilinearity and the removal of d from
both slots of the n-th product:

  * left slot:  a power d^i contributes (-1)^i n(n-1)...(n-i+1) at order n-i,
    which is zero once i exceeds n;
  * right slot: the closed form

        a (m) d^j b = sum_{r=0}^{min(j,m)} C(j,r) m(m-1)...(m-r+1) d^(j-r) (a (m-r) b),

    obtained by iterating u (m) (d v) = d(u (m) v) + m (u (m-1) v), since d
    commutes with the weighted shift to order m-1.

A term pair d^i a, d^j b thus costs min(j, m) + 1 base cases (m = n - i),
where expanding the rule one d at a time costs about 2^j.  Base cases are
memoised for the duration of one product only, so a pair of basis symbols
costs at most n+1 of them in total.
"""

from __future__ import annotations

from math import comb, perm

from .exact_arith import DOp, falling_factorial


def terms_clean(terms: dict) -> dict:
    return {k: q for k, q in terms.items() if not q.is_zero()}


def nth_product_terms(u_terms: dict, v_terms: dict, n: int, base_case) -> dict:
    """Order-n product of two elements given as terms dicts."""
    if n < 0:
        raise ValueError("product order must be nonnegative")
    memo: dict = {}
    acc: dict = {}  # basis symbol -> {d-power: coefficient}
    for ak, p in u_terms.items():
        for i, ci in p.coeffs.items():
            if i > n:
                continue  # the left-slot factor n(n-1)...(n-i+1) vanishes
            m = n - i
            left = ci * falling_factorial(n, i)
            if i % 2:
                left = -left
            for bk, q in v_terms.items():
                for j, cj in q.coeffs.items():
                    scale = left * cj
                    for r in range(min(j, m) + 1):
                        key = (ak, m - r, bk)
                        base = memo.get(key)
                        if base is None:
                            base = memo[key] = base_case(ak, m - r, bk)
                        # C(j,r) m!/(m-r)! is an integer, and 1 at r = 0
                        c = scale * (comb(j, r) * perm(m, r)) if r else scale
                        shift = j - r
                        for k, b in base.items():
                            row = acc.get(k)
                            if row is None:
                                row = acc[k] = {}
                            for e, v in b.coeffs.items():
                                e += shift
                                t = c * v
                                row[e] = row[e] + t if e in row else t
    return terms_clean({k: DOp(row) for k, row in acc.items()})


def terms_normal_form(terms: dict, k: int):
    """The k-th coefficient of an element, as (symbol, t-exponent, Fraction) triples.

    (d^p a)(k) = (-1)^p k(k-1)...(k-p+1) a(k-p), so each term c d^p a gives
    (a, k - p, (-1)^p c k(k-1)...(k-p+1)); vanishing ones are skipped.  The
    pairs (symbol, exponent) are distinct, since p fixes the exponent.
    """
    for key, q in terms.items():
        for p, c in q.coeffs.items():
            if p:
                f = falling_factorial(k, p)
                if not f:
                    continue
                c = -f * c if p % 2 else f * c
            yield key, k - p, c


def terms_key(terms: dict):
    """Canonical hashable form of a terms dict (for dedup and span frames)."""
    return tuple((k, terms[k].key()) for k in sorted(terms))


def terms_scalar_normalized_key(terms: dict):
    """Canonical form up to a scalar multiple: leading coefficient set to 1."""
    if not terms:
        return ()
    lead_key = sorted(terms)[0]
    lead = terms[lead_key].coeffs[min(terms[lead_key].coeffs)]
    inv = 1 / lead
    return tuple((k, (terms[k] * inv).key()) for k in sorted(terms))


def terms_max_dop_degree(terms: dict) -> int:
    return max((q.degree() for q in terms.values()), default=0)


def terms_apply_dop(terms: dict, q: DOp) -> dict:
    return terms_clean({k: p * q for k, p in terms.items()})
