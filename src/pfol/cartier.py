"""The Cartier operator on closed differential forms in characteristic p.

On a polynomial q-form the operator acts monomial by monomial: the term
c * x^A dx_{i_1} /\\ ... /\\ dx_{i_q} survives exactly when A_{i_j} = -1 mod p
for every wedge index and A_m = 0 mod p for every other variable, in which
case it maps to c^(1/p) * x^{(A - (p-1) e_{i_1} - ...)/p} dx_{i_1} /\\ ...

Forms have polynomial coefficients only.  The operator is p^-1-linear,
C(g^p a) = g C(a), so a closed rational form a / g never needs a rational
Cartier operator: C(a / g) = C(g^(p-1) a) / g.  One loop applies the
operator, ``cartier_of_product``, which gives C(h^k form) without forming
h^k form: since the operator keeps one residue class of exponents mod p,
the last factor h is multiplied only against the terms that land in that
class.  The foliation code takes eta = C(G^(p-1) omega) from it, for G the
gcd of the p-curvature values, and
``cartier_transform``, the operator on a form, always checks that the form
is closed and then takes h = 1, k = 1.  The loop sums raw coefficients
through the helpers of :mod:`pfol.mpoly`, which hold the GF(p) int-code
path.
"""

from __future__ import annotations

from operator import add

from .exterior import DiffForm
from .mpoly import MultiPoly, _from_raw, _raw_terms


class NotClosedError(ValueError):
    pass


def cartier_transform(form: DiffForm) -> DiffForm:
    """Apply the Cartier operator to a closed polynomial form."""
    if form.chart.ring.characteristic == 0:
        raise ArithmeticError("the Cartier operator needs characteristic p")
    if form.d():
        raise NotClosedError("form is not closed")
    return cartier_of_product(MultiPoly.one(form.chart.ring, form.chart.nvars), 1, form)


def cartier_of_product(h: MultiPoly, k: int, form: DiffForm) -> DiffForm:
    """C(h^k form) for k >= 1, without forming h^k form.

    Each coefficient a_I is multiplied by h^(k-1) in full, and the terms of
    b_I = h^(k-1) a_I are grouped by their exponent vector mod p.  A term
    x^B of b_I times a term x^E of h survives the operator exactly when
    B = T - E mod p, where T is -1 on the wedge indices I and 0 elsewhere,
    so each term of h meets one group only.  With B = p B' + R and
    E = p E' + S (0 <= R, S < p), the surviving exponent (B + E - (p-1) 1_I)
    / p is B' + E' + carry, where carry_m = 1 exactly when m is not in I
    and S_m > 0 (then R_m + S_m = p).  The coefficient of a surviving
    exponent is the p-th root of the sum of its products.
    """
    chart = form.chart
    ring, n = chart.ring, chart.nvars
    p = ring.characteristic
    if p == 0:
        raise ArithmeticError("the Cartier operator needs characteristic p")
    quo, rem = p.__rfloordiv__, p.__rmod__
    h_terms = [(tuple(map(quo, e)), tuple(map(rem, e)), c) for e, c in _raw_terms(h)]
    hk = h ** (k - 1)
    root = ring.pth_root
    out: dict = {}
    for idx, a in form.terms.items():
        groups: dict = {}
        for e, c in _raw_terms(hk * a):
            groups.setdefault(tuple(map(rem, e)), []).append((tuple(map(quo, e)), c))
        acc: dict = {}
        get = acc.get
        for eq, er, ch in h_terms:
            need = tuple(
                p - 1 - s if m in idx else -s % p for m, s in enumerate(er)
            )
            group = groups.get(need)
            if group is None:
                continue
            shift = tuple(
                t + (1 if s and m not in idx else 0)
                for m, (t, s) in enumerate(zip(eq, er))
            )
            for bq, cb in group:
                e = tuple(map(add, bq, shift))
                s = get(e)
                acc[e] = cb * ch if s is None else s + cb * ch
        terms = {e: root(c) for e, c in _from_raw(ring, n, acc.items()).terms.items()}
        if terms:
            out[idx] = MultiPoly._new(ring, n, terms)
    return DiffForm(chart, form.q, out)
