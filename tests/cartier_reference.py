"""Cartier reference: the monomial-wise operator the pruned loop replaced.

The package applies the Cartier operator in one loop,
``cartier_of_product``, which groups the terms of a product by their
exponents mod p and multiplies the last factor only against the group that
survives; ``cartier_transform`` takes that loop with h = 1 and k = 1.  The
route it replaced maps a form term by term: c * x^A dx_I survives exactly
when A is -1 mod p on the wedge indices I and 0 mod p elsewhere, and then
maps to c^(1/p) x^((A - (p-1) 1_I) / p) dx_I.  The tests keep it to check
both public routes against.  It does not check that the form is closed.

``eta_reference`` keeps the route that ``PCurvature.eta`` replaced: the
Cartier transform C(f^(p-1) omega) of omega / f, for f the first nonzero
p-curvature value, where the package now takes C(G^(p-1) omega) from the
gcd G of the values.
"""

from pfol.cartier import cartier_of_product
from pfol.exterior import DiffForm
from pfol.mpoly import MultiPoly


def cartier_reference(form):
    """The Cartier operator applied term by term to a polynomial form."""
    ring, n = form.chart.ring, form.chart.nvars
    p = ring.characteristic
    out = {}
    for idx, c in form.terms.items():
        acc = {}
        target = [p - 1 if m in idx else 0 for m in range(n)]
        for e, coef in c.terms.items():
            if all(a % p == t for a, t in zip(e, target)):
                exps = tuple((a - t) // p for a, t in zip(e, target))
                acc[exps] = ring.pth_root(coef)
        if acc:
            out[idx] = MultiPoly(ring, n, acc)
    return DiffForm(form.chart, form.q, out)


def eta_reference(pcurvature):
    """C(f^(p-1) omega) for the first nonzero value f of a p-curvature
    record, by ``cartier_of_product`` as ``PCurvature.eta`` once took it."""
    return cartier_of_product(pcurvature.f, pcurvature.p - 1, pcurvature.omega)
