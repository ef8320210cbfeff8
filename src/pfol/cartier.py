"""The Cartier operator on closed differential forms in characteristic p.

On a polynomial q-form the operator acts monomial by monomial: the term
c * x^A dx_{i_1} /\\ ... /\\ dx_{i_q} survives exactly when A_{i_j} = -1 mod p
for every wedge index and A_m = 0 mod p for every other variable, in which
case it maps to c^(1/p) * x^{(A - (p-1) e_{i_1} - ...)/p} dx_{i_1} /\\ ...

Forms have polynomial coefficients only.  The operator is p^-1-linear,
C(g^p a) = g C(a), so a closed rational form a / g never needs a rational
Cartier operator: C(a / g) = C(g^(p-1) a) / g, and the foliation code
applies the polynomial operator to g^(p-1) a directly.
"""

from __future__ import annotations

from .exterior import DiffForm
from .mpoly import MultiPoly


class NotClosedError(ValueError):
    pass


def cartier_transform(form: DiffForm, check_closed: bool = True) -> DiffForm:
    """Apply the Cartier operator to a closed polynomial form."""
    p = form.chart.ring.characteristic
    if p == 0:
        raise ArithmeticError("the Cartier operator needs characteristic p")
    if check_closed and form.d():
        raise NotClosedError("form is not closed")
    ring, n = form.chart.ring, form.chart.nvars
    out: dict = {}
    for idx, c in form.terms.items():
        acc: dict = {}
        for e, coef in c.terms.items():
            ok = True
            ne = []
            for m, a in enumerate(e):
                if m in idx:
                    if a % p != p - 1:
                        ok = False
                        break
                    ne.append((a - (p - 1)) // p)
                else:
                    if a % p != 0:
                        ok = False
                        break
                    ne.append(a // p)
            if not ok:
                continue
            acc[tuple(ne)] = ring.pth_root(coef)
        if acc:
            out[idx] = MultiPoly(ring, n, acc)
    return DiffForm(form.chart, form.q, out)

