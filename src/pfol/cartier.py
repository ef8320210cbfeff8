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

from . import InternalError
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


def classify_closedness(form: DiffForm) -> dict:
    """Classify a polynomial form as not closed, exact, or closed-not-exact.

    For 1-forms the answer is constructive: 'exact' comes with a primitive
    and 'closed_not_exact' with the list of obstruction terms (the terms
    left after removing d of every integrable monomial group).  For higher
    degrees local exactness is decided by vanishing under the Cartier
    operator (in characteristic p).
    """
    d = form.d()
    if d:
        return {"status": "not_closed", "witness": d}
    ring, n = form.chart.ring, form.chart.nvars
    p = ring.characteristic
    if form.q != 1:
        if p == 0:
            return {"status": "closed"}
        c = cartier_transform(form, check_closed=False)
        return {"status": "locally_exact" if c.is_zero else "closed_not_exact",
                "cartier_image": c}
    # group the terms of the 1-form by their candidate primitive monomial
    groups: dict = {}
    for (i,), c in form.terms.items():
        for e, coef in c.terms.items():
            m = list(e)
            m[i] += 1
            groups.setdefault(tuple(m), []).append((i, e, coef))
    primitive = MultiPoly.zero(ring, n)
    obstructions = []
    for m, entries in groups.items():
        pivot = None
        for i, e, coef in entries:
            mi = m[i] % p if p else m[i]
            if mi != 0:
                pivot = (i, coef, m[i])
                break
        if pivot is None:
            obstructions.extend(
                MultiPoly(ring, n, {e: coef}) * form.chart.dx(i)
                for i, e, coef in entries
            )
            continue
        i, coef, mi = pivot
        if p:
            g = coef * ring.inv(ring.coerce(mi % p))
        else:
            g = coef * ring.inv(ring.coerce(mi))
        primitive = primitive + MultiPoly(ring, n, {m: g})
    if obstructions:
        obstruction = form.chart.zero_form(1)
        for t in obstructions:
            obstruction = obstruction + t
        return {"status": "closed_not_exact", "obstruction": obstruction}
    # sanity: d(primitive) really is the form
    dprim = DiffForm(
        form.chart, 1, {(i,): primitive.deriv(i) for i in range(n)}
    )
    if dprim != form:
        raise InternalError(
            "cartier.classify_closedness", "primitive reconstruction failed"
        )
    return {"status": "exact", "primitive": primitive}
