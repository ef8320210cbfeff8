"""The Cartier operator on closed differential forms in characteristic p.

On a polynomial q-form the operator acts monomial by monomial: the term
c * x^A dx_{i_1} /\\ ... /\\ dx_{i_q} survives exactly when A_{i_j} = -1 mod p
for every wedge index and A_m = 0 mod p for every other variable, in which
case it maps to c^(1/p) * x^{(A - (p-1) e_{i_1} - ...)/p} dx_{i_1} /\\ ...

Forms have polynomial coefficients only.  The operator is p^-1-linear,
C(g^p a) = g C(a), so a closed rational form a / g never needs a rational
Cartier operator: C(a / g) = C(g^(p-1) a) / g.  ``cartier_transform`` is
the operator on a form.  The foliation code takes eta = C(f^(p-1) omega)
from ``cartier_of_product``, which never forms f^(p-1) omega: since the
operator keeps one residue class of exponents mod p, the last factor f
is multiplied only against the terms that land in that class.
"""

from __future__ import annotations

from operator import add

from .exterior import DiffForm
from .mpoly import MultiPoly, _prime_modulus


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


def cartier_of_product(h: MultiPoly, k: int, form: DiffForm) -> DiffForm:
    """C(h^k form) for k >= 1, without forming h^k form.

    Each coefficient a_I is multiplied by h^(k-1) in full, and the terms of
    b_I = h^(k-1) a_I are grouped by their exponent vector mod p.  A term
    x^B of b_I times a term x^E of h survives the operator exactly when
    B = T - E mod p, where T is -1 on the wedge indices I and 0 elsewhere,
    so each term of h meets one group only.  With B = p B' + R and
    E = p E' + S (0 <= R, S < p), the surviving exponent (B + E - (p-1) 1_I)
    / p is B' + E' + carry, where carry_m = 1 exactly when m is not in I
    and S_m > 0 (then R_m + S_m = p).  Both routes act monomial by
    monomial, so the result equals ``cartier_transform(form * h ** k)``.
    """
    chart = form.chart
    ring, n = chart.ring, chart.nvars
    p = ring.characteristic
    if p == 0:
        raise ArithmeticError("the Cartier operator needs characteristic p")
    prime = _prime_modulus(ring)
    quo, rem = p.__rfloordiv__, p.__rmod__
    h_terms = [
        (tuple(map(quo, e)), tuple(map(rem, e)), c.code if prime else c)
        for e, c in h.terms.items()
    ]
    hk = h ** (k - 1)
    out: dict = {}
    for idx, a in form.terms.items():
        groups: dict = {}
        for e, c in (hk * a).terms.items():
            groups.setdefault(tuple(map(rem, e)), []).append(
                (tuple(map(quo, e)), c.code if prime else c)
            )
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
        terms = {}
        if prime:
            make = ring._make
            for e, s in acc.items():
                s %= p
                if s:
                    terms[e] = make(s)
        else:
            root = ring.pth_root
            for e, s in acc.items():
                if s:
                    terms[e] = root(s)
        if terms:
            out[idx] = MultiPoly._new(ring, n, terms)
    return DiffForm(chart, form.q, out)
