"""The primitive pseudo-remainder sequence that the gcd shortcuts of
``pfol.mpoly`` replace, kept as the reference they are tested against: a
recursive PRS in the last variable used, on whole polynomials, with a
content gcd at every step and no shortcut.  ``count_prem_calls`` counts
the pseudo-remainders the engine itself still takes."""

import pfol.mpoly as mpoly
from pfol.mpoly import MultiPoly


def prs_univar_view(f, v):
    out = {}
    for e, c in f.terms.items():
        ne = list(e)
        ne[v] = 0
        mono = MultiPoly(f.ring, f.nvars, {tuple(ne): c})
        out[e[v]] = mono if e[v] not in out else out[e[v]] + mono
    return {d: c for d, c in out.items() if not c.is_zero}


def prs_content_in(f, v):
    acc = MultiPoly.zero(f.ring, f.nvars)
    for c in prs_univar_view(f, v).values():
        acc = gcd_prs_reference(acc, c)
    return acc


def prs_lead_in(f, v):
    view = prs_univar_view(f, v)
    d = max(view)
    return d, view[d]


def prs_prem(a, b, v):
    db, lb = prs_lead_in(b, v)
    r = a
    xv = MultiPoly.var(a.ring, a.nvars, v)
    while not r.is_zero and r.degree_in(v) >= db:
        dr, lr = prs_lead_in(r, v)
        r = r * lb - b * lr * xv ** (dr - db)
    return r


def gcd_prs_reference(f, g):
    """Monic gcd by a recursive primitive pseudo-remainder sequence in the
    last variable used, with a content gcd at every step, for all inputs."""
    if f.is_zero:
        return g.monic() if not g.is_zero else g
    if g.is_zero:
        return f.monic()
    if f.is_constant or g.is_constant:
        return MultiPoly.one(f.ring, f.nvars)
    v = sorted(set(f.variables_used()) | set(g.variables_used()))[-1]
    if f.degree_in(v) == 0:
        return gcd_prs_reference(f, prs_content_in(g, v))
    if g.degree_in(v) == 0:
        return gcd_prs_reference(prs_content_in(f, v), g)
    cf, cg = prs_content_in(f, v), prs_content_in(g, v)
    c = gcd_prs_reference(cf, cg)
    a = f.exact_div(cf)
    b = g.exact_div(cg)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero:
        r = prs_prem(a, b, v)
        a = b
        if r.is_zero:
            b = r
        elif r.degree_in(v) == 0:
            return c.monic()
        else:
            b = r.exact_div(prs_content_in(r, v))
    return (c * a.exact_div(prs_content_in(a, v))).monic()


def gcd_list_reference(polys):
    """A plain left fold of the reference gcd, from zero."""
    acc = MultiPoly.zero(polys[0].ring, polys[0].nvars)
    for f in polys:
        acc = gcd_prs_reference(acc, f)
    return acc


def count_prem_calls(monkeypatch) -> list:
    """Patch ``mpoly._prem`` to record the arguments of each call, and
    return the record."""
    calls = []
    real = mpoly._prem

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mpoly, "_prem", counting)
    return calls
