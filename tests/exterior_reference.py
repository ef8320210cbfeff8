"""Exterior algebra references: the form operations with their own loops.

The package's ``+``, ``wedge``, ``d`` and ``contract`` hand raw (index,
coefficient) pairs to the ``DiffForm`` constructor, the one place where an
index is sorted with its sign and the coefficients of one index are
summed.  Each route here keeps the loop it replaced: it sorts and signs
its own indices, sums into a dict and drops zero sums, and hands the
constructor a finished mapping.  The tests check the package against them.
"""

from pfol.exterior import DiffForm, _sort_sign


def _accumulate(terms: dict, idx, c) -> None:
    s = terms.get(idx)
    s = c if s is None else s + c
    if s:
        terms[idx] = s
    else:
        terms.pop(idx, None)


def add_reference(a: DiffForm, b: DiffForm) -> DiffForm:
    if a.chart != b.chart or a.q != b.q:
        raise ValueError("forms on different charts or of different degrees")
    terms = dict(a.terms)
    for idx, c in b.terms.items():
        _accumulate(terms, idx, c)
    return DiffForm(a.chart, a.q, terms)


def sub_reference(a: DiffForm, b: DiffForm) -> DiffForm:
    return add_reference(a, DiffForm(b.chart, b.q, {i: -c for i, c in b.terms.items()}))


def wedge_reference(a: DiffForm, b: DiffForm) -> DiffForm:
    q = a.q + b.q
    terms: dict = {}
    if q <= a.chart.nvars:
        for i1, c1 in a.terms.items():
            for i2, c2 in b.terms.items():
                srt = _sort_sign(i1 + i2)
                if srt is None:
                    continue
                idx, sign = srt
                c = c1 * c2
                _accumulate(terms, idx, c if sign > 0 else -c)
    return DiffForm(a.chart, q, terms)


def d_reference(a: DiffForm) -> DiffForm:
    terms: dict = {}
    for idx, c in a.terms.items():
        for j in range(a.chart.nvars):
            if j in idx:
                continue
            dc = c.deriv(j)
            if not dc:
                continue
            nidx, sign = _sort_sign((j,) + idx)
            _accumulate(terms, nidx, dc if sign > 0 else -dc)
    return DiffForm(a.chart, a.q + 1, terms)


def contract_reference(a: DiffForm, v) -> DiffForm:
    """Interior product i_v, contracting in the first slot."""
    terms: dict = {}
    for idx, c in a.terms.items():
        for k, i in enumerate(idx):
            comp = v.comps[i]
            if not comp:
                continue
            coeff = c * comp
            _accumulate(terms, idx[:k] + idx[k + 1:], -coeff if k % 2 else coeff)
    return DiffForm(a.chart, a.q - 1, terms)
