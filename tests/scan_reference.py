"""Prime scan references: the per-prime routes that the scan's shared work
over the model's ring replaced.

The package's ``prime_scan`` raises one set of iterates v^m(c_i) over the
model's ring for all its primes.  The route it replaced reduces the model
at each prime and factor, and reads every p-curvature value from that
foliation alone, through ``Foliation.pcurvature``: p - 1 derivation steps
over the residue field for each row.  The tests keep it to check the scan
against, row by row and value by value.

``reference_reduce_model`` validates each reduced form with ``from_form``,
where the package reads the reductions of the model's identities, and
``reference_kronecker_probe`` tests each prime with a fresh distinct-degree
split of f mod p, where the package reads one power ladder over Z.
"""

from pfol.exterior import Chart, DiffForm
from pfol.foliation import (
    ValidationError,
    cartier_transform_foliation,
    degeneracy_divisor,
    from_form,
    is_p_closed,
)
from pfol.models import BadReductionError, ScanRow, reduce_model, reduction_field
from pfol.mpoly import MultiPoly
from pfol.rings import _distinct_degree, factor_mod_p, format_up, primes_upto, up_trim


def reference_reduce_model(model, p, g=None):
    """``reduce_model`` with ``from_form`` run on every reduced form."""
    field, embed = reduction_field(model, p, g)
    src = model.form
    n = src.chart.nvars
    chart = Chart(field, src.chart.names, src.chart.kind)
    terms = {}
    for idx, c in src.terms.items():
        reduced = MultiPoly(field, n, {e: embed(v) for e, v in c.terms.items()})
        if reduced:
            terms[idx] = reduced
    form = DiffForm(chart, 1, terms)
    if form.is_zero:
        raise BadReductionError(f"form vanishes modulo {p}")
    if not form.content().is_constant:
        raise BadReductionError(f"saturation lost modulo {p}")
    try:
        return from_form(form)
    except ValidationError as exc:
        raise BadReductionError(f"validation lost modulo {p}: {exc}") from exc


def reference_kronecker_probe(minpoly, pmax):
    """``kronecker_probe`` with one distinct-degree split of f mod p per
    prime."""
    minpoly = list(minpoly)
    if len(up_trim(list(minpoly))) < 2:
        raise ValueError("minimal polynomial must be nonconstant")
    good = 0
    with_root = 0
    for p in primes_upto(pmax):
        f = up_trim([c % p for c in minpoly])
        if len(f) < 2:
            continue  # degree drop: bad prime
        good += 1
        # f has a root iff its first distinct-degree part has d = 1
        with_root += next(_distinct_degree(f, p))[0] == 1
    if not good:
        raise ValueError("no good prime up to pmax")
    return {
        "pmax": pmax,
        "good_primes": good,
        "primes_with_root": with_root,
        "density": with_root / good,
        "verdict": "rational-like" if with_root == good else "irrational-like",
    }


def reference_scan(model, pmax):
    """The scan rows, and for each row whose reduction succeeded the
    nonzero p-curvature values of its foliation, in order."""
    rows, values = [], []
    minpoly = model.minpoly
    for p in primes_upto(pmax):
        choices = [(None, 1)] if minpoly is None else factor_mod_p(minpoly, p)
        for g, _mult in choices:
            factor_str = format_up(g, "t") if g is not None else ""
            k = len(g) - 1 if g is not None else 1
            try:
                fol = reduce_model(model, p, g)
            except BadReductionError as exc:
                rows.append(
                    ScanRow(p, factor_str, k, None, None, None, None, str(exc))
                )
                continue
            values.append([v for v in fol.pcurvature.values if v])
            closed = is_p_closed(fol)
            if closed:
                rows.append(ScanRow(p, factor_str, k, True, None, None, None))
                continue
            delta = degeneracy_divisor(fol)
            squarefree = all(m == 1 for _, m in delta.normalize())
            _, integrable = cartier_transform_foliation(fol)
            rows.append(
                ScanRow(p, factor_str, k, False, delta.degree(), squarefree, integrable)
            )
    return rows, values
