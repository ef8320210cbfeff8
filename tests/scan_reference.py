"""Prime scan reference: the per-prime route that the shared derivation pass
replaced.

The package's ``prime_scan`` raises one set of iterates v^m(c_i) over the
model's ring for all its primes.  The route it replaced reduces the model
at each prime and factor, and reads every p-curvature value from that
foliation alone, through ``Foliation.pcurvature``: p - 1 derivation steps
over the residue field for each row.  The tests keep it to check the scan
against, row by row and value by value.  Like the package, it flags a prime
where the minimal polynomial cannot be factored as a bad row.
"""

from pfol.foliation import cartier_transform_foliation, degeneracy_divisor, is_p_closed
from pfol.models import BadReductionError, ScanRow, reduce_model
from pfol.rings import factor_mod_p, format_up, primes_upto


def reference_scan(model, pmax):
    """The scan rows, and for each row whose reduction succeeded the
    nonzero p-curvature values of its foliation, in order."""
    rows, values = [], []
    minpoly = model.minpoly
    for p in primes_upto(pmax):
        if minpoly is None:
            choices = [(None, 1)]
        else:
            try:
                choices = factor_mod_p(minpoly, p)
            except (ValueError, ArithmeticError) as exc:
                rows.append(ScanRow(p, "", 0, None, None, None, None, str(exc)))
                continue
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
