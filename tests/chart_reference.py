"""Chart references: the standard charts {x_j != 0} of P^n, for tests.

The package reads degeneracy and ramification divisors of P^n off one
polynomial on the cone.  The chart routes it replaced compute num/den on
each standard chart and glue the charts with ``glue_chart_divisors``; the
tests keep them to check the cone route against.  ``projectivize`` builds
test foliations on P^n from a form on the chart {x_0 != 0}.
"""

from pfol.exterior import DiffForm, cone_chart
from pfol.foliation import Divisor, Foliation, coprime_basis, from_form
from pfol.mpoly import MultiPoly, poly_str, squarefree_decomposition


def projectivize(form: DiffForm) -> Foliation:
    """Homogenize an affine 1-form into a projective foliation.

    The affine chart is taken to be the standard chart {x_0 != 0}; the
    missing coefficient is recovered from the radial relation and the
    result is saturated (dropping a spurious power of x_0 when the top
    graded piece of the affine form is radial)."""
    n = form.chart.nvars
    ring = form.chart.ring
    cone = cone_chart(ring, n)
    m = form.max_coeff_degree()
    coeffs_h: dict[int, MultiPoly] = {}
    for (i,), c in form.terms.items():
        coeffs_h[i + 1] = c.homogenize(0, m + 1)
    acc = MultiPoly.zero(ring, n + 1)
    for glob, a in coeffs_h.items():
        acc = acc + MultiPoly.var(ring, n + 1, glob) * a
    coeffs_h[0] = -acc.exact_div(MultiPoly.var(ring, n + 1, 0))
    return from_form(DiffForm(cone, 1, {(g,): c for g, c in coeffs_h.items()}))


def multiplicity_along(f: MultiPoly, h: MultiPoly) -> int:
    """The largest m with h^m | f, by trial division."""
    if h.is_zero or h.is_constant:
        raise ValueError("multiplicity along a unit or zero")
    if f.is_zero:
        raise ValueError("multiplicity of zero is infinite")
    m = 0
    while True:
        q, r = f.divmod_poly(h)
        if not r.is_zero:
            return m
        f = q
        m += 1


def glue_chart_divisors(ring, n: int, chart_fns: dict) -> Divisor:
    """Glue the divisors of num/den on standard charts {x_j != 0} of P^n.

    ``chart_fns`` maps a chart index j to a pair (num, den) of polynomials
    in the chart coordinates.  Their squarefree components are homogenized
    into a coprime basis, and every basis element must have one
    multiplicity on all the charts that see it.  That basis is the normal
    form of the result.
    """
    candidates = []
    for j, (num, den) in chart_fns.items():
        for poly in (num, den):
            for comp, _ in squarefree_decomposition(poly):
                candidates.append(comp.homogenize(j))
    items = []
    for h in coprime_basis(candidates):
        mults = set()
        for j, (num, den) in chart_fns.items():
            h_aff = h.set_var_one(j)
            if h_aff.is_constant:
                continue
            m = multiplicity_along(num, h_aff)
            if not den.is_constant:
                m -= multiplicity_along(den, h_aff)
            mults.add(m)
        if len(mults) != 1:
            raise AssertionError(
                f"component {poly_str(h)} has chart multiplicities "
                f"{sorted(mults)}, not exactly one"
            )
        m = mults.pop()
        if m:
            items.append((h, m))
    return Divisor._normalized(cone_chart(ring, n), items)
