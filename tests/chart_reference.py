"""Gluing chart-wise divisors of P^n, for the chart reference routes.

The package reads degeneracy and ramification divisors of P^n off one
polynomial on the cone.  The chart routes it replaced compute num/den on
each standard chart {x_j != 0} and glue the charts with ``glue_chart_divisors``;
the tests keep them to check the cone route against.
"""

from pfol.foliation import Divisor, coprime_basis
from pfol.mpoly import MultiPoly, poly_str, squarefree_decomposition


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
    return Divisor._normalized(ring, n + 1, items, "proj")
