from fractions import Fraction

import pytest

from pfol.distmin import (
    distmin2,
    is_rank_two,
    nullspace,
    rank_of,
    rref,
    subdistribution_space,
    witness_integrability,
)
from pfol.exterior import VectorField, affine_chart, cone_chart, euler_field
from pfol.foliation import log_foliation
from pfol.mpoly import MultiPoly, gcd_list
from pfol.rings import GF, QQ


def test_rref_and_rank():
    one = Fraction(1)
    rows = [
        {0: Fraction(2), 1: Fraction(4)},
        {0: Fraction(1), 1: Fraction(2)},
        {1: Fraction(1), 2: Fraction(3)},
    ]
    assert rank_of(rows) == 2
    pivots = rref(rows)
    assert set(pivots) == {0, 1}


def test_nullspace_kernel_vectors():
    one = Fraction(1)
    rows = [{0: Fraction(1), 1: Fraction(1), 2: Fraction(1)}]
    basis = nullspace(rows, 3, one)
    assert len(basis) == 2
    for vec in basis:
        total = sum(vec.get(i, Fraction(0)) for i in range(3))
        assert total == 0


def test_rank_over_prime_field():
    F = GF(7)
    rows = [
        {0: F.coerce(1), 1: F.coerce(2)},
        {0: F.coerce(2), 1: F.coerce(4)},
        {0: F.coerce(1), 1: F.coerce(3)},
    ]
    assert rank_of(rows) == 2


def quadric_pencil(ring):
    cone = cone_chart(ring, 3)
    x0, x1, x2, x3 = cone.vars()
    f1 = x0**2 + x1**2 + x2**2 + x3**2
    f2 = x0**2 + x1**2 + x1**2 + x2**2 + x2**2 + x2**2 + x3**2 * 5
    return log_foliation([f1, f2], [ring.coerce(1), ring.coerce(-1)],
                         projective=True)


def three_component(ring):
    cone = cone_chart(ring, 3)
    x0, x1, x2, x3 = cone.vars()
    f3 = x2**2 + x3**2 + x0 * x1 + x0 * x2
    return log_foliation(
        [x0, x1, f3],
        [ring.coerce(1), ring.coerce(1), ring.coerce(-1)],
        projective=True,
    )


def linear_pullback(ring):
    cone = cone_chart(ring, 3)
    x0, x1, x2, x3 = cone.vars()
    h1 = x0 + x1 + x2
    h2 = x0**2 + x1**2 + x1**2 + x2**2 + x2**2 + x2**2 + x0 * x2
    return log_foliation([h1, h2], [ring.coerce(2), ring.coerce(-1)],
                         projective=True)


@pytest.mark.parametrize("ring", [GF(101), QQ], ids=["F101", "Q"])
def test_distmin_quadric_pencil(ring):
    fol = quadric_pencil(ring)
    res = distmin2(fol)
    assert res.delta == 2 == fol.degree
    assert res.integrable is True
    assert res.dimensions == [0, 0, 4]


@pytest.mark.parametrize("ring", [GF(101), QQ], ids=["F101", "Q"])
def test_distmin_three_component(ring):
    fol = three_component(ring)
    res = distmin2(fol)
    assert res.delta == 1 == fol.degree - 1
    assert res.integrable is True


@pytest.mark.parametrize("ring", [GF(101), QQ], ids=["F101", "Q"])
def test_distmin_linear_pullback(ring):
    fol = linear_pullback(ring)
    res = distmin2(fol)
    assert res.delta == 0
    assert res.integrable is True


def test_witness_satisfies_constraints():
    fol = quadric_pencil(GF(101))
    res = distmin2(fol)
    theta = res.witness
    assert theta.contract(euler_field(fol.chart)).is_zero
    assert theta.wedge(fol.form).is_zero
    assert theta.content().is_constant
    assert witness_integrability(theta)


def test_solution_dimensions_monotone():
    fol = quadric_pencil(GF(101))
    dims = [subdistribution_space(fol, d).dimension for d in range(3)]
    assert dims == sorted(dims)


def test_seed_determinism():
    fol = three_component(GF(101))
    r1 = distmin2(fol, seed=5)
    r2 = distmin2(fol, seed=5)
    assert r1.delta == r2.delta
    assert r1.witness == r2.witness


# ---------------------------------------------------------------------------
# reference routes for the exact witness tests


def coefficient_rows(theta):
    """The coefficient matrix of theta, as rows j -> {i: theta_ij}; its
    kernel over the rational function field is the kernel of theta."""
    n1 = theta.chart.nvars
    rows = []
    for j in range(n1):
        row = {}
        for i in range(n1):
            c = theta.coeff((i, j))
            if c:
                row[i] = c
        rows.append(row)
    return rows


def _combine(a, row, b, other):
    """a * row - b * other, divided by the gcd of its entries."""
    out = {c: v * a for c, v in row.items()}
    for c, v in other.items():
        s = out[c] - v * b if c in out else -(v * b)
        if s:
            out[c] = s
        else:
            out.pop(c, None)
    if out:
        g = gcd_list(out.values())
        out = {c: v.exact_div(g) for c, v in out.items()}
    return out


def fraction_free_rref(rows):
    """{pivot column: row} for a matrix of polynomials, by elimination over
    the rational function field that multiplies rows instead of dividing:
    every pivot row vanishes in the other pivot columns, and there are as
    many pivots as the rank."""
    pivots = {}
    for row in rows:
        row = dict(row)
        for col, prow in pivots.items():
            if col in row:
                row = _combine(prow[col], row, row[col], prow)
        if not row:
            continue
        lead = min(row)
        for col, prow in pivots.items():
            if lead in prow:
                pivots[col] = _combine(row[lead], prow, prow[lead], row)
        pivots[lead] = row
    return pivots


def rank_reference(theta):
    """The rank of theta over the rational function field."""
    return len(fraction_free_rref(coefficient_rows(theta)))


def bracket_closure_reference(theta):
    """Integrability of the kernel of theta: a basis of the kernel over the
    rational function field, scaled to polynomial fields, and the bracket
    of any two of them must again be annihilated by theta."""
    chart = theta.chart
    n1 = chart.nvars
    pivots = fraction_free_rref(coefficient_rows(theta))
    pivot_product = MultiPoly.one(chart.ring, n1)
    for col, prow in pivots.items():
        pivot_product = pivot_product * prow[col]
    fields = []
    for free in range(n1):
        if free in pivots:
            continue
        comps = [0] * n1
        comps[free] = pivot_product
        for col, prow in pivots.items():
            if free in prow:
                comps[col] = -(prow[free] * pivot_product.exact_div(prow[col]))
        fields.append(VectorField(chart, comps))
    for v in fields:
        assert not theta.contract(v)
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            if theta.contract(fields[a].lie_bracket(fields[b])):
                return False
    return True


REFERENCE_CASES = [
    pytest.param(make, ring, id=f"{make.__name__}-{label}")
    for make in (quadric_pencil, three_component, linear_pullback)
    for ring, label in ((GF(101), "F101"), (QQ, "Q"), (GF(3), "F3"))
] + [pytest.param(three_component, GF(2), id="three_component-F2")]


@pytest.mark.parametrize("make,ring", REFERENCE_CASES)
def test_exact_witness_tests_match_reference_routes(make, ring):
    fol = make(ring)
    rank_two_forms = 0
    for delta in range(fol.degree + 1):
        for theta in subdistribution_space(fol, delta).basis:
            rank_two = rank_reference(theta) == 2
            assert is_rank_two(theta) == rank_two
            if rank_two:
                rank_two_forms += 1
                assert witness_integrability(theta) == bracket_closure_reference(theta)
    assert rank_two_forms


def a4_chart(ring):
    return affine_chart(ring, 4, ("x", "y", "z", "w"))


@pytest.mark.parametrize("ring", [GF(2), GF(3), QQ], ids=["F2", "F3", "Q"])
def test_decomposable_non_integrable_form(ring):
    chart = a4_chart(ring)
    y = chart.var(1)
    # alpha = dw, beta = dz - y dx: alpha /\ beta /\ dbeta = dw/\dz/\dx/\dy != 0
    theta = chart.dx(3).wedge(chart.dx(2) - chart.dx(0) * y)
    assert is_rank_two(theta)
    assert rank_reference(theta) == 2
    assert witness_integrability(theta) is False
    assert bracket_closure_reference(theta) is False


@pytest.mark.parametrize("ring", [GF(2), GF(3), QQ], ids=["F2", "F3", "Q"])
def test_rank_four_and_zero_forms_are_not_rank_two(ring):
    chart = a4_chart(ring)
    # theta /\ theta = 2 dx/\dy/\dz/\dw vanishes over GF(2); the Pfaffian does not
    theta = chart.dx(0).wedge(chart.dx(1)) + chart.dx(2).wedge(chart.dx(3))
    assert not is_rank_two(theta)
    assert rank_reference(theta) == 4
    assert not is_rank_two(chart.zero_form(2))
