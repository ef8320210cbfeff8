import random

import pytest

from pfol.exterior import DiffForm, affine_chart, cone_chart
from pfol.mpoly import MultiPoly, gcd_multi
from pfol.parsing import (
    ExprContext,
    ParseError,
    parse_document,
    parse_expr,
    parse_form,
    parse_scalar,
    print_form,
)
from pfol.rings import GF, NumberRing, QQ, ZZ


def random_poly(ring, nvars, rng, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        c = ring.random(rng)
        if c:
            terms[e] = c
    return MultiPoly(ring, nvars, terms)


def test_basic_polynomials():
    ctx = ExprContext(affine_chart(GF(7), 3))
    x, y, z = ctx.chart.vars()
    assert parse_scalar("x*y + 2*z^3", ctx) == (
        x * y + (z**3).scale(GF(7).coerce(2)), 1
    )
    # juxtaposition multiplies
    assert parse_scalar("2x y", ctx) == ((x * y).scale(GF(7).coerce(2)), 1)
    assert parse_scalar("(x + y)^2", ctx) == ((x + y) ** 2, 1)
    assert parse_scalar("-x", ctx) == (-x, 1)


def test_p_token_substitution():
    ctx = ExprContext(affine_chart(GF(5), 2))
    x, y = ctx.chart.vars()
    assert parse_scalar("x^(p-1)", ctx) == (x**4, 1)
    assert parse_scalar("y^(2p+1)", ctx) == (y**11, 1)
    ctx0 = ExprContext(affine_chart(QQ, 2))
    with pytest.raises(ParseError):
        parse_scalar("x^p", ctx0)


def test_generator_constants():
    F = GF(3, 2)
    ctx = ExprContext(affine_chart(F, 2))
    t = F.generator()
    val, den = parse_scalar("t^2 + 1", ctx)
    assert den == 1 and val.constant_value() == t * t + F.one()
    R = NumberRing([1, 0, 1])
    ctxR = ExprContext(affine_chart(R, 2))
    val, den = parse_scalar("a*a", ctxR)
    assert den == 1 and val.constant_value() == R.coerce(-1)


def test_forms_and_wedges():
    ctx = ExprContext(affine_chart(GF(5), 3))
    x, y, z = ctx.chart.vars()
    w = parse_form("x*dy - y*dx", ctx)
    assert w.q == 1
    assert w.coeff((1,)) == x
    theta = parse_form("(x dy - y dx) /\\ dz", ctx)
    assert theta.q == 2
    assert theta.coeff((1, 2)) == x
    assert theta.coeff((0, 2)) == -y


def test_rational_coefficients():
    # a form written with "/" is kept as its numerator over a monic common
    # denominator: here x*y, the least one
    ctx = ExprContext(affine_chart(GF(7), 2))
    x, y = ctx.chart.vars()
    w = parse_form("dx/x + dy/y", ctx)
    assert w == DiffForm(ctx.chart, 1, {(0,): y, (1,): x})
    assert parse_expr("dx/x + dy/y", ctx) == (w, x * y)
    # the numerator keeps the scalar of the form: 1/(2x) = 4/x over GF(7)
    assert parse_form("dx/(2*x)", ctx) == ctx.chart.dx(0) * 4
    # no gcd is taken inside a form: the cancelling factor stays until the
    # foliation saturates the numerator
    assert parse_expr("(x^2 - y^2)/(x + y)*dx", ctx) == (
        ctx.chart.dx(0) * (x * x - y * y), x + y
    )


def test_rational_function_reduction():
    # a scalar directive is reduced once: coprime numerator, monic denominator
    ctx = ExprContext(affine_chart(GF(5), 2))
    x, y = ctx.chart.vars()
    assert parse_scalar("(x^2 - y^2)/(x + y)", ctx) == (x - y, 1)
    assert parse_scalar("x/y + y/x", ctx) == (x * x + y * y, x * y)
    assert parse_scalar("x/y - x/y", ctx) == (0, 1)
    assert parse_scalar("x/(2*y)", ctx) == (x * 3, y)
    assert parse_scalar("(x*y)^(-2)", ctx) == (1, x**2 * y**2)
    assert parse_scalar("1/(x/y)", ctx) == (y, x)


def test_scalar_reduction_matches_gcd_on_random_fractions():
    rng = random.Random(1)
    for F in (GF(7), GF(3, 2), QQ):
        ctx = ExprContext(affine_chart(F, 2))
        for _ in range(10):
            num = random_poly(F, 2, rng, deg=2)
            den = random_poly(F, 2, rng, deg=2)
            common = random_poly(F, 2, rng, deg=1)
            if den.is_zero or common.is_zero:
                continue
            n, d = parse_scalar(f"({num * common})/({den * common})", ctx)
            assert n * den == d * num
            assert d.leading()[1] == F.one()
            assert gcd_multi(n, d).is_constant


def test_nonfield_denominators_rejected():
    ctx = ExprContext(affine_chart(ZZ, 2))
    x, y = ctx.chart.vars()
    with pytest.raises(ArithmeticError, match="need a coefficient field"):
        parse_scalar("1/x", ctx)
    with pytest.raises(ArithmeticError, match="non-unit denominator"):
        parse_form("y*dx/2", ctx)
    with pytest.raises(ZeroDivisionError):
        parse_scalar("x/(y - y)", ctx)
    # a unit denominator and a zero numerator are accepted
    assert parse_scalar("x/(-1)", ctx) == (-x, 1)
    assert parse_scalar("(x - x)/y", ctx) == (0, 1)


def test_parse_errors():
    ctx = ExprContext(affine_chart(GF(5), 2))
    with pytest.raises(ParseError):
        parse_expr("x +", ctx)
    with pytest.raises(ParseError):
        parse_expr("q * x", ctx)
    with pytest.raises(ParseError):
        parse_expr("dx * dy", ctx)  # wedge required between forms
    with pytest.raises(ParseError):
        parse_expr("x / dx", ctx)
    with pytest.raises(ParseError):
        parse_form("x + y", ctx)  # scalar where a form is expected
    with pytest.raises(ParseError):
        parse_form("dz", ctx)  # undeclared variable


def test_print_parse_roundtrip_random():
    rng = random.Random(0)
    for ring in (GF(5), GF(3, 2), QQ):
        chart = affine_chart(ring, 3)
        ctx = ExprContext(chart)
        for _ in range(20):
            form = DiffForm(chart, 1, {
                (i,): random_poly(ring, 3, rng) for i in range(3)
            })
            assert parse_form(print_form(form), ctx) == form
        for _ in range(10):
            form = DiffForm(chart, 2, {
                (0, 1): random_poly(ring, 3, rng),
                (0, 2): random_poly(ring, 3, rng),
                (1, 2): random_poly(ring, 3, rng),
            })
            assert parse_form(print_form(form), ctx) == form


def test_document_parsing():
    doc = parse_document(
        """
        # a projective example
        field Fq:3^2:t^2+1
        ambient proj 2
        vars x0 x1 x2
        form omega = t*x1*x2*dx0 + x0*x2*dx1 + x0*x1*dx2
        map phi = [x0, x1, x2^2]
        hyperplane Y = x0 + 2*x1 + x2
        weights lam = (t, 1, 1)
        """
    )
    assert doc.projective and doc.n == 2
    assert doc.chart.names == ("x0", "x1", "x2")
    assert doc.the_form().q == 1
    comps, den = doc.the_map()
    assert len(comps) == 3 and den == 1
    assert doc.the_hyperplane().total_degree() == 1
    assert doc.weights["lam"][0] == GF(3, 2).generator()


def test_document_map_has_one_common_denominator():
    doc = parse_document(
        "field Fp:5\nambient affine 3\nmap phi = [y^2/(x+1), z/(2*y), (x^2-y^2)/(x+y)]\n"
    )
    x, y, z = doc.chart.vars()
    comps, den = doc.the_map()
    # the product of the reduced denominators x + 1 and y
    assert den == (x + 1) * y
    assert comps == [y**3, z * (x + 1) * 3, (x - y) * den]


def test_document_field_override():
    text = "field Fp:3\nambient affine 2\nform f = x*dy - y*dx\n"
    doc = parse_document(text, field_override="Fp:7")
    assert doc.ring == GF(7)


def test_document_errors():
    with pytest.raises(ParseError):
        parse_document("ambient affine 2\nform f = x*dy\n")  # no field
    with pytest.raises(ParseError):
        parse_document("field Fp:5\nform f = x*dy\n")  # no ambient
    with pytest.raises(ParseError):
        parse_document("field Fp:5\nambient affine 2\nbogus line here\n")
    with pytest.raises(ParseError):
        parse_document(
            "field Fp:5\nambient proj 2\nvars x y\nform f = x*dy\n"
        )  # wrong variable count
