import random

import pytest

from pfol.exterior import DiffForm, affine_chart, cone_chart
from pfol.mpoly import MultiPoly, RationalFunction
from pfol.parsing import (
    ExprContext,
    ParseError,
    parse_document,
    parse_expr,
    parse_form,
    parse_scalar,
    print_form,
)
from pfol.rings import GF, NumberRing, QQ


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
    assert parse_scalar("x*y + 2*z^3", ctx).as_poly() == x * y + (z**3).scale(
        GF(7).coerce(2)
    )
    # juxtaposition multiplies
    assert parse_scalar("2x y", ctx).as_poly() == (x * y).scale(GF(7).coerce(2))
    assert parse_scalar("(x + y)^2", ctx).as_poly() == (x + y) ** 2
    assert parse_scalar("-x", ctx).as_poly() == -x


def test_p_token_substitution():
    ctx = ExprContext(affine_chart(GF(5), 2))
    x, y = ctx.chart.vars()
    assert parse_scalar("x^(p-1)", ctx).as_poly() == x**4
    assert parse_scalar("y^(2p+1)", ctx).as_poly() == y**11
    ctx0 = ExprContext(affine_chart(QQ, 2))
    with pytest.raises(ParseError):
        parse_scalar("x^p", ctx0)


def test_generator_constants():
    F = GF(3, 2)
    ctx = ExprContext(affine_chart(F, 2))
    t = F.generator()
    val = parse_scalar("t^2 + 1", ctx)
    assert val.as_poly().constant_value() == t * t + F.one()
    R = NumberRing([1, 0, 1])
    ctxR = ExprContext(affine_chart(R, 2))
    assert parse_scalar("a*a", ctxR).as_poly().constant_value() == R.coerce(-1)


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
    ctx = ExprContext(affine_chart(GF(5), 2))
    x, y = ctx.chart.vars()
    w = parse_form("dx/x + dy/y", ctx)
    assert w.coeff((0,)) == RationalFunction(MultiPoly.one(GF(5), 2), x)


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


def test_roundtrip_rational_coefficients():
    rng = random.Random(1)
    F = GF(7)
    chart = affine_chart(F, 2)
    ctx = ExprContext(chart)
    for _ in range(10):
        num = random_poly(F, 2, rng, deg=2)
        den = random_poly(F, 2, rng, deg=2)
        if den.is_zero:
            continue
        form = DiffForm(chart, 1, {(0,): RationalFunction(num, den)})
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
    assert len(doc.the_map()) == 3
    assert doc.the_hyperplane().total_degree() == 1
    assert doc.weights["lam"][0] == GF(3, 2).generator()


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
