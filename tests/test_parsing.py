import io
import json
import random
from pathlib import Path

import pytest

import pfol.parsing
from pfol.cli import main
from parsing_reference import ExprParserReference, tokenize_reference
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
    tokenize,
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
    assert doc.chart.is_cone and doc.n == 2
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


BAD_NAME_DOCS = [
    # both names read as variable 0: analyze called x*dx + 2*x^2*dx p-closed
    ("field Fp:5\nambient affine 2\nvars x x\nform omega = x*dx + 2*x^2*dx\n",
     "variable 'x' is declared twice"),
    ("field Fp:5\nambient affine 2\nvars x 2y\nform omega = x*dx\n",
     "'2y' is not a variable name"),
    ("field Fp:5\nambient affine 2\nvars x y-z\nform omega = x*dx\n",
     "'y-z' is not a variable name"),
    ("field Fp:5\nambient affine 2\nvars p y\nform omega = p*dy\n",
     "'p' is a constant of Fp:5"),
    # the generator t could no longer be written; analyze printed (t) : 5
    ("field Fq:5^2:t^2+2\nambient affine 2\nvars t y\nform omega = t*dy + y*dt\n",
     "'t' is a constant of Fq:5\\^2:t\\^2\\+2"),
    ("field NR:a^2+1\nambient affine 2\nvars a y\nmodel omega = a*dy\n",
     "'a' is a constant of NR:a\\^2\\+1"),
    # the differential of x could no longer be written
    ("field Fp:5\nambient affine 2\nvars x dx\nform omega = x*dx\n",
     "'dx' is the differential of 'x'"),
]


@pytest.mark.parametrize("text, message", BAD_NAME_DOCS)
def test_variable_names_that_break_the_grammar_are_refused(text, message, monkeypatch, capsys):
    with pytest.raises(ParseError, match=message + " at line 3$"):
        parse_document(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["analyze", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_names_that_are_constants_only_of_other_rings_stay_valid():
    # p is a variable in characteristic 0, t over a prime field and a
    # outside NR:; d alone, and dy with no variable y, are no differentials
    doc = parse_document("field Q\nambient affine 2\nvars p y\nform omega = p*dy - y*dp\n")
    p, y = doc.chart.vars()
    assert doc.the_form().terms == {(1,): p, (0,): -y}
    doc = parse_document("field Fp:5\nambient affine 3\nvars t a d\nform omega = t*da + a*dd\n")
    t, a, d = doc.chart.vars()
    assert doc.the_form().terms == {(1,): t, (2,): a}
    F = GF(5, 2)
    doc = parse_document(
        "field Fq:5^2:t^2+2\nambient affine 2\nvars a dy\nform omega = t*a*da + ddy\n"
    )
    a, dy = doc.chart.vars()
    assert doc.the_form().terms == {(0,): a.scale(F.generator()), (1,): 1}


# ---------------------------------------------------------------------------
# the tokenizer and the unit-denominator shortcuts against the routes they
# replaced (tests/parsing_reference.py)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "bench" / "corpus"
CORPUS_DOCS = [
    pytest.param(entry["doc"], id=f"{path.parent.name}-{path.stem}-{entry['id']}")
    for path in sorted(CORPUS_DIR.glob("seed*/*.json"))
    for entry in json.loads(path.read_text(encoding="utf-8"))["entries"]
    if entry["doc"] is not None  # --minpoly probes read no document
]

# the inputs of the tests above, with the ring and variable count of each
PARSE_INPUTS = [
    (GF(7), 3, text) for text in ("x*y + 2*z^3", "2x y", "(x + y)^2", "-x")
] + [
    (GF(5), 2, text) for text in (
        "x^(p-1)", "y^(2p+1)", "(x^2 - y^2)/(x + y)", "x/y + y/x", "x/y - x/y",
        "x/(2*y)", "(x*y)^(-2)", "1/(x/y)", "x +", "q * x", "dx * dy",
        "x / dx", "x + y", "dz", "x^0/y^0 + 1", "(1/x)^0 * dy", "x/y + 1",
        "2 - x/y", "dx/x + dy", "dy - (y/x)^2*dx",
    )
] + [
    (QQ, 2, "x^p"), (GF(3, 2), 2, "t^2 + 1"), (NumberRing([1, 0, 1]), 2, "a*a"),
    (GF(5), 3, "x*dy - y*dx"), (GF(5), 3, "(x dy - y dx) /\\ dz"),
    (GF(7), 2, "dx/x + dy/y"), (GF(7), 2, "dx/(2*x)"),
    (GF(7), 2, "(x^2 - y^2)/(x + y)*dx"), (GF(7), 2, "y^2 / (x + 1) * dx - 3"),
    (ZZ, 2, "1/x"), (ZZ, 2, "y*dx/2"), (ZZ, 2, "x/(y - y)"), (ZZ, 2, "x/(-1)"),
    (ZZ, 2, "(x - x)/y"), (GF(5), 2, "x $ y"), (GF(5), 2, "x + y   "),
]


def _outcome(call, *args):
    """The result of call(*args), or the type and message of its error."""
    try:
        return call(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("ring,nvars,text", PARSE_INPUTS)
def test_fast_parser_matches_reference_on_the_test_inputs(ring, nvars, text, monkeypatch):
    ctx = ExprContext(affine_chart(ring, nvars))
    assert _outcome(tokenize, text) == _outcome(tokenize_reference, text)
    fast = _outcome(parse_expr, text, ctx)
    monkeypatch.setattr(pfol.parsing, "_ExprParser", ExprParserReference)
    monkeypatch.setattr(pfol.parsing, "tokenize", tokenize_reference)
    assert fast == _outcome(parse_expr, text, ctx)


@pytest.mark.parametrize("doc", CORPUS_DOCS)
def test_fast_parser_matches_reference_on_the_corpus(doc, monkeypatch):
    for line in doc.splitlines():
        assert _outcome(tokenize, line) == _outcome(tokenize_reference, line)
    fast = parse_document(doc)
    monkeypatch.setattr(pfol.parsing, "_ExprParser", ExprParserReference)
    monkeypatch.setattr(pfol.parsing, "tokenize", tokenize_reference)
    assert fast == parse_document(doc)


def test_tokenizer_is_linear_in_the_line():
    # a 120 KB line: checking the rest of the line before every token would
    # copy about 4 GB of text
    line = " + ".join(f"{i}*x*y*dz" for i in range(9000))
    tokens = tokenize(line + "  ")
    assert len(tokens) == 8 * 9000 and tokens[-1] == ("end", None, len(line) + 2)
