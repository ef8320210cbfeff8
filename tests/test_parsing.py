import io
import json
import random
from pathlib import Path

import pytest

import pfol.parsing
from pfol.cli import main
from parsing_reference import (
    ExprParserReference,
    descriptor_reference,
    list_reference,
    parse_up,
    tokenize_reference,
)
from pfol.exterior import DiffForm, affine_chart, cone_chart
from pfol.mpoly import MultiPoly, gcd_multi
from pfol.parsing import (
    ParseError,
    _ExprParser,
    _reduced,
    parse_descriptor,
    parse_document,
    parse_expr,
    parse_form,
    parse_int_poly,
    parse_scalar,
    tokenize,
)
from pfol.rings import GF, NumberRing, QQ, ZZ, format_up, up_trim


def random_poly(ring, nvars, rng, deg=3, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(deg + 1) for _ in range(nvars))
        c = ring.random(rng)
        if c:
            terms[e] = c
    return MultiPoly(ring, nvars, terms)


def test_basic_polynomials():
    chart = affine_chart(GF(7), 3)
    x, y, z = chart.vars()
    assert parse_scalar("x*y + 2*z^3", chart) == (
        x * y + (z**3).scale(GF(7).coerce(2)), 1
    )
    # juxtaposition multiplies
    assert parse_scalar("2x y", chart) == ((x * y).scale(GF(7).coerce(2)), 1)
    assert parse_scalar("(x + y)^2", chart) == ((x + y) ** 2, 1)
    assert parse_scalar("-x", chart) == (-x, 1)


def test_p_token_substitution():
    chart = affine_chart(GF(5), 2)
    x, y = chart.vars()
    assert parse_scalar("x^(p-1)", chart) == (x**4, 1)
    assert parse_scalar("y^(2p+1)", chart) == (y**11, 1)
    assert parse_scalar("x^(2p)", chart) == parse_scalar("x^(2*p)", chart) == (x**10, 1)
    chart0 = affine_chart(QQ, 2)
    with pytest.raises(ParseError):
        parse_scalar("x^p", chart0)


def test_generator_constants():
    F = GF(3, 2)
    chart = affine_chart(F, 2)
    t = F.generator()
    val, den = parse_scalar("t^2 + 1", chart)
    assert den == 1 and val.constant_value() == t * t + F.one()
    R = NumberRing([1, 0, 1])
    chartR = affine_chart(R, 2)
    val, den = parse_scalar("a*a", chartR)
    assert den == 1 and val.constant_value() == R.coerce(-1)
    # each generator is a name only over its own kind of ring
    for ring, name in ((GF(5), "t"), (F, "a"), (R, "t"), (QQ, "a")):
        with pytest.raises(ParseError, match=f"unknown name '{name}'"):
            parse_scalar(f"{name} + 1", affine_chart(ring, 2))


def test_forms_and_wedges():
    chart = affine_chart(GF(5), 3)
    x, y, z = chart.vars()
    w = parse_form("x*dy - y*dx", chart)
    assert w.q == 1
    assert w.coeff((1,)) == x
    theta = parse_form("(x dy - y dx) /\\ dz", chart)
    assert theta.q == 2
    assert theta.coeff((1, 2)) == x
    assert theta.coeff((0, 2)) == -y


def test_rational_coefficients():
    # a form written with "/" is kept as its numerator over a monic common
    # denominator: here x*y, the least one
    chart = affine_chart(GF(7), 2)
    x, y = chart.vars()
    w = parse_form("dx/x + dy/y", chart)
    assert w == DiffForm(chart, 1, {(0,): y, (1,): x})
    assert parse_expr("dx/x + dy/y", chart) == (w, x * y)
    # the numerator keeps the scalar of the form: 1/(2x) = 4/x over GF(7)
    assert parse_form("dx/(2*x)", chart) == chart.dx(0) * 4
    # no gcd is taken inside a form: the cancelling factor stays until the
    # foliation saturates the numerator
    assert parse_expr("(x^2 - y^2)/(x + y)*dx", chart) == (
        chart.dx(0) * (x * x - y * y), x + y
    )
    # two nonconstant denominators multiply
    assert parse_expr("(1/x)*(1/y)*dx", chart) == (chart.dx(0), x * y)


def test_rational_function_reduction():
    # a scalar directive is reduced once: coprime numerator, monic denominator
    chart = affine_chart(GF(5), 2)
    x, y = chart.vars()
    assert parse_scalar("(x^2 - y^2)/(x + y)", chart) == (x - y, 1)
    assert parse_scalar("x/y + y/x", chart) == (x * x + y * y, x * y)
    assert parse_scalar("x/y - x/y", chart) == (0, 1)
    assert parse_scalar("x/(2*y)", chart) == (x * 3, y)
    assert parse_scalar("(x*y)^(-2)", chart) == (1, x**2 * y**2)
    assert parse_scalar("1/(x/y)", chart) == (y, x)


def test_scalar_reduction_matches_gcd_on_random_fractions():
    rng = random.Random(1)
    for F in (GF(7), GF(3, 2), QQ):
        chart = affine_chart(F, 2)
        for _ in range(10):
            num = random_poly(F, 2, rng, deg=2)
            den = random_poly(F, 2, rng, deg=2)
            common = random_poly(F, 2, rng, deg=1)
            if den.is_zero or common.is_zero:
                continue
            n, d = parse_scalar(f"({num * common})/({den * common})", chart)
            assert n * den == d * num
            assert d.leading()[1] == F.one()
            assert gcd_multi(n, d).is_constant


def test_nonfield_denominators_rejected():
    chart = affine_chart(ZZ, 2)
    x, y = chart.vars()
    with pytest.raises(ArithmeticError, match="need a coefficient field"):
        parse_scalar("1/x", chart)
    with pytest.raises(ArithmeticError, match="non-unit denominator"):
        parse_form("y*dx/2", chart)
    with pytest.raises(ZeroDivisionError):
        parse_scalar("x/(y - y)", chart)
    # a unit denominator and a zero numerator are accepted
    assert parse_scalar("x/(-1)", chart) == (-x, 1)
    assert parse_scalar("x/1", chart) == (x, 1)
    assert parse_scalar("(x - x)/y", chart) == (0, 1)


def test_parse_errors():
    chart = affine_chart(GF(5), 2)
    with pytest.raises(ParseError):
        parse_expr("x +", chart)
    with pytest.raises(ParseError):
        parse_expr("q * x", chart)
    with pytest.raises(ParseError):
        parse_expr("dx * dy", chart)  # wedge required between forms
    with pytest.raises(ParseError):
        parse_expr("x / dx", chart)
    with pytest.raises(ParseError):
        parse_form("x + y", chart)  # scalar where a form is expected
    with pytest.raises(ParseError):
        parse_form("dz", chart)  # undeclared variable
    with pytest.raises(ParseError, match="expected a scalar expression"):
        parse_scalar("x*dy", chart)


def test_print_parse_roundtrip_random():
    rng = random.Random(0)
    for ring in (GF(5), GF(3, 2), QQ):
        chart = affine_chart(ring, 3)
        for _ in range(20):
            form = DiffForm(chart, 1, {
                (i,): random_poly(ring, 3, rng) for i in range(3)
            })
            assert parse_form(repr(form), chart) == form
        for _ in range(10):
            form = DiffForm(chart, 2, {
                (0, 1): random_poly(ring, 3, rng),
                (0, 2): random_poly(ring, 3, rng),
                (1, 2): random_poly(ring, 3, rng),
            })
            assert parse_form(repr(form), chart) == form
    # a coefficient 1 is printed as the bare differential
    form = parse_form("dx + x*dy", affine_chart(GF(5), 2))
    assert repr(form) == "dx + (x)*dy"
    assert parse_form(repr(form), form.chart) == form


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
    # with no vars line past four variables, they are x0, x1, ...
    doc = parse_document("field Fp:5\nambient affine 5\n")
    assert doc.chart.names == ("x0", "x1", "x2", "x3", "x4")


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
    doc = parse_document("field Fp:5\nambient proj 2\n")
    with pytest.raises(ParseError, match="exactly one hyperplane"):
        doc.the_hyperplane()


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
    chart = affine_chart(ring, nvars)
    assert _outcome(tokenize, text) == _outcome(tokenize_reference, text)
    fast = _outcome(parse_expr, text, chart)
    monkeypatch.setattr(pfol.parsing, "_ExprParser", ExprParserReference)
    monkeypatch.setattr(pfol.parsing, "tokenize", tokenize_reference)
    assert fast == _outcome(parse_expr, text, chart)


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


# ---------------------------------------------------------------------------
# paths no corpus document reaches: p as a value, the omega fallback and the
# refusals of lists and descriptor polynomials


def test_p_is_a_value_in_positive_characteristic():
    doc = parse_document("field Fp:5\nambient affine 2\nhyperplane H = x + p*y + 2*p\n")
    x, _ = doc.chart.vars()
    assert doc.the_hyperplane() == x
    F = GF(3, 2)
    doc = parse_document("field Fq:3^2:t^2+1\nambient affine 2\nweights w = (p, p + 1, t*p)\n")
    assert doc.weights["w"] == [F.zero(), F.one(), F.zero()]


def test_weights_are_read_as_reduced_fractions():
    doc = parse_document("field Fp:5\nambient affine 2\nweights w = (x/x, 2*y/(3*y), (x+1)^0)\n")
    F = GF(5)
    assert doc.weights["w"] == [F.one(), F.coerce(4), F.one()]


def test_p_as_a_value_is_refused_in_characteristic_zero():
    with pytest.raises(ParseError, match="token p in a characteristic-zero document at line 3"):
        parse_document("field Q\nambient affine 2\nhyperplane H = x + p\n")
    # unless it is declared as a variable
    doc = parse_document("field Q\nambient affine 2\nvars p y\nhyperplane H = y + p\n")
    p, y = doc.chart.vars()
    assert doc.the_hyperplane() == y + p


def test_the_form_among_several_is_the_one_named_omega(monkeypatch, capsys):
    doc = parse_document("field Fp:5\nambient affine 2\nform eta = dx\nform omega = x*dy\n")
    x, _ = doc.chart.vars()
    assert doc.the_form() == DiffForm(doc.chart, 1, {(1,): x})
    doc = parse_document("field Z\nambient affine 2\nmodel omega = dy\nmodel eta = dx\n")
    assert doc.the_form() == doc.chart.dx(1)
    doc = parse_document("field Fp:5\nambient affine 2\nform eta = dx\nform zeta = dy\n")
    with pytest.raises(ParseError, match="exactly one form"):
        doc.the_form()
    text = "field Fp:5\nambient affine 2\nform eta = x*dx\nform omega = y*dx - x*dy\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["analyze", "-"]) == 0
    assert "deg F: " in capsys.readouterr().out


LIST_REFUSALS = [
    "map phi = x, y",  # not bracketed
    "map phi = [x, y",
    "map phi = [x), (y]",  # unbalanced
    "map phi = [x, , y]",  # empty entry
    "map phi = []",
    "map phi = [x, y],",
    "weights w = [1, 2]",  # not parenthesized
    "weights w = (1, 2",
    "weights w = ()",
    "weights w = (1, (2)",
    "weights w = (x, 1)",  # not constants
    "weights w = (1/x, 1)",
]


@pytest.mark.parametrize("line", LIST_REFUSALS)
def test_list_refusals_name_their_line(line, monkeypatch, capsys):
    text = f"field Fp:5\nambient affine 2\n{line}\nform omega = x*dy\n"
    with pytest.raises(ParseError, match=r" at line 3(, column \d+)?$"):
        parse_document(text)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["analyze", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("field", ["NR:", "NR:a^2+x", "NR:a^2 1 x", "Fq:3^2:t^2+s", "Fq:3^2:2*"])
def test_descriptor_polynomial_refusals_are_input_errors(field, monkeypatch, capsys):
    text = f"field {field}\nambient affine 2\nmodel omega = x*dy\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["scan", "--pmax", "10", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("minpoly", ["a^2+b", "a^^2", "x"])
def test_minpoly_refusals_are_input_errors(minpoly, capsys):
    assert main(["scan", "--pmax", "10", "--minpoly", minpoly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# ---------------------------------------------------------------------------
# descriptor polynomials and lists against the readers the expression parser
# replaced (tests/parsing_reference.py)

CORPUS_ENTRIES = [
    entry
    for path in sorted(CORPUS_DIR.glob("seed*/*.json"))
    for entry in json.loads(path.read_text(encoding="utf-8"))["entries"]
]


def _new_list(body, chart, brackets):
    return [_reduced(pair, None) for pair in _ExprParser(body, chart).parse_list(brackets)]


def test_corpus_descriptors_minpolys_and_maps_match_the_reference():
    seen = {"field": 0, "minpoly": 0, "map": 0}
    for entry in CORPUS_ENTRIES:
        argv = entry["argv"]
        if "--minpoly" in argv:
            text = argv[argv.index("--minpoly") + 1]
            assert parse_int_poly(text, "a") == parse_up(text, "a")
            seen["minpoly"] += 1
        if entry["doc"] is None:
            continue
        doc = parse_document(entry["doc"])
        for line in entry["doc"].splitlines():
            head, _, rest = line.partition(" ")
            if head == "field":
                assert parse_descriptor(rest) == descriptor_reference(rest) == doc.ring
                seen["field"] += 1
            elif head == "map":
                body = rest.partition("=")[2].strip()
                assert _new_list(body, doc.chart, "[]") == list_reference(body, doc.chart, "[]")
                seen["map"] += 1
    assert seen == {"field": 88, "minpoly": 6, "map": 12}


def _random_univariate(rng, var):
    """A polynomial over Z in var written with the spellings both readers
    take: 2*t, 2t, t^1, t**3, blanks, and terms in any order."""
    terms = []
    for e in rng.sample(range(6), rng.randint(1, 4)):
        c = rng.choice([1, -1, rng.randint(-30, 30) or 7])
        if e == 0:
            mono = str(abs(c))
        else:
            power = rng.choice(["", f"^{e}", f"**{e}"]) if e == 1 else rng.choice([f"^{e}", f"**{e}"])
            mono = var + power
            if abs(c) != 1 or rng.random() < 0.2:
                mono = f"{abs(c)}{rng.choice(['*', '', ' * '])}{mono}"
        terms.append(("-" if c < 0 else "+") + rng.choice(["", " "]) + mono)
    text = rng.choice([" ", ""]).join(terms)
    return text[1:] if text.startswith("+") else text


def test_descriptor_spellings_match_the_reference():
    for text in ["t ^ 2 + 1 0", "2 t", "t^02", "t**2+1", "-t + 2", "t^2-t^2+1", "0"]:
        assert parse_int_poly(text, "t") == up_trim(parse_up(text, "t")), text
    for text in ["Fq:5", "Fq:5^1", "Fq: 7 ^ 2", "Fp: 5", "Fp:1_1", "Fq:3^2:t ^ 2 + 1"]:
        assert parse_descriptor(text) == descriptor_reference(text), text


def test_stray_signs_in_descriptor_polynomials_are_refused():
    # the regex reader dropped a trailing, doubled or leading sign and a
    # trailing *: t^2+ read as t^2 and 2* as 2
    for text in ["t^2+", "t^2++1", "t^2+1-", "+t^2+1", "2*"]:
        parse_up(text, "t")
        with pytest.raises(ParseError, match="expected a value"):
            parse_int_poly(text, "t")


def test_random_univariate_polynomials_match_the_reference():
    rng = random.Random(30)
    for _ in range(300):
        var = rng.choice("ta")
        text = _random_univariate(rng, var)
        assert parse_int_poly(text, var) == parse_up(text, var), text
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))] + [rng.randint(1, 9)]
        written = format_up(coeffs, var)
        assert parse_int_poly(written, var) == parse_up(written, var) == coeffs


def _random_entry(rng, chart):
    x, y = chart.names
    atoms = [x, y, "1", "2", "3", f"({x} + {y})", f"{x}^2", f"({y} - 1)^2"]
    if chart.ring.characteristic:
        atoms.append("p")
    num = " + ".join(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
    if rng.random() < 0.5:
        return num
    return f"({num})/({rng.choice(atoms)} + {rng.choice(atoms)})"


def test_random_lists_match_the_reference():
    rng = random.Random(31)
    for ring in (GF(5), GF(3, 2), QQ):
        chart = affine_chart(ring, 2)
        for _ in range(40):
            entries = [_random_entry(rng, chart) for _ in range(rng.randint(1, 4))]
            for brackets in ("[]", "()"):
                body = brackets[0] + rng.choice([", ", ","]).join(entries) + brackets[1]
                new = _outcome(_new_list, body, chart, brackets)
                assert new == _outcome(list_reference, body, chart, brackets), body
