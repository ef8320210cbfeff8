"""Text input: the one reader that turns text into values.  One tokenizer
and one recursive-descent parser read expressions for polynomials and
differential forms, the bracketed lists of maps and weights, the
polynomials of field descriptors and ``scan --minpoly``, and the
line-oriented document format consumed by the command line interface.

Expression grammar (whitespace-insensitive):

- integer and ring-element coefficients (``t`` for the extension-field
  generator, ``a`` for the number-ring generator);
- declared variable names; differentials ``d<var>``;
- operators ``+ - * / ^`` and the wedge ``/\\``; juxtaposition multiplies;
- the token ``p`` is replaced by the declared characteristic at parse time
  (in exponents it stays an integer);
- a list is ``[e, e, ...]`` (map components) or ``(e, e, ...)`` (weights);
- parentheses nest at most 100 deep, and any number of signs may stack.

An expression evaluates to a pair (value, den) standing for value / den:
the value is a ``MultiPoly`` or a polynomial ``DiffForm`` and den a monic
``MultiPoly``.  The operations on pairs take no gcd.  A form is kept as its
numerator, the form times a monic common denominator of its coefficients,
which defines the same foliation once saturated.  A scalar directive is
reduced once, to a fraction with coprime numerator and monic denominator.
Over a ring that is not a field, only a polynomial or a quotient by +-1 is
accepted.

Field descriptors are ``Z``, ``Q``, ``Fp:5``, ``Fq:3^2:t^2+1`` (``Fq:3^2``
takes the least irreducible modulus) and ``NR:a^2+1``; their polynomials,
and that of ``scan --minpoly``, are expressions over Z in ``t`` or ``a``.

Documents are plain text, one directive per line::

    # comment
    field Fq:3^2:t^2+1
    ambient affine 3
    vars x y z
    form omega = t*y*z*dx + x*z*dy + x*y*dz
    map phi = [x, y, z^2]
    hyperplane Y = x + 2*y + 3*z + w
    weights lam = (t, 1, 1)

The names of ``vars`` are distinct, and no token of the grammar above
stands for one of them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .exterior import Chart, DiffForm, affine_chart, cone_chart
from .mpoly import MultiPoly, _quotient_by_gcd, gcd_multi
from .rings import GF, NumberRing, QQ, ZZ


class ParseError(ValueError):
    """Bad input text.  ``reason`` is the message without its place."""

    def __init__(self, message: str, pos: int | None = None, line: int | None = None):
        loc = ""
        if line is not None:
            loc += f" at line {line}"
        if pos is not None:
            loc += f", column {pos + 1}"
        super().__init__(message + loc)
        self.reason = message


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<wedge>/\\)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()\[\],]))"
)


def tokenize(text: str, line: int | None = None):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            # only blanks may follow the last token
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r}", pos, line)
        pos = m.end()
        if m.group("wedge"):
            tokens.append(("wedge", "/\\", m.start()))
        elif m.group("num"):
            tokens.append(("num", int(m.group("num")), m.start()))
        elif m.group("name"):
            tokens.append(("name", m.group("name"), m.start()))
        else:
            tokens.append(("op", m.group("op"), m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


def _generator_name(ring) -> str | None:
    """The name of the generator of ``ring`` in expressions: ``t`` over
    GF(p^k) with k >= 2, ``a`` over NR:, else None."""
    if isinstance(ring, GF) and ring.k > 1:
        return "t"
    return "a" if isinstance(ring, NumberRing) else None


class _ExprParser:
    """Recursive descent over the tokens of ``text``, with the names of
    ``chart``; ``line`` is the document line errors name.

    Values are pairs (value, den) standing for value / den: the value is a
    ``MultiPoly`` or a ``DiffForm``, den a monic ``MultiPoly``.  The
    denominator 1 is always ``self.one``, and the operations skip their
    products with it."""

    def __init__(self, text: str, chart: Chart, line: int | None = None):
        self.tokens = tokenize(text, line)
        self.i = 0
        self.chart = chart
        self.line = line
        self.ring = ring = chart.ring
        self.p = ring.characteristic
        self.nvars = chart.nvars
        self.index = {name: i for i, name in enumerate(chart.names)}
        self.generator = _generator_name(ring)
        self.one = MultiPoly.one(ring, self.nvars)
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg):
        _, _, pos = self.peek()
        raise ParseError(msg, pos, self.line)

    def parse(self):
        """The value of the whole text."""
        return self.finish(self.expr())

    def parse_list(self, brackets: str) -> list:
        """The values of the whole text, a list such as [e, e] for the
        brackets "[]": one or more expressions separated by commas."""
        self.expect(brackets[0])
        values = [self.expr()]
        while self.peek()[1] == ",":
            self.advance()
            values.append(self.expr())
        self.expect(brackets[1])
        return self.finish(values)

    def finish(self, result):
        if self.peek()[0] != "end":
            self.error("trailing input")
        return result

    def expr(self):
        val = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs, den = self.term()
                val = self._add(val, (rhs if text == "+" else -rhs, den))
            else:
                return val

    def term(self):
        val = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "wedge":
                self.advance()
                val = self._wedge(val, self.unary())
            elif kind == "op" and text == "*":
                self.advance()
                val = self._mul(val, self.unary())
            elif kind == "op" and text == "/":
                self.advance()
                val = self._div(val, self.unary())
            elif kind in ("num", "name") or (kind == "op" and text == "("):
                val = self._mul(val, self.unary())
            else:
                return val

    def unary(self):
        negate = False
        while self.peek()[1] == "-":
            self.advance()
            negate = not negate
        val, den = self.power()
        return (-val if negate else val), den

    def power(self):
        base = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            e = self.int_atom()
            val, den = base
            if isinstance(val, DiffForm):
                self.error("cannot raise a form to a power")
            if e < 0:
                return self._div((self.one, self.one), (val**-e, self._den_pow(den, -e)))
            return val**e, self._den_pow(den, e)
        return base

    def int_atom(self) -> int:
        kind, text, _ = self.peek()
        if kind == "num":
            self.advance()
            return text
        if kind == "name" and text == "p":
            self.advance()
            if self.p == 0:
                self.error("token p in a characteristic-zero document")
            return self.p
        if kind == "op" and text == "(":
            return self.nested(self.int_expr)
        self.error("expected an integer exponent")

    def int_expr(self) -> int:
        val = self.int_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.int_term()
                val = val + rhs if text == "+" else val - rhs
            else:
                return val

    def int_term(self) -> int:
        val = self.int_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                val *= self.int_unary()
            elif kind == "num" or (kind == "name" and text == "p") or (
                kind == "op" and text == "("
            ):
                val *= self.int_unary()
            else:
                return val

    def int_unary(self) -> int:
        negate = False
        while self.peek()[1] == "-":
            self.advance()
            negate = not negate
        val = self.int_atom()
        return -val if negate else val

    def nested(self, parse):
        """The value of ``parse`` between the parentheses ahead."""
        self.depth += 1
        if self.depth > 100:
            raise ParseError("parentheses nested deeper than 100", line=self.line)
        self.advance()
        val = parse()
        self.expect(")")
        self.depth -= 1
        return val

    def expect(self, op):
        kind, text, _ = self.peek()
        if kind != "op" or text != op:
            self.error(f"expected {op!r}")
        self.advance()

    def atom(self):
        kind, text, _ = self.peek()
        if kind == "num":
            self.advance()
            return self._const(text), self.one
        if kind == "op" and text == "(":
            return self.nested(self.expr)
        if kind == "name":
            idx = self.index.get(text)
            if idx is not None:
                self.advance()
                return self.chart.var(idx), self.one
            if text == "p":
                return self._const(self.int_atom()), self.one
            self.advance()
            if text == self.generator:
                return self._const(self.ring.generator()), self.one
            if text.startswith("d") and len(text) > 1:
                vidx = self.index.get(text[1:])
                if vidx is not None:
                    return self.chart.dx(vidx), self.one
                raise ParseError(f"unknown variable {text[1:]!r} in differential",
                                 line=self.line)
            raise ParseError(f"unknown name {text!r}", line=self.line)
        self.error("expected a value")

    # -- operations on pairs ---------------------------------------------

    def _const(self, c) -> MultiPoly:
        return MultiPoly.const(self.ring, self.nvars, c)

    def _den_mul(self, da, db):
        if da is self.one:
            return db
        if db is self.one:
            return da
        return da * db

    def _den_pow(self, den, e: int):
        return self.one if den is self.one or not e else den**e

    def _add(self, x, y):
        (a, da), (b, db) = x, y
        if isinstance(a, DiffForm) != isinstance(b, DiffForm):
            self.error("cannot add a scalar and a form")
        if da == db:
            return a + b, da
        if da is self.one:
            return a * db + b, db
        if db is self.one:
            return a + b * da, da
        return a * db + b * da, da * db

    def _mul(self, x, y):
        if isinstance(x[0], DiffForm) and isinstance(y[0], DiffForm):
            self.error("use /\\ between forms")
        return self._wedge(x, y)

    def _wedge(self, x, y):
        (a, da), (b, db) = x, y
        if isinstance(a, DiffForm) and isinstance(b, DiffForm):
            val = a.wedge(b)
        else:
            val = b * a if isinstance(b, DiffForm) else a * b
        return val, self._den_mul(da, db)

    def _div(self, x, y):
        """x / y = (a db) / (da b), with the denominator made monic."""
        (a, da), (b, db) = x, y
        if isinstance(b, DiffForm):
            self.error("cannot divide by a form")
        if not b:
            raise ZeroDivisionError("division by zero rational function")
        if not a:
            return x
        ring = self.ring
        if b.is_constant:
            c = b.constant_value()
            if ring.is_field:
                return a * db.scale(ring.inv(c)), da
            if c == ring.one():
                return a * db, da
            if c == -ring.one():
                return -(a * db), da
            raise ArithmeticError("non-unit denominator over a non-field")
        if not ring.is_field:
            raise ArithmeticError("rational functions need a coefficient field")
        inv = ring.inv(b.leading()[1])
        return a * db.scale(inv), self._den_mul(da, b.scale(inv))


def parse_expr(text: str, chart: Chart, line: int | None = None):
    """The pair (value, den) of an expression, standing for value / den."""
    return _ExprParser(text, chart, line).parse()


def parse_form(text: str, chart: Chart, line: int | None = None) -> DiffForm:
    """The numerator of a differential form: the form times a monic common
    denominator of its coefficients, the form itself when it has none."""
    val, _ = parse_expr(text, chart, line)
    if not isinstance(val, DiffForm):
        raise ParseError("expected a differential form", line=line)
    return val


def parse_scalar(text: str, chart: Chart, line: int | None = None) -> tuple[MultiPoly, MultiPoly]:
    """A scalar expression as a reduced fraction (num, den), den monic."""
    return _reduced(parse_expr(text, chart, line), line)


def _reduced(pair, line: int | None) -> tuple[MultiPoly, MultiPoly]:
    val, den = pair
    if isinstance(val, DiffForm):
        raise ParseError("expected a scalar expression", line=line)
    if den.is_constant:
        return val, den
    # a nonconstant denominator exists only over a field
    g = gcd_multi(val, den)
    stage = "parsing.parse_scalar"
    return _quotient_by_gcd(val, g, stage), _quotient_by_gcd(den, g, stage)


def parse_int_poly(text: str, var: str) -> list[int]:
    """The little-endian integer coefficients of a polynomial over Z in the
    one variable ``var``, such as the modulus of Fq:3^2:t^2+1.  The text
    is one word: blanks are dropped, so ``1 0`` is 10, and ``**`` is read
    as ``^``."""
    text = text.replace(" ", "").replace("**", "^")
    val, _ = parse_expr(text, affine_chart(ZZ, 1, (var,)))
    if isinstance(val, DiffForm):
        raise ParseError(f"expected a polynomial in {var}")
    return [val.terms.get((i,), 0) for i in range(val.total_degree() + 1)]


def parse_descriptor(text: str, line: int | None = None):
    """The coefficient ring of a descriptor: Z, Q, Fp:5, Fq:3^2:t^2+1,
    Fq:3^2 or NR:a^2+1.  A refusal names the descriptor and ``line``."""
    text = text.strip()
    if text in ("Z", "Q"):
        return ZZ if text == "Z" else QQ
    kind, _, rest = text.partition(":")
    try:
        if kind == "Fp":
            return GF(_integer(rest))
        if kind == "Fq":
            head, _, modtext = rest.partition(":")
            p, _, k = head.partition("^")
            modulus = parse_int_poly(modtext, "t") if modtext else None
            return GF(_integer(p), _integer(k) if k else 1, modulus)
        if kind == "NR":
            return NumberRing(parse_int_poly(rest, "a"))
        raise ValueError("expected Z, Q, Fp:, Fq: or NR:")
    except (ValueError, ArithmeticError) as exc:
        reason = getattr(exc, "reason", exc)
        raise ParseError(f"field descriptor {text!r}: {reason}", line=line) from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected a number, not {text!r}") from None


# ---------------------------------------------------------------------------
# documents


@dataclass
class Document:
    ring: object = None
    n: int | None = None
    chart: Chart | None = None
    forms: dict = dc_field(default_factory=dict)
    maps: dict = dc_field(default_factory=dict)  # name -> (numerators, den)
    hyperplanes: dict = dc_field(default_factory=dict)
    weights: dict = dc_field(default_factory=dict)
    models: dict = dc_field(default_factory=dict)

    def the_form(self) -> DiffForm:
        pool = self.forms or self.models
        if len(pool) != 1:
            if "omega" in pool:
                return pool["omega"]
            raise ParseError("document must declare exactly one form "
                             "(or name it omega)")
        return next(iter(pool.values()))

    def the_map(self):
        if len(self.maps) != 1:
            raise ParseError("document must declare exactly one map")
        return next(iter(self.maps.values()))

    def the_hyperplane(self):
        if len(self.hyperplanes) != 1:
            raise ParseError("document must declare exactly one hyperplane")
        return next(iter(self.hyperplanes.values()))


def parse_document(text: str, field_override: str | None = None) -> Document:
    doc = Document()
    names: tuple | None = None
    projective = False
    pending: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "field":
            doc.ring = parse_descriptor(rest, lineno)
        elif head == "ambient":
            kind, _, nstr = rest.partition(" ")
            if kind not in ("affine", "proj") or not nstr.strip().isdigit():
                raise ParseError("ambient must be 'affine <n>' or 'proj <n>'",
                                 line=lineno)
            projective = kind == "proj"
            doc.n = int(nstr)
        elif head == "vars":
            names = tuple(rest.split())
            names_line = lineno
        elif head in ("form", "model", "map", "hyperplane", "weights"):
            pending.append((lineno, line))
        else:
            raise ParseError(f"unknown directive {head!r}", line=lineno)
    if field_override:
        doc.ring = parse_descriptor(field_override)
    if doc.ring is None:
        raise ParseError("document declares no field")
    if doc.n is None:
        raise ParseError("document declares no ambient")
    expected = doc.n + 1 if projective else doc.n
    if names is not None:
        if len(names) != expected:
            raise ParseError(f"expected {expected} variable names")
        _check_names(names, doc.ring, names_line)
    doc.chart = (cone_chart if projective else affine_chart)(doc.ring, doc.n, names)
    for lineno, line in pending:
        head, _, rest = line.partition(" ")
        name, eq, body = rest.partition("=")
        name = name.strip()
        body = body.strip()
        if not eq or not name.isidentifier():
            raise ParseError(f"malformed {head} declaration", line=lineno)
        if head in ("form", "model"):
            value = parse_form(body, doc.chart, lineno)
            (doc.forms if head == "form" else doc.models)[name] = value
        elif head == "hyperplane":
            value, den = parse_scalar(body, doc.chart, lineno)
            if not den.is_constant or value.total_degree() != 1:
                raise ParseError("hyperplane must be a linear polynomial",
                                 line=lineno)
            doc.hyperplanes[name] = value
        else:  # a map [e, ...] or weights (e, ...): reduced fractions
            parser = _ExprParser(body, doc.chart, lineno)
            fractions = [_reduced(pair, lineno)
                         for pair in parser.parse_list("[]" if head == "map" else "()")]
            if head == "map":
                # one common denominator: the product of the reduced ones
                den = MultiPoly.one(doc.ring, doc.chart.nvars)
                for _, d in fractions:
                    den = den * d
                doc.maps[name] = ([num * den.exact_div(d) for num, d in fractions], den)
            elif all(w.is_constant and d.is_constant for w, d in fractions):
                doc.weights[name] = [w.constant_value() for w, _ in fractions]
            else:
                raise ParseError("weights must be ring constants", line=lineno)
    return doc


def _check_names(names: tuple, ring, line: int) -> None:
    """Refuse declared variable names that an expression could not write:
    a repeated name, one the tokenizer does not read as a single name, a
    constant of ``ring`` (``p`` in positive characteristic, ``t`` over
    GF(p^k) with k >= 2, ``a`` over NR:) and the differential d<v> of a
    declared v."""
    constants = {_generator_name(ring), "p" if ring.characteristic else None}
    for i, name in enumerate(names):
        token = _TOKEN_RE.fullmatch(name)
        if not (token and token.group("name")):
            raise ParseError(f"{name!r} is not a variable name", line=line)
        if name in names[:i]:
            raise ParseError(f"variable {name!r} is declared twice", line=line)
        if name in constants:
            raise ParseError(f"variable name {name!r} is a constant of {ring!r}",
                             line=line)
        if name[0] == "d" and name[1:] in names:
            raise ParseError(
                f"variable name {name!r} is the differential of {name[1:]!r}", line=line
            )
