"""Text input: expressions for polynomials and differential forms, and the
line-oriented document format consumed by the command line interface.

Expression grammar (whitespace-insensitive):

- integer and ring-element coefficients (``t`` for the extension-field
  generator, ``a`` for the number-ring generator);
- declared variable names; differentials ``d<var>``;
- operators ``+ - * / ^`` and the wedge ``/\\``; juxtaposition multiplies;
- the token ``p`` is replaced by the declared characteristic at parse time
  (in exponents it stays an integer).

An expression evaluates to a pair (value, den) standing for value / den:
the value is a ``MultiPoly`` or a polynomial ``DiffForm`` and den a monic
``MultiPoly``.  The operations on pairs take no gcd.  A form is kept as its
numerator, the form times a monic common denominator of its coefficients,
which defines the same foliation once saturated.  A scalar directive is
reduced once, to a fraction with coprime numerator and monic denominator.
Over a ring that is not a field, only a polynomial or a quotient by +-1 is
accepted.

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
from .rings import GF, NumberRing, parse_descriptor


class ParseError(ValueError):
    def __init__(self, message: str, pos: int | None = None, line: int | None = None):
        loc = ""
        if line is not None:
            loc += f" at line {line}"
        if pos is not None:
            loc += f", column {pos + 1}"
        super().__init__(message + loc)
        self.pos = pos
        self.line = line


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<wedge>/\\)|(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
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


@dataclass
class ExprContext:
    """Names available to the expression parser."""

    chart: Chart
    line: int | None = None

    @property
    def ring(self):
        return self.chart.ring

    @property
    def p(self) -> int:
        return self.ring.characteristic

    def constant(self, name: str):
        ring = self.ring
        if name == "t" and isinstance(ring, GF) and ring.k > 1:
            return ring.generator()
        if name == "a" and isinstance(ring, NumberRing):
            return ring.generator()
        if name == "p":
            if self.p == 0:
                raise ParseError("token p in a characteristic-zero document",
                                 line=self.line)
            return ring.coerce(self.p)
        return None

    def var_index(self, name: str) -> int | None:
        try:
            return self.chart.names.index(name)
        except ValueError:
            return None


class _ExprParser:
    """Recursive descent over pairs (value, den) standing for value / den:
    the value is a ``MultiPoly`` or a ``DiffForm``, den a monic
    ``MultiPoly``.  The denominator 1 is always ``self.one``, and the
    operations skip their products with it."""

    def __init__(self, tokens, ctx: ExprContext):
        self.tokens = tokens
        self.i = 0
        self.ctx = ctx
        self.one = MultiPoly.one(ctx.ring, ctx.chart.nvars)

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg):
        _, _, pos = self.peek()
        raise ParseError(msg, pos, self.ctx.line)

    def parse(self):
        val = self.expr()
        kind, _, _ = self.peek()
        if kind != "end":
            self.error("trailing input")
        return val

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
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            val, den = self.unary()
            return -val, den
        return self.power()

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
            if self.ctx.p == 0:
                self.error("token p in a characteristic-zero document")
            return self.ctx.p
        if kind == "op" and text == "(":
            self.advance()
            val = self.int_expr()
            self.expect(")")
            return val
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
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return -self.int_unary()
        return self.int_atom()

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
            self.advance()
            val = self.expr()
            self.expect(")")
            return val
        if kind == "name":
            self.advance()
            ctx = self.ctx
            idx = ctx.var_index(text)
            if idx is not None:
                return ctx.chart.var(idx), self.one
            const = ctx.constant(text)
            if const is not None:
                return self._const(const), self.one
            if text.startswith("d") and len(text) > 1:
                vidx = ctx.var_index(text[1:])
                if vidx is not None:
                    return ctx.chart.dx(vidx), self.one
                raise ParseError(f"unknown variable {text[1:]!r} in differential",
                                 line=ctx.line)
            raise ParseError(f"unknown name {text!r}", line=ctx.line)
        self.error("expected a value")

    # -- operations on pairs ---------------------------------------------

    def _const(self, c) -> MultiPoly:
        return MultiPoly.const(self.ctx.ring, self.ctx.chart.nvars, c)

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
        ring = self.ctx.ring
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


def parse_expr(text: str, ctx: ExprContext):
    """The pair (value, den) of an expression, standing for value / den."""
    return _ExprParser(tokenize(text, ctx.line), ctx).parse()


def parse_form(text: str, ctx: ExprContext) -> DiffForm:
    """The numerator of a differential form: the form times a monic common
    denominator of its coefficients, the form itself when it has none."""
    val, _ = parse_expr(text, ctx)
    if not isinstance(val, DiffForm):
        raise ParseError("expected a differential form", line=ctx.line)
    return val


def parse_scalar(text: str, ctx: ExprContext) -> tuple[MultiPoly, MultiPoly]:
    """A scalar expression as a reduced fraction (num, den), den monic."""
    val, den = parse_expr(text, ctx)
    if isinstance(val, DiffForm):
        raise ParseError("expected a scalar expression", line=ctx.line)
    if den.is_constant:
        return val, den
    # a nonconstant denominator exists only over a field
    g = gcd_multi(val, den)
    stage = "parsing.parse_scalar"
    return _quotient_by_gcd(val, g, stage), _quotient_by_gcd(den, g, stage)


def print_form(form: DiffForm) -> str:
    return repr(form)


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
            doc.ring = parse_descriptor(rest)
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
        ctx = ExprContext(doc.chart, lineno)
        if head in ("form", "model"):
            value = parse_form(body, ctx)
            (doc.forms if head == "form" else doc.models)[name] = value
        elif head == "map":
            if not (body.startswith("[") and body.endswith("]")):
                raise ParseError("map components must be bracketed", line=lineno)
            fractions = [
                parse_scalar(part, ctx)
                for part in _split_commas(body[1:-1], lineno)
            ]
            # one common denominator: the product of the reduced ones
            den = MultiPoly.one(doc.ring, doc.chart.nvars)
            for _, d in fractions:
                den = den * d
            doc.maps[name] = ([num * den.exact_div(d) for num, d in fractions], den)
        elif head == "hyperplane":
            value, den = parse_scalar(body, ctx)
            if not den.is_constant or value.total_degree() != 1:
                raise ParseError("hyperplane must be a linear polynomial",
                                 line=lineno)
            doc.hyperplanes[name] = value
        elif head == "weights":
            if not (body.startswith("(") and body.endswith(")")):
                raise ParseError("weights must be parenthesized", line=lineno)
            ws = []
            for part in _split_commas(body[1:-1], lineno):
                w, den = parse_scalar(part, ctx)
                if not den.is_constant or not w.is_constant:
                    raise ParseError("weights must be ring constants", line=lineno)
                ws.append(w.constant_value())
            doc.weights[name] = ws
    return doc


def _check_names(names: tuple, ring, line: int) -> None:
    """Refuse declared variable names that an expression could not write:
    a repeated name, one the tokenizer does not read as a single name, a
    constant of ``ring`` (``p`` in positive characteristic, ``t`` over
    GF(p^k) with k >= 2, ``a`` over NR:) and the differential d<v> of a
    declared v."""
    constants = {
        "p": ring.characteristic > 0,
        "t": isinstance(ring, GF) and ring.k > 1,
        "a": isinstance(ring, NumberRing),
    }
    for i, name in enumerate(names):
        token = _TOKEN_RE.fullmatch(name)
        if not (token and token.group("name")):
            raise ParseError(f"{name!r} is not a variable name", line=line)
        if name in names[:i]:
            raise ParseError(f"variable {name!r} is declared twice", line=line)
        if constants.get(name):
            raise ParseError(f"variable name {name!r} is a constant of {ring!r}",
                             line=line)
        if name[0] == "d" and name[1:] in names:
            raise ParseError(
                f"variable name {name!r} is the differential of {name[1:]!r}", line=line
            )


def _split_commas(text: str, lineno: int) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced brackets", line=lineno)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    parts = [s.strip() for s in parts]
    if any(not s for s in parts):
        raise ParseError("empty list entry", line=lineno)
    return parts
