"""Parsing references: the routes the faster parser replaced.

The package's tokenizer looks at the rest of the line only once, after the
last token, and its expression parser skips every product with the
denominator 1.  The routes they replaced check the rest of the line for
blanks before every token, and multiply the denominators at every ``*``,
wedge, ``^`` and sum, building each constant as ``one * c``.  The tests
keep them to check the fast routes against.

The package reads descriptor polynomials and the lists of maps and
weights with its one expression parser.  ``parse_up`` is the regex reader
of descriptor polynomials it replaced, and ``descriptor_reference`` the
descriptor reader built on it; ``list_reference`` splits a list at its
top-level commas with the bracket scanner ``split_commas`` and parses
each entry on its own.
"""

import re

from pfol import parsing
from pfol.rings import GF, QQ, ZZ, NumberRing


def tokenize_reference(text, line=None):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = parsing._TOKEN_RE.match(text, pos)
        if not m:
            raise parsing.ParseError(f"unexpected character {text[pos]!r}", pos, line)
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


class ExprParserReference(parsing._ExprParser):
    """The expression parser taking every product of denominators."""

    def _const(self, c):
        return self.one * c

    def _den_mul(self, da, db):
        return da * db

    def _den_pow(self, den, e):
        return den**e

    def _add(self, x, y):
        (a, da), (b, db) = x, y
        if isinstance(a, parsing.DiffForm) != isinstance(b, parsing.DiffForm):
            self.error("cannot add a scalar and a form")
        if da == db:
            return a + b, da
        return a * db + b * da, da * db


def parse_up(text, var):
    """Parse e.g. 't^2+1' or '2*t+3' into a little-endian coefficient list."""
    text = text.replace(" ", "").replace("**", "^")
    if not text:
        raise ValueError("empty polynomial")
    tokens = re.findall(r"[+-]?[^+-]+", text)
    coeffs = {}
    for tok in tokens:
        sign = 1
        if tok.startswith("+"):
            tok = tok[1:]
        elif tok.startswith("-"):
            sign = -1
            tok = tok[1:]
        m = re.fullmatch(rf"(?:(\d+)\*?)?(?:{re.escape(var)}(?:\^(\d+))?)?", tok)
        if not m or (m.group(1) is None and var not in tok and not tok.isdigit()):
            raise ValueError(f"cannot parse monomial {tok!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        if var in tok:
            exp = int(m.group(2)) if m.group(2) else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coef
    deg = max(coeffs)
    return [coeffs.get(i, 0) for i in range(deg + 1)]


def descriptor_reference(text):
    text = text.strip()
    if text == "Z":
        return ZZ
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        return GF(int(text[3:]), 1)
    if text.startswith("Fq:"):
        head, _, modtext = text[3:].partition(":")
        p_str, _, k_str = head.partition("^")
        p, k = int(p_str), int(k_str) if k_str else 1
        return GF(p, k, parse_up(modtext, "t") if modtext else None)
    if text.startswith("NR:"):
        return NumberRing(parse_up(text[3:], "a"))
    raise ValueError(f"unknown ring descriptor {text!r}")


def split_commas(text, lineno):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise parsing.ParseError("unbalanced brackets", line=lineno)
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    parts = [s.strip() for s in parts]
    if any(not s for s in parts):
        raise parsing.ParseError("empty list entry", line=lineno)
    return parts


def list_reference(body, chart, brackets, lineno=None):
    """The reduced fractions of the list ``body``, such as [x, y/z] for the
    brackets "[]", each entry parsed on its own."""
    if not (body.startswith(brackets[0]) and body.endswith(brackets[1])):
        raise parsing.ParseError(f"list must open with {brackets[0]!r}", line=lineno)
    return [parsing.parse_scalar(part, chart, lineno)
            for part in split_commas(body[1:-1], lineno)]
