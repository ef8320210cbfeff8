"""Parsing references: the routes the faster parser replaced.

The package's tokenizer looks at the rest of the line only once, after the
last token, and its expression parser skips every product with the
denominator 1.  The routes they replaced check the rest of the line for
blanks before every token, and multiply the denominators at every ``*``,
wedge, ``^`` and sum, building each constant as ``one * c``.  The tests
keep them to check the fast routes against.
"""

from pfol import parsing


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
