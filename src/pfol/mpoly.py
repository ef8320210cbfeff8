"""Sparse multivariate polynomials.

A polynomial is a dict mapping exponent tuples to nonzero coefficients from
one of the rings in :mod:`pfol.rings`.  The monomial order used for leading
terms, printing and division is graded lexicographic (total degree first,
then lex with the first variable largest).

No general factorization is attempted: the only decompositions provided are
multivariate gcd over a field and squarefree decomposition (with the
characteristic-p p-th power branch).  The gcd dehomogenizes two forms at
x_0, runs Euclid on dense coefficient lists when the inputs use one
variable, and keeps a primitive pseudo-remainder sequence only for
inhomogeneous inputs in two or more variables.

The arithmetic loops work on plain dicts and wrap each result once.
``MultiPoly(ring, nvars, terms)`` checks every term; the private
``MultiPoly._new`` checks nothing and is used only for terms the code has
just built, whose keys are tuples of length ``nvars`` and whose
coefficients are all nonzero.  Over a prime field GF(p) a product sums the
int codes of the coefficients for each monomial and reduces mod p once at
the end; every other ring multiplies ring elements.  ``divmod_poly``
updates one working dict in place.
"""

from __future__ import annotations

from operator import add, sub

from .rings import GF, GFElem, NRElem


def _grlex_key(e):
    return (sum(e), e)


def _prime_modulus(ring) -> int:
    """p when ``ring`` is a prime field GF(p), else 0.

    Over GF(p) the arithmetic loops compute with the int codes of the
    coefficients and map the reduced sums back through ``ring._make``.
    """
    return ring.p if ring.__class__ is GF and ring.k == 1 else 0


class MultiPoly:
    """A sparse polynomial in ``nvars`` variables over ``ring``."""

    __slots__ = ("ring", "nvars", "terms")

    def __init__(self, ring, nvars: int, terms: dict | None = None):
        self.ring = ring
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent tuple of wrong length")
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def _new(cls, ring, nvars: int, terms: dict) -> "MultiPoly":
        """Wrap terms without checks: tuple keys of length ``nvars`` and no
        zero coefficient, as the arithmetic loops build them."""
        self = object.__new__(cls)
        self.ring = ring
        self.nvars = nvars
        self.terms = terms
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ring, nvars: int) -> "MultiPoly":
        return cls(ring, nvars, {})

    @classmethod
    def const(cls, ring, nvars: int, c) -> "MultiPoly":
        c = ring.coerce(c)
        if not c:
            return cls(ring, nvars, {})
        return cls(ring, nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, ring, nvars: int) -> "MultiPoly":
        return cls.const(ring, nvars, 1)

    @classmethod
    def var(cls, ring, nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(ring, nvars, {tuple(e): ring.one()})

    @classmethod
    def monomial(cls, ring, nvars: int, exps, c=1) -> "MultiPoly":
        return cls(ring, nvars, {tuple(exps): ring.coerce(c)})

    def _const_like(self, c) -> "MultiPoly":
        return MultiPoly.const(self.ring, self.nvars, c)

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars or (
                other.ring is not self.ring and other.ring != self.ring
            ):
                raise ValueError("polynomials over different contexts")
            return other
        try:
            return self._const_like(other)
        except TypeError:
            return NotImplemented

    # -- basic queries -------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant")
        return self.terms.get((0,) * self.nvars, self.ring.zero())

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def variables_used(self) -> list[int]:
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return sorted(used)

    def leading(self):
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return MultiPoly._new(self.ring, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._new(
            self.ring, self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e)
            s = -c if s is None else s - c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return MultiPoly._new(self.ring, self.nvars, terms)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is NotImplemented:
            return NotImplemented
        ring = self.ring
        p = _prime_modulus(ring)
        if p:
            sums: dict = {}
            get = sums.get
            other_codes = [(e2, c2.code) for e2, c2 in o.terms.items()]
            for e1, c1 in self.terms.items():
                a = c1.code
                for e2, b in other_codes:
                    e = tuple(map(add, e1, e2))
                    sums[e] = get(e, 0) + a * b
            make = ring._make
            terms = {}
            for e, s in sums.items():
                s %= p
                if s:
                    terms[e] = make(s)
            return MultiPoly._new(ring, self.nvars, terms)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                c = c1 * c2
                if not c:
                    continue
                e = tuple(map(add, e1, e2))
                s = terms.get(e)
                s = c if s is None else s + c
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MultiPoly._new(ring, self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.one(self.ring, self.nvars)
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __eq__(self, other):
        o = self._coerce_operand(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def scale(self, c) -> "MultiPoly":
        c = self.ring.coerce(c)
        return MultiPoly(self.ring, self.nvars, {e: c * v for e, v in self.terms.items()})

    # -- calculus -------------------------------------------------------------

    def deriv(self, i: int) -> "MultiPoly":
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            nc = c * e[i]
            if not nc:
                continue
            terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = nc
        return MultiPoly._new(self.ring, self.nvars, terms)

    def eval(self, vals):
        """Evaluate at a point with coordinates in the coefficient ring."""
        vals = [self.ring.coerce(v) for v in vals]
        acc = self.ring.zero()
        for e, c in self.terms.items():
            t = c
            for v, k in zip(vals, e):
                for _ in range(k):
                    t = t * v
            acc = acc + t
        return acc

    def subs(self, vals):
        """Substitute polynomials for the variables."""
        one_nvars = vals[0].nvars
        acc = MultiPoly.zero(self.ring, one_nvars)
        for e, c in self.terms.items():
            t = MultiPoly.const(self.ring, one_nvars, c)
            for v, k in zip(vals, e):
                if k:
                    t = t * v**k
            acc = acc + t
        return acc

    # -- division -------------------------------------------------------------

    def _coeff_div(self, a, b):
        if self.ring.is_field:
            return a * self.ring.inv(b)
        if isinstance(a, int) and isinstance(b, int):
            q, r = divmod(a, b)
            if r:
                raise ArithmeticError("inexact coefficient division")
            return q
        raise ArithmeticError("cannot divide coefficients in this ring")

    def divmod_poly(self, g: "MultiPoly"):
        """Division with remainder by a single polynomial, graded-lex order.

        The graded-lex leading term of the working dict is divided by the
        leading term of g; when the coefficients do not divide (over Z) the
        term goes to the remainder, as does a term that the leading
        monomial of g does not divide.
        """
        if g.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        ge, gc = g.leading()
        # the product of a quotient term with ge cancels the leading term
        tail = [(e2, c2) for e2, c2 in g.terms.items() if e2 != ge]
        q: dict = {}
        rem: dict = {}
        work = dict(self.terms)
        while work:
            e = max(work, key=_grlex_key)
            c = work.pop(e)
            if any(a < b for a, b in zip(e, ge)):
                rem[e] = c
                continue
            try:
                qc = self._coeff_div(c, gc)
            except ArithmeticError:
                rem[e] = c
                continue
            qe = tuple(map(sub, e, ge))
            q[qe] = qc
            for e2, c2 in tail:
                t = tuple(map(add, qe, e2))
                s = work.get(t)
                s = -(qc * c2) if s is None else s - qc * c2
                if s:
                    work[t] = s
                else:
                    del work[t]
        return (
            MultiPoly._new(self.ring, self.nvars, q),
            MultiPoly._new(self.ring, self.nvars, rem),
        )

    def divides(self, f: "MultiPoly") -> bool:
        """Whether self divides f exactly."""
        if self.is_zero:
            return f.is_zero
        _, r = f.divmod_poly(self)
        return r.is_zero

    def exact_div(self, g: "MultiPoly") -> "MultiPoly":
        q, r = self.divmod_poly(g)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "MultiPoly":
        """Scale so the graded-lex leading coefficient is one (field only)."""
        if self.is_zero:
            return self
        _, lc = self.leading()
        if not self.ring.is_field:
            if lc == self.ring.one():
                return self
            if lc == -self.ring.one():
                return -self
            raise ArithmeticError("cannot normalize over a non-field")
        return self.scale(self.ring.inv(lc))

    # -- variable bookkeeping ---------------------------------------------------

    def insert_var(self, pos: int) -> "MultiPoly":
        terms = {}
        for e, c in self.terms.items():
            terms[e[:pos] + (0,) + e[pos:]] = c
        return MultiPoly(self.ring, self.nvars + 1, terms)

    def set_var_one(self, pos: int) -> "MultiPoly":
        """Substitute 1 for one variable, returning a polynomial in nvars-1."""
        terms: dict = {}
        for e, c in self.terms.items():
            ne = e[:pos] + e[pos + 1:]
            s = terms.get(ne)
            s = c if s is None else s + c
            if s:
                terms[ne] = s
            else:
                del terms[ne]
        return MultiPoly._new(self.ring, self.nvars - 1, terms)

    def homogenize(self, pos: int, degree: int | None = None) -> "MultiPoly":
        """Insert a homogenizing variable at ``pos``."""
        d = self.total_degree() if degree is None else degree
        if d < self.total_degree():
            raise ValueError("target degree below total degree")
        terms = {}
        for e, c in self.terms.items():
            terms[e[:pos] + (d - sum(e),) + e[pos:]] = c
        return MultiPoly(self.ring, self.nvars + 1, terms)

    # -- printing ---------------------------------------------------------------

    def __repr__(self):
        return poly_str(self)

    def __str__(self):
        return poly_str(self)


def default_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 4:
        return ("x", "y", "z", "w")[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


def _coeff_str(c) -> str:
    s = repr(c) if isinstance(c, (GFElem, NRElem)) else str(c)
    return s


def poly_str(f: MultiPoly, names=None) -> str:
    if f.is_zero:
        return "0"
    names = names or default_names(f.nvars)
    parts = []
    for e, c in f.sorted_terms():
        mono = "*".join(
            names[i] if k == 1 else f"{names[i]}^{k}"
            for i, k in enumerate(e)
            if k > 0
        )
        cs = _coeff_str(c)
        if mono:
            if cs == "1":
                term = mono
            elif cs == "-1":
                term = f"-{mono}"
            else:
                if any(op in cs[1:] for op in "+-") or "/" in cs:
                    cs = f"({cs})"
                term = f"{cs}*{mono}"
        else:
            if any(op in cs[1:] for op in "+-"):
                cs = f"({cs})"
            term = cs
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


# ---------------------------------------------------------------------------
# gcd and related decompositions


def _univar_view(f: MultiPoly, v: int) -> dict[int, MultiPoly]:
    """View f as univariate in variable v with polynomial coefficients."""
    groups: dict[int, dict] = {}
    for e, c in f.terms.items():
        # distinct terms of one degree in v stay distinct with e[v] zeroed
        groups.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return {d: MultiPoly._new(f.ring, f.nvars, t) for d, t in groups.items()}


def _content_in(f: MultiPoly, v: int) -> MultiPoly:
    view = _univar_view(f, v)
    acc = MultiPoly.zero(f.ring, f.nvars)
    for c in view.values():
        acc = gcd_multi(acc, c)
    return acc


def _lead_in(f: MultiPoly, v: int):
    view = _univar_view(f, v)
    d = max(view)
    return d, view[d]


def _prem(a: MultiPoly, b: MultiPoly, v: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to variable v."""
    db, lb = _lead_in(b, v)
    r = a
    xv = MultiPoly.var(a.ring, a.nvars, v)
    while not r.is_zero and r.degree_in(v) >= db:
        dr, lr = _lead_in(r, v)
        r = r * lb - b * lr * xv ** (dr - db)
    return r


def _univariate_gcd(f: MultiPoly, g: MultiPoly, v: int) -> MultiPoly:
    """Monic gcd of two nonzero polynomials in the one variable v, by Euclid
    on dense coefficient lists (constant term first) of ring elements."""
    ring = f.ring
    dense = []
    for h in (f, g):
        coeffs = [ring.zero()] * (h.degree_in(v) + 1)
        for e, c in h.terms.items():
            coeffs[e[v]] = c
        dense.append(coeffs)
    a, b = dense
    while b:
        inv = ring.inv(b[-1])
        while len(a) >= len(b):
            q = a[-1] * inv
            shift = len(a) - len(b)
            for i in range(len(b) - 1):
                a[shift + i] = a[shift + i] - q * b[i]
            a.pop()
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    exps = [0] * f.nvars
    terms = {}
    for d, c in enumerate(a):
        exps[v] = d
        terms[tuple(exps)] = c
    return MultiPoly(ring, f.nvars, terms).monic()


def gcd_multi(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd over a coefficient field.

    Two forms in two or more variables are dehomogenized at x_0: their gcd
    is x_0^min(ord f, ord g) times the homogenized gcd of f|_{x_0=1} and
    g|_{x_0=1}.  Inputs that together use one variable go to Euclid on
    dense coefficient lists.  The rest, inhomogeneous in two or more
    variables, take a primitive pseudo-remainder sequence in the last
    variable used, whose content gcds recurse.  A monic gcd is unique, so
    every route gives the same polynomial.
    """
    if f.ring != g.ring or f.nvars != g.nvars:
        raise ValueError("polynomials over different contexts")
    if not f.ring.is_field:
        raise ArithmeticError("gcd requires a coefficient field")
    if f.is_zero:
        return g.monic() if not g.is_zero else g
    if g.is_zero:
        return f.monic()
    if f.is_constant or g.is_constant:
        return MultiPoly.one(f.ring, f.nvars)
    if f.nvars >= 2 and f.is_homogeneous() and g.is_homogeneous():
        # set_var_one cannot cancel terms of a form, so this is exact
        k = min(min(e[0] for e in f.terms), min(e[0] for e in g.terms))
        h = gcd_multi(f.set_var_one(0), g.set_var_one(0)).homogenize(0)
        terms = {(e[0] + k,) + e[1:]: c for e, c in h.terms.items()}
        return MultiPoly(f.ring, f.nvars, terms).monic()
    used = sorted(set(f.variables_used()) | set(g.variables_used()))
    v = used[-1]
    if len(used) == 1:
        return _univariate_gcd(f, g, v)
    df, dg = f.degree_in(v), g.degree_in(v)
    if df == 0:
        return gcd_multi(f, _content_in(g, v))
    if dg == 0:
        return gcd_multi(_content_in(f, v), g)
    cf, cg = _content_in(f, v), _content_in(g, v)
    c = gcd_multi(cf, cg)
    a = f.exact_div(cf)
    b = g.exact_div(cg)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while not b.is_zero:
        r = _prem(a, b, v)
        a = b
        if r.is_zero:
            b = r
        else:
            if r.degree_in(v) == 0:
                # a common divisor would divide a unit in k(other vars)[v]
                return c.monic()
            b = r.exact_div(_content_in(r, v))
    return (c * a.exact_div(_content_in(a, v))).monic()


def gcd_list(polys) -> MultiPoly:
    polys = list(polys)
    if not polys:
        raise ValueError("gcd of an empty list")
    acc = MultiPoly.zero(polys[0].ring, polys[0].nvars)
    for f in polys:
        acc = gcd_multi(acc, f)
    return acc


def pth_root_poly(f: MultiPoly) -> MultiPoly:
    """The p-th root of a polynomial that is a p-th power."""
    p = f.ring.characteristic
    if p == 0:
        raise ArithmeticError("p-th roots need positive characteristic")
    terms = {}
    for e, c in f.terms.items():
        if any(k % p for k in e):
            raise ArithmeticError("not a p-th power: bad exponent")
        terms[tuple(k // p for k in e)] = f.ring.pth_root(c)
    return MultiPoly(f.ring, f.nvars, terms)


def squarefree_decomposition(f: MultiPoly) -> list[tuple[MultiPoly, int]]:
    """Write f (up to a unit) as a product of monic squarefree coprime factors.

    Returns [(g_i, m_i)] with the g_i monic, squarefree and pairwise coprime
    and f = unit * prod g_i^{m_i}.  Works over any coefficient field,
    including characteristic p (where the p-th power branch recurses).
    """
    if f.is_zero:
        raise ValueError("squarefree decomposition of zero")
    if f.is_constant:
        return []
    p = f.ring.characteristic
    f = f.monic()
    partials = [f.deriv(i) for i in range(f.nvars)]
    partials = [d for d in partials if not d.is_zero]
    if not partials:
        # every partial vanishes, so f is a p-th power
        return [(g, p * m) for g, m in squarefree_decomposition(pth_root_poly(f))]
    c = f
    for d in partials:
        c = gcd_multi(c, d)
    w = f.exact_div(c)
    out: list[tuple[MultiPoly, int]] = []
    i = 1
    while not w.is_constant:
        y = gcd_multi(w, c)
        z = w.exact_div(y)
        if not z.is_constant:
            out.append((z.monic(), i))
        w = y
        c = c.exact_div(y)
        i += 1
    if not c.is_constant:
        for g, m in squarefree_decomposition(pth_root_poly(c)):
            out.append((g, p * m))
    out.sort(key=lambda gm: (gm[0].total_degree(), poly_str(gm[0])))
    return out
