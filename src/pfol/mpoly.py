"""Sparse multivariate polynomials.

A polynomial is a dict mapping exponent tuples to nonzero coefficients from
one of the rings in :mod:`pfol.rings`.  The monomial order used for leading
terms, printing and division is graded lexicographic (total degree first,
then lex with the first variable largest).

No general factorization is attempted: the only decompositions provided are
multivariate gcd over a field and squarefree decomposition (with the
characteristic-p p-th power branch).  ``gcd_list``, which also gives every
content, folds ``gcd_multi`` over its entries from the sparsest and stops
at a constant, and ``squarefree_decomposition`` is the plain gcd loop.
Every shortcut a gcd takes is decided in ``gcd_multi`` (see below).

The arithmetic loops work on plain dicts and wrap each result once.
``MultiPoly(ring, nvars, terms)`` checks every term; the private
``MultiPoly._new`` checks nothing and is used only for terms the code has
just built, whose keys are tuples of length ``nvars`` and whose
coefficients are all nonzero.  ``divmod_poly`` updates one working dict
in place.

The GF(p) int-code path of the package lives here and nowhere else.  The
product, the iterated derivation of :mod:`pfol.exterior` and the Cartier
operator of :mod:`pfol.cartier` each sum products of raw coefficients per
monomial in one loop for every ring.  ``_raw_terms`` hands the loop
(exponent, coefficient) pairs, with the int codes of the coefficients over
GF(p) and the ring elements over every other ring; ``_reduce_raw`` reduces
the sums mod p and drops the zero ones, and ``_from_raw`` turns them back
into a polynomial.

``gcd_multi(f, g)`` tries its shortcuts in this order.  A monic gcd is
unique, so every route gives the same polynomial.

1. Context checks and zero inputs; a constant input gives 1.
2. Monomial split.  Write f = x^a r and g = x^b s, x^a the largest
   monomial dividing f, split off as an exponent shift, so that no
   variable divides r or s.  The variables are primes, so gcd(f, g) =
   x^min(a, b) gcd(r, s), and a constant rest gives x^min(a, b).
3. Divisor test.  When no degree of r exceeds that of s and r divides s,
   gcd(r, s) is r made monic, and the same with r and s swapped; with
   equal degrees a quotient is a scalar, so one test settles both.  One
   division settles a fold whose running gcd divides the next entry,
   equal rests (on P^2 the values omega(v^p) are c x_j^p G) and the gcds
   of the squarefree loop where c divides w.  It runs before step 6,
   which cannot settle such a pair.
4. Q image.  Over Q, let p = ``CONTENT_PRIME`` divide no denominator of r
   or s, and not the numerator of lc(r) (or, with r and s swapped, of
   lc(s)).  By Gauss's lemma gcd(r, s) is, up to a scalar, a primitive h
   in Z[x] that divides r and s over the rationals without p in their
   denominators; so lc(h) divides lc(r) there, p does not divide lc(h),
   and h mod p keeps its leading monomial and divides both images mod p.
   Images with gcd 1 therefore make h constant.  An image gcd other than
   1 proves nothing, and the gcd goes on over Q.  This is the unlucky-prime
   argument of modular gcds (Brown, JACM 1971; von zur Gathen and Gerhard,
   Modern Computer Algebra, ch. 6).
5. Forms.  Two forms in two or more variables are dehomogenized at x_0,
   and the gcd of the images is homogenized back: x_0 divides neither
   rest, and no terms of a form cancel when x_0 = 1, so this is a
   bijection on their factors.  Forms in three variables reach step 6 as
   their two-variable images, so the certificate runs once.
6. Plane certificate.  Over GF(p), for rests a, b in two variables x, y
   that together use both, gcd(a, b) = 1 when two tests pass.  A common
   factor h of positive degree in x has lc_x(h) | lc_x(a); at a point y =
   c where lc_x(a) does not vanish, h(x, c) keeps that degree and divides
   a(x, c) and b(x, c).  So one such point whose images have gcd 1 rules
   out every h of positive degree in x.  A common factor of degree 0 in x
   is a polynomial in y, and it divides every coefficient in x of a and of
   b, so it divides content_x(a) and content_x(b); a gcd 1 of those
   coefficients rules it out.  Points are taken in GF(p) in code order,
   then in GF(p^2), whose field is built only then; a point whose image
   gcd is not 1 is unlucky and the next one is tried, but after
   ``CERTIFICATE_MISSES`` of them the certificate gives up, since a true
   common factor shows at every point.
7. Otherwise Euclid on dense coefficient lists when the rests together
   use one variable, and a primitive pseudo-remainder sequence in the last
   variable used when they use more.  Its content gcds are folds of
   ``gcd_multi``, and its pseudo-remainders work on the univariate view,
   one coefficient product at a time.

The squarefree loop takes the partials of the last two variables first,
so on P^2 and affine planes its first gcd, of f = x^m r and d_x f, is
that of r and (m_x r + x d_x r) / x^k: coprime exactly when r and d_x r
are, the pair on which the certificate proves r squarefree.

A division by a gcd that the engine computed is exact by construction;
when it is not, the engine raises ``InternalError`` naming the stage,
not the ``ArithmeticError`` that reports bad input.
"""

from __future__ import annotations

from operator import add, le, sub

from . import InternalError
from .rings import GF, _power, up_gcd, up_trim

# unlucky points a certificate tries before it gives up (see the docstring)
CERTIFICATE_MISSES = 4

# a prime above rings.TABLE_LIMIT, so GF(p) computes with ints and builds no tables
CONTENT_PRIME = 2**31 - 1


def _grlex_key(e):
    return (sum(e), e)


def _prime_modulus(ring) -> int:
    """p when ``ring`` is a prime field GF(p), else 0."""
    return ring.p if ring.__class__ is GF and ring.k == 1 else 0


def _raw_terms(f: "MultiPoly"):
    """The (exponent, raw coefficient) pairs of f: int codes over GF(p),
    ring elements otherwise."""
    if _prime_modulus(f.ring):
        return [(e, c.code) for e, c in f.terms.items()]
    return f.terms.items()


def _reduce_raw(ring, sums) -> list:
    """The pairs of ``sums`` (exponent, raw sum) with a nonzero sum, reduced
    mod p over GF(p)."""
    p = _prime_modulus(ring)
    if not p:
        return [(e, s) for e, s in sums if s]
    # a plain loop beats a comprehension on the few terms typical here
    terms = []
    for e, s in sums:
        s %= p
        if s:
            terms.append((e, s))
    return terms


def _from_raw(ring, nvars: int, sums) -> "MultiPoly":
    """The polynomial with the nonzero pairs (exponent, raw sum) of ``sums``."""
    p = _prime_modulus(ring)
    if not p:
        return MultiPoly._new(ring, nvars, {e: s for e, s in sums if s})
    make = ring._make
    terms = {}
    for e, s in sums:
        s %= p
        if s:
            terms[e] = make(s)
    return MultiPoly._new(ring, nvars, terms)


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
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is NotImplemented:
            return NotImplemented
        sums: dict = {}
        get = sums.get
        other_terms = _raw_terms(o)
        for e1, a in _raw_terms(self):
            for e2, b in other_terms:
                e = tuple(map(add, e1, e2))
                s = get(e)
                sums[e] = a * b if s is None else s + a * b
        return _from_raw(self.ring, self.nvars, sums.items())

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _power(self, e, MultiPoly.one(self.ring, self.nvars))

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
        # a refusal, not an ArithmeticError that ``_divide`` would read as
        # "does not divide": no coefficient of a number ring is divided
        raise ValueError(
            f"polynomial division over {self.ring.descriptor()} is not supported"
        )

    def _divide(self, g: "MultiPoly", exact: bool):
        """The quotient and remainder terms of the division by g.

        The graded-lex leading term of the working dict is divided by the
        leading term of g; when the coefficients do not divide (over Z) the
        term goes to the remainder, as does a term that the leading
        monomial of g does not divide.  A remainder term is never cancelled
        later, since every later working term is smaller in graded-lex
        order, so with ``exact`` the division returns None at the first one.
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
                if exact:
                    return None
                rem[e] = c
                continue
            try:
                qc = self._coeff_div(c, gc)
            except ArithmeticError:
                if exact:
                    return None
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
        return q, rem

    def divmod_poly(self, g: "MultiPoly"):
        """Division with remainder by a single polynomial, graded-lex order
        (see ``_divide``)."""
        q, rem = self._divide(g, False)
        return (
            MultiPoly._new(self.ring, self.nvars, q),
            MultiPoly._new(self.ring, self.nvars, rem),
        )

    def divides(self, f: "MultiPoly") -> bool:
        """Whether self divides f exactly: the division of f by self, stopped
        at the first remainder term (over Z, a coefficient that does not
        divide is one).  Over a number ring it raises ValueError."""
        if self.is_zero:
            return f.is_zero
        return f._divide(self, True) is not None

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
        if lc == self.ring.one():
            return self
        if not self.ring.is_field:
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


def default_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 4:
        return ("x", "y", "z", "w")[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


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
        cs = str(c)
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


def _quotient_by_gcd(f: MultiPoly, g: MultiPoly, stage: str) -> MultiPoly:
    """f / g for a g that the engine computed to divide f; a remainder is a
    broken invariant of ``stage``, not bad input."""
    qr = f._divide(g, True)
    if qr is None:
        raise InternalError(stage, "inexact division by a computed gcd")
    return MultiPoly._new(f.ring, f.nvars, qr[0])


def _shift(f: MultiPoly, m) -> MultiPoly:
    """f times x^m, m a tuple of exponents that may be negative when x^-m
    divides f."""
    if not any(m):
        return f
    return MultiPoly._new(f.ring, f.nvars, {tuple(map(add, e, m)): c for e, c in f.terms.items()})


def _univar_view(f: MultiPoly, v: int) -> dict[int, MultiPoly]:
    """View f as univariate in variable v with polynomial coefficients."""
    groups: dict[int, dict] = {}
    for e, c in f.terms.items():
        # distinct terms of one degree in v stay distinct with e[v] zeroed
        groups.setdefault(e[v], {})[e[:v] + (0,) + e[v + 1:]] = c
    return {d: MultiPoly._new(f.ring, f.nvars, t) for d, t in groups.items()}


def _content_in(f: MultiPoly, v: int) -> MultiPoly:
    """The content of f as a polynomial in v: the gcd of its coefficients."""
    return gcd_list(_univar_view(f, v).values())


def _prem(a: MultiPoly, b: MultiPoly, v: int) -> MultiPoly:
    """Pseudo-remainder of a by b with respect to variable v.

    Works on the univariate views, degree in v -> coefficient: each step
    replaces r by lc(b) r - lc(r) x_v^(deg r - deg b) b, whose degree-(deg
    r) coefficients cancel, by one product per coefficient.
    """
    bv = _univar_view(b, v)
    db = max(bv)
    lb = bv.pop(db)
    r = _univar_view(a, v)
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r.pop(dr)
        shift = dr - db
        # the coefficients of r are nonzero, and so are their products with lb
        nxt = {d: c * lb for d, c in r.items()}
        for d, c in bv.items():
            t = d + shift
            s = nxt.get(t)
            s = -(lr * c) if s is None else s - lr * c
            if s:
                nxt[t] = s
            else:
                nxt.pop(t, None)
        r = nxt
    terms = {}
    for d, c in r.items():
        for e, coef in c.terms.items():
            terms[e[:v] + (d,) + e[v + 1:]] = coef
    return MultiPoly._new(a.ring, a.nvars, terms)


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
    """Monic gcd over a coefficient field, by the shortcuts of the module
    docstring in their order, then Euclid or a pseudo-remainder sequence.
    A monic gcd is unique, so every route gives the same polynomial."""
    if f.ring != g.ring or f.nvars != g.nvars:
        raise ValueError("polynomials over different contexts")
    ring = f.ring
    if not ring.is_field:
        raise ArithmeticError("gcd requires a coefficient field")
    if f.is_zero:
        return g.monic() if not g.is_zero else g
    if g.is_zero:
        return f.monic()
    if f.is_constant or g.is_constant:
        return MultiPoly.one(ring, f.nvars)
    a, b = (tuple(map(min, zip(*h.terms))) for h in (f, g))
    least = tuple(map(min, a, b))
    monomial = MultiPoly._new(ring, f.nvars, {least: ring.one()})
    if len(f.terms) == 1 or len(g.terms) == 1:
        return monomial  # a rest is a constant
    r, s = _shift(f, tuple(-k for k in a)), _shift(g, tuple(-k for k in b))
    dr, ds = _degrees(r), _degrees(s)
    if all(map(le, dr, ds)) and r.divides(s):
        return _shift(r.monic(), least)
    if dr != ds and all(map(le, ds, dr)) and s.divides(r):
        return _shift(s.monic(), least)
    if not ring.characteristic:
        p = CONTENT_PRIME
        if all(c.denominator % p for h in (r, s) for c in h.terms.values()) and (
            r.leading()[1].numerator % p or s.leading()[1].numerator % p
        ):
            field = GF(p)
            images = [
                MultiPoly(field, f.nvars, {e: field.coerce(c) for e, c in h.terms.items()})
                for h in (r, s)
            ]
            if gcd_multi(*images).is_constant:
                return monomial
    cone = f.nvars >= 2 and r.is_homogeneous() and s.is_homogeneous()
    if cone:
        # set_var_one cannot cancel terms of a form, so this is exact
        r, s = r.set_var_one(0), s.set_var_one(0)
    used = sorted(set(r.variables_used()) | set(s.variables_used()))
    p = _prime_modulus(ring)
    if p and r.nvars == len(used) == 2 and _certify_coprime(
        _plane_rows(r), _plane_rows(s), p
    ):
        return monomial
    h = _remainder_gcd(r, s, used)
    if cone:
        h = h.homogenize(0).monic()
    return _shift(h, least)


def _remainder_gcd(f: MultiPoly, g: MultiPoly, used: list[int]) -> MultiPoly:
    """Monic gcd of two nonconstant f and g that together use the variables
    ``used``: Euclid on dense coefficient lists for one variable, otherwise a
    primitive pseudo-remainder sequence in the last one, whose content gcds
    recurse into ``gcd_multi``."""
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
    a = _quotient_by_gcd(f, cf, "mpoly.gcd_multi")
    b = _quotient_by_gcd(g, cg, "mpoly.gcd_multi")
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
            b = _quotient_by_gcd(r, _content_in(r, v), "mpoly.gcd_multi")
    return (c * _quotient_by_gcd(a, _content_in(a, v), "mpoly.gcd_multi")).monic()


def gcd_list(polys) -> MultiPoly:
    """Monic gcd of a list of polynomials over a coefficient field: the fold
    of ``gcd_multi`` from zero over the entries, fewest terms first, which
    stops at a constant.  A list of zeros has gcd zero."""
    polys = sorted(polys, key=lambda f: len(f.terms))
    if not polys:
        raise ValueError("gcd of an empty list")
    acc = MultiPoly.zero(polys[0].ring, polys[0].nvars)
    for f in polys:
        acc = gcd_multi(acc, f)
        if acc.terms and acc.is_constant:
            break
    return acc


def _degrees(f: MultiPoly) -> tuple:
    """The degree of a nonzero f in each variable."""
    return tuple(map(max, zip(*f.terms)))


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
    The gcd c of f and its partials is taken with the partials of the last
    two variables first (see the module docstring).
    """
    if f.is_zero:
        raise ValueError("squarefree decomposition of zero")
    if f.is_constant:
        return []
    p = f.ring.characteristic
    f = f.monic()
    n = f.nvars
    partials = [f.deriv(i) for i in sorted(range(n), key=lambda i: i < n - 2)]
    partials = [d for d in partials if not d.is_zero]
    if not partials:
        # every partial vanishes, so f is a p-th power
        return [(g, p * m) for g, m in squarefree_decomposition(pth_root_poly(f))]
    c = f
    for d in partials:
        c = gcd_multi(c, d)
    stage = "mpoly.squarefree_decomposition"
    w = _quotient_by_gcd(f, c, stage)
    out: list[tuple[MultiPoly, int]] = []
    i = 1
    while not w.is_constant:
        y = gcd_multi(w, c)
        z = _quotient_by_gcd(w, y, stage)
        if not z.is_constant:
            out.append((z.monic(), i))
        w = y
        c = _quotient_by_gcd(c, y, stage)
        i += 1
    if not c.is_constant:
        for g, m in squarefree_decomposition(pth_root_poly(c)):
            out.append((g, p * m))
    out.sort(key=lambda gm: (gm[0].total_degree(), poly_str(gm[0])))
    return out


# ---------------------------------------------------------------------------
# one-image certificates over GF(p) in the plane (see the module docstring)


def _plane_rows(f: MultiPoly) -> list[list[int]]:
    """f in the last two variables x, y (x_0 = 1 for a form in three): row
    i holds the int codes of the coefficient of x^i, a dense list in y,
    constant first."""
    rows: list[list[int]] = []
    # distinct terms of a form stay distinct without their exponent of x_0
    for e, c in f.terms.items():
        i, j = e[-2], e[-1]
        if len(rows) <= i:
            rows.extend([] for _ in range(i + 1 - len(rows)))
        row = rows[i]
        if len(row) <= j:
            row.extend([0] * (j + 1 - len(row)))
        row[j] = c.code
    return rows


def _at(row, c, p) -> int:
    """The value at y = c of a coefficient list mod p, by Horner."""
    s = 0
    for v in reversed(row):
        s = (s * c + v) % p
    return s


def _certify_coprime(a, b, p: int) -> bool:
    """Whether one image proves gcd(a, b) = 1 for nonzero a, b given as
    rows (see ``_plane_rows``); False when no certificate was found."""
    rows = [r for r in (*a, *b) if r]
    if not any(len(r) == 1 for r in rows):
        # a common factor in y alone divides every coefficient in x
        g = rows[0]
        for r in rows[1:]:
            g = up_gcd(g, r, p)
            if len(g) == 1:
                break
        if len(g) > 1:
            return False
    if len(a) == 1 or len(b) == 1:
        return True
    lead = a[-1]
    misses = 0
    for c in range(p):
        if not _at(lead, c, p):
            continue
        ia = [_at(r, c, p) for r in a]
        ib = [_at(r, c, p) for r in b]
        if len(up_gcd(ia, up_trim(ib), p)) == 1:
            return True
        misses += 1
        if misses == CERTIFICATE_MISSES:
            return False
    # every point of GF(p) was unlucky: take points of GF(p^2)
    field = GF(p, 2)
    make = field._make
    a2, b2 = ([[make(v) for v in r] for r in h] for h in (a, b))

    def image(rows, c) -> MultiPoly:
        terms = {}
        for i, row in enumerate(rows):
            s = field.zero()
            for v in reversed(row):
                s = s * c + v
            if s:
                terms[(i,)] = s
        return MultiPoly._new(field, 1, terms)

    for c in map(make, range(p, p * p)):
        ia = image(a2, c)
        if ia.degree_in(0) < len(a2) - 1:
            continue  # lc_x(a) vanishes at c
        ib = image(b2, c)
        if ib and _univariate_gcd(ia, ib, 0).is_constant:
            return True
        misses += 1
        if misses == CERTIFICATE_MISSES:
            return False
    return False
