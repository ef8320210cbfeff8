"""Differential forms and vector fields on affine charts.

Forms are stored sparsely: a q-form is a dict from strictly increasing
index q-tuples to nonzero coefficients.  Every coefficient of a
``DiffForm``, every component of a ``VectorField`` and of a
``geommaps.RationalMap`` is a ``MultiPoly`` (:meth:`Chart.coerce` turns a
ring constant into one).  A rational object is carried as a polynomial
numerator with one denominator: the parser clears a form written with
``/``, and ``pullback_form`` returns the numerator of a pullback along
x_i = N_i / den.

The same machinery is used for honest affine charts and for the cone over
a projective space (homogeneous coordinates); the :class:`Chart` object
records which of the two a form lives on.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .mpoly import MultiPoly, _prime_modulus, default_names, gcd_list, poly_str


@dataclass(frozen=True)
class Chart:
    """An affine coordinate patch.

    ``kind`` is "affine" for a plain affine space or "cone" for the space
    of homogeneous coordinates of a projective space.
    """

    ring: object
    names: tuple
    kind: str = "affine"

    @property
    def nvars(self) -> int:
        return len(self.names)

    def var(self, i: int) -> MultiPoly:
        return MultiPoly.var(self.ring, self.nvars, i)

    def vars(self) -> list[MultiPoly]:
        return [self.var(i) for i in range(self.nvars)]

    def poly(self, terms: dict) -> MultiPoly:
        return MultiPoly(self.ring, self.nvars, terms)

    def zero_form(self, q: int) -> "DiffForm":
        return DiffForm(self, q, {})

    def dx(self, i: int) -> "DiffForm":
        return DiffForm(self, 1, {(i,): 1})

    def coerce(self, c) -> MultiPoly:
        """A coefficient as a polynomial on this chart: a ``MultiPoly`` is
        kept, a ring constant becomes a constant polynomial."""
        if isinstance(c, MultiPoly):
            return c
        return MultiPoly.const(self.ring, self.nvars, c)


def affine_chart(ring, nvars: int, names=None) -> Chart:
    return Chart(ring, tuple(names) if names else default_names(nvars))


def cone_chart(ring, proj_dim: int, names=None) -> Chart:
    names = tuple(names) if names else tuple(f"x{i}" for i in range(proj_dim + 1))
    return Chart(ring, names, kind="cone")


def _sort_sign(idx):
    """Sort an index tuple, returning (sorted tuple, sign) or None if repeated."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None
    return tuple(idx), sign


class DiffForm:
    """A differential q-form with polynomial coefficients."""

    __slots__ = ("chart", "q", "terms")

    def __init__(self, chart: Chart, q: int, terms: dict):
        self.chart = chart
        self.q = q
        clean = {}
        for idx, c in terms.items():
            if len(idx) != q:
                raise ValueError("index tuple of wrong length")
            srt = _sort_sign(idx)
            if srt is None:
                continue
            sidx, sign = srt
            c = chart.coerce(c)
            if sign < 0:
                c = -c
            if sidx in clean:
                c = clean[sidx] + c
            if c:
                clean[sidx] = c
            else:
                clean.pop(sidx, None)
        self.terms = clean

    def coeff(self, idx) -> MultiPoly:
        srt = _sort_sign(tuple(idx))
        if srt is None:
            return self.chart.coerce(0)
        sidx, sign = srt
        c = self.terms.get(sidx)
        if c is None:
            return self.chart.coerce(0)
        return c if sign > 0 else -c

    def __bool__(self):
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "DiffForm"):
        if other.chart != self.chart:
            raise ValueError("forms on different charts")

    def __add__(self, other: "DiffForm"):
        self._check(other)
        if other.q != self.q:
            raise ValueError("cannot add forms of different degrees")
        terms = dict(self.terms)
        for idx, c in other.terms.items():
            s = terms.get(idx)
            s = c if s is None else s + c
            if s:
                terms[idx] = s
            else:
                terms.pop(idx, None)
        return DiffForm(self.chart, self.q, terms)

    def __neg__(self):
        return DiffForm(self.chart, self.q, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, DiffForm):
            raise TypeError("use wedge() for products of forms")
        c = self.chart.coerce(scalar)
        return DiffForm(self.chart, self.q, {i: v * c for i, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (
            other.chart == self.chart
            and other.q == self.q
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.q, frozenset(self.terms.items())))

    def wedge(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        q = self.q + other.q
        if q > self.chart.nvars:
            return DiffForm(self.chart, q, {})
        terms: dict = {}
        for i1, c1 in self.terms.items():
            for i2, c2 in other.terms.items():
                srt = _sort_sign(i1 + i2)
                if srt is None:
                    continue
                idx, sign = srt
                c = c1 * c2
                if sign < 0:
                    c = -c
                s = terms.get(idx)
                s = c if s is None else s + c
                if s:
                    terms[idx] = s
                else:
                    terms.pop(idx, None)
        return DiffForm(self.chart, q, terms)

    def d(self) -> "DiffForm":
        terms: dict = {}
        for idx, c in self.terms.items():
            for j in range(self.chart.nvars):
                if j in idx:
                    continue
                dc = c.deriv(j)
                if not dc:
                    continue
                srt = _sort_sign((j,) + idx)
                nidx, sign = srt
                if sign < 0:
                    dc = -dc
                s = terms.get(nidx)
                s = dc if s is None else s + dc
                if s:
                    terms[nidx] = s
                else:
                    terms.pop(nidx, None)
        return DiffForm(self.chart, self.q + 1, terms)

    def contract(self, v: "VectorField") -> "DiffForm":
        """Interior product i_v, contracting in the first slot."""
        if v.chart != self.chart:
            raise ValueError("vector field on a different chart")
        if self.q == 0:
            raise ValueError("cannot contract a 0-form")
        terms: dict = {}
        for idx, c in self.terms.items():
            for k, i in enumerate(idx):
                comp = v.comps[i]
                if not comp:
                    continue
                coeff = c * comp
                if k % 2 == 1:
                    coeff = -coeff
                nidx = idx[:k] + idx[k + 1:]
                s = terms.get(nidx)
                s = coeff if s is None else s + coeff
                if s:
                    terms[nidx] = s
                else:
                    terms.pop(nidx, None)
        return DiffForm(self.chart, self.q - 1, terms)

    def pair(self, v: "VectorField") -> MultiPoly:
        """omega(v) for a 1-form."""
        if self.q != 1:
            raise ValueError("pairing needs a 1-form")
        acc = self.chart.coerce(0)
        for (i,), c in self.terms.items():
            acc = acc + c * v.comps[i]
        return acc

    # -- polynomial structure -------------------------------------------------

    def content(self) -> MultiPoly:
        """The gcd of the coefficients."""
        if self.is_zero:
            raise ValueError("content of the zero form")
        return gcd_list(self.terms.values())

    def saturate(self) -> "DiffForm":
        """Divide the form by the gcd of its coefficients."""
        if self.is_zero:
            return self
        cont = self.content()
        return DiffForm(
            self.chart,
            self.q,
            {idx: c.exact_div(cont) for idx, c in self.terms.items()},
        )

    def max_coeff_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(c.total_degree() for c in self.terms.values())

    def is_homogeneous_of(self, d: int) -> bool:
        return all(
            c.is_homogeneous() and c.total_degree() == d for c in self.terms.values()
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.chart.names
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            base = "/\\".join(f"d{names[i]}" for i in idx)
            cs = poly_str(c, names)
            if cs == "1":
                parts.append(base)
            else:
                parts.append(f"({cs})*{base}" if base else cs)
        return " + ".join(parts)


class VectorField:
    """A derivation sum_i c_i d/dx_i with polynomial components."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        self.chart = chart
        self.comps = [chart.coerce(c) for c in comps]
        if len(self.comps) != chart.nvars:
            raise ValueError("wrong number of components")

    def __bool__(self):
        return any(self.comps)

    def __add__(self, other: "VectorField"):
        if other.chart != self.chart:
            raise ValueError("vector fields on different charts")
        return VectorField(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return VectorField(self.chart, [-a for a in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        c = self.chart.coerce(scalar)
        return VectorField(self.chart, [a * c for a in self.comps])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and other.chart == self.chart
            and other.comps == self.comps
        )

    def apply(self, f) -> MultiPoly:
        f = self.chart.coerce(f)
        acc = self.chart.coerce(0)
        for i, c in enumerate(self.comps):
            if c:
                acc = acc + c * f.deriv(i)
        return acc

    def apply_iter(self, f, m: int) -> MultiPoly:
        f = self.chart.coerce(f)
        for _ in range(m):
            f = self.apply(f)
        return f

    def lie_bracket(self, other: "VectorField") -> "VectorField":
        if other.chart != self.chart:
            raise ValueError("vector fields on different charts")
        return VectorField(
            self.chart,
            [self.apply(c) - other.apply(d) for c, d in zip(other.comps, self.comps)],
        )

    def pth_power(self) -> "VectorField":
        """The p-fold iterated derivation v^p (again a derivation).

        Its components are v^p(x_i) = v^(p-1)(c_i) for the components c_i
        of v, each step being g <- sum_j c_j dg/dx_j.  Each step is one
        accumulation into a dict of terms: a term a*x^e of g contributes
        a*e_j*x^(e - u_j)*c_j for every j with e_j not divisible by p, and
        the zero sums are dropped once at the end of the step.  Over a
        prime field GF(p) the coefficients stay int codes through all
        p - 1 steps and become field elements once.
        """
        chart = self.chart
        p = chart.ring.characteristic
        if p == 0:
            raise ArithmeticError("p-th powers need positive characteristic")
        support = [(j, c) for j, c in enumerate(self.comps) if c]
        return VectorField(
            chart, [_iterate_derivation(g, support, p - 1) for g in self.comps]
        )

    def __repr__(self):
        names = self.chart.names
        parts = [
            f"({c!r})*D{names[i]}" for i, c in enumerate(self.comps) if c
        ]
        return " + ".join(parts) if parts else "0"


def _iterate_derivation(g: MultiPoly, support, m: int) -> MultiPoly:
    """Apply the polynomial derivation sum_j c_j d/dx_j to g m times.

    ``support`` lists the pairs (j, c_j) with c_j nonzero.  The exponents
    e_j are taken mod p = the characteristic, so that a term whose
    derivative in x_j vanishes is skipped before any product is formed.
    """
    ring, nvars = g.ring, g.nvars
    p = ring.characteristic
    code_p = _prime_modulus(ring)
    if code_p:
        terms = {e: c.code for e, c in g.terms.items()}
        support = [(j, [(e, c.code) for e, c in cj.terms.items()]) for j, cj in support]
    else:
        terms = g.terms
        support = [(j, list(cj.terms.items())) for j, cj in support]
    for _ in range(m):
        if not terms:
            break
        acc: dict = {}
        get = acc.get
        for e, a in terms.items():
            for j, cterms in support:
                k = e[j] % p
                if not k:
                    continue
                ak = a * k
                de = e[:j] + (e[j] - 1,) + e[j + 1:]
                for ec, c in cterms:
                    t = tuple(map(add, de, ec))
                    s = get(t)
                    acc[t] = ak * c if s is None else s + ak * c
        if code_p:
            terms = {}
            for e, s in acc.items():
                s %= code_p
                if s:
                    terms[e] = s
        else:
            terms = {e: s for e, s in acc.items() if s}
    if code_p:
        make = ring._make
        terms = {e: make(c) for e, c in terms.items()}
    return MultiPoly._new(ring, nvars, terms)


def euler_field(chart: Chart) -> VectorField:
    """The radial field sum_i x_i d/dx_i."""
    return VectorField(chart, chart.vars())


def pullback_form(form: DiffForm, comps, target: Chart, den=1) -> DiffForm:
    """The numerator den^N * phi^*(form) of the pullback of a q-form along
    the map phi: x_i = comps[i] / den, with N = D + 2q for D the largest
    degree of a coefficient of the form.

    ``comps`` gives, for each source variable, a polynomial in the
    coordinates of ``target``, and ``den`` is a polynomial there too.
    With a_I^h the coefficient a_I homogenized to degree D in a new first
    variable, a_I(N / den) = a_I^h(den, N) / den^D, and
    d(N_i / den) = (den dN_i - N_i d den) / den^2, so the numerator is
    sum_I a_I^h(den, N) (den dN_i1 - N_i1 d den) /\\ ... /\\ (den dN_iq -
    N_iq d den).  With den = 1 it is phi^*(form) itself.
    """
    if len(comps) != form.chart.nvars:
        raise ValueError("one component per source variable is required")
    comps = [target.coerce(c) for c in comps]
    den = target.coerce(den)
    dden = DiffForm(target, 0, {(): den}).d()
    dcomps = [DiffForm(target, 0, {(): c}).d() * den - dden * c for c in comps]
    degree = form.max_coeff_degree()
    vals = [den, *comps]
    result = target.zero_form(form.q)
    unit = DiffForm(target, 0, {(): 1})
    for idx, c in form.terms.items():
        piece = unit
        for i in idx:
            piece = piece.wedge(dcomps[i])
        result = result + piece * c.homogenize(0, degree).subs(vals)
    return result
