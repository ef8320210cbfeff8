"""Differential forms and vector fields on affine charts.

Forms are stored sparsely: a q-form is a dict from strictly increasing
index q-tuples to rational-function coefficients.  A polynomial form is one
whose coefficients all have denominator one.

The same machinery is used for honest affine charts and for the cone over
a projective space (homogeneous coordinates); the :class:`Chart` object
records which of the two a form lives on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .mpoly import (
    MultiPoly,
    RationalFunction,
    default_names,
    gcd_list,
    gcd_multi,
    rat_str,
)


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
        one = RationalFunction.from_poly(MultiPoly.one(self.ring, self.nvars))
        return DiffForm(self, 1, {(i,): one})


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
    if len(idx) >= 1 and len(set(idx)) != len(idx):
        return None
    return tuple(idx), sign


def _as_rf(chart: Chart, c) -> RationalFunction:
    if isinstance(c, RationalFunction):
        return c
    if isinstance(c, MultiPoly):
        return RationalFunction.from_poly(c)
    return RationalFunction.from_poly(MultiPoly.const(chart.ring, chart.nvars, c))


class DiffForm:
    """A differential q-form with rational-function coefficients."""

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
            c = _as_rf(chart, c)
            if sign < 0:
                c = -c
            if sidx in clean:
                c = clean[sidx] + c
            if c:
                clean[sidx] = c
            else:
                clean.pop(sidx, None)
        self.terms = clean

    def coeff(self, idx) -> RationalFunction:
        srt = _sort_sign(tuple(idx))
        if srt is None:
            return _as_rf(self.chart, 0)
        sidx, sign = srt
        c = self.terms.get(sidx)
        if c is None:
            return _as_rf(self.chart, 0)
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
        c = _as_rf(self.chart, scalar)
        return DiffForm(self.chart, self.q, {i: v * c for i, v in self.terms.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _as_rf(self.chart, scalar)
        return DiffForm(self.chart, self.q, {i: v / c for i, v in self.terms.items()})

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

    def pair(self, v: "VectorField") -> RationalFunction:
        """omega(v) for a 1-form."""
        if self.q != 1:
            raise ValueError("pairing needs a 1-form")
        acc = _as_rf(self.chart, 0)
        for (i,), c in self.terms.items():
            acc = acc + c * v.comps[i]
        return acc

    # -- polynomial structure -------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return all(c.is_polynomial for c in self.terms.values())

    def poly_terms(self) -> dict:
        if not self.is_polynomial:
            raise ValueError("form has non-trivial denominators")
        return {idx: c.as_poly() for idx, c in self.terms.items()}

    def common_denominator(self) -> MultiPoly:
        """The least common denominator of all coefficients."""
        ring, n = self.chart.ring, self.chart.nvars
        den = MultiPoly.one(ring, n)
        for c in self.terms.values():
            g = gcd_multi(den, c.den)
            den = den.exact_div(g) * c.den
        return den.monic() if ring.is_field else den

    def clear_denominators(self) -> tuple["DiffForm", MultiPoly]:
        """Return (q * self, q) with q the least common denominator."""
        den = self.common_denominator()
        return self * den, den

    def content(self) -> MultiPoly:
        """The gcd of the coefficients of a polynomial form."""
        polys = [c.as_poly() for c in self.terms.values()]
        if not polys:
            raise ValueError("content of the zero form")
        return gcd_list(polys)

    def saturate(self) -> "DiffForm":
        """Divide a polynomial form by the gcd of its coefficients."""
        if self.is_zero:
            return self
        cont = self.content()
        return DiffForm(
            self.chart,
            self.q,
            {idx: c.as_poly().exact_div(cont) for idx, c in self.terms.items()},
        )

    def max_coeff_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(c.as_poly().total_degree() for c in self.terms.values())

    def is_homogeneous_of(self, d: int) -> bool:
        return all(
            c.as_poly().is_homogeneous and c.as_poly().total_degree() == d
            for c in self.terms.values()
        )

    def subs(self, vals) -> dict:
        """Substitute values for the variables in every coefficient."""
        return {idx: c.subs(vals) for idx, c in self.terms.items()}

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.chart.names
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            base = "/\\".join(f"d{names[i]}" for i in idx)
            cs = rat_str(c, names)
            if cs == "1":
                parts.append(base)
            else:
                parts.append(f"({cs})*{base}" if base else cs)
        return " + ".join(parts)


class VectorField:
    """A derivation sum_i c_i d/dx_i with rational-function components."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        self.chart = chart
        self.comps = [_as_rf(chart, c) for c in comps]
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
        c = _as_rf(self.chart, scalar)
        return VectorField(self.chart, [a * c for a in self.comps])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, VectorField)
            and other.chart == self.chart
            and other.comps == self.comps
        )

    def apply(self, f) -> RationalFunction:
        f = _as_rf(self.chart, f)
        acc = _as_rf(self.chart, 0)
        for i, c in enumerate(self.comps):
            if c:
                acc = acc + c * f.deriv(i)
        return acc

    def apply_iter(self, f, m: int) -> RationalFunction:
        f = _as_rf(self.chart, f)
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
        of v, each step being g <- sum_j c_j dg/dx_j.  The loop runs on
        ``MultiPoly`` values when every c_i is a polynomial, so no
        rational function is normalised on the way, and on
        ``RationalFunction`` values otherwise.
        """
        p = self.chart.ring.characteristic
        if p == 0:
            raise ArithmeticError("p-th powers need positive characteristic")
        if self.is_polynomial():
            comps = [c.as_poly() for c in self.comps]
            zero = MultiPoly.zero(self.chart.ring, self.chart.nvars)
        else:
            comps, zero = self.comps, _as_rf(self.chart, 0)
        support = [(j, c) for j, c in enumerate(comps) if c]
        out = []
        for g in comps:
            for _ in range(p - 1):
                if not g:
                    break
                acc = zero
                for j, c in support:
                    dg = g.deriv(j)
                    if dg:
                        acc = acc + c * dg
                g = acc
            out.append(g)
        return VectorField(self.chart, out)

    def is_polynomial(self) -> bool:
        return all(c.is_polynomial for c in self.comps)

    def __repr__(self):
        names = self.chart.names
        parts = [
            f"({c!r})*D{names[i]}" for i, c in enumerate(self.comps) if c
        ]
        return " + ".join(parts) if parts else "0"


def euler_field(chart: Chart) -> VectorField:
    """The radial field sum_i x_i d/dx_i."""
    return VectorField(chart, chart.vars())


def pullback_form(form: DiffForm, comps, target: Chart) -> DiffForm:
    """Pull back a form along the map with the given coordinate components.

    ``comps`` gives, for each source variable, its expression as a rational
    function (or polynomial) in the coordinates of ``target``.
    """
    if len(comps) != form.chart.nvars:
        raise ValueError("one component per source variable is required")
    comps = [_as_rf(target, c) for c in comps]
    dcomps = [
        DiffForm(target, 1, {(j,): c.deriv(j) for j in range(target.nvars)})
        for c in comps
    ]
    result = target.zero_form(form.q)
    unit = DiffForm(target, 0, {(): _as_rf(target, 1)})
    for idx, c in form.terms.items():
        piece = unit
        for i in idx:
            piece = piece.wedge(dcomps[i])
        result = result + piece * c.subs(comps)
    return result

