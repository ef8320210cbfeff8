"""Differential forms and vector fields on affine charts.

Forms are stored sparsely: a q-form is a dict from strictly increasing
index q-tuples to nonzero coefficients.  The ``DiffForm`` constructor
alone sorts, signs and sums terms: ``+``, ``wedge``, ``d`` and ``contract``
hand it their raw (index, coefficient) pairs.  Every coefficient of a
``DiffForm``, every component of a ``VectorField`` and of a
``geommaps.RationalMap`` is a ``MultiPoly`` (:meth:`Chart.coerce` turns a
ring constant into one).  A rational object is carried as a polynomial
numerator with one denominator: the parser clears a form written with
``/``, and ``pullback_form`` returns the numerator of a pullback along
x_i = N_i / den.

The same machinery is used for honest affine charts and for the cone over
a projective space (homogeneous coordinates); the :class:`Chart` a form
lives on is the package's one record of which of the two it is.

A derivation g <- sum_j c_j dg/dx_j is iterated by one step,
``_derivation_step``, on exponents packed into ints (``_packing``).  It
serves ``VectorField.pth_power``, whose coefficients are held by the
raw-coefficient helpers of :mod:`pfol.mpoly`, the one home of the GF(p)
int-code path, and the prime scan of :mod:`pfol.models`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from operator import mul

from .mpoly import (
    MultiPoly, _from_raw, _quotient_by_gcd, _raw_terms, _reduce_raw, default_names,
    gcd_list, poly_str,
)


@dataclass(frozen=True)
class Chart:
    """An affine coordinate patch.

    ``kind`` is "affine" for a plain affine space or "cone" for the space
    of homogeneous coordinates of a projective space (``is_cone``).
    """

    ring: object
    names: tuple
    kind: str = "affine"

    @property
    def nvars(self) -> int:
        return len(self.names)

    @property
    def is_cone(self) -> bool:
        return self.kind == "cone"

    def var(self, i: int) -> MultiPoly:
        return MultiPoly.var(self.ring, self.nvars, i)

    def vars(self) -> list[MultiPoly]:
        return [self.var(i) for i in range(self.nvars)]

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

    __slots__ = ("chart", "q", "terms", "_content")

    def __init__(self, chart: Chart, q: int, terms):
        """``terms``: a mapping from index q-tuples to coefficients, or
        (index, coefficient) pairs in which an index may repeat.  Only here
        is an index sorted with its sign (one with a repeated entry is
        dropped), a coefficient coerced to the chart, and the coefficients
        of one index summed, a zero sum dropped."""
        self.chart = chart
        self.q = q
        clean = {}
        for idx, c in terms.items() if isinstance(terms, Mapping) else terms:
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
        self._content = None

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
        return DiffForm(self.chart, self.q, [*self.terms.items(), *other.terms.items()])

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
        # a pair sharing an index vanishes: test before forming its product
        return DiffForm(self.chart, self.q + other.q, [
            (i1 + i2, c1 * c2)
            for i1, c1 in self.terms.items()
            for i2, c2 in other.terms.items()
            if set(i1).isdisjoint(i2)
        ])

    def d(self) -> "DiffForm":
        return DiffForm(self.chart, self.q + 1, [
            ((j,) + idx, dc)
            for idx, c in self.terms.items()
            for j in range(self.chart.nvars)
            if j not in idx and (dc := c.deriv(j))
        ])

    def contract(self, v: "VectorField") -> "DiffForm":
        """Interior product i_v, contracting in the first slot."""
        if v.chart != self.chart:
            raise ValueError("vector field on a different chart")
        if self.q == 0:
            raise ValueError("cannot contract a 0-form")
        terms = []
        for idx, c in self.terms.items():
            for k, i in enumerate(idx):
                if v.comps[i]:
                    t = c * v.comps[i]
                    terms.append((idx[:k] + idx[k + 1:], -t if k % 2 else t))
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
        """The monic gcd of the coefficients, computed on first use and kept."""
        if self.is_zero:
            raise ValueError("content of the zero form")
        if self._content is None:
            self._content = gcd_list(self.terms.values())
        return self._content

    def saturate(self) -> "DiffForm":
        """Divide the form by its content (the form itself when that is 1)."""
        if self.is_zero or self.content().is_constant:
            return self
        cont = self._content
        sat = DiffForm(
            self.chart,
            self.q,
            {
                idx: _quotient_by_gcd(c, cont, "exterior.DiffForm.saturate")
                for idx, c in self.terms.items()
            },
        )
        sat._content = self.chart.coerce(1)
        return sat

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
        of v: p - 1 packed steps, each skipping the terms whose e_j is
        divisible by p and reducing its sums once.  Over a prime field
        GF(p) the coefficients stay int codes through all p - 1 steps and
        become field elements once (see :mod:`pfol.mpoly`).
        """
        chart, ring = self.chart, self.chart.ring
        p = ring.characteristic
        if p == 0:
            raise ArithmeticError("p-th powers need positive characteristic")
        degree = max(c.total_degree() for c in self.comps)
        base, weights = _packing(degree, p - 1, chart.nvars)
        packed = [_pack(_raw_terms(c), weights) for c in self.comps]
        support = [(weights[j], terms) for j, terms in enumerate(packed) if terms]
        comps = []
        for terms in packed:
            for _ in range(p - 1):
                sums = _derivation_step(terms, support, base, p)
                terms = _reduce_raw(ring, sums.items())
            comps.append(_from_raw(ring, chart.nvars, _unpack(terms, base, weights)))
        return VectorField(chart, comps)


def _packing(degree: int, steps: int, nvars: int) -> tuple[int, list[int]]:
    """The base B and weights B^j that pack an exponent e into the int
    sum_j e_j B^j, for ``steps`` iterates of a derivation whose components,
    like the polynomial iterated, have degree at most ``degree`` = d.

    B = d + steps * (d - 1) + 1, and B = 1 for d <= 0 (a zero or constant
    field: every iterate is a constant).  A step changes the degree of a
    term by at most d - 1, so no exponent of an iterate reaches B: adding
    packed exponents never carries, subtracting B^j when e_j >= 1 never
    borrows, and e // B^j % B is e_j.
    """
    base = max(degree, 0) + steps * max(degree - 1, 0) + 1
    return base, [base**j for j in range(nvars)]


def _pack(terms, weights) -> list:
    """The pairs (exponent, coefficient) of ``terms`` with packed exponents."""
    return [(sum(map(mul, e, weights)), a) for e, a in terms]


def _unpack(terms, base: int, weights) -> list:
    """The pairs (packed exponent, coefficient) of ``terms``, unpacked."""
    return [(tuple(e // w % base for w in weights), a) for e, a in terms]


def _derivation_step(terms, support, base: int, period: int) -> dict:
    """One step g <- sum_j c_j dg/dx_j on the pairs (packed exponent, raw
    coefficient) of g: the unreduced sums, which the caller reduces.

    ``support`` lists the pairs (B^j, packed terms of c_j) for c_j nonzero.
    A term a x^e gives a e_j x^(e - u_j) c_j for each j with e_j not
    divisible by ``period``: p in ``pth_power``, so vanishing derivatives
    form no product, and B in the prime scan, so only e_j = 0 is skipped.
    """
    acc: dict = {}
    get = acc.get
    for e, a in terms:
        for w, cterms in support:
            k = e // w % base % period
            if not k:
                continue
            ak = a * k
            de = e - w
            for ec, c in cterms:
                t = de + ec
                s = get(t)
                acc[t] = ak * c if s is None else s + ak * c
    return acc


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
