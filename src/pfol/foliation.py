"""Codimension-one foliations and their p-curvature invariants.

A foliation is stored by a saturated integrable polynomial 1-form, and its
chart alone says whether it is affine or projective: projective ones are
stored by a homogeneous form on the cone (homogeneous coordinates
x_0..x_n) that is annihilated by the radial field.  Every invariant is
read from one set of p-curvature values omega(v^p) over the Koszul fields
of that form.  The degeneracy divisor is their gcd, on the cone as on an
affine chart: by p-linearity and the Euler field, the cone gcd serves
every standard chart (see ``degeneracy_divisor``), so no chart is built.
The Cartier transform is read from the same gcd G: if f is the first
nonzero value, f = G r^p for a polynomial r, and C(f^(p-1) omega) =
r^(p-1) C(G^(p-1) omega) (see ``PCurvature``), so eta is taken from G,
whose p-1-st power is the smaller one on ambients of dimension three and up.
A ``Divisor`` lives on a chart and prints with its variable names; a
projective one is read off one form on the cone by
``Divisor.of_homogeneous``, which splits off the coordinate hyperplanes as
the charts would glue them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import json

from . import InternalError
from .cartier import cartier_of_product
from .exterior import (
    Chart,
    DiffForm,
    VectorField,
    affine_chart,
    cone_chart,
    euler_field,
)
from .mpoly import (
    MultiPoly,
    _quotient_by_gcd,
    gcd_list,
    gcd_multi,
    poly_str,
    pth_root_poly,
    squarefree_decomposition,
)


class ValidationError(ValueError):
    pass


class PClosedError(ArithmeticError):
    """Raised when an operation needs p-dense input but the foliation is p-closed."""


# ---------------------------------------------------------------------------
# divisors


def coprime_basis(polys) -> list[MultiPoly]:
    """A pairwise coprime monic squarefree basis generating the given polys.

    Every input (assumed squarefree) is a unit times a product of basis
    elements.
    """
    stage = "foliation.coprime_basis"
    basis: list[MultiPoly] = []

    def insert(f: MultiPoly):
        f = f.monic()
        if f.is_constant:
            return
        for i, g in enumerate(basis):
            d = gcd_multi(f, g)
            if d.is_constant:
                continue
            if d == g:
                insert(_quotient_by_gcd(f, d, stage))
                return
            basis[i] = d
            basis.append(_quotient_by_gcd(g, d, stage))
            insert(_quotient_by_gcd(f, d, stage))
            return
        basis.append(f)

    for f in polys:
        insert(f)
    basis.sort(key=lambda g: (g.total_degree(), poly_str(g)))
    return basis


class Divisor:
    """A formal Z-linear combination of hypersurfaces, given by polynomials
    on ``chart``: an affine chart, or the cone over P^n, where the
    components are homogeneous.  Divisors on different charts do not mix.
    """

    def __init__(self, chart: Chart, items):
        self.chart = chart
        self.items = [(f, int(m)) for f, m in items if m != 0 and not f.is_constant]
        self._normal = None
        self._squarefree = False  # items known monic and squarefree

    @classmethod
    def zero(cls, chart: Chart) -> "Divisor":
        return cls._normalized(chart, [])

    @classmethod
    def _normalized(cls, chart: Chart, items) -> "Divisor":
        """A divisor whose components are already pairwise coprime, monic
        and squarefree; they are kept as its normal form."""
        div = cls(chart, items)
        div._normal = sorted(
            div.items, key=lambda fm: (fm[0].total_degree(), poly_str(fm[0]))
        )
        return div

    @classmethod
    def of_polynomial(cls, f: MultiPoly, chart: Chart) -> "Divisor":
        """The divisor of zeros of f, with multiplicities (zero for a unit)."""
        if f.is_zero:
            raise ValueError("divisor of the zero polynomial")
        return cls._normalized(chart, squarefree_decomposition(f))

    @classmethod
    def of_homogeneous(cls, f: MultiPoly, chart: Chart) -> "Divisor":
        """The divisor of zeros of a nonzero form f on P^n, as the standard
        charts {x_j != 0} glue it.  A coordinate hyperplane x_j is seen only
        from the other charts, so it is split off the squarefree parts of f
        as a component of its own."""
        if f.is_zero:
            raise ValueError("divisor of the zero polynomial")
        coords = chart.vars()
        items = []
        for comp, m in squarefree_decomposition(f):
            for x_j in coords:
                if x_j.divides(comp):
                    items.append((x_j, m))
                    comp = comp.exact_div(x_j)
            items.append((comp, m))
        return cls._normalized(chart, items)

    def _check(self, other: "Divisor"):
        if other.chart != self.chart:
            raise ValueError("divisors on different ambient spaces")

    def _parts(self):
        """(items, whether they are known monic and squarefree), read off
        the normal form when there is one."""
        if self._normal is not None:
            return self._normal, True
        return self.items, self._squarefree

    def _with(self, items, squarefree: bool) -> "Divisor":
        div = Divisor(self.chart, items)
        div._squarefree = squarefree
        return div

    def __add__(self, other: "Divisor") -> "Divisor":
        self._check(other)
        (a, sa), (b, sb) = self._parts(), other._parts()
        return self._with(a + b, sa and sb)

    def __neg__(self) -> "Divisor":
        return -1 * self

    def __sub__(self, other: "Divisor") -> "Divisor":
        return self + (-other)

    def __rmul__(self, k: int) -> "Divisor":
        if self._normal is not None:
            return Divisor._normalized(self.chart, [(f, k * m) for f, m in self._normal])
        return self._with([(f, k * m) for f, m in self.items], self._squarefree)

    __mul__ = __rmul__

    def normalize(self) -> list[tuple[MultiPoly, int]]:
        """Pairwise coprime monic squarefree components with multiplicities,
        computed on first use and kept.

        The components form a coprime basis of the squarefree parts of the
        items, not a factorization into irreducibles: a component may be
        reducible, so one divisor can print differently when it is reached
        by different routes (``(x*y*z)`` beside ``(x)`` and ``(y*z)``).
        A sum of normalized divisors starts from their normal forms.
        """
        if self._normal is None:
            expanded = self.items if self._squarefree else [
                (g, k * m) for f, m in self.items for g, k in squarefree_decomposition(f)
            ]
            # coprime_basis sorts its output as the normal form is sorted
            basis = coprime_basis([g for g, _ in expanded])
            mults = [sum(m for g, m in expanded if b.divides(g)) for b in basis]
            self._normal = [(b, m) for b, m in zip(basis, mults) if m]
        return list(self._normal)

    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.normalize())

    def is_zero(self) -> bool:
        return not self.normalize()

    def degree(self) -> int:
        return sum(m * f.total_degree() for f, m in self.normalize())

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        self._check(other)
        # equal normal forms settle it; different ones need not mean
        # different divisors, since a coprime basis is not canonical
        return self.normalize() == other.normalize() or (self - other).is_zero()

    def to_json(self) -> list[dict]:
        return [
            {
                "component": poly_str(f, self.chart.names),
                "multiplicity": m,
                "degree": f.total_degree(),
            }
            for f, m in self.normalize()
        ]

    def __repr__(self):
        names = self.chart.names
        parts = [f"{m}*({poly_str(f, names)})" for f, m in self.normalize()]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# foliations


def koszul_fields(form: DiffForm) -> list[VectorField]:
    """The nonzero tangent fields a_j d_i - a_i d_j, i < j, attached to a
    polynomial 1-form."""
    if form.q != 1:
        raise ValueError("Koszul fields need a 1-form")
    chart = form.chart
    n = chart.nvars
    a = [form.coeff((i,)) for i in range(n)]
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            comps = [0] * n
            comps[i] = a[j]
            comps[j] = -a[i]
            v = VectorField(chart, comps)
            if v:
                out.append(v)
    return out


class Foliation:
    """A codimension-one foliation given by a saturated polynomial 1-form,
    projective when the form lives on the cone (see ``from_form``)."""

    def __init__(self, form: DiffForm, degree: int | None):
        self.form = form
        self.degree = degree

    @property
    def chart(self) -> Chart:
        return self.form.chart

    @property
    def projective(self) -> bool:
        return self.chart.is_cone

    @property
    def ring(self):
        return self.form.chart.ring

    @property
    def p(self) -> int:
        return self.ring.characteristic

    @property
    def n(self) -> int:
        """Dimension of the ambient variety."""
        return self.chart.nvars - 1 if self.projective else self.chart.nvars

    @cached_property
    def pcurvature(self) -> "PCurvature":
        """The p-curvature record, computed once per foliation."""
        return PCurvature(self.form, self.p, _koszul_pcurvatures(self.form))

    def __repr__(self):
        kind = f"P^{self.n}" if self.projective else f"A^{self.n}"
        return f"Foliation on {kind} by {self.form!r}"


def from_form(form: DiffForm) -> Foliation:
    """Saturate a defining 1-form, validate it and wrap it as a foliation.

    On the cone the coefficients must be homogeneous of one degree d (the
    foliation has degree d - 1) and the radial field must annihilate the
    form; in three or more variables the form must be integrable.
    """
    if form.q != 1:
        raise ValidationError("a defining form must be a 1-form")
    if form.is_zero:
        raise ValidationError("the zero form defines no foliation")
    form = form.saturate()
    return _validated(
        form, lambda: form.pair(euler_field(form.chart)), lambda: form.wedge(form.d())
    )


def _validated(form: DiffForm, radial, defect) -> Foliation:
    """``from_form``'s checks on a saturated nonzero 1-form, in its order:
    ``radial()`` and ``defect()`` are truthy exactly when i_R(form) and
    form /\\ d(form) do not vanish, and are called only when needed."""
    chart = form.chart
    degree = None
    if chart.is_cone:
        d = form.max_coeff_degree()
        if not form.is_homogeneous_of(d):
            raise ValidationError("coefficients must be homogeneous of equal degree")
        if radial():
            raise ValidationError("form is not annihilated by the radial field")
        degree = d - 1
    if chart.nvars >= 3 and defect():
        raise ValidationError("form is not integrable")
    return Foliation(form, degree)


def log_foliation(components, weights, projective: bool = False) -> Foliation:
    """The foliation sum_i w_i * dF_i/F_i, cleared of denominators.

    Components must be squarefree and pairwise coprime; in the projective
    case they must be homogeneous with sum w_i deg F_i = 0.
    """
    if len(components) != len(weights) or len(components) < 2:
        raise ValidationError("need matching components and weights, at least two")
    ring = components[0].ring
    n = components[0].nvars
    weights = [ring.coerce(w) for w in weights]
    for f in components:
        if f.is_zero or f.is_constant:
            raise ValidationError("components must be non-constant")
        if any(m > 1 for _, m in squarefree_decomposition(f)):
            raise ValidationError("components must be squarefree")
    for i in range(len(components)):
        if not weights[i]:
            raise ValidationError("weights must be nonzero")
        for j in range(i + 1, len(components)):
            if not gcd_multi(components[i], components[j]).is_constant:
                raise ValidationError("components must be pairwise coprime")
    if projective:
        chart = cone_chart(ring, n - 1)
        total = ring.zero()
        for f, w in zip(components, weights):
            if not f.is_homogeneous():
                raise ValidationError("projective components must be homogeneous")
            total = total + w * ring.coerce(f.total_degree())
        if total:
            raise ValidationError("weighted degrees must sum to zero")
    else:
        chart = affine_chart(ring, n)
    form = chart.zero_form(1)
    for i, (f, w) in enumerate(zip(components, weights)):
        rest = MultiPoly.one(ring, n)
        for j, g in enumerate(components):
            if j != i:
                rest = rest * g
        df = DiffForm(chart, 1, {(k,): f.deriv(k) for k in range(n)})
        form = form + df * (rest * w)
    return from_form(form)


# ---------------------------------------------------------------------------
# p-curvature and the degeneracy divisor


def _koszul_pcurvatures(form: DiffForm) -> list[MultiPoly]:
    """The polynomials omega(v^p) for the Koszul fields v of the polynomial
    form omega, in the order of ``koszul_fields``."""
    return [form.pair(v.pth_power()) for v in koszul_fields(form)]


class PCurvature:
    """The p-curvature data every invariant of a foliation is read from.

    ``values`` lists omega(v^p) for the Koszul fields v of the form omega,
    in the order of ``koszul_fields``; it may also hold 0 for a field
    that vanishes, which neither ``f`` nor ``G`` reads.  ``f`` is the
    first nonzero value, or None when the foliation is p-closed.  Every
    caller that reads ``f`` of a foliation that is not p-closed reads
    ``G`` as well, so all values are computed at construction.
    ``G`` is the monic gcd of the nonzero values, computed once: the
    degeneracy divisor is its divisor, and ``eta`` is built from it.  For
    a projective foliation these are the values on the cone, and G gives
    the degeneracy divisor on every standard chart as well (see
    ``degeneracy_divisor``).  Read it through ``Foliation.pcurvature``,
    which builds it once from the p-th powers of the Koszul fields; a
    prime scan builds it from one derivation pass shared by every prime
    (see :mod:`pfol.models`).

    ``eta`` is C(G^(p-1) omega) = G C(omega / G), the Cartier transform
    of the closed defining form omega / G.  It differs from the transform
    of omega / f by the factor r^(p-1), where f = G r^p:

    - F is not p-closed, since f exists.  Then the p-closure of its
      tangent sheaf is all of Der K, so by Jacobson's correspondence the
      rational first integrals of F are exactly K^p.
    - For fields v, w with nonzero values, omega / omega(v^p) and
      omega / omega(w^p) are both closed, so their ratio
      omega(w^p) / omega(v^p) is a first integral and lies in K^p.
    - At every prime divisor P, the valuations of the values are then
      congruent mod p, so v_P(f) = v_P(G) mod p and f / G is a constant
      times a p-th power.  The field is perfect, so f / G = r^p with r a
      polynomial.  This holds for G the gcd of f and any other values.
    - C is p^-1-linear, so C(f^(p-1) omega) = C(r^(p(p-1)) G^(p-1) omega)
      = r^(p-1) C(G^(p-1) omega).

    On A^2 there is one Koszul field, so G = f up to a scalar and r is a
    constant.  On P^2 r is a monomial c x_j and G^(p-1) has about as many
    terms as f^(p-1); only tangent sheaves of rank two and more gain.

    The guards run in this order, and each is a broken invariant of
    ``foliation.PCurvature.eta``:

    1. omega / G is closed: G d(omega) = dG /\\ omega.
    2. f / G is a p-th power: its p-th root r exists.

    Together they say exactly that omega / f is closed, because
    d(omega / f) = r^(-p) d(omega / G); there is no second route through f.
    ``eta`` keeps r: G is monic, so lc(f) = lc(r)^p, and lc(r) fixes the
    printed scalar (see ``_saturate_over_lc``).
    """

    def __init__(self, omega: DiffForm, p: int, values: list[MultiPoly]):
        self.omega = omega
        self.p = p
        self.values = values
        self.f = next((val for val in values if val), None)
        self.r = None  # f = G r^p, set by ``eta``

    @cached_property
    def G(self) -> MultiPoly:
        """The monic gcd of the nonzero values omega(v^p)."""
        if self.f is None:
            raise PClosedError("foliation is p-closed; no degeneracy divisor")
        return gcd_list([val for val in self.values if val]).monic()

    @cached_property
    def eta(self) -> DiffForm:
        """C(G^(p-1) omega), once omega / G is checked to be closed and
        f / G to be a p-th power; the checks also guard values that a
        prime scan hands in.

        Taken by ``cartier_of_product``, which multiplies the last factor G
        only against the terms of G^(p-2) omega that land in the residue
        class the operator keeps, so G^(p-1) omega is never formed.
        """
        if self.f is None:
            raise PClosedError("foliation is p-closed; no closed defining form")
        stage = "foliation.PCurvature.eta"
        g, omega = self.G, self.omega
        # omega / G is closed exactly when G d(omega) = dG /\ omega
        dg = DiffForm(omega.chart, 0, {(): g}).d()
        if omega.d() * g != dg.wedge(omega):
            raise InternalError(stage, "omega / omega(v^p) failed to be closed")
        try:
            self.r = pth_root_poly(_quotient_by_gcd(self.f, g, stage))
        except ArithmeticError:
            raise InternalError(stage, "omega(v^p) / G is not a p-th power") from None
        return cartier_of_product(g, self.p - 1, omega)


def is_p_closed(fol: Foliation) -> bool:
    return fol.pcurvature.f is None


def degeneracy_divisor(fol: Foliation) -> Divisor:
    """The degeneracy divisor: gcd over tangent generators of omega(v^p).

    One path for both ambients: the divisor of G, the gcd of the values
    omega(v^p) over the Koszul fields.  On the cone this is also every
    standard chart's divisor.  On {x_j != 0}, away from codimension two,
    a chart tangent field is g v + h R with v a cone Koszul field and R
    the Euler field; p-curvature is p-linear, omega((g v)^p) =
    g^p omega(v^p) (Katz 1970), and R^p = R with omega(R) = 0, so the
    chart gcd is G up to a power of x_j, and ``Divisor.of_homogeneous``
    gives the divisor glued from the charts component by component.
    G is ``PCurvature.G``, which the Cartier transform reads as well.
    """
    g = fol.pcurvature.G
    if fol.projective:
        return Divisor.of_homogeneous(g, fol.chart)
    return Divisor.of_polynomial(g, fol.chart)


def _saturate_over_lc(fol: Foliation, form: DiffForm) -> DiffForm:
    """Saturate a form built from eta and scale it by 1/lc(r), where
    f = G r^p.

    The printed scalar is that of the same form built from C(f^(p-1)
    omega), saturated and scaled by 1/lc(f): clearing the form built from
    C(omega / f) by its monic least common denominator leaves that scalar.
    G is monic, so lc(f) = lc(r)^p, and saturating r^(p-1) times a form
    gives lc(r)^(p-1) times the saturated form; 1/lc(r) is what is left.
    """
    _, lc = fol.pcurvature.r.leading()
    return form.saturate() * fol.ring.inv(lc)


@dataclass
class KernelResult:
    """The p-curvature kernel distribution, cut out by a saturated 2-form."""

    two_form: DiffForm
    degree: int | None  # degree as a codimension-2 distribution (projective)


def p_kernel(fol: Foliation) -> KernelResult:
    """The codimension-two distribution annihilating the p-curvature.

    Computed as the saturation of omega /\\ eta, where eta = G C(omega / G)
    comes from the p-curvature record, scaled by 1/lc(r) as in
    ``cartier_transform_foliation``.
    """
    if fol.chart.nvars < 3:
        raise ValueError("the kernel distribution needs ambient dimension >= 3")
    theta = fol.form.wedge(fol.pcurvature.eta)
    if theta.is_zero:
        raise ArithmeticError("kernel 2-form vanishes identically")
    theta = _saturate_over_lc(fol, theta)
    degree = None
    if fol.projective:
        if theta.contract(euler_field(fol.chart)):
            raise InternalError("foliation.p_kernel", "kernel 2-form not radial-invariant")
        degree = theta.max_coeff_degree() - 1
    return KernelResult(theta, degree)


def cartier_transform_foliation(fol: Foliation) -> tuple[DiffForm, bool]:
    """The saturated Cartier transform of omega / f and its integrability flag.

    With f = G r^p, C(omega / f) = eta / (G r^(p-1)), so it is eta
    saturated, up to a scalar.  The result is scaled by 1/lc(r) (see
    ``_saturate_over_lc``): then it equals C(omega / f) cleared by its
    monic least common denominator and saturated, which fixes the scalar
    of the ``pfol cartier`` output.
    """
    eta = fol.pcurvature.eta
    if eta.is_zero:
        raise ArithmeticError("Cartier transform vanishes identically")
    eta = _saturate_over_lc(fol, eta)
    integrable = True
    if fol.chart.nvars >= 3:
        integrable = not eta.wedge(eta.d())
    return eta, integrable


def is_invariant_hypersurface(form: DiffForm, h: MultiPoly) -> bool:
    """Whether {h = 0} is invariant for the foliation or distribution cut
    out by a form: h divides every coefficient of dh /\\ form."""
    dh = DiffForm(form.chart, 0, {(): h}).d()
    return all(h.divides(c) for c in dh.wedge(form).terms.values())


# ---------------------------------------------------------------------------
# reports


@dataclass
class PCurvatureReport:
    p: int
    field: str
    ambient: str
    n: int
    p_closed: bool
    deg_F: int | None = None
    degeneracy: list = field(default_factory=list)
    deg_degeneracy: int | None = None
    deg_kernel: int | None = None
    predicted_deg_degeneracy: int | None = None
    cartier_integrable: bool | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


def predicted_degeneracy_degree(p: int, deg_f: int, deg_kernel: int) -> int:
    """Degree of the degeneracy divisor on P^n predicted by the canonical
    bundle bookkeeping: p*(deg F - deg Fdel - 1) + deg F + 2, where the
    kernel distribution of a foliated surface counts with degree zero and
    dimension one less."""
    return p * (deg_f - deg_kernel - 1) + deg_f + 2


def analyze(fol: Foliation) -> PCurvatureReport:
    """Full p-curvature report for a foliation."""
    closed = is_p_closed(fol)
    ambient = f"P^{fol.n}" if fol.projective else f"A^{fol.n}"
    report = PCurvatureReport(
        p=fol.p,
        field=fol.ring.descriptor(),
        ambient=ambient,
        n=fol.n,
        p_closed=closed,
        deg_F=fol.degree,
    )
    if closed:
        return report
    delta = degeneracy_divisor(fol)
    report.degeneracy = delta.to_json()
    report.deg_degeneracy = delta.degree()
    _, integrable = cartier_transform_foliation(fol)
    report.cartier_integrable = integrable
    if fol.projective:
        if fol.n >= 3:
            kernel = p_kernel(fol)
            report.deg_kernel = kernel.degree
        else:
            report.deg_kernel = 0
        report.predicted_deg_degeneracy = predicted_degeneracy_degree(
            fol.p, fol.degree, report.deg_kernel
        )
    return report
