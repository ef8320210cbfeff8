"""Codimension-one foliations and their p-curvature invariants.

A foliation is stored by a saturated integrable polynomial 1-form.  Affine
foliations live on an affine chart; projective ones are stored by a
homogeneous form on the cone (homogeneous coordinates x_0..x_n) that is
annihilated by the radial field.  Every invariant is read from one set of
p-curvature values omega(v^p) over the Koszul fields of that form.  The
degeneracy divisor is their gcd, on the cone as on an affine chart: by
p-linearity and the Euler field, the cone gcd serves every standard chart
(see ``degeneracy_divisor``), so no chart is built.  A projective divisor is
read off one form on the cone by ``Divisor.of_homogeneous``, which splits
off the coordinate hyperplanes as the charts would glue them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import json

from . import InternalError
from .cartier import cartier_transform
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
    gcd_list,
    gcd_multi,
    poly_str,
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
                rest = f.exact_div(d)
                insert(rest)
                return
            basis[i] = d
            basis.append(g.exact_div(d))
            insert(f.exact_div(d))
            return
        basis.append(f)

    for f in polys:
        insert(f)
    basis.sort(key=lambda g: (g.total_degree(), poly_str(g)))
    return basis


class Divisor:
    """A formal Z-linear combination of hypersurfaces, given by polynomials.

    ``ambient`` is "affine" or "proj"; components of projective divisors are
    homogeneous polynomials in the homogeneous coordinates.
    """

    def __init__(self, ring, nvars: int, items, ambient: str = "affine"):
        self.ring = ring
        self.nvars = nvars
        self.ambient = ambient
        self.items = [(f, int(m)) for f, m in items if m != 0 and not f.is_constant]
        self._normal = None
        self._squarefree = False  # items known monic and squarefree

    @classmethod
    def zero(cls, ring, nvars, ambient="affine") -> "Divisor":
        return cls._normalized(ring, nvars, [], ambient)

    @classmethod
    def _normalized(cls, ring, nvars: int, items, ambient: str) -> "Divisor":
        """A divisor whose components are already pairwise coprime, monic
        and squarefree; they are kept as its normal form."""
        div = cls(ring, nvars, items, ambient)
        div._normal = sorted(
            div.items, key=lambda fm: (fm[0].total_degree(), poly_str(fm[0]))
        )
        return div

    @classmethod
    def of_polynomial(cls, f: MultiPoly, ambient="affine") -> "Divisor":
        """The divisor of zeros of f, with multiplicities (zero for a unit)."""
        if f.is_zero:
            raise ValueError("divisor of the zero polynomial")
        return cls._normalized(f.ring, f.nvars, squarefree_decomposition(f), ambient)

    @classmethod
    def of_homogeneous(cls, f: MultiPoly) -> "Divisor":
        """The divisor of zeros of a nonzero form f on P^n, as the standard
        charts {x_j != 0} glue it.  A coordinate hyperplane x_j is seen only
        from the other charts, so it is split off the squarefree parts of f
        as a component of its own."""
        if f.is_zero:
            raise ValueError("divisor of the zero polynomial")
        coords = [MultiPoly.var(f.ring, f.nvars, j) for j in range(f.nvars)]
        items = []
        for comp, m in squarefree_decomposition(f):
            for x_j in coords:
                if x_j.divides(comp):
                    items.append((x_j, m))
                    comp = comp.exact_div(x_j)
            items.append((comp, m))
        return cls._normalized(f.ring, f.nvars, items, "proj")

    def _check(self, other: "Divisor"):
        if (other.ring, other.nvars, other.ambient) != (
            self.ring,
            self.nvars,
            self.ambient,
        ):
            raise ValueError("divisors on different ambient spaces")

    def _parts(self):
        """(items, whether they are known monic and squarefree), read off
        the normal form when there is one."""
        if self._normal is not None:
            return self._normal, True
        return self.items, self._squarefree

    def _with(self, items, squarefree: bool) -> "Divisor":
        div = Divisor(self.ring, self.nvars, items, self.ambient)
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
            return Divisor._normalized(
                self.ring, self.nvars, [(f, k * m) for f, m in self._normal], self.ambient
            )
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
        return (self - other).is_zero()

    def to_json(self, names=None) -> list[dict]:
        return [
            {
                "component": poly_str(f, names),
                "multiplicity": m,
                "degree": f.total_degree(),
            }
            for f, m in self.normalize()
        ]

    def __repr__(self):
        parts = [f"{m}*({poly_str(f)})" for f, m in self.normalize()]
        return " + ".join(parts) if parts else "0"


def divisor_difference_of_closed_form(
    num: DiffForm, den: MultiPoly, ambient="affine"
) -> Divisor:
    """(form)_infty - (form)_0 for the rational form num / den: the divisor
    of den minus the divisor of the content of num.  A common factor of den
    and the content cancels in the difference."""
    cont = num.content()
    return Divisor.of_polynomial(den, ambient) - Divisor.of_polynomial(cont, ambient)


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
    """A codimension-one foliation given by a saturated polynomial 1-form."""

    def __init__(self, form: DiffForm, projective: bool, degree: int | None):
        self.form = form
        self.projective = projective
        self.degree = degree

    @property
    def chart(self) -> Chart:
        return self.form.chart

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
        return PCurvature(self)

    def __repr__(self):
        kind = f"P^{self.n}" if self.projective else f"A^{self.n}"
        return f"Foliation on {kind} by {self.form!r}"


def from_form(
    form: DiffForm,
    projective: bool = False,
    auto_saturate: bool = False,
    check_integrable: bool = True,
) -> Foliation:
    """Validate a defining 1-form and wrap it as a foliation."""
    if form.q != 1:
        raise ValidationError("a defining form must be a 1-form")
    if form.is_zero:
        raise ValidationError("the zero form defines no foliation")
    if not form.content().is_constant:
        if auto_saturate:
            form = form.saturate()
        else:
            raise ValidationError("form is not saturated (divide by its content)")
    chart = form.chart
    degree = None
    if projective:
        if chart.kind != "cone":
            raise ValidationError("projective forms live in homogeneous coordinates")
        d = form.max_coeff_degree()
        if not form.is_homogeneous_of(d):
            raise ValidationError("coefficients must be homogeneous of equal degree")
        if form.pair(euler_field(chart)):
            raise ValidationError("form is not annihilated by the radial field")
        degree = d - 1
    if check_integrable and chart.nvars >= 3:
        if form.wedge(form.d()):
            raise ValidationError("form is not integrable")
    return Foliation(form, projective, degree)


def projectivize(form: DiffForm) -> Foliation:
    """Homogenize an affine 1-form into a projective foliation.

    The affine chart is taken to be the standard chart {x_0 != 0}; the
    missing coefficient is recovered from the radial relation and the
    result is saturated (dropping a spurious power of x_0 when the top
    graded piece of the affine form is radial)."""
    if form.q != 1:
        raise ValidationError("projectivization needs a 1-form")
    n = form.chart.nvars
    ring = form.chart.ring
    cone = cone_chart(ring, n)
    m = form.max_coeff_degree()
    coeffs_h: dict[int, MultiPoly] = {}
    for (i,), c in form.terms.items():
        coeffs_h[i + 1] = c.homogenize(0, m + 1)
    acc = MultiPoly.zero(ring, n + 1)
    for glob, a in coeffs_h.items():
        acc = acc + MultiPoly.var(ring, n + 1, glob) * a
    coeffs_h[0] = -acc.exact_div(MultiPoly.var(ring, n + 1, 0))
    hom = DiffForm(cone, 1, {(g,): c for g, c in coeffs_h.items()})
    return from_form(hom, projective=True, auto_saturate=True)


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
    return from_form(form, projective=projective, auto_saturate=True)


# ---------------------------------------------------------------------------
# p-curvature and the degeneracy divisor


def p_curvature(fol: Foliation, v: VectorField) -> MultiPoly:
    """psi(v) = omega(v^p): the obstruction to v^p staying tangent."""
    if fol.p == 0:
        raise ArithmeticError("p-curvature needs positive characteristic")
    return fol.form.pair(v.pth_power())


def _koszul_pcurvatures(form: DiffForm):
    """Yield the polynomial omega(v^p) for each Koszul field v of the
    polynomial form omega, in the order of ``koszul_fields``."""
    for v in koszul_fields(form):
        yield form.pair(v.pth_power())


class PCurvature:
    """The p-curvature data every invariant of a foliation is read from.

    ``f`` is omega(v^p) for the first Koszul field v where it does not
    vanish, or None when the foliation is p-closed.  The values omega(v^p)
    are polynomials, formed from the polynomial p-th powers v^p; the
    construction stops at f, and ``values`` computes the remaining ones
    once, for the degeneracy divisor.  For a projective foliation these
    are the values on the cone, and their gcd is the degeneracy divisor on
    every standard chart as well (see ``degeneracy_divisor``).
    ``eta`` is C(f^(p-1) omega) =
    f C(omega / f): the Cartier transform of the closed defining form
    omega / f, cleared of its denominator by C(g^p a) = g C(a).
    Read it through ``Foliation.pcurvature``, which builds it once.
    """

    def __init__(self, fol: Foliation):
        self.omega = fol.form
        self.p = fol.p
        self.f = None
        self._computed = []
        self._rest = _koszul_pcurvatures(fol.form)
        for val in self._rest:
            self._computed.append(val)
            if val:
                self.f = val
                break

    @cached_property
    def values(self) -> list[MultiPoly]:
        """omega(v^p) for every Koszul field v, in order."""
        self._computed.extend(self._rest)
        return self._computed

    @cached_property
    def eta(self) -> DiffForm:
        f, omega = self.f, self.omega
        if f is None:
            raise PClosedError("foliation is p-closed; no closed defining form")
        # omega / f is closed exactly when f d(omega) = df /\ omega
        df = DiffForm(omega.chart, 0, {(): f}).d()
        if omega.d() * f != df.wedge(omega):
            raise InternalError(
                "foliation.PCurvature.eta", "omega / omega(v^p) failed to be closed"
            )
        return cartier_transform(omega * f ** (self.p - 1), check_closed=False)


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
    """
    vals = [val for val in fol.pcurvature.values if val]
    if not vals:
        raise PClosedError("foliation is p-closed; no degeneracy divisor")
    g = gcd_list(vals).monic()
    if fol.projective:
        return Divisor.of_homogeneous(g)
    return Divisor.of_polynomial(g, "affine")


def closed_defining_form(fol: Foliation) -> tuple[DiffForm, MultiPoly]:
    """The pair (omega, f) with f = omega(v^p) != 0 for a tangent generator v.

    omega / f is a closed rational form defining the same foliation; its
    polar and zero divisors recover the degeneracy divisor modulo p.
    """
    f = fol.pcurvature.f
    if f is None:
        raise PClosedError("foliation is p-closed; no closed defining form")
    return fol.form, f


def _saturate_over_lc(fol: Foliation, form: DiffForm) -> DiffForm:
    """Saturate a form built from eta and scale it by 1/lc(f), the leading
    coefficient of f: the scalar that clearing the same form built from
    eta / f by its monic least common denominator leaves."""
    _, lc = fol.pcurvature.f.leading()
    return form.saturate() * fol.ring.inv(lc)


@dataclass
class KernelResult:
    """The p-curvature kernel distribution, cut out by a saturated 2-form."""

    two_form: DiffForm
    degree: int | None  # degree as a codimension-2 distribution (projective)


def p_kernel(fol: Foliation) -> KernelResult:
    """The codimension-two distribution annihilating the p-curvature.

    Computed as the saturation of omega /\\ eta, where eta = f C(omega / f)
    comes from the p-curvature record, scaled by 1/lc(f) as in
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

    C(omega / f) = eta / f, so it is eta saturated, up to a scalar.  The
    result is scaled by 1/lc(f), the inverse leading coefficient of f: then
    it equals C(omega / f) cleared by its monic least common denominator
    and saturated, which fixes the scalar of the ``pfol cartier`` output.
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


def analyze(fol: Foliation, names=None) -> PCurvatureReport:
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
    report.degeneracy = delta.to_json(names)
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
