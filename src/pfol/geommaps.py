"""Pullbacks of foliations, ramification divisors and differents.

A :class:`RationalMap` stores, for each coordinate of the target, its
expression in the coordinates of the source as a polynomial numerator over
one monic common denominator.  Affine maps may have a nonconstant
denominator; projective maps have homogeneous polynomial components of a
common degree, without a common factor, on the cone, and denominator 1.
A pullback is computed as one polynomial numerator (see
``exterior.pullback_form``), and the ramification divisor is the divisor
of one polynomial determinant, on the cone for a map of P^n and on the
chart for an affine map, so no chart is built and no Jacobian is a
rational function (see ``ramification_divisor``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exterior import Chart, DiffForm, cone_chart, pullback_form
from .foliation import (
    Divisor,
    Foliation,
    degeneracy_divisor,
    from_form,
    is_invariant_hypersurface,
    p_kernel,
)
from .mpoly import MultiPoly, gcd_list


@dataclass
class RationalMap:
    """A map x_i = comps[i] / den, with one polynomial numerator per target
    coordinate and one monic common denominator, all on the source chart."""

    source: Chart
    target: Chart
    comps: list
    den: MultiPoly | int = 1

    def __post_init__(self):
        self.comps = [self.source.coerce(c) for c in self.comps]
        self.den = self.source.coerce(self.den)
        if self.den.is_zero or self.den.leading()[1] != self.source.ring.one():
            raise ValueError("the common denominator must be monic")
        if len(self.comps) != self.target.nvars:
            raise ValueError("need one component per target coordinate")
        for c in [*self.comps, self.den]:
            if c.nvars != self.source.nvars or c.ring != self.source.ring:
                raise ValueError("components must live on the source chart")
        if self.is_projective:
            degs = set()
            for f in self.poly_comps():
                if f.is_zero:
                    continue
                if not f.is_homogeneous():
                    raise ValueError("projective maps need homogeneous components")
                degs.add(f.total_degree())
            if len(degs) != 1:
                raise ValueError("components must share a common degree")
            if not gcd_list(self.comps).is_constant:
                raise ValueError("components must have no common factor")

    @property
    def is_projective(self) -> bool:
        return self.source.kind == "cone" and self.target.kind == "cone"

    def poly_comps(self) -> list[MultiPoly]:
        if self.den != 1:
            raise ValueError("the map needs polynomial components")
        return self.comps

    def __repr__(self):
        comps = f"[{', '.join(map(repr, self.comps))}]"
        return comps if self.den == 1 else f"{comps} / ({self.den!r})"


def monomial_cover(ring, n: int, exponent: int) -> RationalMap:
    """The cover of P^n raising every homogeneous coordinate to a power."""
    cone = cone_chart(ring, n)
    return RationalMap(cone, cone, [v**exponent for v in cone.vars()])


def linear_hyperplane_embedding(target: Chart, coeffs) -> RationalMap:
    """The inclusion of the hyperplane sum c_i x_i = 0 into P^n, whose
    homogeneous coordinates are those of the cone chart ``target``.

    Parametrized by solving for the last coordinate with a nonzero
    coefficient; the source is P^(n-1) with the remaining coordinates.
    """
    ring, n = target.ring, target.nvars - 1
    coeffs = [ring.coerce(c) for c in coeffs]
    if len(coeffs) != n + 1:
        raise ValueError("need one coefficient per homogeneous coordinate")
    pivot = max(i for i, c in enumerate(coeffs) if c)
    source = cone_chart(ring, n - 1, tuple(f"y{i}" for i in range(n)))
    comps = []
    pos = 0
    params = source.vars()
    solved = MultiPoly.zero(ring, n)
    inv = ring.inv(coeffs[pivot])
    for i in range(n + 1):
        if i == pivot:
            continue
        if coeffs[i]:
            solved = solved - params[pos].scale(coeffs[i] * inv)
        pos += 1
    pos = 0
    for i in range(n + 1):
        if i == pivot:
            comps.append(solved)
        else:
            comps.append(params[pos])
            pos += 1
    return RationalMap(source, target, comps)


def pullback(phi: RationalMap, form: DiffForm) -> DiffForm:
    """Pull a form on the target back to the source: phi^*(form) for a
    polynomial map, its numerator den^N * phi^*(form) otherwise (see
    ``exterior.pullback_form``)."""
    if form.chart != phi.target:
        raise ValueError("form does not live on the target of the map")
    return pullback_form(form, phi.comps, phi.source, phi.den)


def pullback_foliation(phi: RationalMap, fol: Foliation) -> Foliation:
    """phi^* of a foliation: the saturated numerator of the pulled-back form."""
    pb = pullback(phi, fol.form)
    if pb.is_zero:
        raise ValueError("pullback form vanishes; map not generically transverse")
    return from_form(pb, projective=phi.is_projective, auto_saturate=True)


def pullback_divisor(phi: RationalMap, div: Divisor) -> Divisor:
    """phi^* of a divisor, for maps with polynomial components."""
    comps = phi.poly_comps()
    items = []
    for f, m in div.normalize():
        g = f.subs(comps)
        if g.is_zero:
            raise ValueError("a component pulls back to zero (image inside it)")
        items.append((g.monic() if g.ring.is_field else g, m))
    return Divisor(phi.source.ring, phi.source.nvars, items, div.ambient)


def _det(rows: list[list[MultiPoly]]) -> MultiPoly:
    """The determinant, by Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = MultiPoly.zero(rows[0][0].ring, rows[0][0].nvars)
    for j, entry in enumerate(rows[0]):
        if entry:
            term = entry * _det([r[:j] + r[j + 1:] for r in rows[1:]])
            acc = acc - term if j % 2 else acc + term
    return acc


def ramification_divisor(phi: RationalMap) -> Divisor:
    """The ramification divisor R of a generically finite separable map
    between spaces of equal dimension n, as the divisor of one polynomial
    determinant.

    Projective maps: for components F = (F_0, ..., F_n) of degree d without
    a common factor, let M_j be the matrix [F | d_0 F | ... | d_n F] without
    the column d_j F, and H = det M_0 / x_0, a form of degree (n+1)(d-1).
    x_0 divides det M_0 by Euler's relation sum_j x_j d_j F = d F: if p does
    not divide d, x_0 det(d_j F_i) = d det M_0; if p | d, the Euler sum is 0
    and x_1 det M_0 = -x_0 det M_1.  Where x_0 != 0 and F_t != 0, the
    Jacobian of the chart map (F_k / F_t)_{k != t} is +-det M_0 / F_t^(n+1)
    at x_0 = 1, so R is div(H) on that chart, and by symmetry on every
    chart.  A coordinate hyperplane x_j | H is a component of its own, as
    the charts glue it.

    Affine maps (N_1 / b, ..., N_n / b) with b the common denominator:
    the same matrix with rows b, N_1, ..., N_n has determinant
    D = +-b^(n+1) det(d_j (N_i / b)), so R = div(D) - (n+1) div(b).  For a
    polynomial map b = 1 and D is the Jacobian determinant.
    """
    source = phi.source
    if source.nvars != phi.target.nvars:
        raise ValueError("ramification needs an equal-dimensional map")
    if phi.is_projective:
        forms, cols = phi.poly_comps(), range(1, source.nvars)
    else:
        forms, cols = [phi.den, *phi.comps], range(source.nvars)
    det = _det([[f] + [f.deriv(j) for j in cols] for f in forms])
    if not det:
        raise ValueError("Jacobian vanishes identically (inseparable or degenerate)")
    if phi.is_projective:
        return Divisor.of_homogeneous(det.exact_div(source.var(0)))
    ram = Divisor.of_polynomial(det)
    if not phi.den.is_constant:
        ram = ram - (source.nvars + 1) * Divisor.of_polynomial(phi.den)
    return ram


# ---------------------------------------------------------------------------
# restriction to subvarieties


def restrict_form(embedding: RationalMap, form: DiffForm):
    """Pull a form back along a polynomial embedding and split off its
    content: returns (saturated restricted form, different divisor)."""
    # the different is the content of phi^*(form) itself: no denominator
    embedding.poly_comps()
    restricted = pullback(embedding, form)
    if restricted.is_zero:
        raise ValueError("the subvariety is invariant; restriction vanishes")
    cont = restricted.content()
    ambient = "proj" if embedding.source.kind == "cone" else "affine"
    return restricted.saturate(), Divisor.of_polynomial(cont, ambient)


def restrict_foliation(fol: Foliation, embedding: RationalMap):
    """Restrict a foliation to a non-invariant subvariety.

    Returns (restricted foliation, different divisor): the different is the
    divisor of the content of the pulled-back form.
    """
    if fol.form.chart != embedding.target:
        raise ValueError("embedding does not land in the foliated space")
    restricted, different = restrict_form(embedding, fol.form)
    projective = embedding.source.kind == "cone"
    sub = from_form(
        restricted,
        projective=projective,
        auto_saturate=True,
        check_integrable=embedding.source.nvars >= 3,
    )
    return sub, different


# ---------------------------------------------------------------------------
# behavior of the degeneracy divisor under pullback


def verify_pullback_degeneracy(phi: RationalMap, fol: Foliation) -> dict:
    """Compare the degeneracy divisor of phi^* fol with the prediction
    from the ramification of phi.

    The correction over each ramification component H with coefficient r is
    -r*H when H is invariant for the pullback foliation, else +p*r*H when H
    is invariant for its p-curvature kernel distribution, -p*r*H extra when
    it is not (the two generic contributions cancelling to zero).
    """
    # phi^* of a divisor needs polynomial components: refuse a denominator
    # before anything is pulled back
    phi.poly_comps()
    pb = pullback_foliation(phi, fol)
    delta_g = degeneracy_divisor(fol)
    delta_f = degeneracy_divisor(pb)
    phi_delta_g = pullback_divisor(phi, delta_g)
    ram = ramification_divisor(phi)
    p = fol.p
    chart = pb.form.chart
    theta = None
    if chart.nvars >= 3:
        theta = p_kernel(pb).two_form
    ambient = "proj" if phi.is_projective else "affine"
    correction = Divisor.zero(chart.ring, chart.nvars, ambient)
    components = []
    for h, r in ram.normalize():
        f_inv = is_invariant_hypersurface(pb.form, h)
        k_inv = (
            is_invariant_hypersurface(theta, h) if theta is not None else None
        )
        term = Divisor._normalized(chart.ring, chart.nvars, [(h, r)], ambient)
        if f_inv:
            correction = correction - term
            if k_inv is False:
                correction = correction - p * term
        else:
            if k_inv:
                correction = correction + p * term
            # neither invariant: +p*r - p*r = 0
        components.append(
            {"component": h, "ram_mult": r, "f_invariant": f_inv,
             "kernel_invariant": k_inv}
        )
    predicted = phi_delta_g + correction
    return {
        "pullback": pb,
        "delta_pullback": delta_f,
        "pullback_of_delta": phi_delta_g,
        "ramification": ram,
        "ram_components": components,
        "predicted": predicted,
        "matches": delta_f == predicted,
    }
