"""Integral models: foliations with Z or Z[a]/(f) coefficients, reduction
modulo primes, prime scans, the Kronecker rationality probe and the integer
integrability defect.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, asdict

from .exterior import Chart, DiffForm, affine_chart, cone_chart
from .foliation import (
    Foliation,
    ValidationError,
    cartier_transform_foliation,
    degeneracy_divisor,
    from_form,
    is_p_closed,
)
from .mpoly import MultiPoly
from .rings import (
    GF,
    NRElem,
    NumberRing,
    ZZ,
    factor_mod_p,
    format_up,
    primes_upto,
    up_gcd,
    up_pow_mod,
    up_sub,
    up_trim,
)


class BadReductionError(ArithmeticError):
    pass


@dataclass
class IntegralModel:
    """A foliation form with integer or number-ring coefficients."""

    form: DiffForm
    projective: bool = False
    name: str = ""

    def __post_init__(self):
        ring = self.form.chart.ring
        if not isinstance(ring, (NumberRing, type(ZZ))):
            raise ValidationError("integral models need Z or Z[a]/(f) coefficients")

    @property
    def ring(self):
        return self.form.chart.ring

    @property
    def minpoly(self) -> list[int] | None:
        if isinstance(self.ring, NumberRing):
            return self.ring.full_minpoly
        return None


def reduction_field(model: IntegralModel, p: int, g=None):
    """The residue field for the factor choice g, with a coefficient embedding."""
    ring = model.ring
    if isinstance(ring, NumberRing):
        if g is None:
            raise ValueError("a factor of the minimal polynomial mod p is required")
        g = up_trim([c % p for c in list(g)])
        k = len(g) - 1
        field = GF(p, k, g if k > 1 else None)
        if k == 1:
            t = field.coerce(-g[0])
        else:
            t = field.generator()

        def embed(c: NRElem):
            acc = field.zero()
            power = field.one()
            for coef in c.coeffs:
                acc = acc + field.coerce(coef) * power
                power = power * t
            return acc

        return field, embed
    field = GF(p, 1)
    return field, field.coerce


def reduce_model(model: IntegralModel, p: int, g=None) -> Foliation:
    """Reduce an integral model modulo a prime (and a factor choice for
    number-ring coefficients).  Bad primes raise BadReductionError."""
    field, embed = reduction_field(model, p, g)
    src = model.form
    n = src.chart.nvars
    if model.projective:
        chart = cone_chart(field, n - 1, src.chart.names)
    else:
        chart = Chart(field, src.chart.names)
    terms = {}
    for idx, c in src.terms.items():
        reduced = MultiPoly(
            field, n, {e: embed(v) for e, v in c.terms.items()}
        )
        if reduced:
            terms[idx] = reduced
    form = DiffForm(chart, 1, terms)
    if form.is_zero:
        raise BadReductionError(f"form vanishes modulo {p}")
    if not form.content().is_constant:
        raise BadReductionError(f"saturation lost modulo {p}")
    try:
        return from_form(form, projective=model.projective)
    except ValidationError as exc:
        raise BadReductionError(f"validation lost modulo {p}: {exc}") from exc


@dataclass
class ScanRow:
    p: int
    factor: str
    k: int
    p_closed: bool | None
    deg_degeneracy: int | None
    squarefree: bool | None
    cartier_integrable: bool | None
    note: str = ""


def prime_scan(model: IntegralModel, pmax: int) -> list[ScanRow]:
    """One row per (prime <= pmax, irreducible factor of the minimal
    polynomial mod p); bad primes are flagged in the note column."""
    rows: list[ScanRow] = []
    minpoly = model.minpoly
    for p in primes_upto(pmax):
        if minpoly is None:
            choices = [(None, 1)]
        else:
            try:
                choices = factor_mod_p(minpoly, p)
            except ValueError as exc:
                rows.append(ScanRow(p, "", 0, None, None, None, None, str(exc)))
                continue
        for g, _mult in choices:
            factor_str = format_up(g, "t") if g is not None else ""
            k = len(g) - 1 if g is not None else 1
            try:
                fol = reduce_model(model, p, g)
            except BadReductionError as exc:
                rows.append(
                    ScanRow(p, factor_str, k, None, None, None, None, str(exc))
                )
                continue
            closed = is_p_closed(fol)
            if closed:
                rows.append(ScanRow(p, factor_str, k, True, None, None, None))
                continue
            delta = degeneracy_divisor(fol)
            squarefree = all(m == 1 for _, m in delta.normalize())
            _, integrable = cartier_transform_foliation(fol)
            rows.append(
                ScanRow(p, factor_str, k, False, delta.degree(), squarefree, integrable)
            )
    return rows


CSV_HEADER = ["p", "factor", "k", "p_closed", "deg_degeneracy",
              "squarefree", "cartier_integrable"]


def scan_to_csv(rows: list[ScanRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        if r.note:
            writer.writerow([r.p, r.factor, r.k, f"bad:{r.note}", "", "", ""])
        else:
            writer.writerow(
                [r.p, r.factor, r.k, r.p_closed,
                 "" if r.deg_degeneracy is None else r.deg_degeneracy,
                 "" if r.squarefree is None else r.squarefree,
                 "" if r.cartier_integrable is None else r.cartier_integrable]
            )
    return buf.getvalue()


def scan_to_json(rows: list[ScanRow]) -> str:
    return json.dumps([asdict(r) for r in rows], indent=2)


def kronecker_probe(minpoly, pmax: int) -> dict:
    """Fraction of good primes <= pmax where the minimal polynomial has a
    root; density one characterizes (the reduction behavior of) a rational."""
    minpoly = list(minpoly)
    if len(up_trim(list(minpoly))) < 2:
        raise ValueError("minimal polynomial must be nonconstant")
    good = 0
    with_root = 0
    for p in primes_upto(pmax):
        f = up_trim([c % p for c in minpoly])
        if len(f) < 2:
            continue  # degree drop: bad prime
        good += 1
        xp = up_pow_mod([0, 1], p, f, p)
        diff = up_sub(xp, [0, 1], p)
        if len(up_gcd(diff, f, p)) > 1:
            with_root += 1
    if not good:
        raise ValueError("no good prime up to pmax")
    return {
        "pmax": pmax,
        "good_primes": good,
        "primes_with_root": with_root,
        "density": with_root / good,
        "verdict": "rational-like" if with_root == good else "irrational-like",
    }


# ---------------------------------------------------------------------------
# the integer integrability defect


def integrability_defect_integer(form: DiffForm) -> DiffForm:
    """omega /\\ d(omega) computed exactly over Z (a 3-form)."""
    ring = form.chart.ring
    if ring.characteristic != 0 or ring.is_field:
        raise ValueError("the integer defect is computed over Z")
    if form.q != 1 or form.chart.nvars != 3:
        raise ValueError("expected a polynomial 1-form in three variables")
    return form.wedge(form.d())


def classify_integer_defect(defect: DiffForm, p: int) -> dict:
    """Whether the defect is +-p * m * (monomial 3-form); reports p-content."""
    if defect.is_zero:
        return {"zero": True}
    coeff = defect.coeff((0, 1, 2))
    import math

    content = 0
    for c in coeff.terms.values():
        content = math.gcd(content, abs(c))
    p_content = 0
    m = content
    while m % p == 0:
        m //= p
        p_content += 1
    return {
        "zero": False,
        "monomial": len(coeff.terms) == 1,
        "content": content,
        "p_content": p_content,
        "coefficient": coeff,
    }


def frobenius_power_form(p: int) -> DiffForm:
    """x^(p-1) dx + z^p y^(p-1) dy over Z in three variables."""
    chart = affine_chart(ZZ, 3)
    x, y, z = chart.vars()
    return DiffForm(chart, 1, {(0,): x ** (p - 1), (1,): z**p * y ** (p - 1)})
