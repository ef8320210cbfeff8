"""Command line interface.

Subcommands operate on plain-text documents (see :mod:`pfol.parsing` for the
format) read from a file argument or standard input (``-``)::

    pfol analyze examples.txt
    pfol degeneracy --json examples.txt
    pfol scan --pmax 50 model.txt
    pfol distmin2 --seed 1 quadrics.txt

All output is deterministic: the same invocation produces byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import InternalError, distmin, models
from .foliation import (
    Divisor,
    Foliation,
    PClosedError,
    analyze,
    cartier_transform_foliation,
    degeneracy_divisor,
    from_form,
    p_kernel,
)
from .geommaps import (
    RationalMap,
    linear_hyperplane_embedding,
    pullback_divisor,
    restrict_form,
    restrict_foliation,
    verify_pullback_degeneracy,
)
from .mpoly import poly_str
from .parsing import Document, ParseError, parse_document, print_form
from .rings import NumberRing, ZZ, parse_up


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load(args) -> Document:
    return parse_document(_read_text(args.doc), field_override=args.field)


def _foliation(doc: Document) -> Foliation:
    return from_form(doc.the_form(), projective=doc.projective, auto_saturate=True)


def _divisor_lines(div: Divisor, names) -> list[str]:
    lines = []
    for f, m in div.normalize():
        lines.append(f"  ({poly_str(f, names)}) : {m}")
    if not lines:
        lines.append("  (none)")
    return lines


def _emit(payload: dict, args, human: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print("\n".join(human))


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    doc = _load(args)
    fol = _foliation(doc)
    report = analyze(fol, doc.chart.names)
    if args.json:
        print(report.to_json())
        return 0
    lines = [
        f"field: {report.field}",
        f"ambient: {report.ambient}",
        f"deg F: {report.deg_F}",
        f"p-closed: {report.p_closed}",
    ]
    if not report.p_closed:
        lines.append("degeneracy divisor:")
        for item in report.degeneracy:
            lines.append(f"  ({item['component']}) : {item['multiplicity']}")
        lines.append(f"deg degeneracy: {report.deg_degeneracy}")
        if report.deg_kernel is not None:
            lines.append(f"deg kernel: {report.deg_kernel}")
            lines.append(
                f"predicted deg degeneracy: {report.predicted_deg_degeneracy}"
            )
        lines.append(f"cartier integrable: {report.cartier_integrable}")
    print("\n".join(lines))
    return 0


def cmd_cartier(args) -> int:
    doc = _load(args)
    fol = _foliation(doc)
    try:
        eta, integrable = cartier_transform_foliation(fol)
    except PClosedError:
        _emit({"p_closed": True}, args, ["p-closed: true"])
        return 0
    payload = {
        "p_closed": False,
        "cartier_transform": print_form(eta),
        "integrable": integrable,
    }
    _emit(payload, args, [
        f"cartier transform: {print_form(eta)}",
        f"integrable: {integrable}",
    ])
    return 0


def cmd_degeneracy(args) -> int:
    doc = _load(args)
    fol = _foliation(doc)
    names = doc.chart.names
    try:
        delta = degeneracy_divisor(fol)
    except PClosedError:
        _emit({"p_closed": True}, args, ["p-closed: true"])
        return 0
    payload = {
        "p_closed": False,
        "degeneracy": delta.to_json(names),
        "degree": delta.degree(),
    }
    _emit(payload, args, [
        "degeneracy divisor:",
        *_divisor_lines(delta, names),
        f"degree: {delta.degree()}",
    ])
    return 0


def cmd_pullback(args) -> int:
    doc = _load(args)
    fol = _foliation(doc)
    comps, den = doc.the_map()
    phi = RationalMap(doc.chart, doc.chart, comps, den)
    result = verify_pullback_degeneracy(phi, fol)
    names = doc.chart.names
    payload = {
        "degeneracy_of_pullback": result["delta_pullback"].to_json(names),
        "pullback_of_degeneracy": result["pullback_of_delta"].to_json(names),
        "ramification": result["ramification"].to_json(names),
        "components": [
            {
                "component": poly_str(c["component"], names),
                "ram_mult": c["ram_mult"],
                "f_invariant": c["f_invariant"],
                "kernel_invariant": c["kernel_invariant"],
            }
            for c in result["ram_components"]
        ],
        "predicted": result["predicted"].to_json(names),
        "matches": result["matches"],
    }
    human = [
        "degeneracy of pullback:",
        *_divisor_lines(result["delta_pullback"], names),
        "predicted from ramification:",
        *_divisor_lines(result["predicted"], names),
        f"matches: {result['matches']}",
    ]
    _emit(payload, args, human)
    return 0 if result["matches"] else 1


def cmd_restrict(args) -> int:
    doc = _load(args)
    if not doc.projective:
        raise ParseError("restriction requires a projective document")
    fol = _foliation(doc)
    h = doc.the_hyperplane()
    n = doc.n
    coeffs = []
    for i in range(n + 1):
        e = tuple(1 if j == i else 0 for j in range(n + 1))
        coeffs.append(h.terms.get(e, doc.ring.coerce(0)))
    if h.terms.get(tuple([0] * (n + 1))):
        raise ParseError("hyperplane must be homogeneous linear")
    embedding = linear_hyperplane_embedding(doc.chart, coeffs)
    sub, different = restrict_foliation(fol, embedding)
    sub_names = embedding.source.names
    names = doc.chart.names
    payload = {
        "restricted_form": print_form(sub.form),
        "different": different.to_json(sub_names),
    }
    human = [
        f"restricted form: {print_form(sub.form)}",
        "different:",
        *_divisor_lines(different, sub_names),
    ]
    ok = True
    try:
        delta_f = degeneracy_divisor(fol)
        delta_sub = degeneracy_divisor(sub)
    except PClosedError:
        delta_f = delta_sub = None
    if delta_f is not None and delta_sub is not None and fol.n >= 3:
        theta = p_kernel(fol).two_form
        _, diff_k = restrict_form(embedding, theta)
        restricted_delta = pullback_divisor(embedding, delta_f)
        predicted = (
            restricted_delta + fol.p * (diff_k - different) - different
        )
        ok = delta_sub == predicted
        payload["degeneracy_of_restriction"] = delta_sub.to_json(sub_names)
        payload["predicted"] = predicted.to_json(sub_names)
        payload["matches"] = ok
        human += [
            "degeneracy of restriction:",
            *_divisor_lines(delta_sub, sub_names),
            "predicted from the different:",
            *_divisor_lines(predicted, sub_names),
            f"matches: {ok}",
        ]
    _emit(payload, args, human)
    return 0 if ok else 1


def cmd_scan(args) -> int:
    out = []
    if args.minpoly:
        probe = models.kronecker_probe(parse_up(args.minpoly, "a"), args.pmax)
        out.append(json.dumps(probe, indent=2))
    if args.doc:
        text = _read_text(args.doc)
        doc = parse_document(text, field_override=args.field)
        if not isinstance(doc.ring, (NumberRing, type(ZZ))):
            raise ParseError("scans need a model over Z or NR:<minpoly>")
        form = doc.the_form()
        model = models.IntegralModel(form, projective=doc.projective)
        rows = models.prime_scan(model, args.pmax)
        if args.json:
            out.append(models.scan_to_json(rows))
        else:
            out.append(models.scan_to_csv(rows).rstrip("\n"))
    if not out:
        raise ParseError("scan needs a model document or --minpoly")
    print("\n".join(out))
    return 0


def cmd_distmin2(args) -> int:
    doc = _load(args)
    fol = _foliation(doc)
    result = distmin.distmin2(fol, delta_max=args.delta_max, seed=args.seed)
    payload = {
        "delta": result.delta,
        "witness": None if result.witness is None else print_form(result.witness),
        "integrable": result.integrable,
        "dimensions": result.dimensions,
        "candidates_checked": result.candidates_checked,
    }
    human = [
        f"minimal delta: {result.delta}",
        f"witness: {payload['witness']}",
        f"integrable: {result.integrable}",
        f"solution dimensions by delta: {result.dimensions}",
    ]
    _emit(payload, args, human)
    return 0 if result.delta is not None else 1


def cmd_defect(args) -> int:
    doc = _load(args)
    form = doc.the_form()
    defect = models.integrability_defect_integer(form)
    cls = models.classify_integer_defect(defect, args.p)
    payload = {"defect": print_form(defect), "p": args.p}
    human = [f"defect: {print_form(defect)}"]
    for key in ("zero", "monomial", "content", "p_content"):
        if key in cls:
            payload[key] = cls[key]
            human.append(f"{key}: {cls[key]}")
    if "coefficient" in cls:
        payload["coefficient"] = poly_str(cls["coefficient"], doc.chart.names)
    _emit(payload, args, human)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", help="override the field line of the document")
    common.add_argument("--json", action="store_true", help="emit JSON")

    parser = argparse.ArgumentParser(
        prog="pfol",
        description="Exact p-curvature computations for codimension-one "
        "foliations in positive characteristic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("doc", help="input document (- for stdin)")
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, "full p-curvature report for a foliation")
    add("cartier", cmd_cartier, "Cartier transform of the closed defining form")
    add("degeneracy", cmd_degeneracy, "degeneracy divisor of the p-curvature")
    add("pullback", cmd_pullback,
        "compare the degeneracy of a pullback with the ramification prediction")
    add("restrict", cmd_restrict,
        "restrict a projective foliation to a hyperplane")
    p_scan = sub.add_parser("scan", parents=[common],
                            help="reduce an integral model at all primes up to a bound")
    p_scan.add_argument("doc", nargs="?", help="model document (- for stdin)")
    p_scan.add_argument("--pmax", type=int, required=True,
                        help="scan primes up to this bound")
    p_scan.add_argument("--minpoly",
                        help="probe this minimal polynomial for roots mod p")
    p_scan.set_defaults(fn=cmd_scan)
    p_dm = add("distmin2", cmd_distmin2,
               "minimal degree of a codimension-two subdistribution")
    p_dm.add_argument("--delta-max", type=int, default=None,
                      help="largest degree to sweep (default: deg F)")
    p_dm.add_argument("--seed", type=int, default=0,
                      help="seed for the random span combinations")
    p_def = add("defect", cmd_defect,
                "integrability defect of an integer 1-form in three variables")
    p_def.add_argument("--p", type=int, required=True,
                       help="prime for the p-content of the defect")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal error in {exc.stage}: {exc.message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
