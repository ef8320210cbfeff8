import json
import sys

import pytest

from pfol.cli import main
from pfol.foliation import Foliation
from pfol.mpoly import MultiPoly

DEG1 = """\
field Fq:5^2:t^2+2
ambient proj 2
vars x0 x1 x2
form omega = (t - 1)*x1*x2*dx0 + x0*x2*dx1 - t*x0*x1*dx2
"""

LOG_MODEL = """\
field NR:a^2+1
ambient affine 3
model omega = a*y*z*dx + x*z*dy + x*y*dz
"""

PULLBACK = """\
field Fq:5^2:t^2+2
ambient affine 3
form omega = z*dx + x*z*dy + x*dz
map phi = [x, y, z^2]
"""

PROJECTIVE_PULLBACK = """\
field Fq:5^2:t^2+2
ambient proj 2
vars x0 x1 x2
form omega = t*x1*x2*dx0 + x0*x2*dx1 - (t+1)*x0*x1*dx2
map phi = {}
"""

FROBENIUS_PULLBACK = """\
field Fp:5
ambient proj 2
vars x0 x1 x2
form omega = x1*x2*dx0 + x0*x2*dx1 - 2*x0*x1*dx2
map phi = [x0^5, x1^5, x2^5]
"""

RESTRICT = """\
field Fq:7^2:t^2+1
ambient proj 3
vars x0 x1 x2 x3
form omega = -(t+2)*x1*x2*x3*dx0 + t*x0*x2*x3*dx1 + x0*x1*x3*dx2 + x0*x1*x2*dx3
hyperplane Y = x0 + 2*x1 + 3*x2 + x3
"""

DISTMIN = """\
field Fp:101
ambient proj 3
vars x0 x1 x2 x3
form omega = (x0^2+x1^2+x2^2+x3^2)*(2*x0*dx0+4*x1*dx1+6*x2*dx2+10*x3*dx3) \
- (x0^2+2*x1^2+3*x2^2+5*x3^2)*(2*x0*dx0+2*x1*dx1+2*x2*dx2+2*x3*dx3)
"""

DEFECT_DOC = """\
field Z
ambient affine 3
form eta = x^2*dx + z^3*y^2*dy
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_human(tmp_path, capsys):
    doc = write(tmp_path, "deg1.txt", DEG1)
    assert main(["analyze", doc]) == 0
    out = capsys.readouterr().out
    assert "p-closed: False" in out
    assert "deg degeneracy: 3" in out
    assert "predicted deg degeneracy: 3" in out


def test_analyze_json(tmp_path, capsys):
    doc = write(tmp_path, "deg1.txt", DEG1)
    assert main(["analyze", "--json", doc]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p"] == 5
    assert data["deg_degeneracy"] == 3
    assert data["cartier_integrable"] is True
    assert {d["component"] for d in data["degeneracy"]} == {"x0", "x1", "x2"}


def test_degeneracy_and_cartier(tmp_path, capsys):
    doc = write(tmp_path, "deg1.txt", DEG1)
    assert main(["degeneracy", doc]) == 0
    out = capsys.readouterr().out
    assert "degree: 3" in out
    assert main(["cartier", doc]) == 0
    out = capsys.readouterr().out
    assert "integrable: True" in out


def test_field_override_changes_prime(tmp_path, capsys):
    doc = write(tmp_path, "deg1.txt", DEG1)
    assert main(["analyze", "--json", "--field", "Fq:3^2:t^2+1", doc]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["p"] == 3
    assert data["deg_degeneracy"] == 3


def test_pullback(tmp_path, capsys):
    doc = write(tmp_path, "pull.txt", PULLBACK)
    assert main(["pullback", doc]) == 0
    out = capsys.readouterr().out
    assert "matches: True" in out


@pytest.mark.parametrize(
    "comps", ["[x0 + x1, x1 + 2*x2, x2]", "[x0^2, x1^2 + x0*x2, x2^2]"]
)
def test_projective_pullback(tmp_path, capsys, comps):
    # neither map is a monomial cover: the ramification is read off the cone
    doc = write(tmp_path, "pull.txt", PROJECTIVE_PULLBACK.format(comps))
    assert main(["pullback", doc]) == 0
    assert "matches: True" in capsys.readouterr().out


def test_frobenius_pullback_is_input_error(tmp_path, capsys):
    doc = write(tmp_path, "frob.txt", FROBENIUS_PULLBACK)
    assert main(["pullback", doc]) == 2
    assert "error:" in capsys.readouterr().err


P_CLOSED_PULLBACK = """\
field Fp:5
ambient affine 2
vars x y
form omega = y*dx - 2*x*dy
map phi = {}
"""


def test_pullback_of_p_closed_foliation_reports_it(tmp_path, capsys):
    # y dx - 2x dy has weights in F_5, so it is p-closed: no degeneracy
    # divisor, which pullback reports as degeneracy and cartier do, exit 0
    doc = write(tmp_path, "pclosed.txt", P_CLOSED_PULLBACK.format("[x^2, y]"))
    assert main(["pullback", doc]) == 0
    assert capsys.readouterr() == ("p-closed: true\n", "")
    assert main(["pullback", "--json", doc]) == 0
    assert json.loads(capsys.readouterr().out) == {"p_closed": True}
    for command in ("degeneracy", "cartier"):
        assert main([command, doc]) == 0
        assert capsys.readouterr().out == "p-closed: true\n"


def test_pullback_to_a_p_closed_foliation_is_input_error(tmp_path, capsys):
    # the foliation is not p-closed, but its pullback along the inseparable
    # map x -> x^5 is, so there is no degeneracy divisor to compare
    text = P_CLOSED_PULLBACK.format("[x^5, y]").replace("dy\n", "dy + x*y*dy\n")
    doc = write(tmp_path, "insep.txt", text)
    assert main(["analyze", doc]) == 0
    assert "p-closed: False" in capsys.readouterr().out
    assert main(["pullback", doc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the pullback is p-closed; no degeneracy divisor\n"


def test_restrict(tmp_path, capsys):
    doc = write(tmp_path, "restr.txt", RESTRICT)
    assert main(["restrict", "--json", doc]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matches"] is True


def test_scan_csv(tmp_path, capsys):
    doc = write(tmp_path, "model.txt", LOG_MODEL)
    assert main(["scan", "--pmax", "13", doc]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "p,factor,k,p_closed,deg_degeneracy,squarefree,cartier_integrable"
    assert "2,t+1,1,True,,," in lines
    assert "3,t^2+1,2,False,3,True,True" in lines
    assert "5,t+2,1,True,,," in lines
    assert "5,t+3,1,True,,," in lines


def test_scan_deterministic(tmp_path, capsys):
    doc = write(tmp_path, "model.txt", LOG_MODEL)
    main(["scan", "--pmax", "13", doc])
    first = capsys.readouterr().out
    main(["scan", "--pmax", "13", doc])
    second = capsys.readouterr().out
    assert first == second


def test_scan_rows_at_a_prime_where_the_minimal_polynomial_has_quadratic_factors(
    tmp_path, capsys, monkeypatch
):
    # x^4 + 1 splits into linear factors mod 17 and into two quadratics mod
    # 1427: one row per factor at both primes
    doc = write(tmp_path, "model.txt", LOG_MODEL.replace("a^2+1", "a^4+1"))
    monkeypatch.setattr("pfol.models.primes_upto", lambda n: [17, 1427])
    assert main(["scan", "--pmax", "1427", doc]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[:2] for line in lines[1:5]] == [
        ["17", "t+2"], ["17", "t+8"], ["17", "t+9"], ["17", "t+15"]
    ]
    assert lines[5:] == [
        "1427,t^2+217*t+1426,2,False,3,True,True",
        "1427,t^2+1210*t+1426,2,False,3,True,True",
    ]


def test_scan_of_the_zero_model_is_input_error(tmp_path, capsys):
    doc = write(tmp_path, "model.txt", "field Z\nambient affine 2\nmodel omega = 0*dx\n")
    assert main(["scan", "--pmax", "10", doc]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the zero form defines no foliation" in captured.err


def test_scan_minpoly_probe(capsys):
    assert main(["scan", "--pmax", "100", "--minpoly", "a^2+1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "irrational-like"


def test_scan_minpoly_probe_without_good_primes_is_input_error(capsys):
    # 2 and 3 divide the leading coefficient: no good prime up to 3
    for pmax in ("3", "1"):
        assert main(["scan", "--pmax", pmax, "--minpoly", "6*a^2+1"]) == 2
        captured = capsys.readouterr()
        assert "no good prime up to pmax" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("pmax", ["1", "0", "-3"])
def test_model_scan_without_primes_is_input_error(monkeypatch, capsys, pmax):
    # no prime is at most pmax: a scan would print a header and no row
    for flags in ([], ["--json"]):
        assert run(monkeypatch, capsys, ["scan", "--pmax", pmax, *flags], LOG_MODEL) == (
            2, "", f"error: --pmax must be at least 2, got {pmax}\n"
        )


@pytest.mark.parametrize("depth, code", [(100, 0), (101, 2), (3000, 2)])
def test_nesting_past_the_limit_is_input_error(monkeypatch, capsys, depth, code):
    nested = "(" * depth + "{}" + ")" * depth
    for form in (nested.format("x") + "*dx + dy", "x^" + nested.format("2") + "*dx + dy"):
        text = f"field Fp:5\nambient affine 2\n\nform omega = {form}\n"
        result = run(monkeypatch, capsys, ["analyze"], text)
        assert result[0] == code
        if code == 2:
            assert result[1:] == ("", "error: parentheses nested deeper than 100 at line 4\n")


def test_stacked_signs_read_without_a_limit(monkeypatch, capsys):
    # a run of signs is read in a loop: 3001 minus signs negate, 3000 do not
    for form, same in [("-" * 3000 + "x*dx + dy", "x*dx + dy"),
                       ("x^(" + "-" * 3001 + "2)*dx + dy", "x^(-2)*dx + dy"),
                       ("-" * 3001 + "x*dx + dy", "-x*dx + dy")]:
        outs = [run(monkeypatch, capsys, ["degeneracy"], f"field Fp:5\nambient affine 2\n"
                    f"form omega = {f}\n") for f in (form, same)]
        assert outs[0] == outs[1] and outs[0][0] == 0


def test_prime_field_with_modulus_is_input_error(tmp_path, capsys):
    doc = write(tmp_path, "deg1.txt", DEG1)
    assert main(["analyze", "--field", "Fq:5^1:t+2", doc]) == 2
    captured = capsys.readouterr()
    assert "write Fp:5" in captured.err
    assert captured.out == ""


def test_distmin2(tmp_path, capsys):
    doc = write(tmp_path, "dm.txt", DISTMIN)
    assert main(["distmin2", "--json", doc]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["delta"] == 2
    assert data["integrable"] is True
    assert data["dimensions"] == [0, 0, 4]


def test_distmin2_negative_delta_max_is_input_error(tmp_path, capsys):
    doc = write(tmp_path, "dm.txt", DISTMIN)
    assert main(["distmin2", "--delta-max", "-1", doc]) == 2
    captured = capsys.readouterr()
    assert "delta_max must be nonnegative" in captured.err
    assert captured.out == ""


NON_INTEGRABLE = """\
field Fp:3
ambient affine 3
form omega = y*dx + z*dy + x*dz
"""


def test_broken_closedness_invariant_is_internal_error(tmp_path, monkeypatch, capsys):
    # a foliation built without validation from a non-integrable form:
    # omega / omega(v^p) is not closed and the Cartier stage reports a
    # broken invariant, exit 3, not 1 or 2
    import pfol.cli

    monkeypatch.setattr(pfol.cli, "from_form", lambda form: Foliation(form, None))
    doc = write(tmp_path, "nonint.txt", NON_INTEGRABLE)
    assert main(["cartier", doc]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error in foliation.PCurvature.eta: "
        "omega / omega(v^p) failed to be closed\n"
    )
    assert captured.out == ""


def test_failed_pth_root_of_f_over_g_is_internal_error(tmp_path, monkeypatch, capsys):
    # f / G is a p-th power for every foliation that is not p-closed; a
    # failed root is a broken invariant of the Cartier stage, exit 3
    import pfol.foliation

    def refuse(f):
        raise ArithmeticError("not a p-th power: bad exponent")

    monkeypatch.setattr(pfol.foliation, "pth_root_poly", refuse)
    doc = write(tmp_path, "deg1.txt", DEG1)
    assert main(["cartier", doc]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error in foliation.PCurvature.eta: "
        "omega(v^p) / G is not a p-th power\n"
    )
    assert captured.out == ""


W1_F5 = """\
field Fp:5
ambient proj 2
vars x0 x1 x2
form omega = (4*x0^2*x1 + 2*x0^2*x2 + 3*x0*x1^2 + 2*x0*x2^2 + 2*x1^3 + 2*x1^2*x2 + 2*x2^3)*dx0 \
+ (x0^3 + 2*x0^2*x1 + 4*x0^2*x2 + 3*x0*x1^2)*dx1 \
+ (3*x0^3 + x0^2*x1 + 3*x0^2*x2 + 3*x0*x1^2 + 3*x0*x2^2)*dx2
"""


def test_inexact_division_by_a_computed_gcd_is_internal_error(tmp_path, monkeypatch, capsys):
    # a wrong gcd from inside the engine is a broken invariant, exit 3 with
    # the stage named, not bad input (exit 2)
    import pfol.mpoly

    real = pfol.mpoly.gcd_multi

    def wrong(f, g):
        # h * (x_2 + 1) on the cone, the last variable once x_0 = 1, in the
        # gcds of the squarefree loop; gcd_multi and the folds of gcd_list
        # call gcd_multi themselves, and those gcds stay right
        h = real(f, g)
        if sys._getframe(1).f_code.co_name != "squarefree_decomposition":
            return h
        return h * (MultiPoly.var(h.ring, h.nvars, h.nvars - 1) + 1)

    monkeypatch.setattr(pfol.mpoly, "gcd_multi", wrong)
    doc = write(tmp_path, "w1.txt", W1_F5)
    assert main(["degeneracy", doc]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error in mpoly.")
    assert captured.err.endswith(": inexact division by a computed gcd\n")
    assert captured.out == ""


def test_shrinking_solution_space_is_internal_error(tmp_path, monkeypatch, capsys):
    import pfol.distmin

    real = pfol.distmin.subdistribution_space

    def shrinking(fol, delta):
        system = real(fol, delta)
        system.dimension = -delta
        return system

    monkeypatch.setattr(pfol.distmin, "subdistribution_space", shrinking)
    doc = write(tmp_path, "dm.txt", DISTMIN)
    assert main(["distmin2", doc]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error in distmin.distmin2: solution dimension decreased with delta\n"
    )
    assert captured.out == ""


def test_seed_is_a_distmin2_option_only(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(DEG1))
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--seed", "5", "-"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


def test_defect(tmp_path, capsys):
    doc = write(tmp_path, "defect.txt", DEFECT_DOC)
    assert main(["defect", "--p", "3", doc]) == 0
    out = capsys.readouterr().out
    assert "content: 3" in out
    assert "p_content: 1" in out


@pytest.mark.parametrize("p", ["1", "-1", "0", "4"])
def test_defect_refuses_a_p_that_is_not_prime(tmp_path, capsys, p):
    # 1 and -1 never divide the content down to 1, and 0 divides by zero
    doc = write(tmp_path, "defect.txt", DEFECT_DOC)
    assert main(["defect", "--p", p, doc]) == 2
    assert capsys.readouterr() == ("", f"error: --p must be a prime, got {p}\n")


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(DEG1))
    assert main(["degeneracy", "-"]) == 0
    assert "degree: 3" in capsys.readouterr().out


def test_error_reporting(tmp_path, capsys):
    doc = write(tmp_path, "bad.txt", "field Fp:5\nform f = x*dy\n")
    assert main(["analyze", doc]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


# ---------------------------------------------------------------------------
# outputs pinned byte for byte: forms and scalars written with "/" are
# cleared to one polynomial numerator before the engine sees them


def run(monkeypatch, capsys, argv, text):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code = main(argv + ["-"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


LOG_WITH_DENOMINATORS = """\
field Fq:5^2:t^2+2
ambient affine 3
form omega = dx/x + t*dy/y - (1+t)*dz/z
"""

LOG_TIMES_CANCELLING_FRACTION = """\
field Fq:5^2:t^2+2
ambient affine 3
form omega = (x^2-y^2)/(x+y)*(y*z*dx + t*x*z*dy - (1+t)*x*y*dz)
"""

LOG_AFFINE_OUTPUTS = {
    "analyze": (
        "field: Fq:5^2:t^2+2\nambient: A^3\ndeg F: None\np-closed: False\n"
        "degeneracy divisor:\n  (x*y*z) : 1\ndeg degeneracy: 3\n"
        "cartier integrable: True\n"
    ),
    "cartier": (
        "cartier transform: (t*y*z)*dx + (2*x*z)*dy + ((4*t+3)*x*y)*dz\n"
        "integrable: True\n"
    ),
    "degeneracy": "degeneracy divisor:\n  (x*y*z) : 1\ndegree: 3\n",
}


@pytest.mark.parametrize("command", sorted(LOG_AFFINE_OUTPUTS))
@pytest.mark.parametrize("text", [LOG_WITH_DENOMINATORS, LOG_TIMES_CANCELLING_FRACTION])
def test_rational_log_form_outputs_are_pinned(monkeypatch, capsys, command, text):
    assert run(monkeypatch, capsys, [command], text) == (
        0, LOG_AFFINE_OUTPUTS[command], ""
    )


CONE_FORM_WITH_DENOMINATOR = """\
field Fp:5
ambient proj 2
vars x0 x1 x2
form omega = ((x0*x1 - x2^2)*dx0 + (x1*x2 - x0^2)*dx1 + (x0*x2 - x1^2)*dx2)/(x0 + x1)
"""


def test_cone_form_with_denominator_outputs_are_pinned(monkeypatch, capsys):
    assert run(monkeypatch, capsys, ["analyze"], CONE_FORM_WITH_DENOMINATOR) == (
        0,
        "field: Fp:5\nambient: P^2\ndeg F: 1\np-closed: False\n"
        "degeneracy divisor:\n  (x0^3 + 2*x0*x1*x2 + x1^3 + x2^3) : 1\n"
        "deg degeneracy: 3\ndeg kernel: 0\npredicted deg degeneracy: 3\n"
        "cartier integrable: True\n",
        "",
    )
    assert run(monkeypatch, capsys, ["cartier"], CONE_FORM_WITH_DENOMINATOR) == (
        0,
        "cartier transform: (4*x0*x2 + x1^2)*dx0 + (4*x0*x1 + x2^2)*dx1 "
        "+ (x0^2 + 4*x1*x2)*dx2\nintegrable: True\n",
        "",
    )


RESTRICT_TO = RESTRICT.rpartition("hyperplane")[0] + "hyperplane Y = {}\n"


def test_hyperplane_with_cancelling_fraction_is_pinned(monkeypatch, capsys):
    expected = (
        "restricted form: ((t+1)*y0*y1*y2 + (6*t+5)*y1^2*y2 + (2*t+4)*y1*y2^2)*dy0"
        " + (6*t*y0^2*y2 + (t+1)*y0*y1*y2 + 5*t*y0*y2^2)*dy1"
        " + (6*y0^2*y1 + y0*y1^2 + 3*y0*y1*y2)*dy2\n"
        "different:\n  (none)\n"
        "degeneracy of restriction:\n  (y0) : 1\n  (y0 + 6*y1 + 2*y2) : 1\n"
        "  (y0 + 6*y1 + 4*y2) : 7\n  (y1) : 1\n  (y2) : 1\n"
        "predicted from the different:\n  (y0) : 1\n  (y0 + 6*y1 + 2*y2) : 1\n"
        "  (y0 + 6*y1 + 4*y2) : 7\n  (y1) : 1\n  (y2) : 1\n"
        "matches: True\n"
    )
    for hyperplane in ("(x0^2-x1^2)/(x0+x1) + 2*x2 + x3", "x0 - x1 + 2*x2 + x3"):
        text = RESTRICT_TO.format(hyperplane)
        assert run(monkeypatch, capsys, ["restrict"], text) == (0, expected, "")


@pytest.mark.parametrize(
    "field, form, message",
    [
        ("Z", "y*dx/x", "rational functions need a coefficient field"),
        ("Z", "y/x*dx", "rational functions need a coefficient field"),
        ("Z", "y*dx/2", "non-unit denominator over a non-field"),
        ("Fp:5", "dx/0", "division by zero rational function"),
        ("Z", "dx/(x-x)", "division by zero rational function"),
    ],
)
def test_refused_denominators_are_input_errors(monkeypatch, capsys, field, form, message):
    text = f"field {field}\nambient affine 3\nform eta = {form}\n"
    command = ["defect", "--p", "3"] if field == "Z" else ["analyze"]
    assert run(monkeypatch, capsys, command, text) == (2, "", f"error: {message}\n")


def test_unit_denominator_over_z_is_accepted(monkeypatch, capsys):
    text = "field Z\nambient affine 3\nform eta = (x^2*dx + z^3*y^2*dy)/(-1)\n"
    code, out, err = run(monkeypatch, capsys, ["defect", "--p", "3"], text)
    assert (code, err) == (0, "")
    assert "content: 3" in out


def test_pullback_by_rational_map_is_refused(monkeypatch, capsys):
    text = PULLBACK.replace("[x, y, z^2]", "[x, y^2/(x+1), z/y]")
    assert run(monkeypatch, capsys, ["pullback"], text) == (
        2, "", "error: the map needs polynomial components\n"
    )


def test_restrict_accepts_renamed_coordinates(monkeypatch, capsys):
    renamed = RESTRICT
    for old, new in (("x0", "a"), ("x1", "b"), ("x2", "c"), ("x3", "d")):
        renamed = renamed.replace(old, new)
    assert "vars a b c d" in renamed
    expected = run(monkeypatch, capsys, ["restrict"], RESTRICT)
    assert expected[0] == 0 and "matches: True" in expected[1]
    assert run(monkeypatch, capsys, ["restrict"], renamed) == expected


def count_degeneracy_divisor_calls(monkeypatch) -> list:
    """Patch ``pfol.cli.degeneracy_divisor`` to record each of its calls."""
    import pfol.cli

    calls = []
    real = pfol.cli.degeneracy_divisor

    def counted(fol):
        calls.append(fol)
        return real(fol)

    monkeypatch.setattr(pfol.cli, "degeneracy_divisor", counted)
    return calls


def test_restrict_on_the_plane_computes_no_degeneracy_divisor(monkeypatch, capsys):
    # on P^2 the degeneracy check is left out, so neither divisor is built
    text = DEG1 + "hyperplane Y = x0 + 2*x1 + 3*x2\n"
    calls = count_degeneracy_divisor_calls(monkeypatch)
    assert run(monkeypatch, capsys, ["restrict"], text) == (
        0,
        "restricted form: (2*y1)*dy0 + (3*y0)*dy1\n"
        "different:\n  (y0 + (3*t+2)*y1) : 1\n",
        "",
    )
    assert calls == []
    # on P^3 both the foliation and its restriction have one computed
    code, out, _ = run(monkeypatch, capsys, ["restrict"], RESTRICT)
    assert (code, out.endswith("matches: True\n"), len(calls)) == (0, True, 2)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            PULLBACK.replace("map phi = [x, y, z^2]", "hyperplane Y = x + y"),
            "restriction requires a projective document",
        ),
        (
            RESTRICT_TO.format("x0 + x1 + 1"),
            "hyperplane must be homogeneous linear",
        ),
    ],
)
def test_restrict_refusals_are_input_errors(monkeypatch, capsys, text, message):
    assert run(monkeypatch, capsys, ["restrict"], text) == (2, "", f"error: {message}\n")


AFFINE_LOG = """\
field Fp:5
ambient affine 3
form omega = y*z*dx + 2*x*z*dy + 2*x*y*dz
"""


@pytest.mark.parametrize("extra", [[], ["--delta-max", "2"]])
def test_distmin2_on_affine_document_is_input_error(monkeypatch, capsys, extra):
    assert run(monkeypatch, capsys, ["distmin2", *extra], AFFINE_LOG) == (
        2, "", "error: the subdistribution search is projective\n"
    )


# ---------------------------------------------------------------------------
# the parser is built once per process


def test_cached_parser_prints_what_fresh_parsers_print(tmp_path, monkeypatch, capsys):
    import pfol.cli

    deg1 = write(tmp_path, "deg1.txt", DEG1)
    dm = write(tmp_path, "dm.txt", DISTMIN)
    calls = [
        ["analyze", "--json", deg1],
        ["analyze", deg1],
        ["distmin2", "--seed", "3", "--json", dm],
        ["distmin2", "--delta-max", "1", dm],
        ["degeneracy", "--field", "Fq:7^2:t^2+1", deg1],
        ["analyze", "--seed", "5", deg1],
        ["cartier", deg1],
        ["scan", "--pmax", "7"],
        ["degeneracy", deg1],
    ]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    assert pfol.cli.build_parser() is pfol.cli.build_parser()
    cached = run_all()
    monkeypatch.setattr(pfol.cli, "build_parser", pfol.cli.build_parser.__wrapped__)
    assert run_all() == cached
    assert [code for code, _, _ in cached] == [0, 0, 0, 1, 0, 2, 0, 2, 0]


# ---------------------------------------------------------------------------
# documents over a ring that is not a field are refused up front

Z_FORM = """\
field Z
ambient affine 2
form omega = 2*x*dx + 4*y*dy
"""

Z_CONE_FORM = """\
field Z
ambient proj 3
vars x0 x1 x2 x3
form omega = x1*x2*x3*dx0 + x0*x2*x3*dx1 + x0*x1*x3*dx2 - 3*x0*x1*x2*dx3
"""


@pytest.mark.parametrize(
    "command, text",
    [
        ("analyze", Z_FORM),
        ("cartier", Z_FORM),
        ("degeneracy", Z_FORM),
        ("pullback", Z_FORM),
        ("restrict", Z_CONE_FORM),
        ("distmin2", Z_CONE_FORM),
    ],
)
def test_document_over_z_needs_a_coefficient_field(monkeypatch, capsys, command, text):
    assert run(monkeypatch, capsys, [command], text) == (
        2, "", f"error: {command} needs a coefficient field; "
        "use scan for an integral model over Z or NR:<minpoly>\n"
    )


# ---------------------------------------------------------------------------
# a refused field descriptor is named, with its line when a document has it


@pytest.mark.parametrize(
    "field, reason",
    [
        ("Fp:five", "expected a number, not 'five'"),
        ("Fq:3^x:t^2+1", "expected a number, not 'x'"),
        ("NR:+", "expected a value"),
        ("Fp:4", "4 is not prime"),
        ("Fq:3^2:t^2+s", "unknown name 's'"),
        ("NR:da", "expected a polynomial in a"),
        ("F7", "expected Z, Q, Fp:, Fq: or NR:"),
    ],
)
def test_descriptor_refusals_name_the_descriptor(monkeypatch, capsys, field, reason):
    text = f"# a model\nfield {field}\nambient affine 2\nmodel omega = x*dy\n"
    assert run(monkeypatch, capsys, ["scan", "--pmax", "10"], text) == (
        2, "", f"error: field descriptor {field!r}: {reason} at line 2\n"
    )
    # from the command line the descriptor has no line
    text = "field Z\nambient affine 2\nmodel omega = x*dy\n"
    assert run(monkeypatch, capsys, ["scan", "--pmax", "10", "--field", field], text) == (
        2, "", f"error: field descriptor {field!r}: {reason}\n"
    )


@pytest.mark.parametrize(
    "minpoly, reason",
    [("+", "expected a value"), ("a^2+b", "unknown name 'b'"),
     ("a^2 + 1/a", "rational functions need a coefficient field")],
)
def test_minpoly_refusals_name_the_polynomial(capsys, minpoly, reason):
    assert main(["scan", "--pmax", "10", "--minpoly", minpoly]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: --minpoly {minpoly!r}: {reason}\n")


def test_descriptor_polynomials_use_the_expression_grammar(capsys):
    # (a + 1)^2 + 1 = a^2 + 2a + 2, which the regex reader refused
    assert main(["scan", "--pmax", "30", "--minpoly", "(a + 1)^2 + 1"]) == 0
    expanded = capsys.readouterr().out
    assert main(["scan", "--pmax", "30", "--minpoly", "a^2+2*a+2"]) == 0
    assert capsys.readouterr().out == expanded


# ---------------------------------------------------------------------------
# engine branches no corpus document reaches

P_CLOSED_AFFINE = """\
field Fp:5
ambient affine 2
form omega = y*dx - x*dy
"""


def test_analyze_of_a_p_closed_foliation_stops_at_p_closedness(monkeypatch, capsys):
    assert run(monkeypatch, capsys, ["analyze"], P_CLOSED_AFFINE) == (
        0, "field: Fp:5\nambient: A^2\ndeg F: None\np-closed: True\n", ""
    )
    code, out, _ = run(monkeypatch, capsys, ["analyze", "--json"], P_CLOSED_AFFINE)
    report = json.loads(out)
    assert (code, report["p_closed"], report["degeneracy"], report["deg_degeneracy"]) == (
        0, True, [], None
    )


P3_PENCIL = """\
field Fp:5
ambient proj 3
vars x0 x1 x2 x3
form omega = x1*dx0 - x0*dx1
hyperplane H = x0 + 2*x1 + 3*x2 + x3
"""

# residues (1, -1, t, -t): p-dense, but on x3 = x2 the residues t and -t
# cancel and the restriction is the pencil x1/x0, which is p-closed
P3_LOG_TO_PENCIL = """\
field Fq:5^2:t^2+2
ambient proj 3
vars x0 x1 x2 x3
form omega = x1*x2*x3*dx0 - x0*x2*x3*dx1 + t*x0*x1*x3*dx2 - t*x0*x1*x2*dx3
hyperplane H = x3 - x2
"""


@pytest.mark.parametrize(
    "text, different",
    [(P3_PENCIL, "  (none)"), (P3_LOG_TO_PENCIL, "  (y2) : 2")],
)
def test_restrict_on_p3_with_a_p_closed_side_compares_no_degeneracy(
    monkeypatch, capsys, text, different
):
    assert run(monkeypatch, capsys, ["restrict"], text) == (
        0, f"restricted form: (y1)*dy0 + (4*y0)*dy1\ndifferent:\n{different}\n", ""
    )


def test_a_defining_two_form_is_input_error(monkeypatch, capsys):
    text = "field Fp:5\nambient affine 3\nform omega = dx/\\dy\n"
    assert run(monkeypatch, capsys, ["analyze"], text) == (
        2, "", "error: a defining form must be a 1-form\n"
    )
