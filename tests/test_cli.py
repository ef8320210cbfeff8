import json

import pytest

from pfol.cli import main

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
    # with the integrability check skipped, omega / omega(v^p) is not closed
    # and the Cartier stage reports a broken invariant: exit 3, not 1 or 2
    import functools

    import pfol.cli

    monkeypatch.setattr(
        pfol.cli, "from_form", functools.partial(pfol.cli.from_form, check_integrable=False)
    )
    doc = write(tmp_path, "nonint.txt", NON_INTEGRABLE)
    assert main(["cartier", doc]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error in foliation.PCurvature.eta: "
        "omega / omega(v^p) failed to be closed\n"
    )
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
