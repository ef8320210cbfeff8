"""Seeded document corpora for the pfol benchmark, with golden outputs.

Every workload has a pool of documents per corpus seed.  A document is the
argument list of one ``pfol`` invocation plus the plain-text document it
reads from standard input (``-``); the generators below use only the
standard library, so a change to the engine cannot change its own inputs.
The golden stdout bytes and exit code of every entry were produced by the
engine when the benchmark was written and are stored next to the
documents in ``corpus/seed<N>/<workload>.json``.

    python3 bench/corpus.py --write   # regenerate documents and goldens
    python3 bench/corpus.py --check   # untimed: documents and goldens reproduce

``--check`` fails if a generator no longer yields the stored documents or
if the engine's output differs from the stored golden bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CORPUS_DIR = BENCH_DIR / "corpus"

WORKLOADS = ("plane_generic", "log_space", "prime_scan", "verify")
DEFAULT_SEED = 1
# Later changes confirm their claims on this corpus and must not tune on it.
HELDOUT_SEED = 2

# GF(p^2) = F_p[t]/(m) for the primes of the log_space and verify families.
QUADRATIC_MODULUS = {3: "t^2+1", 5: "t^2+2", 7: "t^2+1"}


# ---------------------------------------------------------------------------
# importing the engine from the checkout


def load_pfol():
    """Import ``pfol.cli`` afresh from ``src/`` of this checkout.

    Modules imported earlier are dropped first, so repeated calls measure a
    cold import.  Raises ImportError when the checkout has no engine.
    """
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "pfol" or m.startswith("pfol.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("pfol.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"pfol was imported from {cli.__file__}, not the checkout")
    return cli


def execute(main, entry) -> tuple[str, int | None, str]:
    """Run one entry through ``main(argv)``; returns (stdout, exit code, error).

    The error is empty unless the call raised instead of returning.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(entry["doc"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(entry["argv"]))
        return out.getvalue(), code, ""
    except SystemExit as exc:
        return out.getvalue(), exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # an engine bug is a failed document, not a crash
        return out.getvalue(), None, f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin


# ---------------------------------------------------------------------------
# text helpers


def _poly_text(terms: dict, names) -> str:
    """Integer-coefficient polynomial {exponent tuple: c} as document text."""
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        if not c:
            continue
        mono = "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
        )
        parts.append(str(c) if not mono else mono if c == 1 else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def _gf2(a: int, b: int) -> str:
    """The element a + b*t of GF(p^2) as document text."""
    if not b:
        return str(a)
    bt = "t" if b == 1 else f"{b}*t"
    return f"({a} + {bt})" if a else f"({bt})"


def _gf2_nonzero(rng, p) -> tuple[int, int]:
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if a or b:
            return a, b


def _doc(field: str, ambient: str, names: str, *lines: str) -> str:
    head = [f"field {field}", f"ambient {ambient}", f"vars {names}"]
    return "\n".join(head + list(lines)) + "\n"


def _entry(ident: str, why: str, argv, doc: str | None) -> dict:
    return {"id": ident, "why": why, "argv": list(argv), "doc": doc}


# ---------------------------------------------------------------------------
# plane_generic: the generic degree-2 foliation on P^2 over F_3


PLANE_DOCS_PER_SEED = 4


def _w1_document(doc_seed: int, p: int = 3) -> str:
    """The W1 recipe as a projective document.

    With ``random.Random(doc_seed)``, each coefficient of a*dx + b*dy is the
    sum of F.random(rng)*x^i*y^j over i+j <= 2 (a first, then b).  The form
    is homogenized in the chart x0 = 1, exactly as ``projectivize`` does;
    the engine saturates it on input.
    """
    rng = random.Random(doc_seed)
    coeffs = []
    for _ in range(2):
        poly = {}
        for i in range(3):
            for j in range(3 - i):
                poly[(3 - i - j, i, j)] = rng.randrange(p)
        coeffs.append(poly)
    a, b = coeffs
    # the dx0 coefficient is -(x1*a + x2*b)/x0, exact since deg a, b <= 2
    c0: dict = {}
    for poly, var in ((a, 1), (b, 2)):
        for (e0, e1, e2), c in poly.items():
            e = [e0 - 1, e1, e2]
            e[var] += 1
            key = tuple(e)
            c0[key] = (c0.get(key, 0) - c) % p
    names = ("x0", "x1", "x2")
    parts = [
        f"({_poly_text(poly, names)})*d{name}"
        for poly, name in ((c0, "x0"), (a, "x1"), (b, "x2"))
        if any(poly.values())
    ]
    return _doc(f"Fp:{p}", "proj 2", "x0 x1 x2",
                f"form omega = {' + '.join(parts)}")


def plane_generic(seed: int) -> list[dict]:
    """Consecutive W1 seeds: seed s takes document seeds 4(s-1)+1 .. 4s.

    A plain draw: no document seed is skipped, so the slow ones (up to ten
    times the median) stay in.
    """
    first = PLANE_DOCS_PER_SEED * (seed - 1) + 1
    return [
        _entry(
            f"w1-seed{s}",
            "W1 recipe over F_3: Cartier phase dominated by gcd_multi in "
            "RationalFunction normalisation",
            ["analyze", "-"],
            _w1_document(s),
        )
        for s in range(first, first + PLANE_DOCS_PER_SEED)
    ]


# ---------------------------------------------------------------------------
# log_space: log foliations on P^3 (the W2 family) and A^3 over GF(p^2)


_W2_QUADRIC = "x0*x1 - x2*x3 + x0^2"
_W2_DQUADRIC = "(2*x0 + x1)*dx0 + x0*dx1 - x3*dx2 - x2*dx3"


def _w2_document(rng, p: int) -> str:
    """sum w_i dF_i/F_i for F = (x0*x1 - x2*x3 + x0^2, x0, x1, x2), cleared
    of denominators, with random weights satisfying 2*w1 + w2 + w3 + w4 = 0."""
    while True:
        w1, w2, w3 = (_gf2_nonzero(rng, p) for _ in range(3))
        w4 = tuple((-2 * x - y - z) % p for x, y, z in zip(w1, w2, w3))
        if any(w4):
            break
    w = [_gf2(*x) for x in (w1, w2, w3, w4)]
    q = f"({_W2_QUADRIC})"
    form = (
        f"{w[0]}*x0*x1*x2*({_W2_DQUADRIC}) + {w[1]}*{q}*x1*x2*dx0"
        f" + {w[2]}*{q}*x0*x2*dx1 + {w[3]}*{q}*x0*x1*dx2"
    )
    return _doc(f"Fq:{p}^2:{QUADRATIC_MODULUS[p]}", "proj 3", "x0 x1 x2 x3",
                f"form omega = {form}")


def _a3_log_document(rng, p: int) -> str:
    """sum w_i dF_i/F_i on A^3 for F = (x, y, 1 + c1*x + c2*z)."""
    w = [_gf2(*_gf2_nonzero(rng, p)) for _ in range(3)]
    c = [1 + rng.randrange(p - 1) for _ in range(2)]
    lin = f"(1 + {c[0]}*x + {c[1]}*z)"
    form = (
        f"{w[0]}*y*{lin}*dx + {w[1]}*x*{lin}*dy"
        f" + {w[2]}*x*y*({c[0]}*dx + {c[1]}*dz)"
    )
    return _doc(f"Fq:{p}^2:{QUADRATIC_MODULUS[p]}", "affine 3", "x y z",
                f"form omega = {form}")


LOG_SPACE_PLAN = (
    # (family, p, subcommand, count)
    ("P3", 3, "analyze", 1),
    ("P3", 3, "cartier", 1),
    ("P3", 5, "degeneracy", 1),
    ("P3", 7, "degeneracy", 1),
    ("A3", 3, "analyze", 2),
    ("A3", 5, "analyze", 2),
    ("A3", 5, "degeneracy", 1),
    ("A3", 7, "analyze", 1),
    ("A3", 7, "degeneracy", 1),
)


def log_space(seed: int) -> list[dict]:
    rng = random.Random(f"log_space:{seed}")
    out = []
    for family, p, cmd, count in LOG_SPACE_PLAN:
        for i in range(count):
            if family == "P3":
                doc = _w2_document(rng, p)
                why = (f"W2 family on P^3 over GF({p}^2): extension-field "
                       f"arithmetic, pth_power and the Cartier/p_kernel work")
            else:
                doc = _a3_log_document(rng, p)
                why = (f"log foliation on A^3 over GF({p}^2): extension-field "
                       f"arithmetic on a small affine chart")
            argv = [cmd, "-"] if rng.random() < 0.75 else [cmd, "--json", "-"]
            out.append(_entry(f"{family}-p{p}-{cmd}-{i}", why, argv, doc))
    return out


# ---------------------------------------------------------------------------
# prime_scan: integral models reduced at every prime up to a bound


def _zi_log_model(rng) -> tuple[str, str]:
    u, v, w = (rng.choice((1, 2, 3)) for _ in range(3))
    form = f"{u}*a*y*z*dx + {v}*x*z*dy + {w}*x*y*dz"
    return (_doc("NR:a^2+1", "affine 3", "x y z", f"model omega = {form}"),
            "Z[i] irrational log model: one residue field per factor of a^2+1")


def _plane_z_model(rng) -> tuple[str, str]:
    c, k = rng.choice((1, 2, 3)), rng.choice((1, 2))
    form = f"({c} - x*y)*dx + {k}*x^2*dy"
    return (_doc("Z", "affine 2", "x y", f"model omega = {form}"),
            "plane model over Z with generically dense p-curvature")


def _log_z_model(rng) -> tuple[str, str]:
    k = rng.choice((2, 3, 5))
    form = f"y*z*dx + {k}*x*z*dy + x*y*dz"
    return (_doc("Z", "affine 3", "x y z", f"model omega = {form}"),
            "log model over Z, p-closed at every good prime")


PRIME_SCAN_PLAN = (
    # (model family, count, pmax range)
    (_zi_log_model, 3, (30, 50)),
    (_plane_z_model, 3, (40, 90)),
    (_log_z_model, 3, (40, 80)),
)

MINPOLYS = ("a^2+1", "a^2-2", "a^2+a+1", "a^3-2", "a^3+a+1", "a^4+1")


def prime_scan(seed: int) -> list[dict]:
    rng = random.Random(f"prime_scan:{seed}")
    out = []
    for make, count, (lo, hi) in PRIME_SCAN_PLAN:
        for i in range(count):
            doc, why = make(rng)
            pmax = rng.randrange(lo, hi)
            argv = ["scan", "--pmax", str(pmax)]
            if rng.random() < 0.25:
                argv.append("--json")
            out.append(_entry(f"{make.__name__[1:]}-{i}", why, argv + ["-"], doc))
    for i in range(3):
        minpoly = rng.choice(MINPOLYS)
        pmax = rng.randrange(1000, 3000)
        out.append(_entry(
            f"minpoly-{i}",
            "Kronecker root-density probe: per-prime univariate work only",
            ["scan", "--pmax", str(pmax), "--minpoly", minpoly],
            None,
        ))
    return out


# ---------------------------------------------------------------------------
# verify: pullback, restrict, distmin2 and defect


def _pullback_document(rng) -> tuple[str, str]:
    p = rng.choice((3, 5, 7))
    w = [_gf2(*_gf2_nonzero(rng, p)) for _ in range(3)]
    e = rng.choice([k for k in (2, 3) if k != p])
    comps = ["x", "y", "z"]
    j = rng.randrange(3)
    comps[j] = f"{comps[j]}^{e}"
    doc = _doc(f"Fq:{p}^2:{QUADRATIC_MODULUS[p]}", "affine 3", "x y z",
               f"form omega = {w[0]}*y*z*dx + {w[1]}*x*z*dy + {w[2]}*x*y*dz",
               f"map phi = [{', '.join(comps)}]")
    return doc, f"monomial cover over GF({p}^2): pullback and ramification"


def _restrict_document(rng) -> tuple[str, str]:
    p = rng.choice((3, 5, 7))
    while True:
        ws = [_gf2_nonzero(rng, p) for _ in range(3)]
        last = tuple((-x - y - z) % p for x, y, z in zip(*ws))
        if any(last):
            break
    w = [_gf2(*x) for x in ws + [last]]
    form = " + ".join(
        f"{w[i]}*{'*'.join(f'x{j}' for j in range(4) if j != i)}*dx{i}"
        for i in range(4)
    )
    h = [1 + rng.randrange(p - 1) for _ in range(4)]
    hyper = " + ".join(f"{c}*x{i}" for i, c in enumerate(h))
    doc = _doc(f"Fq:{p}^2:{QUADRATIC_MODULUS[p]}", "proj 3", "x0 x1 x2 x3",
               f"form omega = {form}", f"hyperplane Y = {hyper}")
    return doc, f"P^3 cut by a hyperplane over GF({p}^2): restriction and the different"


def _pencil_document(rng) -> tuple[str, str]:
    field = rng.choice(("Fp:101", "Q"))
    while True:
        a = [rng.randrange(1, 10) for _ in range(4)]
        b = [rng.randrange(1, 10) for _ in range(4)]
        if len({Fraction(x, y) for x, y in zip(a, b)}) > 1:
            break
    q1 = " + ".join(f"{c}*x{i}^2" for i, c in enumerate(a))
    q2 = " + ".join(f"{c}*x{i}^2" for i, c in enumerate(b))
    d1 = " + ".join(f"{2 * c}*x{i}*dx{i}" for i, c in enumerate(a))
    d2 = " + ".join(f"{2 * c}*x{i}*dx{i}" for i, c in enumerate(b))
    doc = _doc(field, "proj 3", "x0 x1 x2 x3",
               f"form omega = ({q1})*({d2}) - ({q2})*({d1})")
    return doc, f"quadric pencil over {field}: exact linear algebra in distmin2"


def _defect_document(rng) -> tuple[str, str]:
    i, j, k = rng.randrange(1, 4), rng.randrange(1, 4), rng.randrange(1, 4)
    doc = _doc("Z", "affine 3", "x y z",
               f"form eta = x^{i}*dx + z^{j}*y^{k}*dy")
    return doc, "integer integrability defect: Z arithmetic, no reduction"


def verify(seed: int) -> list[dict]:
    rng = random.Random(f"verify:{seed}")
    out = []
    for i in range(6):
        doc, why = _pullback_document(rng)
        out.append(_entry(f"pullback-{i}", why, ["pullback", "-"], doc))
    for i in range(4):
        doc, why = _restrict_document(rng)
        out.append(_entry(f"restrict-{i}", why, ["restrict", "-"], doc))
    for i in range(6):
        doc, why = _pencil_document(rng)
        argv = ["distmin2", "--seed", str(rng.randrange(100))]
        if i >= 4:
            # a pencil without a witness of degree <= 1 exits with code 1
            argv += ["--delta-max", "1"]
        out.append(_entry(f"distmin2-{i}", why, argv + ["-"], doc))
    for i in range(4):
        doc, why = _defect_document(rng)
        out.append(_entry(f"defect-{i}", why,
                          ["defect", "--p", str(rng.choice((2, 3, 5))), "-"], doc))
    return out


GENERATORS = {
    "plane_generic": plane_generic,
    "log_space": log_space,
    "prime_scan": prime_scan,
    "verify": verify,
}


# ---------------------------------------------------------------------------
# stored corpora


def corpus_path(workload: str, seed: int) -> Path:
    return CORPUS_DIR / f"seed{seed}" / f"{workload}.json"


def load_corpus(workload: str, seed: int) -> list[dict]:
    with open(corpus_path(workload, seed), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def _write(workload: str, seed: int, main) -> None:
    entries = GENERATORS[workload](seed)
    for entry in entries:
        stdout, code, error = execute(main, entry)
        if error:
            raise RuntimeError(f"{workload}/{entry['id']}: {error}")
        entry["stdout"], entry["exit"] = stdout, code
    path = corpus_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"workload": workload, "seed": seed, "entries": entries}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}: {len(entries)} entries")


def _check(workload: str, seed: int, main) -> int:
    stored = load_corpus(workload, seed)
    fresh = GENERATORS[workload](seed)
    bad = 0
    if [{k: e[k] for k in ("id", "argv", "doc")} for e in stored] != [
        {k: e[k] for k in ("id", "argv", "doc")} for e in fresh
    ]:
        print(f"{workload} seed {seed}: generator no longer yields the stored documents")
        bad += 1
    for entry in stored:
        stdout, code, error = execute(main, entry)
        if error or stdout != entry["stdout"] or code != entry["exit"]:
            print(f"{workload} seed {seed} {entry['id']}: output differs "
                  f"(exit {code}, expected {entry['exit']}) {error}")
            bad += 1
    print(f"{workload} seed {seed}: {len(stored)} entries, {bad} mismatches")
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="regenerate documents and golden outputs")
    mode.add_argument("--check", action="store_true",
                      help="check that documents and goldens reproduce")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    cli = load_pfol()
    bad = 0
    for seed in (DEFAULT_SEED, HELDOUT_SEED):
        for workload in WORKLOADS:
            if args.write:
                _write(workload, seed, cli.main)
            else:
                bad += _check(workload, seed, cli.main)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
