"""Which lines of ``src/pfol`` neither tier-1 nor the corpus check runs.

    python3 tests/reach.py

Runs the tier-1 suite (``pytest`` on ``tests/``) and
``bench/corpus.py --check`` in this one process under one ``sys.settrace``
hook, then prints every executable line of ``src/pfol`` that neither run
reached, grouped by module and function.  A line is executable when the
compiled module's code objects map some bytecode to it (``co_lines``).

Exit 1 when the suite or the corpus check fails, when an unrun line is not
in ``ALLOWED``, or when an entry of ``ALLOWED`` matches no unrun line, so the
list can only shrink.  Exit 0 otherwise.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pfol"

# Unrun lines that stay, keyed by module, function qualname and stripped
# source text (never by line number), each with the reason it stays.
ALLOWED = [
    ("cli", "<module>", "sys.exit(main())",
     "runs only as `python -m pfol.cli`, in a subprocess the hook does not see"),
    ("rings", "_equal_degree",
     'raise InternalError("rings.factor_mod_p", "no proper split found")  # pragma: no cover',
     "by the Chinese remainder theorem some a of degree below deg g splits g "
     "properly, so the loop returns (see its docstring)"),
    ("rings", "canonical_irreducible",
     'raise ArithmeticError("no irreducible polynomial found")  # pragma: no cover',
     "every degree k >= 1 has a monic irreducible over F_p, and the loop tries "
     "all p^k monic candidates"),
    ("geommaps", "verify_pullback_degeneracy", "c = -1 - p",
     "needs a ramification component h with h^2 | omega /\\ eta; no example is known"),
    # Cartier's formula C(a)(v)^p = a(v^p) - v^(p-1)(a(v)) for a closed
    # 1-form a and a derivation v, with a = omega / f or omega / G closed
    # (the guards of PCurvature.eta):
    ("foliation", "p_kernel", 'raise ArithmeticError("kernel 2-form vanishes identically")',
     "for the first Koszul field v, C(omega / f)(v)^p = 1, so eta(v) != 0 while "
     "omega(v) = 0, and omega /\\ eta != 0"),
    ("foliation", "p_kernel",
     'raise InternalError("foliation.p_kernel", "kernel 2-form not radial-invariant")',
     "R^p = R and omega(R) = 0 give C(omega / G)(R) = 0, so eta(R) = 0 and "
     "i_R(omega /\\ eta) = 0"),
    ("foliation", "cartier_transform_foliation",
     'raise ArithmeticError("Cartier transform vanishes identically")',
     "for the first Koszul field v, C(omega / f)(v)^p = 1, so eta != 0"),
]


def executable_lines(source: str, filename: str) -> dict[int, str]:
    """Map each line of ``source`` that has bytecode to the qualified name
    of the function or class it belongs to (``<module>`` at the top level).

    Lines of lambdas and comprehensions count for the function around them,
    so the names are the same whether or not the compiler inlines them.
    """
    lines: dict[int, str] = {}

    def walk(code, qualname, prefix):
        for _, _, line in code.co_lines():
            if line:  # a module's first instruction sits on line 0
                lines[line] = qualname
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name.startswith("<"):
                walk(const, qualname, prefix)
            else:
                name = prefix + const.co_name
                is_function = const.co_flags & 0x1  # CO_OPTIMIZED: not a class body
                walk(const, name, name + (".<locals>." if is_function else "."))

    walk(compile(source, filename, "exec"), "<module>", "")
    return lines


def trace(run, filenames) -> tuple[object, set[tuple[str, int]]]:
    """Call ``run()`` under a line hook and return its result with the set
    of ``(filename, line)`` it reached in code compiled from ``filenames``.

    The hook traces a frame only while its code object has lines not yet
    reached, so code that has run in full costs one call per frame.
    """
    filenames = set(filenames)
    reached: set[tuple[str, int]] = set()
    todo_of: dict[int, tuple[types.CodeType, set[int]]] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        entry = todo_of.get(id(code))
        if entry is None:
            todo: set[int] = set()
            filename = code.co_filename
            if filename in filenames:
                todo = {line for _, _, line in code.co_lines() if line}
                todo -= {line for name, line in reached if name == filename}
            # the code object is kept so that its id is never reused
            entry = todo_of[id(code)] = (code, todo)
        todo = entry[1]
        if not todo:
            return None
        filename = code.co_filename

        def local(frame, event, arg):
            line = frame.f_lineno
            if line in todo:
                todo.discard(line)
                reached.add((filename, line))
            return local

        return local(frame, event, arg)

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, reached


def unrun_lines(sources: dict[str, tuple[str, str]], reached) -> list[tuple[str, str, int, str]]:
    """The ``(module, qualname, line, stripped text)`` of every executable
    line of ``sources`` (module name to filename and source) not in
    ``reached``."""
    unrun = []
    for module, (filename, source) in sorted(sources.items()):
        text = source.splitlines()
        for line, qualname in sorted(executable_lines(source, filename).items()):
            if (filename, line) not in reached:
                unrun.append((module, qualname, line, text[line - 1].strip()))
    return unrun


def check_allowed(unrun, allowed) -> tuple[list, list]:
    """The unrun lines that no entry of ``allowed`` names, and the entries
    of ``allowed`` that name no unrun line."""
    keys = {(module, qualname, text) for module, qualname, _, text in unrun}
    named = {entry[:3] for entry in allowed}
    new = [u for u in unrun if (u[0], u[1], u[3]) not in named]
    stale = [entry for entry in allowed if entry[:3] not in keys]
    return new, stale


def run_checks() -> int:
    """Tier-1 and the corpus check, in that order; 0 when both pass."""
    import pytest

    failed = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                          str(ROOT / "tests")])
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    return int(failed != 0) + corpus.main(["--check"])


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sources = {path.stem: (str(path), path.read_text()) for path in sorted(SRC.glob("*.py"))}
    failed, reached = trace(run_checks, [filename for filename, _ in sources.values()])
    unrun = unrun_lines(sources, reached)
    new, stale = check_allowed(unrun, ALLOWED)
    print()
    where = None
    for module, qualname, line, text in unrun:
        if (module, qualname) != where:
            where = (module, qualname)
            print(f"{module}.py {qualname}")
        mark = "  new" if (module, qualname, line, text) in new else ""
        print(f"  {line:5d} {text}{mark}")
    for module, qualname, text, reason in stale:
        print(f"stale entry: {module}.py {qualname}: {text} ({reason})")
    print(f"{len(unrun)} unrun lines, {len(new)} not allowed, {len(stale)} stale entries")
    if failed:
        print("tier-1 or the corpus check failed")
    return 1 if failed or new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
