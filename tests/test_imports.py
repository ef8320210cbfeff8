"""Every name a module of the package imports is used in that module, and
every module-level function or class is used in the package: a private one
by the package itself, a public one by the package or the README's
examples."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pfol"
README = ROOT / "README.md"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that the module never reads.

    A name counts as read when it occurs as an identifier anywhere in the
    module (an attribute chain counts by its first name) or is listed in
    ``__all__``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_dead_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from re import compile, escape\n"
        "__all__ = ['escape']\n"
        "os.getcwd()\n"
    )
    assert unused_imports(source) == ["osp (line 2)", "compile (line 3)"]


def unreferenced_definitions(sources: dict[str, str], readers=()) -> list[str]:
    """Module-level functions and classes (dunders aside) of ``sources``
    that no module of ``sources`` and no code in ``readers`` refers to
    outside their own definition.

    ``sources`` maps a module name to its source; ``readers`` are further
    sources that only count as references.  A reference is an identifier
    or an attribute name, so ``mod._helper`` counts; a call of a function
    from its own body, a bare import and a string literal do not.
    """
    defined: list[tuple[str, str, int]] = []
    used: set[str] = set()
    for module, source in [*sources.items(), *((None, r) for r in readers)]:
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = stmt.name
                dunder = own.startswith("__") and own.endswith("__")
                if module is not None and not dunder:
                    defined.append((module, own, stmt.lineno))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return [f"{module}:{name} (line {line})" for module, name, line in defined
            if name not in used]


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """The unreferenced definitions of ``sources`` named ``_name``."""
    return [d for d in unreferenced_definitions(sources)
            if d.partition(":")[2].startswith("_")]


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def readme_examples() -> list[str]:
    """The Python code blocks of the README."""
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_package_has_no_dead_private_definitions():
    assert dead_private_definitions(package_sources()) == []


def test_package_has_no_unreferenced_public_definitions():
    # the public API is what the package and the README's examples use
    examples = readme_examples()
    assert examples
    assert unreferenced_definitions(package_sources(), examples) == []


def test_dead_private_definitions_finds_unreferenced_helpers():
    helpers = (
        "def _used():\n    return 1\n"
        "def _dead():\n    return 2\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Helper:\n    def __init__(self):\n        pass\n"
        "def _by_attribute():\n    return 3\n"
    )
    user = (
        "from . import helpers\n"
        "def public():\n    return helpers._used(), helpers._Helper()\n"
        "VALUE = helpers._by_attribute()\n"
    )
    assert dead_private_definitions({"helpers": helpers, "user": user}) == [
        "helpers:_dead (line 3)",
        "helpers:_recursive (line 5)",
    ]


def test_unreferenced_definitions_counts_readers_not_strings():
    module = (
        "def named_in_a_string():\n    return 1\n"
        "def used_by_a_reader():\n    return 2\n"
        "class Unused:\n    pass\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    reader = (
        "from mod import used_by_a_reader\n"
        "NOTE = 'named_in_a_string'\n"
        "used_by_a_reader()\n"
    )
    assert unreferenced_definitions({"mod": module}, [reader]) == [
        "mod:named_in_a_string (line 1)",
        "mod:Unused (line 5)",
    ]


INT_CODE_HOMES = {"rings", "mpoly"}


def int_code_readers(sources: dict[str, str]) -> list[str]:
    """Where a module of ``sources`` other than ``rings`` and ``mpoly``
    touches the GF(p) int-code path: reads the attribute ``code`` or
    ``_make``, or imports ``_prime_modulus``."""
    found = []
    for module, source in sources.items():
        if module in INT_CODE_HOMES:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and node.attr in ("code", "_make"):
                found.append((module, node.lineno, f".{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and any(
                alias.name == "_prime_modulus" for alias in node.names
            ):
                found.append((module, node.lineno, "_prime_modulus"))
    return [f"{module}: {what} (line {line})" for module, line, what in sorted(found)]


def test_int_code_path_stays_in_rings_and_mpoly():
    assert int_code_readers(package_sources()) == []


def test_int_code_readers_finds_codes_makers_and_the_modulus():
    rings = "def add(a, b):\n    return a.field._make(a.code + b.code)\n"
    loop = (
        "from .mpoly import MultiPoly, _prime_modulus\n"
        "def codes(f):\n    return [c.code for c in f.terms.values()]\n"
        "def make(ring):\n    return ring._make\n"
        "CODE = 'code'\n"
    )
    assert int_code_readers({"rings": rings, "mpoly": rings, "loop": loop}) == [
        "loop: _prime_modulus (line 1)",
        "loop: .code (line 3)",
        "loop: ._make (line 5)",
    ]


NORMALIZERS = {"__init__", "coeff"}


def form_methods_that_sort_indices(source: str) -> list[str]:
    """The methods of ``DiffForm`` in ``source``, other than ``__init__``
    and ``coeff``, that refer to ``_sort_sign``: a form operation hands its
    raw terms to the constructor rather than sorting them itself."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "DiffForm"):
            continue
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name in NORMALIZERS:
                continue
            for node in ast.walk(method):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if name == "_sort_sign":
                    found.append(f"{method.name} (line {node.lineno})")
                    break
    return found


def test_only_the_form_constructor_sorts_indices():
    assert form_methods_that_sort_indices((SRC / "exterior.py").read_text()) == []


def test_form_methods_that_sort_indices_finds_own_normalizers():
    source = (
        "from . import exterior\n"
        "def _sort_sign(idx):\n    return tuple(sorted(idx)), 1\n"
        "class DiffForm:\n"
        "    def __init__(self, terms):\n        self.terms = _sort_sign(terms)\n"
        "    def coeff(self, idx):\n        return _sort_sign(idx)\n"
        "    def wedge(self, other):\n        return _sort_sign(other)\n"
        "    def d(self):\n        return exterior._sort_sign(())\n"
        "class VectorField:\n"
        "    def apply(self, idx):\n        return _sort_sign(idx)\n"
    )
    assert form_methods_that_sort_indices(source) == ["wedge (line 10)", "d (line 12)"]


SHORTCUT_NAMES = {"_certify_coprime", "CONTENT_PRIME"}


def shortcut_readers(sources: dict[str, str]) -> list[str]:
    """Where a module of ``sources`` refers to the plane certificate
    ``_certify_coprime`` or the image prime ``CONTENT_PRIME`` outside
    ``gcd_multi``, their own definitions aside: every gcd shortcut is
    decided in ``gcd_multi``, so no caller grows a certificate start."""
    found = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in {"gcd_multi", *SHORTCUT_NAMES}:
                continue
            if isinstance(stmt, ast.Assign) and all(
                isinstance(t, ast.Name) and t.id in SHORTCUT_NAMES for t in stmt.targets
            ):
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    names = [getattr(node, "id", None) or getattr(node, "attr", None)]
                for name in SHORTCUT_NAMES.intersection(names):
                    found.append((module, node.lineno, name))
    return [f"{module}: {name} (line {line})" for module, line, name in sorted(found)]


def test_only_gcd_multi_takes_gcd_shortcuts():
    assert shortcut_readers(package_sources()) == []


def test_shortcut_readers_finds_certificate_starts():
    mpoly = (
        "CONTENT_PRIME = 2**31 - 1\n"
        "def _certify_coprime(a, b, p):\n    return True\n"
        "def gcd_multi(f, g):\n    return _certify_coprime(f, g, CONTENT_PRIME)\n"
        "def squarefree_decomposition(f):\n    return _certify_coprime(f, f, 3)\n"
        "def gcd_list(polys):\n    return polys[0].ring.p == CONTENT_PRIME\n"
    )
    distmin = (
        "from . import mpoly\n"
        "from .mpoly import CONTENT_PRIME, gcd_list\n"
        "def has_unit_content(theta):\n    return mpoly._certify_coprime(theta, theta, 5)\n"
    )
    assert shortcut_readers({"mpoly": mpoly, "distmin": distmin}) == [
        "distmin: CONTENT_PRIME (line 2)",
        "distmin: _certify_coprime (line 4)",
        "mpoly: _certify_coprime (line 7)",
        "mpoly: CONTENT_PRIME (line 9)",
    ]


TEXT_READER = "parsing"


def text_readers(sources: dict[str, str]) -> list[str]:
    """Where a module of ``sources`` other than ``parsing`` reads text on its
    own: imports ``re``, or defines a function or class whose name holds
    ``token``.  Every input text goes through the one tokenizer and parser
    of ``parsing``."""
    found = []
    for module, source in sources.items():
        if module == TEXT_READER:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]] if not node.level else []
            else:
                names = []
            if "re" in names:
                found.append((module, node.lineno, "imports re"))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and "token" in node.name.lower():
                found.append((module, node.lineno, f"defines {node.name}"))
    return [f"{module}: {what} (line {line})" for module, line, what in sorted(found)]


def test_only_parsing_reads_text():
    assert text_readers(package_sources()) == []


def test_text_readers_finds_regexes_and_tokenizers():
    rings = (
        "import re\n"
        "def parse_up(text):\n    return re.findall(r'[+-]?[^+-]+', text)\n"
    )
    cli = (
        "from re import fullmatch\n"
        "from . import re_exports\n"
        "class _Tokenizer:\n    pass\n"
        "def split_tokens(text):\n    return text.split(',')\n"
    )
    parsing = "import re\ndef tokenize(text):\n    return re.findall(r'\\w+', text)\n"
    assert text_readers({"rings": rings, "cli": cli, "parsing": parsing}) == [
        "cli: imports re (line 1)",
        "cli: defines _Tokenizer (line 3)",
        "cli: defines split_tokens (line 5)",
        "rings: imports re (line 1)",
    ]


CACHE_HOME = "cli"


def process_caches(sources: dict[str, str]) -> list[str]:
    """Where a module of ``sources`` other than ``cli`` uses
    ``functools.cache`` or ``lru_cache``.  Such a cache lives across calls
    and grows for the life of the process; the one other table of that kind
    in the package, the fields kept by ``rings.GF``, is bounded."""
    found = []
    for module, source in sources.items():
        if module == CACHE_HOME:
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = [node.attr]
            else:
                continue
            for name in sorted({"cache", "lru_cache"}.intersection(names)):
                found.append((module, node.lineno, name))
    return [f"{module}: {name} (line {line})" for module, line, name in sorted(found)]


def test_only_cli_caches_across_calls():
    assert process_caches(package_sources()) == []


def test_process_caches_finds_both_spellings():
    mpoly = (
        "import functools\n"
        "@functools.lru_cache(maxsize=None)\ndef gcd(f, g):\n    return f\n"
        "from functools import cached_property, partial\n"
    )
    rings = "from functools import cache as memo, lru_cache\nCACHE = functools.cache\n"
    cli = "import functools\n@functools.cache\ndef build_parser():\n    return 1\n"
    assert process_caches({"mpoly": mpoly, "rings": rings, "cli": cli}) == [
        "mpoly: lru_cache (line 2)",
        "rings: cache (line 1)",
        "rings: lru_cache (line 1)",
        "rings: cache (line 2)",
    ]
