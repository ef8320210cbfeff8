"""The README's examples run as written: its Python example directly, and
its ``example.txt`` document through ``pfol analyze``."""

from pathlib import Path

from pfol.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(language: str) -> list[str]:
    """The bodies of the README's fenced code blocks tagged ``language``."""
    blocks, body, tag = [], None, None
    for line in README.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("```"):
            if body is None:
                body, tag = [], line[3:].strip()
            else:
                if tag == language:
                    blocks.append("".join(body))
                body = None
        elif body is not None:
            body.append(line)
    return blocks


def test_python_example_runs(capsys):
    (example,) = fenced_blocks("python")
    exec(compile(example, str(README), "exec"), {})
    assert '"p_closed": false' in capsys.readouterr().out


def test_example_document_is_analyzed(tmp_path, capsys):
    (document,) = [b for b in fenced_blocks("") if b.startswith("# example.txt\n")]
    path = tmp_path / "example.txt"
    path.write_text(document, encoding="utf-8")
    assert main(["analyze", str(path)]) == 0
    assert "p-closed: False" in capsys.readouterr().out
