"""The line collection and allowlist matching of ``tests/reach.py``, on a
small source."""

import reach

SOURCE = """\
def sign(n):
    if n < 0:
        return -1
    return 1


class Box:
    def get(self, key):
        found = [v for k, v in self.items if k == key]
        if not found:
            raise KeyError(key)
        return found[0]
"""


def unrun(source, tmp_path):
    """The unrun lines of ``source`` after sign(3) and a found key."""
    path = tmp_path / "small.py"
    path.write_text(source)
    code = compile(source, str(path), "exec")

    def run():
        namespace = {}
        exec(code, namespace)
        namespace["sign"](3)
        box = namespace["Box"]()
        box.items = [(1, 2)]
        return box.get(1)

    result, reached = reach.trace(run, [str(path)])
    assert result == 2
    return reach.unrun_lines({"small": (str(path), source)}, reached)


def test_reach_reports_exactly_the_unrun_branches(tmp_path):
    # the comprehension's lines count for Box.get, the function around it
    assert reach.executable_lines(SOURCE, "small.py")[9] == "Box.get"
    assert unrun(SOURCE, tmp_path) == [
        ("small", "sign", 3, "return -1"),
        ("small", "Box.get", 11, "raise KeyError(key)"),
    ]


def test_allowlist_entries_survive_a_shift_of_line_numbers(tmp_path):
    lines = unrun(SOURCE, tmp_path)
    shifted = unrun("# two lines\n# more\n" + SOURCE, tmp_path)
    assert [line for *_, line, _ in shifted] == [line + 2 for *_, line, _ in lines]
    allowed = [("small", "sign", "return -1", "a reason")]
    for found in (lines, shifted):
        assert reach.check_allowed(found, allowed) == (found[1:], [])
    # an entry that names no unrun line is stale, and its line is new
    renamed = [("small", "signum", "return -1", "a reason")]
    assert reach.check_allowed(shifted, renamed) == (shifted, renamed)
