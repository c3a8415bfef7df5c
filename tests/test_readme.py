"""The README's library sketch runs as written, so it names no missing API."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(code, "README.md (Library sketch)", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3
