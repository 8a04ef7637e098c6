"""The README's "Library use" block runs as written and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs_and_prints_its_comments(capsys):
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)[1]
    exec(compile(block, str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    # Each print(...) line ends in a comment showing its output; "..." stands for more digits.
    expected = [line.partition("# ")[2] for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(expected) == 3
    for line, comment in zip(printed, expected):
        assert re.fullmatch(re.escape(comment).replace(r"\.\.\.", r"\d*"), line), (line, comment)
