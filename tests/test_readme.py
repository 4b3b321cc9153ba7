import re
import shlex
from pathlib import Path

import pytest

from seqhalt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_examples():
    """(argv, expected stdout lines) for each ``$ seqhalt`` line of the
    README's code blocks; the expected lines run to the next ``$`` line or
    the end of the block."""
    examples, expected = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            expected = None
        elif line.startswith("$ seqhalt "):
            expected = []
            examples.append((shlex.split(line)[2:], expected))
        elif expected is not None:
            expected.append(line)
    return examples


EXAMPLES = cli_examples()


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_cli_example(capsys, argv, expected):
    main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(expected)
    for line, pattern in zip(lines, expected):
        # "..." in the README stands for any run of characters.
        assert re.fullmatch(".*".join(map(re.escape, pattern.split("..."))), line), line
