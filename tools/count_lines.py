"""Count the lines of the Python sources under src/.

Run from the repository root:

    python3 tools/count_lines.py [ROOT]

Prints two numbers for ROOT/src (ROOT defaults to the current directory):
the total number of lines, and the code lines, which are the lines that
hold at least one token other than a comment, a docstring or layout.  A
docstring is a statement made of one string literal.  Tokens come from the
standard library's `tokenize`, so a multi-line string counts on every line
it spans.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
LAYOUT = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> set[int]:
    """Numbers of the lines of `path` that carry code."""
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in SKIP]
    lines: set[int] = set()
    prev = tokenize.NEWLINE
    for tok, nxt in zip(tokens, tokens[1:]):
        docstring = (tok.type == tokenize.STRING and prev in STATEMENT_START
                     and nxt.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if tok.type not in LAYOUT and not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return lines


def main() -> None:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".") / "src"
    files = sorted(root.rglob("*.py"))
    total = sum(len(p.read_text().splitlines()) for p in files)
    code = sum(len(code_lines(p)) for p in files)
    print(f"lines {total}")
    print(f"code lines {code}")


if __name__ == "__main__":
    main()
