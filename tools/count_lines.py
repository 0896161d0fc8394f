"""Count the lines of the Python sources under src/.

Run from the repository root:

    python3 tools/count_lines.py [ROOT]

Prints, for each Python file under ROOT/src (ROOT defaults to the current
directory) and then for all of them, the number of lines and of code lines.
Code lines are the lines that hold at least one token other than a comment,
a docstring or layout.  A docstring is a statement made of one string
literal.  Tokens come from the standard library's `tokenize`, so a
multi-line string counts on every line it spans.
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
    total = code = 0
    for path in sorted(root.rglob("*.py")):
        n, c = len(path.read_text().splitlines()), len(code_lines(path))
        print(f"{path.relative_to(root)}: lines {n}, code lines {c}")
        total, code = total + n, code + c
    print(f"lines {total}")
    print(f"code lines {code}")


if __name__ == "__main__":
    main()
