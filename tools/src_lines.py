"""Source size of the ddsemi package, per module and in total.

    python tools/src_lines.py [SRC]

Counts the lines of SRC/ddsemi/*.py (SRC defaults to this tree's ``src``)
that are not blank and whose stripped text does not start with ``#``;
docstrings count. This is the line count that ROADMAP.md quotes.
"""

import pathlib
import sys


def code_lines(path):
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(argv):
    src = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1] / "src"
    counts = {path.name: code_lines(path) for path in sorted((src / "ddsemi").glob("*.py"))}
    if not counts:
        sys.exit(f"src_lines: no modules under {src / 'ddsemi'}")
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")


if __name__ == "__main__":
    main(sys.argv[1:])
