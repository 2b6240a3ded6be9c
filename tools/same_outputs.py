"""Compare the outputs of this tree's ddsemi with those of a git revision.

    python tools/same_outputs.py REV

Extracts REV's ``src`` with ``git archive`` into a temporary directory and
runs, for that tree and then for this one, each command below in a fresh
Python process that imports ddsemi from the tree's ``src``, into an empty
output directory:

- ``ddsemi run --method all --h 1/8,1/16 --no-timing``
- ``ddsemi run --method all --h 1/24 --no-timing``
- ``ddsemi compare --h 1/16 --workers 2 --no-timing``
- ``ddsemi run --method all --h 1/8,1/16 --interface
  "staircase:1.5,0;1.5,1;2,1;2,2" --no-timing``
- ``ddsemi run --method dn --h 1/8 --interface vertical:3/2 --no-timing``
  (the fraction form of the default interface)

It then prints "same" or "DIFF" for every output file (the reference
``cache/`` included; a file that only one tree wrote is a DIFF) and for
every line of each command's standard output (under a differing line,
REV's), and exits 1 on any difference or when a command fails.
"""

import io
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = (
    ("run-h8-h16", ["run", "--method", "all", "--h", "1/8,1/16", "--no-timing"]),
    ("run-h24", ["run", "--method", "all", "--h", "1/24", "--no-timing"]),
    ("compare-h16", ["compare", "--h", "1/16", "--workers", "2", "--no-timing"]),
    ("staircase-h8-h16", ["run", "--method", "all", "--h", "1/8,1/16", "--interface",
                          "staircase:1.5,0;1.5,1;2,1;2,2", "--no-timing"]),
    ("fraction-h8", ["run", "--method", "dn", "--h", "1/8", "--interface", "vertical:3/2",
                     "--no-timing"]),
)
MAIN = "import sys; from ddsemi.cli import main; sys.exit(main(sys.argv[1:]))"


def extract_src(rev, dest):
    """Write REV's ``src`` under dest with ``git archive``; returns its path."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)
    return pathlib.Path(dest) / "src"


def run_tree(src, out):
    """Run every command on the ddsemi under src, each into out/NAME; returns
    {name: standard output lines}."""
    env = dict(os.environ, PYTHONPATH=str(src))
    stdout = {}
    for name, argv in COMMANDS:
        done = subprocess.run([sys.executable, "-c", MAIN, *argv, "--output-dir",
                               str(out / name)], env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"same_outputs: {name} on {src} exited {done.returncode}:\n{done.stderr}")
        stdout[name] = done.stdout.splitlines()
    return stdout


def files(out):
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in out.rglob("*") if path.is_file()}


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        old_out, new_out = tmp / "rev-out", tmp / "tree-out"
        old_stdout = run_tree(extract_src(argv[0], tmp / "rev"), old_out)
        new_stdout = run_tree(ROOT / "src", new_out)
        old_files, new_files = files(old_out), files(new_out)
        differ = False
        for name in sorted(old_files.keys() | new_files.keys()):
            same = old_files.get(name) == new_files.get(name)
            differ |= not same
            print(f"{'same' if same else 'DIFF'}  {name}")
        for name, _ in COMMANDS:
            old, new = old_stdout[name], new_stdout[name]
            for i in range(max(len(old), len(new))):
                line = new[i] if i < len(new) else old[i]
                same = i < len(old) and i < len(new) and old[i] == new[i]
                differ |= not same
                print(f"{'same' if same else 'DIFF'}  {name} stdout: {line}")
                if not same and i < len(old) and i < len(new):
                    print(f"      {argv[0]}: {old[i]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
