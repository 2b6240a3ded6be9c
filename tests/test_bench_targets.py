"""Every name the benchmark tracer wraps must still be defined where the
tracer looks for it, so that renaming or moving a traced function or method
fails here instead of breaking ``bench/run.py --trace 1``, and the
benchmark's own self-test must pass."""

import os
import pathlib
import subprocess
import sys

import pytest

from bench import tracing

TARGETS = [(owner, attr) for owner, attr, _name, _after in tracing.Tracer(0)._targets()]


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)


def test_bench_self_test_passes():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-test"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test: ok" in proc.stdout
