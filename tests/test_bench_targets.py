"""Every name the benchmark tracer wraps must still be defined where the
tracer looks for it, so that renaming or moving a traced function or method
fails here instead of breaking ``bench/run.py --trace 1``; ``subdomain.splu``
must be called once per counted factorization and return what the tracer
reads; a nested reference solve must record one span with all its steps;
and the benchmark's own self-test must pass."""

import os
import pathlib
import subprocess
import sys

import pytest

from bench import tracing
from ddsemi import oracle, subdomain
from ddsemi.iterations import DNConfig, run_dirichlet_neumann
from ddsemi.mesh import build_rect_mesh, decompose_vertical
from ddsemi.problems import cubic_reaction_problem

TARGETS = [(owner, attr) for owner, attr, _name, _after in tracing.Tracer(0)._targets()]


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)


def test_splu_is_called_per_factorization_and_returns_what_the_tracer_reads(monkeypatch):
    prob = cubic_reaction_problem()
    mesh = build_rect_mesh(3, 2, 1 / 8)
    decomp = decompose_vertical(mesh, 1.5)
    ws1 = subdomain.SubdomainWorkspace(mesh, decomp, prob, 1)
    ws2 = subdomain.SubdomainWorkspace(mesh, decomp, prob, 2)
    calls = []
    original = subdomain.splu

    def spy(*args, **kwargs):
        lu = original(*args, **kwargs)
        calls.append((args[0], lu))
        return lu

    monkeypatch.setattr(subdomain, "splu", spy)
    report = run_dirichlet_neumann(DNConfig(s=0.36), ws1, ws2)
    assert report.converged
    assert 0 < len(calls) == ws1.factorizations + ws2.factorizations
    for matrix, lu in calls:
        assert type(matrix.nnz) is int
        assert type(lu.nnz) is int
        assert callable(lu.solve)


def test_nested_reference_records_one_span_with_every_level():
    # the coarse levels run inside the public call, so oracle.solve_monolithic.s
    # counts each level's time once
    tracer = tracing.Tracer(0)
    with tracer.installed():
        sol = oracle.solve_monolithic(cubic_reaction_problem(), build_rect_mesh(3, 2, 1 / 20))
    spans = [s for s in tracer.spans if s.name == "oracle.solve_monolithic"]
    assert len(spans) == 1
    assert spans[0].attrs["steps"] == sol.newton_iterations
    newtons = [s for s in tracer.spans if s.name == "subdomain.newton"]
    assert len(newtons) == 2  # the 2h level and the fine level
    assert sum(s.attrs["steps"] for s in newtons) == sol.newton_iterations


def test_bench_self_test_passes():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--self-test"], cwd=root,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-test: ok" in proc.stdout
