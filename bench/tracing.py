"""Spans around the calls into each ddsemi layer, recorded from outside.

``Tracer.installed()`` swaps the public functions and methods listed in
``_targets`` for wrappers that record a span per call (name, start, end,
parent, run id) and puts the originals back on exit. Spans stay in memory
until ``write`` dumps them once, as JSON lines. ``layer_metrics`` turns
the spans of one traced solve into the per-layer metrics.
"""

import collections
import contextlib
import functools
import json
import time

from ddsemi import assembly, iterations, mesh, oracle, subdomain

SETUP = "bench.setup"
SOLVE = "bench.solve"
SUBDOMAIN_KINDS = {"dirichlet_solve": "dirichlet", "neumann_solve": "neumann",
                   "robin_solve": "robin", "neumann_correction_solve": "correction"}
LAYERS = ("oracle", "assembly", "subdomain", "iterations")


class Span:
    __slots__ = ("id", "name", "parent", "root", "start", "end", "attrs")

    def __init__(self, id_, name, parent, root):
        self.id, self.name, self.parent, self.root = id_, name, parent, root
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent,
                   self._stack[0] if self._stack else len(self.spans))
        self.spans.append(rec)
        self._stack.append(rec.id)
        rec.start = time.perf_counter()
        return rec

    def _close(self, rec):
        rec.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, after=None):
        """fn with a span around each call; ``after(span, args, result)``
        runs outside the span and returns what the caller gets."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec.attrs["failed"] = True
                raise
            finally:
                self._close(rec)
            return after(rec, args, out) if after is not None else out

        return traced

    def _targets(self):
        def steps(count):
            def after(rec, _args, out):
                rec.attrs["steps"] = count(out)
                return out
            return after

        newton_steps = steps(lambda out: out[1])

        def traced_lu(rec, args, lu):
            rec.attrs["lu_nnz"] = lu.nnz
            rec.attrs["a_nnz"] = args[0].nnz
            return _TracedLU(lu, self.wrap("subdomain.lu_solve", lu.solve))

        yield mesh, "build_rect_mesh", "mesh.build_rect_mesh", None
        yield mesh, "decompose_vertical", "mesh.decompose_vertical", None
        yield mesh, "decompose_staircase", "mesh.decompose_staircase", None
        yield (oracle, "solve_monolithic", "oracle.solve_monolithic",
               steps(lambda out: out.newton_iterations))
        yield assembly.Assembler, "residual", "assembly.residual", None
        yield assembly.Assembler, "jacobian", "assembly.jacobian", None
        # the oracle imported sparse_newton by name, so both bindings are wrapped
        yield subdomain, "sparse_newton", "subdomain.newton", newton_steps
        yield oracle, "sparse_newton", "subdomain.newton", newton_steps
        yield subdomain, "splu", "subdomain.splu", traced_lu
        for method, kind in SUBDOMAIN_KINDS.items():
            yield subdomain.SubdomainWorkspace, method, f"subdomain.{kind}", None
        for method in ("run_dirichlet_neumann", "run_robin_robin", "run_neumann_neumann"):
            yield iterations, method, "iterations.method", steps(lambda out: out.iterations)
        yield iterations.RelativeFieldError, "__call__", "iterations.meter", None

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, after in self._targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"run": self.run_id, "id": s.id, "name": s.name,
                                    "parent": s.parent, "start": s.start, "end": s.end,
                                    **s.attrs}) + "\n")


class _TracedLU:
    """SuperLU stand-in whose ``solve`` records a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def layer_metrics(spans, solve_root, untraced_solve_s):
    """Per-layer metrics of one traced solve, as {name: (value, unit)}.

    Everything but ``mesh.*`` and ``oracle.solve_monolithic.*`` counts only
    the spans under ``solve_root``; those two also count set-up, where the
    mesh is built and the interface workloads solve their reference.
    Shares are of the traced solve's wall time.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_s[s.parent] += s.seconds
    total = spans[solve_root].seconds

    def self_s(s):
        return s.seconds - child_s[s.id]

    solve = [s for s in spans if s.root == solve_root]
    by_name = {}
    for s in solve:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def seconds(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    newtons = by_name.get("subdomain.newton", [])
    residuals_in = collections.Counter(s.parent for s in by_name.get("assembly.residual", ()))
    lus = by_name.get("subdomain.splu", [])
    dirichlet = by_name.get("subdomain.dirichlet", [])
    newton_parents = {s.parent for s in newtons}
    oracles = [s for s in spans if s.name == "oracle.solve_monolithic"]

    out = {
        "mesh.build_s": (sum(s.seconds for s in spans if s.name.startswith("mesh.")), "s"),
        "oracle.solve_monolithic.s": (sum(s.seconds for s in oracles), "s"),
        "oracle.solve_monolithic.newton_steps":
            (sum(s.attrs.get("steps", 0) for s in oracles), "count"),
    }
    for name in ("assembly.residual", "assembly.jacobian", "subdomain.splu",
                 "subdomain.lu_solve"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.s"] = (seconds(name), "s")
    out["subdomain.splu.fill_nnz"] = (max((s.attrs["lu_nnz"] for s in lus), default=0), "count")
    out["subdomain.splu.fill_ratio"] = (ratio(sum(s.attrs["lu_nnz"] for s in lus),
                                              sum(s.attrs["a_nnz"] for s in lus)), "ratio")
    steps = sum(s.attrs.get("steps", 0) for s in newtons)
    # line-search trials beyond the first of each step (failed solves
    # carry no step count and are left out)
    backtracks = sum(residuals_in[s.id] - 1 - s.attrs["steps"]
                     for s in newtons if "steps" in s.attrs)
    out.update({
        "subdomain.newton.calls": (len(newtons), "count"),
        "subdomain.newton.steps": (steps, "count"),
        "subdomain.newton.backtracks": (backtracks, "count"),
        "subdomain.newton.failures": (sum(1 for s in newtons if s.attrs.get("failed")), "count"),
        "subdomain.newton.self_s": (sum(self_s(s) for s in newtons), "s"),
    })
    for kind in SUBDOMAIN_KINDS.values():
        name = f"subdomain.{kind}"
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.share"] = (ratio(seconds(name), total), "share")
    hits = sum(1 for s in dirichlet if s.id not in newton_parents)
    out["subdomain.dirichlet.cache_hits"] = (hits, "count")
    out["subdomain.dirichlet.hit_ratio"] = (ratio(hits, len(dirichlet)), "ratio")
    out["iterations.outer_steps"] = (
        sum(s.attrs.get("steps", 0) for s in by_name.get("iterations.method", ())), "count")
    out["iterations.meter.calls"] = (calls("iterations.meter"), "count")
    out["iterations.meter.share"] = (ratio(seconds("iterations.meter"), total), "share")
    for layer in LAYERS:
        layer_self = sum(self_s(s) for s in solve if s.name.startswith(layer + "."))
        out[f"{layer}.self_share"] = (ratio(layer_self, total), "share")
    out["trace.unattributed_share"] = (ratio(self_s(spans[solve_root]), total), "share")
    out["trace.overhead"] = (ratio(total, untraced_solve_s), "ratio")
    out["trace.spans"] = (len(solve), "count")
    return out
