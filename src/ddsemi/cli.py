"""Experiment runner: convergence curves, parameter sweeps, comparisons.

Configuration comes from plain-text ``key = value`` files ('#' comments)
overridden by command-line flags. Outputs are one CSV per (method, h) with
the fixed schema n,error,residual,newton1,newton2,seconds plus a JSON
summary; files are written atomically. Exit codes: 0 success (an inner
Newton failure during a method run is reported as its "solver-failure"
termination), 1 set-up failure such as the reference solve or an invalid
coefficient, 2 configuration error.
"""

import argparse
import importlib
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .iterations import (DNConfig, NNConfig, RRConfig, run_dirichlet_neumann,
                         run_neumann_neumann, run_robin_robin)
from .mesh import build_rect_mesh, decompose_staircase, decompose_vertical
from .oracle import solve_monolithic
from .problems import cubic_reaction_problem, p_laplace_problem
from .subdomain import SubdomainWorkspace

DESK_MESHES = "1/16,1/32,1/64"
FULL_MESHES = "1/64,1/128,1/256"

DEFAULTS = {
    "problem": "example1",
    "method": "dn",
    "width": "3",
    "height": "2",
    "h": DESK_MESHES,
    "interface": "vertical:1.5",
    "s": "",            # per-problem default filled in later
    "s_rr": "46",
    "s1": "0.02",
    "s2": "0.02",
    "eta0": "zero",
    "max_iter": "400",
    "stop_tol": "1e-12",
    "newton_tol": "1e-12",
    "newton_max": "50",
    "degree": "4",
    "output_dir": "results",
    "seed": "0",
    "workers": "1",
    "timing": "on",
    "full_scale": "off",
    # sweep-specific
    "s_min": "0.05",
    "s_max": "1.6",
    "s_count": "12",
    "s_values": "",
    "sweep_tol": "1e-6",
}

S_DN_DEFAULT = {"example1": 0.36, "example2-plaplace": 0.31}


class ConfigError(ValueError):
    """Unusable configuration (unknown key, bad value, bad combination)."""


def parse_h(text):
    try:
        h = float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse mesh size {text!r}") from exc
    if not h > 0:
        raise ConfigError(f"mesh size must be positive (got {text!r})")
    return h


def _h_tag(h):
    inv = 1.0 / h
    if abs(inv - round(inv)) < 1e-9:
        return str(int(round(inv)))
    return repr(h).replace(".", "p")


def load_config(path):
    """Read ``key = value`` lines; '#' starts a comment; keys must be known."""
    values = {}
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                if key not in DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def validate_config(cfg):
    """Reject malformed values up front so they exit with code 2."""
    def number(key, positive=False, optional=False):
        raw = cfg[key]
        if optional and raw == "":
            return None
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{key} must be a number (got {raw!r})") from None
        if positive and not val > 0:
            raise ConfigError(f"{key} must be positive (got {raw!r})")
        return val

    def integer(key, minimum=None):
        try:
            val = int(cfg[key])
        except ValueError:
            raise ConfigError(f"{key} must be an integer (got {cfg[key]!r})") from None
        if minimum is not None and val < minimum:
            raise ConfigError(f"{key} must be at least {minimum}")
        return val

    number("width", positive=True)
    number("height", positive=True)
    number("s", positive=True, optional=True)
    number("s_rr", positive=True)
    number("s1", positive=True)
    number("s2", positive=True)
    number("stop_tol", positive=True)
    number("newton_tol", positive=True)
    number("sweep_tol", positive=True)
    integer("max_iter", 1)
    integer("newton_max", 1)
    integer("seed")
    integer("workers")
    if integer("degree") not in (1, 2, 4):
        raise ConfigError(f"degree must be 1, 2 or 4 (got {cfg['degree']!r})")
    for key in ("timing", "full_scale"):
        if cfg[key] not in ("on", "off"):
            raise ConfigError(f"{key} must be 'on' or 'off'")
    if cfg["eta0"] not in ("zero", "reference", ""):
        raise ConfigError(f"eta0 must be 'zero' or 'reference' (got {cfg['eta0']!r})")
    _h_list(cfg)
    _methods(cfg)


def make_problem(spec):
    if spec == "example1":
        return cubic_reaction_problem()
    if spec in ("example2", "example2-plaplace"):
        return p_laplace_problem()
    if spec.startswith("custom:"):
        target = spec[len("custom:"):]
        if ":" not in target:
            raise ConfigError("custom problem must be 'custom:module:factory'")
        module, attr = target.rsplit(":", 1)
        try:
            factory = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(f"cannot load custom problem {target!r}: {exc}") from exc
        return factory()
    raise ConfigError(f"unknown problem {spec!r}")


def make_decomposition(mesh, spec):
    kind, _, rest = spec.partition(":")
    if kind == "vertical":
        try:
            return decompose_vertical(mesh, float(Fraction(rest)))
        except ValueError as exc:
            raise ConfigError(f"bad vertical interface {spec!r}: {exc}") from exc
    if kind == "staircase":
        try:
            points = [tuple(float(Fraction(c)) for c in pt.split(","))
                      for pt in rest.split(";") if pt.strip()]
            return decompose_staircase(mesh, points)
        except ValueError as exc:
            raise ConfigError(f"bad staircase interface {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown interface spec {spec!r} (vertical:X or staircase:...)")


def _atomic_write(path, text):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    with os.fdopen(fd, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _write_report_csv(report, path, timing):
    if not timing:
        report = replace(report, rows=[replace(row, seconds=0.0) for row in report.rows])
    import io

    buf = io.StringIO()
    report.to_csv(buf)
    _atomic_write(path, buf.getvalue())


def _dump_json(obj, path):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Experiment:
    """Shared per-(problem, h) state: mesh, decomposition, reference."""

    def __init__(self, cfg, h):
        self.cfg = cfg
        self.h = h
        self.problem = make_problem(cfg["problem"])
        self.mesh = build_rect_mesh(float(cfg["width"]), float(cfg["height"]), h)
        self.decomp = make_decomposition(self.mesh, cfg["interface"])
        cache_dir = os.path.join(cfg["output_dir"], "cache")
        self.reference = solve_monolithic(self.problem, self.mesh,
                                          degree=int(cfg["degree"]),
                                          newton_rtol=float(cfg["newton_tol"]),
                                          newton_max=int(cfg["newton_max"]),
                                          cache_dir=cache_dir)

    def workspaces(self):
        return tuple(SubdomainWorkspace(self.mesh, self.decomp, self.problem, side,
                                        degree=int(self.cfg["degree"]),
                                        newton_rtol=float(self.cfg["newton_tol"]),
                                        newton_max=int(self.cfg["newton_max"]))
                     for side in (1, 2))

    def eta0(self):
        if self.cfg["eta0"] == "reference":
            return self.reference.trace(self.decomp)
        if self.cfg["eta0"] in ("zero", ""):
            return None
        raise ConfigError(f"unknown eta0 {self.cfg['eta0']!r} (zero or reference)")

    def s_dn(self):
        if self.cfg["s"]:
            return float(self.cfg["s"])
        return S_DN_DEFAULT.get(self.cfg["problem"], 0.36)

    def run_method(self, method, s=None, max_iter=None):
        ws1, ws2 = self.workspaces()
        stop_tol = float(self.cfg["stop_tol"])
        max_iter = max_iter or int(self.cfg["max_iter"])
        eta0 = self.eta0()
        if method == "dn":
            run_cfg = DNConfig(s=s if s is not None else self.s_dn(), eta0=eta0,
                               max_iter=max_iter, stop_tol=stop_tol)
            report = run_dirichlet_neumann(run_cfg, ws1, ws2, self.reference)
            return report, run_cfg.s
        if method == "rr":
            run_cfg = RRConfig(s=s if s is not None else float(self.cfg["s_rr"]),
                               eta0=eta0, max_iter=max_iter, stop_tol=stop_tol)
            report = run_robin_robin(run_cfg, ws1, ws2, self.reference)
            return report, run_cfg.s
        if method == "nn":
            s1 = s if s is not None else float(self.cfg["s1"])
            s2 = s if s is not None else float(self.cfg["s2"])
            run_cfg = NNConfig(s1=s1, s2=s2, eta0=eta0,
                               max_iter=max_iter, stop_tol=stop_tol)
            report = run_neumann_neumann(run_cfg, ws1, ws2, self.reference)
            return report, [run_cfg.s1, run_cfg.s2]
        raise ConfigError(f"unknown method {method!r}")


def _merge_config(args):
    cfg = dict(DEFAULTS)
    explicit = set()
    if args.config:
        file_values = load_config(args.config)
        cfg.update(file_values)
        explicit.update(file_values)
    for key in DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = str(val)
            explicit.add(key)
    # full_scale switches the default mesh family; an explicit h wins
    if cfg["full_scale"] == "on" and "h" not in explicit:
        cfg["h"] = FULL_MESHES
    return cfg


def _h_list(cfg):
    hs = [parse_h(tok) for tok in cfg["h"].split(",") if tok.strip()]
    if not hs:
        raise ConfigError("no mesh sizes given")
    return hs


def _methods(cfg):
    m = cfg["method"]
    if m == "all":
        return ["dn", "rr", "nn"]
    if m in ("dn", "rr", "nn"):
        return [m]
    raise ConfigError(f"unknown method {m!r} (dn, rr, nn or all)")


def cmd_run(cfg):
    validate_config(cfg)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    timing = cfg["timing"] == "on"
    summaries = []
    for h in _h_list(cfg):
        exp = Experiment(cfg, h)
        for method in _methods(cfg):
            report, s_used = exp.run_method(method)
            csv_path = os.path.join(out, f"{method}_h{_h_tag(h)}.csv")
            _write_report_csv(report, csv_path, timing)
            summary = report.summary(h=h, s=s_used)
            summary["csv"] = os.path.basename(csv_path)
            summary["problem"] = cfg["problem"]
            summary["seed"] = int(cfg["seed"])
            summaries.append(summary)
            print(f"{method} h={h:g}: {report.termination} after "
                  f"{report.iterations} iterations, final error "
                  f"{report.final_error:.3e}")
    _dump_json(summaries, os.path.join(out, "summary.json"))
    return 0


def cmd_compare(cfg):
    validate_config(cfg)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    timing = cfg["timing"] == "on"
    h = _h_list(cfg)[0]
    exp = Experiment(cfg, h)
    methods = ("dn", "rr", "nn")
    workers = max(1, int(cfg["workers"]))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(exp.run_method, methods))
    else:
        results = [exp.run_method(method) for method in methods]

    reports = {}
    summaries = []
    for method, (report, s_used) in zip(methods, results):
        reports[method] = report
        csv_path = os.path.join(out, f"{method}_h{_h_tag(h)}.csv")
        _write_report_csv(report, csv_path, timing)
        summary = report.summary(h=h, s=s_used)
        summary["problem"] = cfg["problem"]
        summaries.append(summary)
        print(f"{method}: {report.termination} after {report.iterations} iterations")

    depth = max(len(r.rows) for r in reports.values())
    lines = ["n,error_dn,error_rr,error_nn"]
    for n in range(depth):
        cells = [str(n)]
        for method in ("dn", "rr", "nn"):
            rows = reports[method].rows
            if n < len(rows) and np.isfinite(rows[n].error):
                cells.append(repr(float(rows[n].error)))
            else:
                cells.append("")
        lines.append(",".join(cells))
    _atomic_write(os.path.join(out, f"compare_h{_h_tag(h)}.csv"),
                  "\n".join(lines) + "\n")
    _dump_json(summaries, os.path.join(out, "summary.json"))
    return 0


def _sweep_grid(cfg):
    try:
        if cfg["s_values"]:
            return [float(tok) for tok in cfg["s_values"].split(",") if tok.strip()]
        lo, hi, count = float(cfg["s_min"]), float(cfg["s_max"]), int(cfg["s_count"])
    except ValueError as exc:
        raise ConfigError(f"bad sweep grid: {exc}") from None
    if not (0 < lo < hi) or count < 2:
        raise ConfigError("sweep grid needs 0 < s_min < s_max and s_count >= 2")
    return list(np.geomspace(lo, hi, count))


def _sweep_cell(exp, method, s, tol):
    if s <= 0:
        return {"s": s, "status": "no-progress", "converged": False,
                "iterations_to_tol": None, "final_error": None}
    report, _ = exp.run_method(method, s=s)
    return {"s": s, "status": report.termination, "converged": report.converged,
            "iterations_to_tol": report.iterations_to(tol),
            "final_error": None if np.isnan(report.final_error) else report.final_error}


def cmd_sweep(cfg):
    validate_config(cfg)
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    h = _h_list(cfg)[0]
    method = _methods(cfg)[0]
    tol = float(cfg["sweep_tol"])
    grid = _sweep_grid(cfg)
    exp = Experiment(cfg, h)

    workers = max(1, int(cfg["workers"]))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda s: _sweep_cell(exp, method, s, tol), grid))
    else:
        cells = [_sweep_cell(exp, method, s, tol) for s in grid]
    cells.sort(key=lambda c: c["s"])

    lines = ["s,iterations_to_tol,converged,final_error,status"]
    for c in cells:
        lines.append(",".join([
            repr(float(c["s"])),
            "" if c["iterations_to_tol"] is None else str(c["iterations_to_tol"]),
            str(c["converged"]).lower(),
            "" if c["final_error"] is None else repr(float(c["final_error"])),
            c["status"],
        ]))
    _atomic_write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")

    reached = [c for c in cells if c["iterations_to_tol"] is not None]
    best = min(reached, key=lambda c: (c["iterations_to_tol"], c["s"])) if reached else None
    _dump_json({"method": method, "h": h, "tol": tol, "cells": cells,
                "best_s": None if best is None else best["s"]},
               os.path.join(out, "sweep.json"))
    for c in cells:
        print(f"s={c['s']:.4g}: {c['status']}, iterations to {tol:g} = "
              f"{c['iterations_to_tol']}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddsemi",
        description="Nonoverlapping domain-decomposition experiments for "
                    "semilinear elliptic problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("run", "run one method over one or more meshes"),
                            ("sweep", "sweep the relaxation parameter"),
                            ("compare", "run dn, rr and nn on one mesh")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--problem", help="example1 | example2-plaplace | custom:module:factory")
        p.add_argument("--method", help="dn | rr | nn | all")
        p.add_argument("--width", type=float)
        p.add_argument("--height", type=float)
        p.add_argument("--h", help="comma-separated mesh sizes, e.g. 1/16,1/32")
        p.add_argument("--interface", help="vertical:X or staircase:x,y;x,y;...")
        p.add_argument("--s", help="relaxation parameter")
        p.add_argument("--s-rr", dest="s_rr")
        p.add_argument("--s1")
        p.add_argument("--s2")
        p.add_argument("--eta0", help="zero | reference")
        p.add_argument("--max-iter", dest="max_iter")
        p.add_argument("--stop-tol", dest="stop_tol")
        p.add_argument("--newton-tol", dest="newton_tol")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--seed")
        p.add_argument("--workers")
        p.add_argument("--no-timing", dest="timing", action="store_const", const="off")
        p.add_argument("--full-scale", dest="full_scale", action="store_const", const="on",
                       help="use the fine mesh family 1/64,1/128,1/256")
        if name == "sweep":
            p.add_argument("--s-min", dest="s_min")
            p.add_argument("--s-max", dest="s_max")
            p.add_argument("--s-count", dest="s_count")
            p.add_argument("--s-values", dest="s_values")
            p.add_argument("--sweep-tol", dest="sweep_tol")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        command = {"run": cmd_run, "sweep": cmd_sweep, "compare": cmd_compare}[args.command]
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return command(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # set-up failure: diagnostic + exit 1
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
