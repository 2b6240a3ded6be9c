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
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction

import numpy as np

from .iterations import (DNConfig, NNConfig, RRConfig, run_dirichlet_neumann,
                         run_neumann_neumann, run_robin_robin)
from .mesh import build_rect_mesh, decompose_staircase, decompose_vertical
from .oracle import atomic_write, solve_monolithic
from .problems import cubic_reaction_problem, p_laplace_problem
from .subdomain import SubdomainWorkspace

DESK_MESHES = "1/16,1/32,1/64"
FULL_MESHES = "1/64,1/128,1/256"
METHODS = ("dn", "rr", "nn")
S_DN_DEFAULT = {"example1": 0.36, "example2-plaplace": 0.31}


class ConfigError(ValueError):
    """Unusable configuration (unknown key, bad value, bad combination)."""


def parse_h(text):
    try:
        h = float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"cannot parse mesh size {text!r}") from exc
    if not h > 0:
        raise ConfigError(f"mesh size must be positive (got {text!r})")
    return h


# Value parsers: parse(key, text) returns the typed value or raises ConfigError.

def _text(key, raw):
    return raw


def _number(positive=True, optional=False):
    def parse(key, raw):
        if optional and raw == "":
            return None
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"{key} must be a number (got {raw!r})") from None
        if not math.isfinite(val):
            raise ConfigError(f"{key} must be finite (got {raw!r})")
        if positive and not val > 0:
            raise ConfigError(f"{key} must be positive (got {raw!r})")
        return val
    return parse


def _integer(minimum=None):
    def parse(key, raw):
        try:
            val = int(raw)
        except ValueError:
            raise ConfigError(f"{key} must be an integer (got {raw!r})") from None
        if minimum is not None and val < minimum:
            raise ConfigError(f"{key} must be at least {minimum}")
        return val
    return parse


def _degree(key, raw):
    degree = _integer()(key, raw)
    if degree not in (1, 2, 4):
        raise ConfigError(f"degree must be 1, 2 or 4 (got {raw!r})")
    return degree


def _choice(options, message):
    """Parser mapping each allowed text to its value; ``message`` is formatted
    with the key and the raw text when the text is not allowed."""
    def parse(key, raw):
        if raw not in options:
            raise ConfigError(message.format(key=key, raw=raw))
        return options[raw]
    return parse


def _mesh_sizes(key, raw):
    hs = [parse_h(tok) for tok in raw.split(",") if tok.strip()]
    if not hs:
        raise ConfigError("no mesh sizes given")
    return hs


def _numbers(key, raw):
    number = _number(positive=False)
    return [number(key, tok) for tok in map(str.strip, raw.split(",")) if tok]


_SWITCH = _choice({"on": True, "off": False}, "{key} must be 'on' or 'off'")

# Every configuration key once: key -> (default text, parser, help). Each key
# is a config-file key and a --key-name flag of every command.
KEYS = {
    "problem": ("example1", _text, "example1 | example2-plaplace | custom:module:factory"),
    "method": ("dn", _choice({"all": METHODS, **{m: (m,) for m in METHODS}},
                             f"unknown method {{raw!r}} ({', '.join(METHODS)} or all)"),
               " | ".join(METHODS + ("all",))),
    "width": ("3", _number(), "rectangle width"),
    "height": ("2", _number(), "rectangle height"),
    "h": (DESK_MESHES, _mesh_sizes, "comma-separated mesh sizes, e.g. 1/16,1/32"),
    "interface": ("vertical:1.5", _text, "vertical:X or staircase:x,y;x,y;..."),
    "s": ("", _number(optional=True), "DN relaxation parameter (default per problem)"),
    "s_rr": ("46", _number(), "Robin parameter"),
    "s1": ("0.02", _number(), "NN correction weight of side 1"),
    "s2": ("0.02", _number(), "NN correction weight of side 2"),
    "eta0": ("zero", _choice({"zero": "zero", "": "zero", "reference": "reference"},
                             "eta0 must be 'zero' or 'reference' (got {raw!r})"),
             "zero | reference"),
    "max_iter": ("400", _integer(1), "outer iteration budget"),
    "stop_tol": ("1e-12", _number(), "interface residual stopping tolerance"),
    "newton_tol": ("1e-12", _number(), "inner Newton tolerance"),
    "newton_max": ("50", _integer(1), "inner Newton budget"),
    "degree": ("4", _degree, "quadrature degree: 1, 2 or 4"),
    "output_dir": ("results", _text, "artifact directory"),
    "seed": ("0", _integer(), "recorded in summaries"),
    "workers": ("1", _integer(1), "worker threads"),
    "timing": ("on", _SWITCH, "on | off (off zeroes the seconds column)"),
    "full_scale": ("off", _SWITCH, "use the fine mesh family 1/64,1/128,1/256"),
    "s_min": ("0.05", _number(positive=False), "smallest s of the geometric sweep grid"),
    "s_max": ("1.6", _number(positive=False), "largest s of the geometric sweep grid"),
    "s_count": ("12", _integer(), "number of points of the geometric sweep grid"),
    "s_values": ("", _numbers, "comma-separated sweep values (override the grid)"),
    "sweep_tol": ("1e-6", _number(), "error target for iterations-to-tolerance"),
}

DEFAULTS = {key: default for key, (default, _, _) in KEYS.items()}


def _h_tag(h):
    inv = 1.0 / h
    if abs(inv - round(inv)) < 1e-9:
        return str(int(round(inv)))
    return repr(h).replace(".", "p")


def _csv_name(method, h):
    return f"{method}_h{_h_tag(h)}.csv"


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
                if key not in KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = val
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def validate_config(cfg):
    """Parse every key of a merged configuration into its typed value, so a
    malformed value exits with code 2 before any work starts."""
    typed = {key: parse(key, cfg[key]) for key, (_, parse, _) in KEYS.items()}
    if typed["s"] is None:
        typed["s"] = S_DN_DEFAULT.get(typed["problem"], 0.36)
    return typed


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
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad vertical interface {spec!r}: {exc}") from exc
    if kind == "staircase":
        try:
            points = [tuple(float(Fraction(c)) for c in pt.split(","))
                      for pt in rest.split(";") if pt.strip()]
            return decompose_staircase(mesh, points)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"bad staircase interface {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown interface spec {spec!r} (vertical:X or staircase:...)")


def _write_report_csv(report, path, timing):
    if not timing:
        report = replace(report, rows=[replace(row, seconds=0.0) for row in report.rows])
    atomic_write(path, report.to_csv())


def _dump_json(obj, path):
    atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


class Experiment:
    """Shared per-(problem, h) state: mesh, decomposition, reference."""

    def __init__(self, cfg, h):
        self.cfg = cfg
        self.problem = make_problem(cfg["problem"])
        self.mesh = build_rect_mesh(cfg["width"], cfg["height"], h)
        self.decomp = make_decomposition(self.mesh, cfg["interface"])
        self.reference = solve_monolithic(self.problem, self.mesh, degree=cfg["degree"],
                                          newton_rtol=cfg["newton_tol"],
                                          newton_max=cfg["newton_max"],
                                          cache_dir=os.path.join(cfg["output_dir"], "cache"))

    def run_method(self, method, s=None):
        """Run one method from fresh workspaces; ``s`` overrides its
        configured parameter (both weights for NN)."""
        cfg = self.cfg
        ws1, ws2 = (SubdomainWorkspace(self.mesh, self.decomp, self.problem, side,
                                       degree=cfg["degree"], newton_rtol=cfg["newton_tol"],
                                       newton_max=cfg["newton_max"])
                    for side in (1, 2))
        eta0 = self.reference.trace(self.decomp) if cfg["eta0"] == "reference" else None
        common = dict(eta0=eta0, max_iter=cfg["max_iter"], stop_tol=cfg["stop_tol"])
        if method == "dn":
            run_cfg = DNConfig(s=cfg["s"] if s is None else s, **common)
            return run_dirichlet_neumann(run_cfg, ws1, ws2, self.reference), run_cfg.s
        if method == "rr":
            run_cfg = RRConfig(s=cfg["s_rr"] if s is None else s, **common)
            return run_robin_robin(run_cfg, ws1, ws2, self.reference), run_cfg.s
        if method == "nn":
            run_cfg = NNConfig(s1=cfg["s1"] if s is None else s,
                               s2=cfg["s2"] if s is None else s, **common)
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
    for key in KEYS:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
            explicit.add(key)
    # full_scale switches the default mesh family; an explicit h wins
    if cfg["full_scale"] == "on" and "h" not in explicit:
        cfg["h"] = FULL_MESHES
    return cfg


def _map(fn, items, workers):
    """[fn(item) for item in items], on a pool of ``workers`` threads, at most
    one per usable CPU, if more than one."""
    workers = min(workers, len(os.sched_getaffinity(0)))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _run_methods(cfg, h, methods):
    """Run ``methods`` on mesh size h on the worker pool and write each one's
    CSV; return their reports and summaries, in method order."""
    exp = Experiment(cfg, h)
    reports, summaries = [], []
    for method, (report, s_used) in zip(methods, _map(exp.run_method, methods,
                                                       cfg["workers"])):
        _write_report_csv(report, os.path.join(cfg["output_dir"], _csv_name(method, h)),
                          cfg["timing"])
        reports.append(report)
        summaries.append(dict(report.summary(h=h, s=s_used), problem=cfg["problem"]))
    return reports, summaries


def cmd_run(cfg):
    summaries = []
    for h in cfg["h"]:
        reports, mesh_summaries = _run_methods(cfg, h, cfg["method"])
        for method, report, summary in zip(cfg["method"], reports, mesh_summaries):
            summary.update(csv=_csv_name(method, h), seed=cfg["seed"])
            print(f"{method} h={h:g}: {report.termination} after "
                  f"{report.iterations} iterations, final error "
                  f"{report.final_error:.3e}")
        summaries += mesh_summaries
    _dump_json(summaries, os.path.join(cfg["output_dir"], "summary.json"))
    return 0


def cmd_compare(cfg):
    h = cfg["h"][0]
    reports, summaries = _run_methods(cfg, h, METHODS)
    for method, report in zip(METHODS, reports):
        print(f"{method}: {report.termination} after {report.iterations} iterations")
    lines = ["n," + ",".join(f"error_{method}" for method in METHODS)]
    for n in range(max(len(r.rows) for r in reports)):
        errors = [r.rows[n].error if n < len(r.rows) else np.nan for r in reports]
        lines.append(",".join([str(n)] + [repr(float(e)) if np.isfinite(e) else ""
                                          for e in errors]))
    atomic_write(os.path.join(cfg["output_dir"], f"compare_h{_h_tag(h)}.csv"),
                 "\n".join(lines) + "\n")
    _dump_json(summaries, os.path.join(cfg["output_dir"], "summary.json"))
    return 0


def _sweep_grid(cfg):
    if cfg["s_values"]:
        return cfg["s_values"]
    lo, hi, count = cfg["s_min"], cfg["s_max"], cfg["s_count"]
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
    h, method, tol = cfg["h"][0], cfg["method"][0], cfg["sweep_tol"]
    grid = _sweep_grid(cfg)
    exp = Experiment(cfg, h)

    cells = _map(lambda s: _sweep_cell(exp, method, s, tol), grid, cfg["workers"])
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
    atomic_write(os.path.join(cfg["output_dir"], "sweep.csv"), "\n".join(lines) + "\n")

    reached = [c for c in cells if c["iterations_to_tol"] is not None]
    best = min(reached, key=lambda c: (c["iterations_to_tol"], c["s"])) if reached else None
    _dump_json({"method": method, "h": h, "tol": tol, "cells": cells,
                "best_s": None if best is None else best["s"]},
               os.path.join(cfg["output_dir"], "sweep.json"))
    for c in cells:
        print(f"s={c['s']:.4g}: {c['status']}, iterations to {tol:g} = "
              f"{c['iterations_to_tol']}")
    return 0


COMMANDS = {"run": (cmd_run, "run one method over one or more meshes"),
            "sweep": (cmd_sweep, "sweep the relaxation parameter"),
            "compare": (cmd_compare, "run " + ", ".join(METHODS) + " on one mesh")}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ddsemi",
        description="Nonoverlapping domain-decomposition experiments for "
                    "semilinear elliptic problems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value configuration file")
        for key, (_, _, key_help) in KEYS.items():
            flag = "--" + key.replace("_", "-")
            if key == "full_scale":
                p.add_argument(flag, dest=key, action="store_const", const="on",
                               help=key_help)
            else:
                p.add_argument(flag, dest=key, help=key_help)
        p.add_argument("--no-timing", dest="timing", action="store_const", const="off",
                       help="same as --timing off")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = validate_config(_merge_config(args))
        os.makedirs(cfg["output_dir"], exist_ok=True)
        return COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # set-up failure: diagnostic + exit 1
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
