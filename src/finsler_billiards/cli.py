"""Experiment runner: search, trace, betti and verify subcommands.

A run is described by a single JSON config file (metric spec, table spec,
period, search parameters) plus a few command-line overrides.  Reports embed
the fully resolved config so a run can be reproduced from its output alone;
identical configs produce byte-identical reports.

Exit codes: 0 success (or skipped bound check), 2 bound not met, 1 usage,
validation or runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import numbers
import os
import sys

from .billiards import BoundaryState, trace as billiard_trace
from .errors import FinslerBilliardsError, InvalidParameters
from .geodesics import integrate_geodesic
from .metrics import MagneticMetric, metric_from_spec, validate_field_strength
from .search import SearchConfig, find_critical, orbit_record_dict
from .tables import project_to_boundary, table_from_spec
from .topology import betti_numbers, orbit_lower_bound
from .vectors import as_components

logger = logging.getLogger("finsler_billiards")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("FINSLER_LOG", "error").strip().lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


def dumps_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidParameters(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidParameters(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})") from None


def _build_geometry(config: dict):
    if "metric" not in config or "table" not in config:
        raise InvalidParameters("config requires 'metric' and 'table' entries")
    metric = metric_from_spec(config["metric"])
    table = table_from_spec(config["table"])
    if metric.dim is not None and metric.dim != table.dim:
        raise InvalidParameters(
            f"metric dimension {metric.dim} does not match table dimension {table.dim}")
    if isinstance(metric, MagneticMetric):
        bound = validate_field_strength(metric, table)
        logger.info("drift norm bound %.3g", bound)
    return metric, table


def _integer(value, name: str) -> int:
    """An integer config value; booleans, fractions and non-numbers are rejected."""
    if isinstance(value, bool) or not (
            isinstance(value, numbers.Integral)
            or isinstance(value, float) and value.is_integer()):
        raise InvalidParameters(f"{name!r} must be an integer, got {value!r}")
    return int(value)


def _search_config(config: dict) -> SearchConfig:
    raw = config.get("search", {})
    if not isinstance(raw, dict):
        raise InvalidParameters("'search' must be an object")
    # integer fields are the ones with an integer default; tolerances default to None
    fields = {f.name: f.default for f in dataclasses.fields(SearchConfig)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise InvalidParameters(f"unknown search parameters: {sorted(unknown)}")
    return SearchConfig(**{
        key: _integer(value, key) if isinstance(fields[key], int) else value
        for key, value in raw.items()
    })


def run_search(config: dict) -> tuple[dict, int]:
    """Execute a periodic-orbit search and attach the orbit-count bound check."""
    metric, table = _build_geometry(config)
    if "r" not in config:
        raise InvalidParameters("search config requires 'r'")
    r = _integer(config["r"], "r")
    cfg = _search_config(config)
    bound_kind = config.get("bound", "general")
    if bound_kind not in ("general", "generic"):
        raise InvalidParameters("'bound' must be 'general' or 'generic'")

    records = find_critical(metric, table, r, cfg)
    classes = len(records)
    flagged = any("continuum-suspect" in rec.flags for rec in records)

    bound = None
    if table.dim < 3:
        check = "skipped: bounds require d >= 3"
    else:
        try:
            bound = orbit_lower_bound(table.dim, r, generic=(bound_kind == "generic"))
        except InvalidParameters as exc:
            check = f"skipped: {exc}"
        else:
            if flagged:
                check = "skipped: non-generic"
            else:
                check = "pass" if classes >= bound else "fail"

    resolved = {
        "mode": "search",
        "metric": metric.spec(),
        "table": table.spec,
        "r": r,
        "bound": bound_kind,
        "search": cfg.resolved(table, r),
    }
    report = {
        "config": resolved,
        "orbits": [orbit_record_dict(rec) for rec in records],
        "classes": classes,
        "bound": bound,
        "bound_check": check,
    }
    if table.dim == 2:
        by_rot: dict[str, int] = {}
        for rec in records:
            if rec.rotation_number is not None:
                key = str(rec.rotation_number)
                by_rot[key] = by_rot.get(key, 0) + 1
        report["classes_by_rotation"] = by_rot
    code = 0 if check != "fail" else 2
    return report, code


def run_betti(d: int, r: int) -> tuple[dict, int]:
    profile = betti_numbers(d, r)
    payload = {
        "d": d,
        "r": r,
        "betti": list(profile.betti),
        "total": profile.total,
        "alternating_sum": profile.alternating_sum,
        "cat_lower": profile.cat_lower,
        "bound_general": profile.bound_general,
        "bound_generic": profile.bound_generic,
    }
    return payload, 0


def run_verify(d: int, r: int) -> tuple[dict, int]:
    """Betti profile, bounds, and internal consistency checks for (d, r)."""
    payload, _ = run_betti(d, r)
    checks = {
        "total_equals_generic_bound": payload["total"] == payload["bound_generic"],
        "alternating_sum_zero": payload["alternating_sum"] == 0,
        "cat_equals_general_bound": payload["cat_lower"] == payload["bound_general"],
        "ends_are_one": payload["betti"][0] == 1 and payload["betti"][-1] == 1,
    }
    payload["checks"] = checks
    return payload, 0 if all(checks.values()) else 2


def betti_table(profile_payload: dict) -> str:
    lines = ["degree  betti", "------  -----"]
    for n, b in enumerate(profile_payload["betti"]):
        lines.append(f"{n:>6}  {b:>5}")
    lines.append(f"total = {profile_payload['total']}, "
                 f"alternating sum = {profile_payload['alternating_sum']}, "
                 f"category bound = {profile_payload['cat_lower']}, "
                 f"generic bound = {profile_payload['bound_generic']}")
    return "\n".join(lines) + "\n"


def run_trace(config: dict) -> tuple[dict, int]:
    """Deterministic trajectory dump: billiard impacts or a geodesic flight."""
    metric, table = _build_geometry(config)
    tr = config.get("trace")
    if not isinstance(tr, dict):
        raise InvalidParameters("trace config requires a 'trace' object")
    kind = tr.get("kind", "billiard")
    resolved = {"mode": "trace", "metric": metric.spec(), "table": table.spec, "trace": tr}

    if kind == "billiard":
        for key in ("start", "direction", "steps"):
            if key not in tr:
                raise InvalidParameters(f"billiard trace requires '{key}'")
        steps = _integer(tr["steps"], "steps")
        start = project_to_boundary(table, as_components(tr["start"], table.dim))
        direction = metric._unit(start.position.components,
                                 as_components(tr["direction"], table.dim))
        states = billiard_trace(metric, table, BoundaryState(start, direction), steps)
        payload = {
            "config": resolved,
            "states": [
                {"x": [float(c) for c in s.point.position.components],
                 "v": [float(c) for c in s.direction]}
                for s in states
            ],
        }
        return payload, 0

    if kind == "geodesic":
        for key in ("start", "direction", "t_max", "dt"):
            if key not in tr:
                raise InvalidParameters(f"geodesic trace requires '{key}'")
        x0 = as_components(tr["start"], table.dim)
        v0 = metric._unit(x0, as_components(tr["direction"], table.dim))
        pos, vel = integrate_geodesic(metric, x0, v0, tr["t_max"], tr["dt"])
        dt = float(tr["dt"])  # a number: integrate_geodesic checked it
        payload = {
            "config": resolved,
            "path": [
                {"t": float(i * dt),
                 "x": [float(c) for c in pos[i]],
                 "v": [float(c) for c in vel[i]]}
                for i in range(pos.shape[0])
            ],
        }
        return payload, 0

    raise InvalidParameters(f"unknown trace kind {kind!r}")


def trace_csv(payload: dict) -> str:
    """CSV rendering of a trace payload (billiard steps or geodesic samples)."""
    if "states" in payload:
        states = payload["states"]
        d = len(states[0]["x"])
        header = ["step"] + [f"x{i+1}" for i in range(d)] + [f"v{i+1}" for i in range(d)]
        rows = [",".join(header)]
        for i, s in enumerate(states):
            rows.append(",".join([str(i + 1)] + [repr(c) for c in s["x"] + s["v"]]))
        return "\n".join(rows) + "\n"
    path = payload["path"]
    d = len(path[0]["x"])
    header = ["t"] + [f"x{i+1}" for i in range(d)] + [f"v{i+1}" for i in range(d)]
    rows = [",".join(header)]
    for s in path:
        rows.append(",".join([repr(s["t"])] + [repr(c) for c in s["x"] + s["v"]]))
    return "\n".join(rows) + "\n"


def _apply_overrides(config: dict, args, mode: str) -> dict:
    config = dict(config)
    declared = args.mode or config.get("mode")
    if declared is not None and declared != mode:
        raise InvalidParameters(
            f"config mode {declared!r} does not match the {mode!r} subcommand")
    if getattr(args, "r", None) is not None:
        config["r"] = args.r
    if getattr(args, "seed", None) is not None:
        config.setdefault("search", {})
        config["search"] = dict(config["search"])
        config["search"]["rng_seed"] = args.seed
    return config


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsler-billiards",
        description="Billiards in Finsler and magnetic geometries: periodic orbit "
                    "search, trajectory traces, and topological orbit-count bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="find r-periodic orbits and check count bounds")
    p_search.add_argument("--config", required=True, help="JSON config path")
    p_search.add_argument("--seed", type=int, default=None, help="override rng seed")
    p_search.add_argument("--r", type=int, default=None, help="override the period")
    p_search.add_argument("--mode", default=None, help="must match the subcommand")
    p_search.add_argument("--out", default=None, help="write the report here (default stdout)")

    p_trace = sub.add_parser("trace", help="dump a billiard or geodesic trajectory")
    p_trace.add_argument("--config", required=True)
    p_trace.add_argument("--mode", default=None)
    p_trace.add_argument("--format", choices=("json", "csv"), default="json")
    p_trace.add_argument("--out", default=None)

    p_betti = sub.add_parser("betti", help="Betti profile of the cyclic configuration space")
    p_betti.add_argument("d", type=int)
    p_betti.add_argument("r", type=int)
    p_betti.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="bound consistency checks for (d, r)")
    p_verify.add_argument("d", type=int)
    p_verify.add_argument("r", type=int)
    p_verify.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "search":
            config = _apply_overrides(load_config(args.config), args, "search")
            report, code = run_search(config)
            _emit(dumps_report(report), args.out)
            return code
        if args.command == "trace":
            config = _apply_overrides(load_config(args.config), args, "trace")
            payload, code = run_trace(config)
            text = dumps_report(payload) if args.format == "json" else trace_csv(payload)
            _emit(text, args.out)
            return code
        if args.command == "betti":
            payload, code = run_betti(args.d, args.r)
            _emit(dumps_report(payload) + betti_table(payload), args.out)
            return code
        if args.command == "verify":
            payload, code = run_verify(args.d, args.r)
            _emit(dumps_report(payload), args.out)
            return code
    except FinslerBilliardsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: invalid config ({exc})", file=sys.stderr)
        return 1
    parser.error("unknown command")
    return 1


if __name__ == "__main__":
    sys.exit(main())
