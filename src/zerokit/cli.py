"""Command line front end.

Commands:

* ``constants derive``        certification report (exit 1 on any failure)
* ``constants optimize-alpha`` pivot optimisation for the detection exponent
* ``bounds density``          evaluate the zero-density bound
* ``bounds repulsion``        evaluate the zero-repulsion bound
* ``zeros scan``              populate / update the zero cache (idempotent)
* ``verify``                  run the verification harness

Exit codes: 0 pass, 1 certification/verification failure or an uncertified
zero set, 2 usage error or an unusable path, 3 missing dependency (a selected
suite reads zero data absent without --scan-missing).

Configuration: flat key=value file via --config (an unknown key, or a
tolerance that is not a finite number > 0, is a usage error); values are
overridden by environment (EXPLICIT_ZERO_CACHE for the cache directory) and
then by command-line flags.  An empty cache directory from any of the three
is a usage error.  Output is deterministic for a given
configuration and cache state: fixed orderings, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from zerokit import constants
from zerokit.constants import FieldParams
from zerokit.dirichlet.zerocache import DependencyError, ZeroLibrary
from zerokit.dirichlet.zeros import MAX_HEIGHT, CountCertificationError
from zerokit.verify import SUITES, TOLERANCES, default_suite, reports_to_json, summary_table, zero_data_needed

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_MISSING = 3

DESK_Q_LIMIT = 200
DESK_HEIGHT_LIMIT = 1e3

HEURISTIC_NOTE = "implied-constant inputs are heuristic, not certified"

# cache_dir and output_format apply to every command; the tolerances feed `verify`.
CONFIG_KEYS = ("cache_dir", "output_format", *(f"tolerance.{suite}" for suite in TOLERANCES))
OUTPUT_FORMATS = ("table", "json")
# The environment variable that overrides the config file's cache_dir.
ENV_CACHE_DIR = "EXPLICIT_ZERO_CACHE"


@dataclass
class RunConfig:
    """Resolved configuration: defaults, then config file, then env, then flags."""

    cache_dir: str = "zero_cache"
    output_format: str = "table"
    unsafe: bool = False
    tolerances: dict = field(default_factory=dict)


def _load_config_file(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    out: dict[str, str] = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_values = _load_config_file(getattr(args, "config", None))
    unknown = sorted(set(file_values) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; known keys: {', '.join(CONFIG_KEYS)}")
    if "output_format" in file_values:
        cfg.output_format = file_values["output_format"]
        if cfg.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"unknown output_format {cfg.output_format!r}; known formats: {', '.join(OUTPUT_FORMATS)}")
    for key, value in file_values.items():
        if key.startswith("tolerance."):
            try:
                tolerance = float(value)
            except ValueError:
                tolerance = math.nan
            if not (math.isfinite(tolerance) and tolerance > 0.0):
                raise ValueError(f"config key {key} must be a finite number > 0, got {value!r}")
            cfg.tolerances[key.removeprefix("tolerance.")] = tolerance
    # An empty cache directory would put the cache files in the working directory.
    for source, value in (
        ("config key cache_dir", file_values.get("cache_dir")),
        (ENV_CACHE_DIR, os.environ.get(ENV_CACHE_DIR)),
        ("--cache-dir", getattr(args, "cache_dir", None)),
    ):
        if value == "":
            raise ValueError(f"{source} is empty; name a cache directory")
        if value is not None:
            cfg.cache_dir = value
    if getattr(args, "json", False):
        cfg.output_format = "json"
    cfg.unsafe = bool(getattr(args, "unsafe", False))
    return cfg


def _guard(cfg: RunConfig, q: int, height: float) -> None:
    """Refuse a scan beyond the desk scale (a usage error) unless --unsafe, and one the engine refuses in any case."""
    if height >= MAX_HEIGHT:
        raise ValueError(f"height {height} is not below the engine's exact-lattice limit {MAX_HEIGHT}")
    if cfg.unsafe:
        return
    if q > DESK_Q_LIMIT:
        raise ValueError(f"modulus {q} exceeds the desk-scale guard ({DESK_Q_LIMIT}); pass --unsafe to override")
    if height > DESK_HEIGHT_LIMIT:
        raise ValueError(f"height {height} exceeds the desk-scale guard ({DESK_HEIGHT_LIMIT}); pass --unsafe to override")


# -- commands -----------------------------------------------------------------


def cmd_constants_derive(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    rows = constants.certification_report(alpha=args.alpha, eta=args.eta)
    if cfg.output_format == "json":
        print(constants.report_to_json(rows))
    else:
        print(f"{'constant':28s} {'derived':>16s} {'radius':>10s} {'dir':>3s} {'published':>10s} {'pass':>5s}")
        for r in rows:
            print(
                f"{r.name:28s} {r.derived_value:16.8f} {r.derived_radius:10.2e} "
                f"{r.direction:>3s} {r.published:10.3f} {'ok' if r.passed else 'FAIL':>5s}"
            )
    return EXIT_OK if all(r.passed for r in rows) else EXIT_FAIL


def cmd_constants_optimize(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    argmin, value = constants.optimize_alpha()
    if cfg.output_format == "json":
        print(json.dumps({"argmin": argmin, "min_value": value}, indent=2, allow_nan=False))
    else:
        print(f"argmin alpha = {argmin:.6f}")
        print(f"objective    = {value:.6f}")
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.bound == "density":
        p = FieldParams(
            n_K=args.nk, D_K=args.dk, Q=args.q, T=args.t, implied_nk_constant=args.implied_nk
        )
        exponent = args.exponent if args.exponent is not None else constants.density_exponent_for(args.sigma)
        bound = constants.evaluate_density_bound(args.sigma, p, exponent, args.leading)
        payload = {
            "bound": bound.value,
            "log_bound": bound.log_value,
            "overflow": bound.overflow,
            "exponent": exponent,
            "leading_constant": args.leading,
            "implied_nk_constant": args.implied_nk,
            "note": HEURISTIC_NOTE,
        }
    else:
        p = FieldParams(n_K=args.nk, D_K=args.dk, Nq=args.nq, T=args.t)
        bound = constants.evaluate_repulsion_bound(args.kind, args.beta1, p, args.c)
        payload = {
            "bound": bound.value,
            "vacuous": bound.vacuous,
            "kind": args.kind,
            "c": args.c,
            "note": HEURISTIC_NOTE,
        }
    if cfg.output_format == "json":
        if payload.get("overflow"):
            payload["bound"] = None  # JSON has no inf; log_bound stays finite
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        for key, value in payload.items():
            print(f"{key} = {value}")
    return EXIT_OK


def cmd_zeros_scan(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    q_values = [args.q] if args.q is not None else list(range(args.qmin, args.qmax + 1))
    if not q_values:
        raise ValueError(f"empty modulus range: --qmin {args.qmin} exceeds --qmax {args.qmax}")
    if not (math.isfinite(args.height) and args.height > 0.0):
        raise ValueError(f"scan height must be finite and positive, got {args.height}")
    _guard(cfg, max(q_values), args.height)
    library = ZeroLibrary(cfg.cache_dir)
    status = EXIT_OK
    for q in q_values:
        summary = library.ensure(q, args.height)
        for label in sorted(summary):
            result = summary[label]
            if result == "cached":
                print(f"{label}: cached, skipped")
            else:
                print(f"{label}: {result} zeros to height {args.height}")
    if not library.certified():
        print("WARNING: at least one window failed completeness certification", file=sys.stderr)
        status = EXIT_FAIL
    return status


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    if args.qmax < 1:
        raise ValueError(f"--qmax must be at least 1, got {args.qmax}")
    if not (math.isfinite(args.height) and args.height > 0.0):
        raise ValueError(f"--height must be finite and positive, got {args.height}")
    suites = SUITES if args.suite == "all" else (args.suite,)
    if "circle" in suites and args.samples < 1:
        raise ValueError(f"--samples must be at least 1 for the circle suite, got {args.samples}")
    if "hadamard" in suites and args.k < 2:
        raise ValueError(f"--k must be at least 2 for the hadamard suite, got {args.k}")
    if "density" in suites and args.height < 1.0:
        raise ValueError(f"--height must be at least 1 for the density suite, got {args.height}")
    # The guard applies to the zero data the suites read, not to the raw flags.
    needed = zero_data_needed(suites, args.qmax, args.height)
    for q, h in needed:
        _guard(cfg, q, h)
    library = ZeroLibrary(cfg.cache_dir)
    if args.scan_missing:
        for q, h in needed:
            library.ensure(q, h)
    reports = default_suite(
        library,
        q_max=args.qmax,
        T=args.height,
        samples=args.samples,
        suites=suites,
        hadamard_k=args.k,
        tolerances=cfg.tolerances,
    )
    if cfg.output_format == "json":
        print(reports_to_json(reports))
    else:
        print(summary_table(reports))
    if args.report_file:
        Path(args.report_file).write_text(reports_to_json(reports) + "\n")
    failures = [r for r in reports if not r.passed]
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# -- parser --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="zerokit",
        description="certified constants and desk-scale verification for zero-density / zero-repulsion estimates",
    )
    parser.add_argument("--config", help="flat key=value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    constants_p = sub.add_parser("constants", help="constant certification")
    constants_sub = constants_p.add_subparsers(dest="subcommand", required=True)
    derive = constants_sub.add_parser("derive", help="derive and certify all explicit constants")
    derive.add_argument("--alpha", type=float, default=constants.REFERENCE_ALPHA)
    derive.add_argument("--eta", type=float, default=constants.REFERENCE_ETA)
    derive.add_argument("--json", action="store_true")
    derive.set_defaults(func=cmd_constants_derive)
    optimize = constants_sub.add_parser("optimize-alpha", help="minimise the detection-exponent objective")
    optimize.add_argument("--json", action="store_true")
    optimize.set_defaults(func=cmd_constants_optimize)

    bounds_p = sub.add_parser("bounds", help="evaluate the headline bounds")
    bounds_sub = bounds_p.add_subparsers(dest="bound", required=True)
    density = bounds_sub.add_parser("density", help="zero-density count bound")
    density.add_argument("--sigma", type=float, required=True)
    density.add_argument("--nk", type=int, default=1)
    density.add_argument("--dk", type=float, default=1.0)
    density.add_argument("--q", type=float, default=1.0)
    density.add_argument("--t", type=float, default=1.0)
    density.add_argument("--exponent", type=float, default=None)
    density.add_argument("--leading", type=float, default=1.0)
    density.add_argument("--implied-nk", dest="implied_nk", type=float, default=0.0)
    density.add_argument("--json", action="store_true")
    density.set_defaults(func=cmd_bounds, bound="density")
    repulsion = bounds_sub.add_parser("repulsion", help="repelled-zero upper bound")
    repulsion.add_argument("--kind", choices=("quadratic", "trivial"), required=True)
    repulsion.add_argument("--beta1", type=float, required=True)
    repulsion.add_argument("--nq", type=float, default=1.0)
    repulsion.add_argument("--nk", type=int, default=1)
    repulsion.add_argument("--dk", type=float, default=1.0)
    repulsion.add_argument("--t", type=float, default=1.0)
    repulsion.add_argument("--c", type=float, default=1.0)
    repulsion.add_argument("--json", action="store_true")
    repulsion.set_defaults(func=cmd_bounds, bound="repulsion")

    zeros_p = sub.add_parser("zeros", help="zero cache management")
    zeros_sub = zeros_p.add_subparsers(dest="subcommand", required=True)
    scan = zeros_sub.add_parser("scan", help="scan and cache zeros")
    scan.add_argument("--q", type=int, default=None, help="single modulus")
    scan.add_argument("--qmin", type=int, default=1)
    scan.add_argument("--qmax", type=int, default=10)
    scan.add_argument("--height", type=float, required=True)
    scan.add_argument("--cache-dir", dest="cache_dir")
    scan.add_argument("--unsafe", action="store_true")
    scan.set_defaults(func=cmd_zeros_scan)

    verify_p = sub.add_parser("verify", help="run the verification harness")
    verify_p.add_argument("--suite", default="all", choices=("all", *SUITES))
    verify_p.add_argument("--qmax", type=int, default=10)
    verify_p.add_argument("--height", type=float, default=30.0)
    verify_p.add_argument("--samples", type=int, default=10)
    verify_p.add_argument("--k", type=int, default=2, help="derivative order for the hadamard suite")
    verify_p.add_argument("--scan-missing", action="store_true")
    verify_p.add_argument("--cache-dir", dest="cache_dir")
    verify_p.add_argument("--report-file", default=None, help="also write the JSON report here")
    verify_p.add_argument("--json", action="store_true")
    verify_p.add_argument("--unsafe", action="store_true")
    verify_p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DependencyError as exc:
        print(f"missing zero data: {exc}", file=sys.stderr)
        print("re-run with --scan-missing to populate the cache", file=sys.stderr)
        return EXIT_MISSING
    except CountCertificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
