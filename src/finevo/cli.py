"""Command-line front end: analyze | simulate | verify | example.

Exit codes: 0 = all checks pass, 1 = a statistical check failed at alpha,
2 = structural inconsistency, 3 = input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .analysis import analyze_law, example_law
from .cliques import InvariantFamily, classify_family
from .errors import FinevoError, InputError
from .limits import CESARO_N, float_limit_oracle, sup_error
from .measure import MappingLaw, RationalMeasure, _uniform, as_fraction
from .report import build_report, render_text, report_to_json
from .semigroup import DEFAULT_ELEMENT_CAP
from .simulate import (
    MIN_REPLICATIONS,
    _check_seed,
    sample_batch,
    verify_factorization,
    verify_mono_projection,
    verify_nonstationary_joint,
    verify_path_exact,
    verify_third_noise,
)
from .stats import Check, verification_json
from .transform import tuple_from_literal, tuple_literal

EXIT_OK = 0
EXIT_STATISTICAL = 1
EXIT_STRUCTURAL = 2
EXIT_INPUT = 3

# The simulation config of every command that simulates; config files and
# flags override fields, `example` fixes law_file.
SIM_DEFAULTS = {
    "mode": "stationary",
    "k_min": -64,
    "k_max": 0,
    "replications": 10_000,
    "seed": 42,
    "alpha": 0.001,
    "window": 3,
    "Lambda_W": None,
    "family": None,
    "law_file": None,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _cap(text: str) -> int:
    """``--cap``'s value: an integer of at least 1."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


def _add_output_flags(p):
    p.add_argument("--out", help="write the report to this file")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp field (byte-identical reruns)")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json",
                     help="emit JSON (default)")
    fmt.add_argument("--text", dest="fmt", action="store_const", const="text",
                     help="emit a human-readable rendering of the JSON")
    p.set_defaults(fmt="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process. Each subcommand's
    ``run`` looks its ``cmd_*`` up by name when it is called, so a handler
    rebound after the first build (a timing wrapper, say) is the one run."""
    parser = _Parser(prog="finevo",
                     description="Exact limit structure and seeded simulation "
                                 "of random compositions of transformations")
    sub = parser.add_subparsers(dest="command", required=True)
    cap = {"type": _cap, "default": DEFAULT_ELEMENT_CAP,
           "help": "cap on the closure's elements and on the stable tuples W_mu "
                   "(default 10^6)"}

    p = sub.add_parser("analyze", help="structural analysis of a mapping law")
    p.set_defaults(run=lambda args: cmd_analyze(args))
    p.add_argument("--law", required=True, help="mapping-law JSON file")
    p.add_argument("--cap", **cap)
    p.add_argument("--seed", type=int, help="echoed into the report")
    _add_output_flags(p)

    for command, run, text in (
            ("simulate", lambda args: cmd_simulate(args),
             "seeded simulation with exact and statistical verification"),
            ("verify", lambda args: cmd_verify(args),
             "full verification battery including the floating-point limit oracle")):
        p = sub.add_parser(command, help=text)
        p.set_defaults(run=run)
        p.add_argument("--law", dest="law_file", metavar="LAW", help="mapping-law JSON file")
        p.add_argument("--cap", **cap)
        p.add_argument("--config", help="simulation config JSON file")
        p.add_argument("--mode", choices=("stationary", "nonstationary"))
        p.add_argument("--replications", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--k-min", type=int, dest="k_min")
        p.add_argument("--k-max", type=int, dest="k_max")
        p.add_argument("--window", type=int)
        _add_output_flags(p)

    p = sub.add_parser("example", help="run analyze + simulate on the "
                                       "built-in two-generator law")
    p.set_defaults(run=lambda args: cmd_example(args))
    p.add_argument("--replications", type=int)
    p.add_argument("--seed", type=int)
    _add_output_flags(p)

    return parser


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object, with no key repeated, in a UTF-8 file; ``what``
    names the file in errors."""
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise InputError(f"{what} {path} repeats the key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path} is not valid JSON "
                         f"(line {exc.lineno}, column {exc.colno})") from exc
    except (RecursionError, ValueError) as exc:  # too deep, or an int of too many digits
        raise InputError(f"{what} {path} cannot be parsed: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{what} {path} must be a JSON object")
    return obj


def _load_law(path: str) -> MappingLaw:
    return MappingLaw.from_dict(_read_json_object(path, "law file"))


def _load_sim_config(args, law_file=None) -> dict:
    """The run's config: the defaults, then the config file, then the flags.
    Every field is checked, and Lambda_W and the family are parsed, before
    any law is analyzed."""
    config = dict(SIM_DEFAULTS, law_file=law_file)
    if getattr(args, "config", None):
        file_cfg = _read_json_object(args.config, "config")
        unknown = set(file_cfg) - set(config)
        if unknown:
            raise InputError(f"unknown config fields: {sorted(unknown)}")
        config.update(file_cfg)
    for field in ("mode", "replications", "seed", "alpha", "k_min", "k_max", "window", "law_file"):
        value = getattr(args, field, None)
        if value is not None:
            config[field] = value
    if not config["law_file"]:
        raise InputError("a law file is required (--law or config law_file)")
    if not isinstance(config["law_file"], str):
        raise InputError(f"law_file must be a path, got {config['law_file']!r}")
    for field in ("replications", "seed", "k_min", "k_max", "window"):
        if not isinstance(config[field], int) or isinstance(config[field], bool):
            raise InputError(f"{field} must be an integer, got {config[field]!r}")
    _check_seed(config["seed"])
    alpha = config["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
        raise InputError(f"alpha must be a number in (0, 1), got {alpha!r}")
    if config["mode"] not in ("stationary", "nonstationary"):
        raise InputError(f"mode must be stationary or nonstationary, got {config['mode']!r}")
    if not isinstance(config["Lambda_W"], (dict, type(None))):
        raise InputError(f"Lambda_W must be a JSON object, got {config['Lambda_W']!r}")
    other = "family" if config["mode"] == "stationary" else "Lambda_W"
    if config[other] is not None:
        raise InputError(f"{other} is a field of the other mode; "
                         f"{config['mode']} runs take no {other}")
    if config["replications"] < MIN_REPLICATIONS:
        raise InputError(f"replications must be >= {MIN_REPLICATIONS}")
    if config["k_min"] >= config["k_max"]:
        raise InputError("k_min must be less than k_max")
    if config["window"] < 1:
        raise InputError("window must be >= 1")
    if config["Lambda_W"] is not None:
        config["Lambda_W"] = _parse_tuple_measure(config["Lambda_W"])
    if config["mode"] == "nonstationary":
        config["family"] = _parse_family(config["family"])
    return config


def _parse_tuple_measure(obj: dict) -> RationalMeasure:
    """A Lambda_W object; two literals of one tuple are an error."""
    keys, weights = {}, {}
    for key, value in obj.items():
        x = tuple_from_literal(key)
        if x in keys:
            raise InputError(f"Lambda_W names the tuple {x} twice: {keys[x]!r} and {key!r}")
        keys[x], weights[x] = key, value
    return RationalMeasure(weights)


def _parse_family(family_cfg) -> tuple:
    """A family object as (coefficients, tuple laws), checked field by
    field; its length is checked against p once the law is analyzed."""
    if family_cfg is None:
        raise InputError("nonstationary mode needs a family in the config")
    if not isinstance(family_cfg, dict):
        raise InputError(f"bad family config: must be a JSON object, got {family_cfg!r}")
    unknown = set(family_cfg) - {"c", "Lambda_W"}
    if unknown:
        raise InputError(f"bad family config: unknown fields {sorted(unknown)}")
    c, laws = family_cfg.get("c"), family_cfg.get("Lambda_W")
    if not isinstance(c, list):
        raise InputError(f"bad family config: c must be a list, got {c!r}")
    if not isinstance(laws, list) or not all(isinstance(law, dict) for law in laws):
        raise InputError(f"bad family config: Lambda_W must be a list of JSON "
                         f"objects, got {laws!r}")
    coeffs = tuple(map(as_fraction, c))
    lambdas = tuple(map(_parse_tuple_measure, laws))
    if sum(coeffs) != 1:
        raise InputError("family coefficients must sum to 1")
    if any(c < 0 for c in coeffs):
        raise InputError("family coefficients must be nonnegative")
    return coeffs, lambdas


def _resolve_family(config, analysis) -> InvariantFamily:
    coeffs, lambdas = config["family"]
    p = analysis.rd.p
    if len(coeffs) != p or len(lambdas) != p:
        raise InputError(f"family needs exactly p = {p} coefficients and laws")
    family = InvariantFamily(c=coeffs, Lambda_W=tuple(map(analysis.cliques.w_vector, lambdas)))
    # round-trip through the classifier to validate the family form
    classify_family(analysis, family.law_at(analysis, 0))
    return family


def mono_projection_events(rd) -> dict:
    """The five event identities of the built-in example law, tying the
    first coordinate x of the observed tuple to (X^L, U^G(2)): x maps to
    (l, u) with X^L = L[l] (either L-part when l is None) and U^G(2) = u."""
    e = int(rd.coords[rd.e, 0])
    fe = next(l for l in range(len(rd.L)) if l != e)
    return {
        1: (fe, 4),
        2: (e, 2),
        3: (fe, 2),
        4: (e, 4),
        5: (None, 5),  # X^1 = 5 iff U(2) = 5, for either L-part
    }


def _emit(report: dict, args) -> None:
    payload = report_to_json(report) if args.fmt == "json" else render_text(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise InputError(f"cannot write report {args.out}: {exc}") from exc
    else:
        try:
            print(payload, flush=True)
        except BrokenPipeError as exc:
            # the reader is gone: the exit-time flush of stdout goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise InputError(f"cannot write report to stdout: {exc}") from exc


def _run_simulation_battery(analysis, config) -> list:
    """The run's checks: the exact path checks, then the statistical battery
    on one batch of replications."""
    alpha = config["alpha"]
    if config["mode"] == "nonstationary":
        initial = _resolve_family(config, analysis)
        window = (config["k_min"], config["k_min"] + config["window"])
    else:  # the stationary Lambda_W as a W vector, uniform on W by default
        lam, cd = config["Lambda_W"], analysis.cliques
        initial = _uniform(len(cd.W)) if lam is None else cd.w_vector(lam)
        window = (-config["window"], 0)
    path = sample_batch(analysis, initial, config["k_min"], config["k_max"], config["seed"], 1)
    checks = [*verify_path_exact(path), verify_factorization(path, config["k_max"])]

    batch = sample_batch(analysis, initial, *window, config["seed"], config["replications"])
    if config["mode"] == "nonstationary":
        return checks + verify_nonstationary_joint(batch, alpha=alpha)
    # one batch of replications serves both stationary checks
    checks += verify_third_noise(batch, alpha=alpha)
    if analysis.law == example_law():
        events = mono_projection_events(analysis.rd)
        checks += verify_mono_projection(batch, events, alpha=alpha)
    return checks


def _run_oracle(analysis) -> tuple:
    """The float cross-check of the exact limits: its checks, and the
    report's oracle and cesaro blocks."""
    est = float_limit_oracle(analysis)
    eta_err = nu_err = None  # JSON null: there is no estimate to compare
    if not est.converged:
        checks = [Check("float limit oracle converged", "exact", False)]
    else:
        eta_err = sup_error(analysis, analysis.limits.eta, est.eta)
        nu_err = sup_error(analysis, analysis.limits.nu, est.nu)
        checks = [
            Check("oracle period matches exact p", "exact", est.p_est == analysis.rd.p,
                  note=f"p_est={est.p_est}, p={analysis.rd.p}"),
            Check("oracle eta within 1e-9 of exact", "exact", eta_err < 1e-9,
                  note=f"sup error {eta_err:.3e}"),
            Check("oracle nu within 1e-9 of exact", "exact", nu_err < 1e-9,
                  note=f"sup error {nu_err:.3e}"),
        ]
    oracle = {"converged": est.converged, "p_est": est.p_est, "iterations": est.iterations,
              "eta_sup_error": eta_err, "nu_sup_error": nu_err}
    # informational: the literal running average converges like C/n, far
    # slower than the cycle average checked above
    cesaro = {"n": CESARO_N,
              "sup_error_vs_nu": sup_error(analysis, analysis.limits.nu, est.average)}
    return checks, {"oracle": oracle, "cesaro": cesaro}


def _run(args, config, analysis, *, oracle: bool = False) -> int:
    """Run the battery (and the float oracle), emit the finished report and
    return the exit code: 2 if an exact check failed, else 1 if a
    statistical one did, else 0."""
    checks = _run_simulation_battery(analysis, config)
    blocks = {}
    if oracle:
        oracle_checks, blocks = _run_oracle(analysis)
        checks += oracle_checks
    _emit(build_report(analysis, seed=config["seed"], timestamp=not args.no_timestamp,
                       verification=verification_json(checks, config), **blocks), args)
    failed = {c.kind for c in checks if not c.passed}
    return (EXIT_STRUCTURAL if "exact" in failed
            else EXIT_STATISTICAL if failed else EXIT_OK)


def cmd_analyze(args) -> int:
    if args.seed is not None:
        _check_seed(args.seed)
    law = _load_law(args.law)
    analysis = analyze_law(law, cap=args.cap)
    report = build_report(analysis, seed=args.seed,
                          timestamp=not args.no_timestamp)
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _load_sim_config(args)
    return _run(args, config, analyze_law(_load_law(config["law_file"]), cap=args.cap))


def cmd_verify(args) -> int:
    config = _load_sim_config(args)
    return _run(args, config, analyze_law(_load_law(config["law_file"]), cap=args.cap),
                oracle=True)


def cmd_example(args) -> int:
    config = _load_sim_config(args, law_file="<built-in>")
    return _run(args, config, analyze_law(example_law()))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except FinevoError as exc:
        residual = list(getattr(exc, "residual", {}).items())[:3]
        where = "".join(f"; at {tuple_literal(x)}: got {a}, want {b}" for x, (a, b) in residual)
        print(f"finevo: error: {exc}{where}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)
