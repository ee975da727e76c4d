"""Command-line surface: catalog browsing, transformation, equivalence
checking, linearization, simulation, and verification.

Config files are flat ``key = value`` text with JSON-typed values (strings
quoted, arrays in brackets); unknown keys are rejected and the file is echoed
verbatim into every report for provenance.  All output is deterministic.

Exit codes: 0 success, 1 config, command-line or output error, 2 mathematical
obstruction (with witness), 3 tolerance failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import coupled, equivalence, fieldgrid, gauge, gauged, solver
from .errors import (
    BlowUp,
    ConfigError,
    DomainError,
    NlsGaugeError,
    NonConservingModel,
    NotIntegrable,
    PeriodicityViolation,
)
from .fieldgrid import DENSITY_FLOOR, ComplexField, Grid1D
from .models import (
    FAMILIES,
    FiveFunction,
    GaugedAnomalous,
    RhoExpr,
    config_rational,
    family_named,
    model_from_config,
    model_to_config,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_OBSTRUCTION = 2
EXIT_TOLERANCE = 3
EXIT_SOLVER = 4


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict:
    """Flat ``key = value`` lines; values are JSON literals.  Blank lines and
    lines starting with '#' are ignored."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = json.loads(value.strip())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path: str | None) -> tuple[dict, str]:
    if path is None:
        raise ConfigError("this command requires --config <path>")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    return parse_config_text(text), text


def check_keys(cfg: dict, allowed: set, required: set = frozenset()) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(required - set(cfg))
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")


def build_model(cfg: dict, other_keys: set):
    """The model a run config names; a key that is neither one of its
    family's config keys nor in ``other_keys``, a missing key the family
    does not mark optional, or a malformed coefficient
    (``models.config_rational``), is a ConfigError."""
    try:
        family = family_named(cfg.get("family"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    required = set(family.config_keys).difference(family.optional)
    check_keys(cfg, {"family", *family.config_keys} | other_keys, required)
    try:
        return model_from_config(cfg)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad model config: {exc}") from exc


def config_number(cfg: dict, key: str, default=None, kind=float, minimum=-math.inf):
    """``kind(cfg[key])`` (``default`` when the key is absent), with a
    malformed or non-finite value, a boolean, a fractional value for an
    integer key, or a value below ``minimum`` reported as a ConfigError."""
    value = cfg.get(key, default)
    bad = ConfigError(f"{key} must be a finite number, got {value!r}")
    if isinstance(value, bool) or (
        kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise bad
    try:
        number = kind(value)
        finite = math.isfinite(number)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise bad from None
    if not finite:
        raise bad
    if number < minimum:
        raise ConfigError(f"{key} must be at least {minimum}, got {value!r}")
    return number


_GRID_KEYS = {"x_min", "x_max", "n", "boundary"}
_INIT_KEYS = {"amplitude", "width", "center", "momentum", "psi_csv"}
_SOLVER_KEYS = {"dt", "t_end", "snapshot_every"}
# a psi_csv file gives the grid points and the state; only the boundary is read next to it
_PSI_CSV_EXCLUDES = (_GRID_KEYS | _INIT_KEYS) - {"boundary", "psi_csv"}


def build_grid(cfg: dict) -> Grid1D:
    try:
        return Grid1D(
            x_min=config_number(cfg, "x_min", -20.0),
            x_max=config_number(cfg, "x_max", 20.0),
            n=config_number(cfg, "n", 512, int),
            boundary=cfg.get("boundary", "dirichlet"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_initial_state(cfg: dict, grid: Grid1D) -> ComplexField:
    if "psi_csv" in cfg:
        clash = sorted(_PSI_CSV_EXCLUDES & set(cfg))
        if clash:
            raise ConfigError(f"keys not allowed with psi_csv: {', '.join(clash)}")
        path = cfg["psi_csv"]
        if not isinstance(path, str):
            raise ConfigError(f"psi_csv must be a file path, got {path!r}")
        try:
            return fieldgrid.read_field_csv(path, boundary=grid.boundary)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad psi_csv: {exc}") from exc
    amp = config_number(cfg, "amplitude", 0.8)
    width = config_number(cfg, "width", 16.0)
    center = config_number(cfg, "center", 0.0)
    momentum = config_number(cfg, "momentum", 0.0)
    if amp <= 0 or width <= 0:
        raise ConfigError("amplitude and width must be positive")
    x = grid.x
    with np.errstate(over="ignore", invalid="ignore"):  # far-off center: psi = 0, refused later
        values = amp * np.exp(-((x - center) ** 2) / width) * np.exp(1j * momentum * x)
    if not np.all(np.isfinite(values)):
        raise ConfigError("the initial state psi is not finite")
    return ComplexField(values=values.astype(complex), grid=grid)


def build_solver_config(cfg: dict) -> solver.SolverConfig:
    return solver.SolverConfig(
        dt=config_number(cfg, "dt", 1e-3),
        t_end=config_number(cfg, "t_end", 1.0),
        snapshot_every=config_number(cfg, "snapshot_every", 100, int),
    )


def build_run(cfg: dict) -> tuple[ComplexField, solver.SolverConfig]:
    """The initial state of a run config, whose density |psi|^2 must not
    overflow and must exceed ``DENSITY_FLOOR`` somewhere, and its solver
    settings."""
    psi0 = build_initial_state(cfg, build_grid(cfg))
    with np.errstate(over="ignore"):
        top = np.max(np.abs(psi0.values) ** 2)
    if not top < math.inf:
        raise ConfigError("the initial density |psi|^2 overflows")
    if not top > DENSITY_FLOOR:
        raise ConfigError(
            f"the initial density |psi|^2 is at most the floor {DENSITY_FLOOR!r} everywhere"
        )
    return psi0, build_solver_config(cfg)


# ---------------------------------------------------------------------------
# report output
# ---------------------------------------------------------------------------


def _fmt(value, indent: str = "") -> str:
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{indent}{k}:")
                lines.append(_fmt(v, indent + "  "))
            else:
                lines.append(f"{indent}{k}: {_fmt(v)}")
        return "\n".join(lines)
    if isinstance(value, list):
        return "\n".join(f"{indent}- {json.dumps(v)}" for v in value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return f"{value}"


def write_report(out_dir: str, name: str, config_text: str, body: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    lines = ["# configuration (verbatim)"]
    lines += ["# | " + ln for ln in config_text.splitlines()]
    lines.append("")
    lines.append("# result")
    lines.append(_fmt(body))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    sys.stdout.write(text)


def write_plots(out_dir: str, traj: solver.Trajectory) -> None:
    """``plot_N.dat`` and ``plot_continuity.dat``: two columns, t and the
    snapshot diagnostic."""
    os.makedirs(out_dir, exist_ok=True)
    for name, key in (("plot_N.dat", "N"), ("plot_continuity.dat", "continuity_residual")):
        with open(os.path.join(out_dir, name), "w") as fh:
            for t, d in zip(traj.times, traj.diagnostics):
                fh.write("%.17g %.17g\n" % (t, d[key]))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    chosen = [cls for cls in FAMILIES if args.family in (None, cls.family)]
    if not chosen:
        sys.stderr.write(f"unknown family {args.family!r}\n")
        return EXIT_CONFIG
    for cls in chosen:
        sys.stdout.write(f"{cls.family}: {cls.catalog}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform / equiv / linearize
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    cfg, text = load_config(args.config)
    model = build_model(cfg, {"dims"})
    key, source = ("dims", cfg) if args.dims is None else ("--dims", {"--dims": args.dims})
    dims = config_number(source, key, 1, int, minimum=1)
    ok, reason = gauge.curl_condition_holds(model, dims)
    if not ok:
        sys.stderr.write(f"curl condition fails for n>1: {reason}\n")
        return EXIT_OBSTRUCTION
    result = gauge.transform_model(model)
    body = {
        "original": model_to_config(model),
        "dims": dims,
        "curl_condition": reason,
    }
    body.update(result.to_report())
    write_report(args.out, "transform_report.txt", text, body)
    return EXIT_OK


def five_function_from(cfg: dict, prefix: str) -> FiveFunction:
    """The vector of keys prefix0..prefix6, each zero when absent (the
    callers require prefix1..prefix5)."""
    keys = {f"f{i}": f"{prefix}{i}" for i in range(7)}
    try:
        return FiveFunction(**{f: RhoExpr.from_triples(cfg.get(k, []), k) for f, k in keys.items()})
    except ValueError as exc:
        raise ConfigError(f"bad coefficient triples: {exc}") from exc


def write_verdict(args, text: str, key: str, result) -> int:
    """The equiv or linearize report: ``key`` true with the generator omega,
    or false with a ``NotEquivalent`` result's witness, echoed on stderr."""
    failed = isinstance(result, equivalence.NotEquivalent)
    found = {"witness": result.witness} if failed else {"generator_omega": result.to_triples()}
    write_report(args.out, f"{args.command}_report.txt", text, {key: not failed, **found})
    if failed:
        sys.stderr.write(f"not {key}: {result.witness}\n")
    return EXIT_OBSTRUCTION if failed else EXIT_OK


def cmd_equiv(args) -> int:
    cfg, text = load_config(args.config)
    required = {f"{v}{i}" for v in "fg" for i in range(1, 6)}
    check_keys(cfg, required | {"f0", "g0", "f6", "g6"}, required)
    f, g = five_function_from(cfg, "f"), five_function_from(cfg, "g")
    result = equivalence.equivalence_generator(f, g)
    return write_verdict(args, text, "equivalent", result)


def cmd_linearize(args) -> int:
    cfg, text = load_config(args.config)
    required = {f"f{i}" for i in range(1, 6)}
    check_keys(cfg, required | {"f0", "f6"}, required)
    result = equivalence.linearizable(five_function_from(cfg, "f"))
    return write_verdict(args, text, "linearizable", result)


# ---------------------------------------------------------------------------
# simulate / verify
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg, text = load_config(args.config)
    model = build_model(cfg, _GRID_KEYS | _INIT_KEYS | _SOLVER_KEYS)
    psi0, scfg = build_run(cfg)
    traj = solver.integrate(model, psi0, scfg)
    solver.export_trajectory(traj, args.out)
    write_plots(args.out, traj)
    body = {
        "snapshots": len(traj.times),
        "t_end": traj.times[-1],
        "N_initial": traj.diagnostics[0]["N"],
        "N_drift": traj.n_drift(),
        "max_continuity_residual": max(
            d["continuity_residual"] for d in traj.diagnostics
        ),
    }
    write_report(args.out, "simulate_report.txt", text, body)
    return EXIT_OK


# each verify mode's tolerance keys and their defaults
_VERIFY_TOLERANCES = {
    "equivalence": {
        "tolerance_rho": 1e-5,
        "tolerance_phase": 1e-5,
        "tolerance_collapse": 1e-8,
        "tolerance_N": 1e-8,
    },
    "linearization": {"tolerance_rho": 1e-4},
}


def cmd_verify(args) -> int:
    cfg, text = load_config(args.config)
    mode = cfg.get("mode", "equivalence")
    if not isinstance(mode, str) or mode not in _VERIFY_TOLERANCES:
        raise ConfigError(f"unknown verify mode {mode!r}")
    defaults = _VERIFY_TOLERANCES[mode]
    run_keys = {"mode", *defaults} | _GRID_KEYS | _INIT_KEYS | _SOLVER_KEYS
    if mode == "linearization":
        check_keys(cfg, run_keys | {"D"}, {"D"})
    else:
        model = build_model(cfg, run_keys)
    psi0, scfg = build_run(cfg)
    tols = {k: config_number(cfg, k, default, minimum=0) for k, default in defaults.items()}
    if args.tolerance is not None:
        flag = {"--tolerance": args.tolerance}
        tols = dict.fromkeys(tols, config_number(flag, "--tolerance", minimum=0))
    if mode == "linearization":
        D = float(config_number(cfg, "D", kind=Fraction))
        report = solver.verify_linearization(D, psi0, scfg)
        residuals = {"tolerance_rho": report.max_rho_discrepancy}
    else:
        report = solver.verify_equivalence(model, psi0, scfg)
        residuals = {
            "tolerance_rho": report.max_rho_discrepancy,
            "tolerance_phase": report.phase_relation_residual,
            "tolerance_collapse": report.current_collapse_residual,
            "tolerance_N": max(report.N_drift_original, report.N_drift_transformed),
        }
    body = dict(report.to_report())
    body.update(tols)
    failed = sorted(k for k in tols if residuals[k] > tols[k])
    body["passed"] = not failed
    if mode == "equivalence":  # the report goes last: a failed export leaves none
        traj = solver.integrate(model, psi0, scfg)
        solver.export_trajectory(traj, os.path.join(args.out, "trajectory"))
        write_plots(args.out, traj)
    write_report(args.out, "verify_report.txt", text, body)
    if failed:
        sys.stderr.write("tolerance exceeded:\n")
        for k in failed:
            sys.stderr.write(
                "  %s: residual %.3e > %.3e\n" % (k, residuals[k], tols[k])
            )
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# coupled / gauged
# ---------------------------------------------------------------------------


def _rationals(value, key: str, depth: int):
    """``value`` as lists nested ``depth`` deep around entries read with
    ``models.config_rational``; any other shape is a ValueError naming ``key``."""
    if depth == 0:
        return config_rational(value, key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a nested list of rational numbers, got {value!r}")
    return [_rationals(v, key, depth - 1) for v in value]


def cmd_coupled_transform(args) -> int:
    cfg, text = load_config(args.config)
    check_keys(
        cfg,
        {"p", "a", "b", "c", "d", "e", "fpot", "multiplets"},
        {"p", "a", "b", "c", "d", "e"},
    )
    p = config_number(cfg, "p", kind=int)
    if not isinstance(cfg.get("multiplets", []), list):
        raise ConfigError(f"multiplets must be a list of index lists, got {cfg['multiplets']!r}")
    try:
        model = coupled.CoupledModel.make(
            p=p,
            a=_rationals(cfg["a"], "a", 1),
            b=_rationals(cfg["b"], "b", 2),
            c=_rationals(cfg["c"], "c", 2),
            d=_rationals(cfg["d"], "d", 2),
            e=_rationals(cfg["e"], "e", 2),
            fpot=_rationals(cfg["fpot"], "fpot", 3) if "fpot" in cfg else None,
            multiplets=cfg.get("multiplets"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad coupled model: {exc}") from exc
    result = coupled.transform_coupled(model)
    body = dict(result.to_report())
    body["special_reduction"] = repr(coupled.special_reduction(model))
    write_report(args.out, "coupled_transform_report.txt", text, body)
    return EXIT_OK


def cmd_gauged_transform(args) -> int:
    cfg, text = load_config(args.config)
    keys = set(GaugedAnomalous.config_keys)
    check_keys(cfg, keys, keys)
    model = build_model({**cfg, "family": GaugedAnomalous.family}, set())
    result = gauged.matter_transform(model)
    write_report(args.out, "gauged_transform_report.txt", text, result.to_report())
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line and exit code 1 (a config error)
    instead of argparse's usage text and exit code 2, which is this CLI's
    mathematical-obstruction code.  Subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nls-gauge",
        description="gauge transformations of the third kind for 1-D NLSEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None, help="run configuration file")
        p.add_argument("--out", default=".", help="output directory")
        return p

    cat = sub.add_parser("catalog")
    cat.set_defaults(func=cmd_catalog)
    cat.add_argument("--family", default=None)

    add("transform", cmd_transform).add_argument("--dims", type=int, default=None)
    add("equiv", cmd_equiv)
    add("linearize", cmd_linearize)
    add("simulate", cmd_simulate)
    add("verify", cmd_verify).add_argument("--tolerance", default=None)
    add("coupled-transform", cmd_coupled_transform)
    add("gauged-transform", cmd_gauged_transform)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = top = getattr(args, "out", ".")
        while not os.path.exists(top):  # up to the nearest existing ancestor
            top = os.path.dirname(top) or "."
        if not os.path.isdir(top):
            where = "exists and" if top == out else f"lies under {top!r}, which"
            raise ConfigError(f"--out {out!r} {where} is not a directory")
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (NotIntegrable, NonConservingModel, PeriodicityViolation, DomainError) as exc:
        sys.stderr.write(f"mathematical obstruction: {exc}\n")
        return EXIT_OBSTRUCTION
    except BlowUp as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except NlsGaugeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SOLVER
    except OSError as exc:  # inputs are read as ConfigErrors, so an output failed to write
        sys.stderr.write(f"output error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:  # numpy's, for a grid or run too large to allocate
        sys.stderr.write(f"error: out of memory: {str(exc) or 'allocation failed'}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
