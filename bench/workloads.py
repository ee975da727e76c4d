"""The benchmark's workloads: inputs drawn from the seed, the operation each
input drives, and the check its result must pass.

A workload hands the runner rounds of operations.  Each round draws fresh
inputs from the seeded generator, so no input repeats within a run.  An
operation is split into the timed call and an untimed check; the check
returns the value that the traced run must reproduce bit for bit, and a
failure message or None.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

import reference
from nlsgauge import cli, coupled, equivalence, gauge, models, solver
from nlsgauge.fieldgrid import ComplexField, Grid1D

# criterion-3 tolerances: density, phase relation, current collapse, N drift
TOLERANCES = {"rho": 1e-5, "phase": 1e-5, "collapse": 1e-8, "N": 1e-8}


class Residuals(NamedTuple):
    rho: float
    phase: float
    collapse: float
    N: float


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[object, Optional[str]]]


@dataclass(frozen=True)
class Workload:
    """``round(rng, scratch)`` draws one round of operations and
    ``warmup(rng, scratch)`` the set-up call; ``reference()`` builds the
    reference unit that tracks the host's speed for this kind of work."""

    round: Callable[..., list[Op]]
    warmup: Callable[..., list[Op]]
    reference: Callable[[], Callable[[], None]]


def residual_failure(res: Residuals) -> Optional[str]:
    over = [
        f"{k} {v:.3e} > {TOLERANCES[k]:.0e}"
        for k, v in res._asdict().items()
        if not v <= TOLERANCES[k]
    ]
    return "tolerance exceeded: " + ", ".join(over) if over else None


def gaussian_params(rng) -> tuple[float, float, float]:
    """Amplitude, width and center in a narrow band around the README
    defaults (0.8, 16, 0), where every workload model meets its tolerances."""
    return (
        float(rng.uniform(0.78, 0.82)),
        float(rng.uniform(15.5, 16.5)),
        float(rng.uniform(-0.25, 0.25)),
    )


# ---------------------------------------------------------------------------
# cli-verify-n512
# ---------------------------------------------------------------------------

CLI_CONFIGS = (
    ("dnls", 'family = "dnls"\nb = ["0", "1", "0", "1/2"]\n', 100),
    ("eip", 'family = "eip"\nkappa = "3/10"\n', 10),
    (
        "doebner-goldin",
        'family = "doebner-goldin"\nc = ["2/5", "-1/5", "0", "-2/5", "1/10"]\nD = "2/5"\n',
        100,
    ),
)
CLI_N = 512
CLI_DT = 1e-3


def _read_report(path: str) -> dict:
    """Top-level ``key: value`` lines of the ``# result`` section."""
    out = {}
    with open(path) as fh:
        body = fh.read().split("# result\n", 1)[1]
    for line in body.splitlines():
        if line and not line.startswith(" ") and ": " in line:
            key, _, value = line.partition(": ")
            out[key] = value
    return out


def _cli_op(family: str, text: str, scratch: str, n_snapshots: int) -> Op:
    def call():
        out = tempfile.mkdtemp(prefix=f"{family}-", dir=scratch)
        config = os.path.join(out, "run.cfg")
        with open(config, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["verify", "--config", config, "--out", out])
        return rc, out

    def check(raw):
        rc, out = raw
        try:
            if rc != 0:
                return None, f"exit code {rc}"
            report = _read_report(os.path.join(out, "verify_report.txt"))
            snapshots = len(glob.glob(os.path.join(out, "trajectory", "snapshot_*.csv")))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if report.get("passed") != "True":
            return None, f"report says passed: {report.get('passed')}"
        res = Residuals(
            float(report["max_rho_discrepancy"]),
            float(report["phase_relation_residual"]),
            float(report["current_collapse_residual"]),
            max(float(report["N_drift_original"]), float(report["N_drift_transformed"])),
        )
        if snapshots != n_snapshots:
            return res, f"{snapshots} snapshot files, expected {n_snapshots}"
        return res, residual_failure(res)

    return Op(f"cli-verify {family}", call, check)


def cli_ops(rng, scratch: str, t_end: float = 1.0, configs=CLI_CONFIGS) -> list[Op]:
    ops = []
    steps = round(t_end / CLI_DT)
    for family, model_text, every in configs:
        amp, width, center = gaussian_params(rng)
        text = (
            f"{model_text}n = {CLI_N}\ndt = {CLI_DT!r}\nt_end = {t_end!r}\n"
            f"snapshot_every = {every}\n"
            f"amplitude = {amp!r}\nwidth = {width!r}\ncenter = {center!r}\n"
        )
        ops.append(_cli_op(family, text, scratch, -(-steps // every) + 1))
    return ops


def cli_warmup(rng, scratch: str) -> list[Op]:
    return cli_ops(rng, scratch, t_end=0.02, configs=CLI_CONFIGS[:1])


# ---------------------------------------------------------------------------
# api-equiv-n4096
# ---------------------------------------------------------------------------

API_MODELS = (("dnls", models.DNLS(0, 1, 0, "1/2")), ("eip", models.EIP("3/10")))
API_N = 4096
API_DT = 1e-3
API_T_END = 0.1


def _api_op(label: str, model, psi0: ComplexField, cfg) -> Op:
    def call():
        return solver.verify_equivalence(model, psi0, cfg)

    def check(rep):
        res = Residuals(
            rep.max_rho_discrepancy,
            rep.phase_relation_residual,
            rep.current_collapse_residual,
            max(rep.N_drift_original, rep.N_drift_transformed),
        )
        return res, residual_failure(res)

    return Op(f"verify_equivalence {label}", call, check)


def api_ops(rng, scratch: str = "", t_end: float = API_T_END, cases=API_MODELS) -> list[Op]:
    grid = Grid1D(-20.0, 20.0, API_N)
    cfg = solver.SolverConfig(dt=API_DT, t_end=t_end)
    ops = []
    for label, model in cases:
        amp, width, center = gaussian_params(rng)
        values = amp * np.exp(-((grid.x - center) ** 2) / width)
        ops.append(_api_op(label, model, ComplexField(values.astype(complex), grid), cfg))
    return ops


def api_warmup(rng, scratch: str = "") -> list[Op]:
    return api_ops(rng, t_end=0.01, cases=API_MODELS[:1])


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _fraction(rng, max_num=9, max_den=8, nonzero=False) -> Fraction:
    while True:
        f = Fraction(int(rng.integers(-max_num, max_num + 1)), int(rng.integers(1, max_den + 1)))
        if f != 0 or not nonzero:
            return f


def _expr(rng) -> models.RhoExpr:
    """Two-term RhoExpr with small rational coefficients and exponents."""
    return models.RhoExpr.make(
        [(_fraction(rng), _fraction(rng, 3, 3), int(rng.integers(0, 2))) for _ in range(2)]
    )


def _five(rng) -> models.FiveFunction:
    return models.FiveFunction(*(_expr(rng) for _ in range(5)))


def _push_forward_op(rng) -> Op:
    f, w1, w2 = _five(rng), _expr(rng), _expr(rng)

    def check(image):
        if image.f2 != f.f2:
            return image, "f2 is not invariant"
        if equivalence.push_forward(image, w2) != equivalence.push_forward(f, w1 + w2):
            return image, "group law violated"
        return image, None

    return Op("push_forward", lambda: equivalence.push_forward(f, w1), check)


def _equivalence_op(rng) -> Op:
    f, w = _five(rng), _expr(rng).drop_constant()
    g = equivalence.push_forward(f, w)

    def check(omega):
        if omega != w:
            return omega, f"recovered generator {omega} != {w}"
        return omega, None

    return Op("equivalence_generator", lambda: equivalence.equivalence_generator(f, g), check)


def _linearizable_op(rng) -> Op:
    w = _expr(rng).drop_constant()
    zero = models.RhoExpr.zero()
    f = equivalence.push_forward(models.FiveFunction(zero, zero, zero, zero, zero), -w)

    def check(omega):
        if not isinstance(omega, models.RhoExpr):
            return omega, f"constructed linearizable vector rejected: {omega!r}"
        if any(not c.is_zero for c in equivalence.push_forward(f, omega).fvec):
            return omega, "push_forward(f, omega) is not the linear equation"
        return omega, None

    return Op("linearizable", lambda: equivalence.linearizable(f), check)


MODEL_FAMILIES = (
    lambda rng: models.DNLS(*(_fraction(rng) for _ in range(4))),
    lambda rng: models.DoebnerGoldin(
        *(_fraction(rng) for _ in range(5)), _fraction(rng, nonzero=True)
    ),
    lambda rng: models.GaugedAnomalous(
        abs(_fraction(rng, nonzero=True)), _fraction(rng), _fraction(rng)
    ),
    _five,
)


def _transform_op(rng, k: int) -> Op:
    model = MODEL_FAMILIES[k % len(MODEL_FAMILIES)](rng)

    def check(tr):
        gen = gauge.derive_generator(tr.transformed)
        if isinstance(gen, gauge.Local):
            free = gen.sigma.is_zero
        else:
            free = gen.alpha.is_zero and gen.beta.is_zero
        if not free:
            return tr, "transformed model still carries a current"
        before = models.to_five_function(model)
        after = models.to_five_function(tr.transformed)
        if (
            isinstance(before, models.FiveFunction)
            and isinstance(after, models.FiveFunction)
            and isinstance(tr.generator, gauge.Local)
            and after != equivalence.push_forward(before, tr.generator.sigma)
        ):
            return tr, "coefficient map disagrees with the five-function push-forward"
        return tr, None

    return Op(f"transform_model {type(model).__name__}", lambda: gauge.transform_model(model), check)


def _coupled_op(rng, k: int, p: int = 3) -> Op:
    """p-component model with a conserving structure chosen by construction:
    d - e diagonal (each density conserved, even k) or symmetric (total
    density conserved, odd k)."""
    rand = lambda: [[_fraction(rng) for _ in range(p)] for _ in range(p)]
    a = [_fraction(rng, nonzero=True) for _ in range(p)]
    b, c, d, g = rand(), rand(), rand(), rand()
    total_only = k % 2 == 1
    for i in range(p):
        for j in range(i + 1, p):
            g[i][j] = g[j][i] = g[i][j] if total_only else Fraction(0)
    e = [[d[i][j] - g[i][j] for j in range(p)] for i in range(p)]
    off_diagonal = any(g[i][j] != 0 for i in range(p) for j in range(p) if i != j)
    expected = "TotalOnly" if off_diagonal else "PerSpecies"
    model = coupled.CoupledModel.make(p=p, a=a, b=b, c=c, d=d, e=e)

    def check(res):
        if res.flags.get("conservation") != expected:
            return res, f"conservation {res.flags.get('conservation')} != {expected}"
        if [list(row) for row in res.gmat] != g:
            return res, "F coefficients differ from d - e"
        if len(res.generators) != p:
            return res, f"{len(res.generators)} generators for {p} components"
        if expected == "PerSpecies" and any(v != 0 for m in res.rpot for row in m for v in row):
            return res, "per-species model has a nonzero R potential"
        return res, None

    return Op("transform_coupled", lambda: coupled.transform_coupled(model), check)


def classify_ops(rng, scratch: str = "", per_kind: int = 20) -> list[Op]:
    """Each operation kind ``per_kind`` times, interleaved.  Model families
    and coupled structures take turns, so every round carries the same mix."""
    ops = []
    for k in range(per_kind):
        ops += [
            _push_forward_op(rng),
            _equivalence_op(rng),
            _linearizable_op(rng),
            _transform_op(rng, k),
            _coupled_op(rng, k),
        ]
    return ops


def classify_warmup(rng, scratch: str = "") -> list[Op]:
    return classify_ops(rng, per_kind=1)


WORKLOADS = {
    "cli-verify-n512": Workload(cli_ops, cli_warmup, lambda: reference.step_unit(CLI_N, 85)),
    "api-equiv-n4096": Workload(api_ops, api_warmup, lambda: reference.step_unit(API_N, 13)),
    "classify": Workload(classify_ops, classify_warmup, lambda: reference.rational_unit(5)),
}
