"""Parity gate for changes that move trajectories at roundoff level.

``parity_baseline.json`` holds, for five fixed ``verify`` runs, the
criterion-3 residuals, both N drifts and the original run's largest
continuity residual, each written with ``%.17g``.  The runs are those of the
benchmark's workloads on the README Gaussian (amplitude 0.8, width 16,
center 0): the three ``cli-verify-n512`` configs (n = 512, dt = 1e-3,
t_end = 1, their ``snapshot_every``) and the two ``api-equiv-n4096`` models
(n = 4096, t_end = 0.1).  Each value must stay inside its tolerance and
within ``MAX_MOVE`` of the table.  A reordering of floating-point operations
(another stencil evaluation order) moves these values by about 1e-12; a
change of the discretization (say, a current-based step) moves them by 1e-9
and more, and fails here until the table is recorded again with the move
reported.
"""

import json
from pathlib import Path

import pytest

from nlsgauge import cli, solver
from nlsgauge.models import DNLS, EIP, DoebnerGoldin

BASELINE = json.loads((Path(__file__).parent / "parity_baseline.json").read_text())

MAX_MOVE = 1e-10

# criterion-3 tolerances; the continuity residual is held to the bound of
# test_solver's base-resolution continuity test
TOLERANCES = {
    "max_rho_discrepancy": 1e-5,
    "phase_relation_residual": 1e-5,
    "current_collapse_residual": 1e-8,
    "N_drift_original": 1e-8,
    "N_drift_transformed": 1e-8,
    "continuity_residual_original": 1e-4,
}

CASES = {
    "cli-dnls": (DNLS(0, 1, 0, "1/2"), 512, 1.0, 100),
    "cli-eip": (EIP("3/10"), 512, 1.0, 10),
    "cli-doebner-goldin": (DoebnerGoldin("2/5", "-1/5", 0, "-2/5", "1/10", "2/5"), 512, 1.0, 100),
    "api-dnls": (DNLS(0, 1, 0, "1/2"), 4096, 0.1, 100),
    "api-eip": (EIP("3/10"), 4096, 0.1, 100),
}


def parity_values(name, monkeypatch) -> dict:
    """The table's values for one case, from one ``verify_equivalence`` run
    whose original trajectory is kept for its continuity residuals."""
    model, n, t_end, every = CASES[name]
    grid = cli.build_grid({"n": n})
    psi0 = cli.build_initial_state({}, grid)
    cfg = cli.build_solver_config(
        {"t_end": t_end, "snapshot_every": every}, solver.FLOOR_DEFAULT
    )
    runs = []
    integrate = solver.integrate

    def recording(*args):
        runs.append(integrate(*args))
        return runs[-1]

    monkeypatch.setattr(solver, "integrate", recording)
    rep = solver.verify_equivalence(model, psi0, cfg)
    out = rep.to_report()
    del out["flags"]
    out["continuity_residual_original"] = max(
        d["continuity_residual"] for d in runs[0].diagnostics
    )
    return out


def test_baseline_covers_every_case():
    assert set(BASELINE) == set(CASES)
    assert all(set(v) == set(TOLERANCES) for v in BASELINE.values())


@pytest.mark.parametrize("name", list(CASES))
def test_residuals_match_the_baseline(name, monkeypatch):
    values = parity_values(name, monkeypatch)
    assert set(values) == set(TOLERANCES)
    for key, value in values.items():
        assert value <= TOLERANCES[key], (key, value)
        assert abs(value - BASELINE[name][key]) <= MAX_MOVE, (key, value, BASELINE[name][key])
