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
change of the discretization (reading the phase derivatives from the
current moved them by 1e-9 to 4e-7) fails here until the table is recorded
again with the move reported.

To see how far the current code moves each value from the table (old ->
new and the signed move, positive where a residual grew), with the worst
move of each case and overall beside ``MAX_MOVE``; it exits 1 when a value
leaves its tolerance or moves more than ``MAX_MOVE``, and 0 otherwise::

    PYTHONPATH=src python tests/test_parity.py --moves

To record the table again, print it from the current code and review the
moves before committing them::

    PYTHONPATH=src python tests/test_parity.py > tests/parity_baseline.json
"""

import json
import sys
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


def parity_values(name) -> dict:
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

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "integrate", recording)
        rep = solver.verify_equivalence(model, psi0, cfg)
    out = rep.to_report()
    del out["flags"]
    out["continuity_residual_original"] = max(
        d["continuity_residual"] for d in runs[0].diagnostics
    )
    return out


def baseline_json() -> str:
    """``parity_baseline.json`` for the current code: every case, its values
    in ``TOLERANCES`` order, each written with ``%.17g``."""
    cases = []
    for name in CASES:
        values = parity_values(name)
        rows = ",\n".join(f'    "{key}": {values[key]:.17g}' for key in TOLERANCES)
        cases.append(f'  "{name}": {{\n{rows}\n  }}')
    return "{\n" + ",\n".join(cases) + "\n}\n"


def moves_table() -> tuple[str, bool]:
    """For every key of every case the table's value, the current one and
    the signed move (positive where the residual grew), the worst |move|
    of each case, and the worst |move| overall beside ``MAX_MOVE``; and
    whether every value is inside its tolerance and within ``MAX_MOVE``."""
    lines, worst, ok = [], 0.0, True
    for name in CASES:
        values = parity_values(name)
        moves = {key: values[key] - BASELINE[name][key] for key in TOLERANCES}
        ok = ok and all(values[k] <= TOLERANCES[k] and abs(moves[k]) <= MAX_MOVE for k in moves)
        lines.append(name)
        for key, move in moves.items():
            old, new = BASELINE[name][key], values[key]
            lines.append(f"  {key:<30} {old:.3e} -> {new:.3e}  {move:+.2e}")
        case_worst = max(map(abs, moves.values()))
        lines.append(f"  {'worst':<30} {case_worst:.2e}")
        worst = max(worst, case_worst)
    lines.append(f"worst move {worst:.2e}, MAX_MOVE {MAX_MOVE:.0e}")
    return "\n".join(lines) + "\n", ok


def test_baseline_covers_every_case():
    assert set(BASELINE) == set(CASES)
    assert all(set(v) == set(TOLERANCES) for v in BASELINE.values())


@pytest.mark.parametrize("name", list(CASES))
def test_residuals_match_the_baseline(name):
    values = parity_values(name)
    assert set(values) == set(TOLERANCES)
    for key, value in values.items():
        assert value <= TOLERANCES[key], (key, value)
        assert abs(value - BASELINE[name][key]) <= MAX_MOVE, (key, value, BASELINE[name][key])


def test_moves_exits_1_when_a_value_fails(monkeypatch, capsys):
    """``--moves`` is a parity gate: exit 0 on the table's own values, and 1
    when one value moves by more than MAX_MOVE, or stays where the table has
    it but outside its tolerance."""
    current = {name: dict(values) for name, values in BASELINE.items()}
    monkeypatch.setitem(globals(), "parity_values", lambda name: current[name])
    assert main(["--moves"]) == 0
    current["cli-dnls"]["N_drift_original"] += 2 * MAX_MOVE
    assert main(["--moves"]) == 1
    current["cli-dnls"]["N_drift_original"] = BASELINE["cli-dnls"]["N_drift_original"]
    current["cli-dnls"]["max_rho_discrepancy"] = 1.0
    monkeypatch.setitem(BASELINE["cli-dnls"], "max_rho_discrepancy", 1.0)
    assert main(["--moves"]) == 1
    assert capsys.readouterr().out.count(f"MAX_MOVE {MAX_MOVE:.0e}\n") == 3


def main(argv) -> int:
    if argv == ["--moves"]:
        table, ok = moves_table()
        print(table, end="")
        return 0 if ok else 1
    print(baseline_json(), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
