"""Command-line surface: exit codes, config validation, report contents,
and byte-for-byte determinism of generated reports."""

import ast
import copy
import graphlib
import json
import math
import os
import re
import string
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import nlsgauge
from nlsgauge import cli, solver
from nlsgauge.fieldgrid import ComplexField
from nlsgauge.models import FAMILIES


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is None:
        return code, "", ""
    out = capsys.readouterr()
    return code, out.out, out.err


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_lists_all_families(capsys):
    code, out, _ = run(["catalog"], capsys)
    assert code == 0
    for family in (
        "dnls",
        "doebner-goldin",
        "eip",
        "entropic",
        "five-function",
        "gauged-anomalous",
        "eip-transformed",
        "entropic-transformed",
    ):
        assert f"{family}:" in out


def test_catalog_single_family(capsys):
    code, out, _ = run(["catalog", "--family", "eip"], capsys)
    assert code == 0
    assert "nonlocal" in out
    code, _, err = run(["catalog", "--family", "nosuch"], capsys)
    assert code == 1
    assert "unknown family" in err


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_reports_coefficient(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        "m.cfg",
        'family = "dnls"\nb = ["0", "1", "0", "1/2"]\n',
    )
    code, out, _ = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "15/16" in out
    report = (tmp_path / "transform_report.txt").read_text()
    assert "15/16" in report
    # the config is echoed verbatim for provenance
    assert '# | family = "dnls"' in report


def test_float_coefficients_read_as_the_decimals_they_print(tmp_path, capsys):
    """A JSON float is the shortest decimal it prints as, not its binary
    value: canonical Doebner-Goldin with float c reports the same result as
    with string c (canonical, c1~ = 0)."""
    results = []
    for name, c in (
        ("float", "[0.4, -0.2, 0, -0.4, 0.1]"),
        ("string", '["2/5", "-1/5", "0", "-2/5", "1/10"]'),
    ):
        cfg = write_cfg(tmp_path, f"{name}.cfg", f'family = "doebner-goldin"\nc = {c}\nD = "2/5"\n')
        code, _, _ = run(["transform", "--config", cfg, "--out", str(tmp_path / name)], capsys)
        assert code == 0
        report = (tmp_path / name / "transform_report.txt").read_text()
        results.append(report.split("# result\n", 1)[1])
    assert results[0] == results[1]
    assert "canonical: True" in results[0]


def test_transform_curl_obstruction_in_higher_dims(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.cfg", 'family = "eip"\nkappa = "3/10"\ndims = 2\n')
    code, _, err = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "curl" in err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("where", ["flag", "key"])
def test_transform_dims_below_one_is_a_one_line_config_error(tmp_path, capsys, where, value):
    text = 'family = "eip"\nkappa = "3/10"\n' + (f"dims = {value}\n" if where == "key" else "")
    argv = ["transform", "--config", write_cfg(tmp_path, "m.cfg", text), "--out", str(tmp_path)]
    code, _, err = run(argv + (["--dims", value] if where == "flag" else []), capsys)
    name = "--dims" if where == "flag" else "dims"
    assert code == 1, err
    assert err == f"config error: {name} must be at least 1, got {value}\n"


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.cfg", 'family = "dnls"\nb = ["0","0","0","0"]\nbogus = 1\n')
    code, _, err = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "unknown config keys: bogus" in err


@pytest.mark.parametrize(
    "text, missing",
    [
        ('family = "dnls"\n', "b"),
        ('family = "doebner-goldin"\nc = ["1", "0", "0", "-1", "0"]\n', "D"),
        ('family = "five-function"\n' + "".join(f"f{i} = []\n" for i in (1, 3, 4, 5)), "f2"),
        ('family = "five-function"\nf1 = []\n', "f2, f3, f4, f5"),
        ('family = "entropic"\nkappa_fn = [["1", "1", "0"]]\n', "D"),
    ],
    ids=["dnls-b", "dg-D", "five-f2", "five-f2-f5", "entropic-D"],
)
def test_missing_model_key_is_named(tmp_path, capsys, text, missing):
    """A family's required key is named when absent; an optional one (the
    entropic family's G) may be left out."""
    cfg = write_cfg(tmp_path, "m.cfg", text)
    code, _, err = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err == f"config error: missing config keys: {missing}\n"


@pytest.mark.parametrize("b", ['"0121"', '["0", "1"]', "3"])
def test_list_key_needs_a_list_of_its_length(tmp_path, capsys, b):
    cfg = write_cfg(tmp_path, "m.cfg", f'family = "dnls"\nb = {b}\n')
    code, _, err = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("config error: bad model config: b must be a list of 4 values")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        'family = "eip"\nkappa = true\n',
        'family = "dnls"\nb = [true, 1, 0, "1/2"]\n',
        'family = "eip"\nkappa = Infinity\n',
        'family = "eip"\nkappa = 1e999\n',
        'family = "eip"\nkappa = "1/0"\n',
        'family = "eip"\nkappa = "1e999"\n',
        'family = "five-function"\nf1 = [["1/0", "0", "0"]]\n'
        "f2 = []\nf3 = []\nf4 = []\nf5 = []\n",
        'family = "five-function"\nf1 = [["1", "0", "1/2"]]\n'
        "f2 = []\nf3 = []\nf4 = []\nf5 = []\n",
    ],
)
def test_malformed_rational_is_a_one_line_config_error(tmp_path, capsys, text):
    cfg = write_cfg(tmp_path, "m.cfg", text)
    code, _, err = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("config error: bad model config: ") and err.count("\n") == 1
    assert not (tmp_path / "transform_report.txt").exists()


def test_duplicate_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m.cfg", 'family = "dnls"\nfamily = "eip"\n')
    code, _, err = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "duplicate" in err


# ---------------------------------------------------------------------------
# equiv / linearize
# ---------------------------------------------------------------------------


def test_equiv_witness_on_failure(tmp_path, capsys):
    lines = [f'f{i} = []' for i in range(1, 6)] + [f'g{i} = []' for i in range(1, 6)]
    text = "\n".join(lines).replace('g2 = []', 'g2 = [["1", "0", 0]]') + "\n"
    cfg = write_cfg(tmp_path, "e.cfg", text)
    code, _, err = run(["equiv", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "f2" in err


def test_linearize_accepts_free_equation(tmp_path, capsys):
    text = "\n".join(f'f{i} = []' for i in range(1, 6)) + "\n"
    cfg = write_cfg(tmp_path, "l.cfg", text)
    code, out, _ = run(["linearize", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "linearizable: True" in out


def test_f6_is_an_optional_key_written_only_when_nonzero(tmp_path, capsys):
    """f6 (and g6) may be left out, reading as zero; a nonzero f6 reaches
    the classifier, and the transform report writes f6 only when nonzero."""
    text = "\n".join(f'f{i} = []' for i in range(1, 6))
    cfg = write_cfg(tmp_path, "l.cfg", text + '\nf6 = [["1", "0", 0]]\n')
    code, _, err = run(["linearize", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 2 and "f6 = 0 violated" in err
    pair = text + "\n" + text.replace("f", "g")
    cfg = write_cfg(tmp_path, "e.cfg", pair + '\ng6 = [["1", "0", 0]]\n')
    code, _, err = run(["equiv", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 2 and "f~6 = f6" in err
    cfg = write_cfg(tmp_path, "e0.cfg", pair + "\n")
    assert run(["equiv", "--config", cfg, "--out", str(tmp_path)], capsys)[0] == 0
    for f6, written in (("[]", False), ('[["1/2", "0", 0]]', True)):
        family = 'family = "five-function"\nf5 = [["1", "1", 0]]\n'
        body = "\n".join(f'f{i} = []' for i in range(1, 5))
        cfg = write_cfg(tmp_path, "t.cfg", f"{family}{body}\nf6 = {f6}\n")
        code, out, _ = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
        result = out.split("# result\n")[1]
        assert code == 0 and ("  f6:\n" in result) == written
        assert result.count("  f6:\n") == 2 * written  # the original and its image


def test_f0_is_an_optional_key_and_a_gauge_invariant(tmp_path, capsys):
    """f0 (and g0) may be left out, reading as zero; a g0 other than f0 is
    not equivalent, a nonzero f0 is not linearizable, and the transform
    report writes f0, which the gauge map keeps, only when nonzero."""
    text = "\n".join(f'f{i} = []' for i in range(1, 6))
    pair = text + "\n" + text.replace("f", "g")
    cfg = write_cfg(tmp_path, "e.cfg", pair + '\nf0 = [["1", "2", 0]]\ng0 = [["1", "1", 0]]\n')
    code, out, err = run(["equiv", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "witness: f~0 = f0 violated (f0 is a gauge invariant)" in out
    assert err == "not equivalent: f~0 = f0 violated (f0 is a gauge invariant)\n"
    cfg = write_cfg(tmp_path, "l.cfg", text + '\nf0 = [["1", "2", 0]]\n')
    code, _, err = run(["linearize", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 2 and err == "not linearizable: f0 = 0 violated\n"
    for f0, written in (("[]", False), ('[["1/2", "2", 0]]', True)):
        family = 'family = "five-function"\nf5 = [["1", "1", 0]]\n'
        body = "\n".join(f'f{i} = []' for i in range(1, 5))
        cfg = write_cfg(tmp_path, "t.cfg", f"{family}{body}\nf0 = {f0}\n")
        code, out, _ = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
        result = out.split("# result\n")[1]
        assert code == 0 and result.count("  f0:\n") == 2 * written  # the original and its image


def test_transform_entropic_without_diffusion(tmp_path, capsys):
    """Entropic at D = 0 is current-free for any kappa, a non-monomial one
    included, so it has a gauge image (sigma = 0)."""
    text = 'family = "entropic"\nkappa_fn = [["1", "0", 0], ["1", "1", 0]]\nD = "0"\n'
    cfg = write_cfg(tmp_path, "k.cfg", text)
    code, out, _ = run(["transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 0 and "  family: entropic-transformed\n" in out.split("# result\n")[1]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


VERIFY_CFG = (
    'family = "dnls"\n'
    'b = ["0", "1", "0", "1/2"]\n'
    "n = 256\n"
    "dt = 0.002\n"
    "t_end = 0.05\n"
)


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_entropic_nonpositive_kappa_is_rejected_without_diffusion(tmp_path, capsys, command):
    """kappa(rho) = -rho is not positive, so the run is a domain error even
    when D = 0 removes every term that f(rho) multiplies."""
    cfg = write_cfg(
        tmp_path,
        "e.cfg",
        'family = "entropic"\nkappa_fn = [["-1", "1", "0"]]\nD = "0"\n'
        "n = 64\ndt = 0.001\nt_end = 0.002\n",
    )
    code, _, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert "kappa(rho) must be positive" in err


def test_verify_zero_tolerance_fails(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.cfg", VERIFY_CFG)
    code, _, err = run(
        ["verify", "--config", cfg, "--out", str(tmp_path), "--tolerance", "0"],
        capsys,
    )
    assert code == 3
    assert "tolerance exceeded" in err
    report = (tmp_path / "verify_report.txt").read_text()
    assert "passed: False" in report
    assert (tmp_path / "plot_N.dat").exists()
    assert (tmp_path / "plot_continuity.dat").exists()
    assert (tmp_path / "trajectory").is_dir()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a stderr line too
def test_verify_with_disjoint_densities_reports_an_empty_phase_mask(tmp_path, capsys, monkeypatch):
    """Evolved densities that share no point above the phase mask's relative
    floor leave no phase to compare: the phase residual is inf, the flag
    phase_mask_empty is set, and verify exits 3 with its residual table.
    The runs are stubbed (each ends on a Gaussian moved far to one side), so
    the result does not depend on when a real run would blow up."""
    runs = []

    def disjoint(model, psi0, cfg):
        runs.append(model)
        x = psi0.grid.x
        moved = np.exp(-((x - (10.0 if len(runs) % 2 else -10.0)) ** 2)).astype(complex)
        states = (psi0, ComplexField(moved, psi0.grid))
        diagnostics = tuple(
            {"N": solver.particle_number(s.values, s.grid), "continuity_residual": 0.0}
            for s in states
        )
        return solver.Trajectory((0.0, cfg.t_end), states, diagnostics)

    monkeypatch.setattr(solver, "integrate", disjoint)
    cfg = write_cfg(tmp_path, "v.cfg", VERIFY_CFG)
    code, _, err = run(["verify", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "  tolerance_phase: residual inf > 1.000e-05\n" in err
    assert "Warning" not in err and "Traceback" not in err
    report = (tmp_path / "verify_report.txt").read_text()
    assert "phase_relation_residual: inf\n" in report
    assert "  phase_mask_empty: True\n" in report


def test_verify_reports_the_default_tolerances(tmp_path, capsys):
    """Each verify mode's default tolerances reach its report."""
    expected = {
        "equivalence": {
            "tolerance_rho": 1e-5,
            "tolerance_phase": 1e-5,
            "tolerance_collapse": 1e-8,
            "tolerance_N": 1e-8,
        },
        "linearization": {"tolerance_rho": 1e-4},
    }
    configs = {"equivalence": VERIFY_CFG, "linearization": LINEARIZATION_CFG + 'D = "3/5"\n'}
    for mode, text in configs.items():
        out = tmp_path / mode
        cfg = write_cfg(tmp_path, f"{mode}.cfg", text)
        code, _, _ = run(["verify", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        result = (out / "verify_report.txt").read_text().split("# result\n")[1]
        rows = (line.partition(": ") for line in result.splitlines())
        assert {k: float(v) for k, _, v in rows if k.startswith("tolerance_")} == expected[mode]


def test_a_run_too_large_for_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    """numpy's MemoryError for an array it cannot allocate (verify with
    n = 100000000000 raised one) exits 1 with one line, not a traceback.
    A patched integrate raises it here, so nothing large is allocated."""
    message = (
        "Unable to allocate 1.46 TiB for an array with shape (100000000000,) "
        "and data type complex128"
    )

    def too_large(*args):
        raise MemoryError(message)

    monkeypatch.setattr(solver, "integrate", too_large)
    cfg = write_cfg(tmp_path, "v.cfg", VERIFY_CFG)
    code, _, err = run(["verify", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err == f"error: out of memory: {message}\n"


OVERFLOW_CFG = 'family = "dnls"\nb = ["0", "1e300", "0", "0"]\nn = 128\nt_end = 0.01\n'


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second stderr line
def test_overflow_mid_step_is_a_one_line_solver_failure(tmp_path, capsys, command):
    """b2 = 1e300 overflows |psi|^2 in the first half step: solver failure,
    naming the time the step started from."""
    cfg = write_cfg(tmp_path, "overflow.cfg", OVERFLOW_CFG)
    code, _, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 4, err
    assert err.startswith("solver failure: non-finite values in the step from t=0.0 ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "model",
    [
        'family = "dnls"\nb = ["0", "1e30", "0", "0"]\n',
        'family = "doebner-goldin"\nc = ["0", "0", "0", "0", "1e30"]\nD = "0"\n',
    ],
    ids=["dnls", "doebner-goldin"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second stderr line
def test_corrector_midpoint_below_the_floor_is_a_one_line_solver_failure(
    tmp_path, capsys, command, model
):
    """A potential of 1e30 leaves the first corrector midpoint at or below
    the density floor everywhere, where the phase is undefined: a solver
    failure naming the time the step started from."""
    cfg = write_cfg(tmp_path, "floor.cfg", model + "n = 128\ndt = 0.001\nt_end = 0.01\n")
    code, _, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 4, err
    assert err.startswith("solver failure: ") and "the step from t=0.0" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "model",
    [
        'family = "dnls"\nb = ["0", "1", "0", "1/2"]\n',
        'family = "eip"\nkappa = "3/10"\n',
        'family = "doebner-goldin"\nc = ["1", "0", "0", "-1", "0"]\nD = "1"\n',
    ],
    ids=["dnls", "eip", "doebner-goldin"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second stderr line
def test_initial_state_over_the_bound_is_a_one_line_solver_failure(tmp_path, capsys, command, model):
    """|psi0| = 1e100 has a finite density, but a nonlocal generator's
    integrand b4 rho^2 overflows while phi0 is built: the state is checked
    against the sup-norm bound before that, and before the first step."""
    cfg = write_cfg(tmp_path, "big.cfg", model + "amplitude = 1e100\nt_end = 0.01\n")
    code, _, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 4, err
    assert err == "solver failure: sup norm exceeded 1e+06 at t=0.0\n"


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 256\nx_min = -1e308\nx_max = 1e308\n", "config error: grid spacing must be finite"),
        ("n = 256\nx_min = 0\nx_max = 1e-300\n", "config error: grid spacing"),
        ("n = 256\nx_min = 0\nx_max = 1e-157\n", "config error: grid spacing"),
        ("n = 256\namplitude = 1e200\n", "config error: the initial density |psi|^2 overflows"),
        ("psi_csv = PSI\n", "config error: the initial density |psi|^2 overflows"),
        ("n = 256\nmomentum = 1e308\n", "config error: the initial state psi is not finite"),
    ],
    ids=["span", "tiny-span", "subnormal-h2", "amplitude", "psi_csv", "momentum"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second stderr line
def test_overflowing_grid_or_density_is_a_one_line_config_error(
    tmp_path, capsys, command, text, message
):
    """A span whose spacing is inf or squares to 0, an initial state whose
    density |psi|^2 overflows (a Gaussian of amplitude 1e200, or |psi| =
    1e155 read from a CSV), and a Gaussian whose phase momentum * x
    overflows to a NaN psi, are config errors before any step."""
    psi = tmp_path / "psi.csv"
    psi.write_text("x,rho,S,re_psi,im_psi\r\n" + "".join(f"{i},0,0,1e155,0\r\n" for i in range(16)))
    model = 'family = "dnls"\nb = ["0", "1", "0", "1/2"]\ndt = 0.002\nt_end = 0.05\n'
    cfg = write_cfg(tmp_path, "c.cfg", model + text.replace("PSI", json.dumps(str(psi))))
    code, _, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 1, err
    assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "text",
    [
        "n = 128\namplitude = 1e-300\n",
        "psi_csv = PSI\n",
        "n = 128\ncenter = 1e300\n",
        "n = 128\ncenter = -1e200\n",
    ],
    ids=["amplitude", "psi_csv", "center", "negative-center"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second stderr line
def test_initial_state_below_the_floor_is_a_one_line_config_error(tmp_path, capsys, command, text):
    """An initial density at or below the floor everywhere (a Gaussian of
    amplitude 1e-300, one centred so far off that (x - center)^2 overflows
    and psi underflows to 0, or psi = 0 read from a CSV) has no phase: a
    config error before any step, not a solver failure, and no numpy
    warning."""
    psi = tmp_path / "psi.csv"
    psi.write_text("x,rho,S,re_psi,im_psi\r\n" + "".join(f"{i},0,0,0,0\r\n" for i in range(16)))
    model = 'family = "dnls"\nb = ["0", "1", "0", "1/2"]\ndt = 0.002\nt_end = 0.05\n'
    cfg = write_cfg(tmp_path, "c.cfg", model + text.replace("PSI", json.dumps(str(psi))))
    out = tmp_path / "out"
    code, _, err = run([command, "--config", cfg, "--out", str(out)], capsys)
    assert code == 1, err
    assert err == "config error: the initial density |psi|^2 is at most the floor 1e-12 everywhere\n"
    assert not out.exists()


def test_verify_report_determinism(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "v.cfg", VERIFY_CFG)
    outs = []
    for sub in ("run1", "run2"):
        out_dir = tmp_path / sub
        code, _, _ = run(["verify", "--config", cfg, "--out", str(out_dir)], capsys)
        assert code == 0
        outs.append((out_dir / "verify_report.txt").read_bytes())
    assert outs[0] == outs[1]


PERIODIC_CFG = VERIFY_CFG + 'boundary = "periodic"\n'


def test_verify_rejects_a_generator_that_breaks_the_periodic_seam(tmp_path, capsys):
    """A nearly flat state fills the periodic grid, so the DNLS generator's
    loop integral int rho/4 dx = 6.398 is not a multiple of 2 pi: the gauge
    image would jump at the seam."""
    cfg = write_cfg(tmp_path, "flat.cfg", PERIODIC_CFG + "width = 1e6\n")
    code, _, err = run(["verify", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err.startswith("mathematical obstruction: loop integral 6.398")
    assert err.count("\n") == 1


def test_verify_passes_a_gaussian_on_a_periodic_grid(tmp_path, capsys):
    """The README Gaussian has no density at the seam (about 1e-22), so its
    nonzero loop integral does not matter."""
    cfg = write_cfg(tmp_path, "gauss.cfg", PERIODIC_CFG)
    code, out, _ = run(["verify", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 0
    assert "passed: True" in out


@pytest.mark.parametrize(
    "xs, message",
    [
        ((0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 9.5, 10.0), "the x column is not evenly spaced"),
        ((0.0,), "x_max must exceed x_min"),
        ((1e308, -1e308) * 4, "x_max must exceed x_min"),  # an extent that overflows
    ],
    ids=["uneven", "one-row", "overflowing-extent"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning is a second stderr line
def test_bad_psi_csv_grid_is_a_one_line_config_error(tmp_path, capsys, xs, message):
    rows = ["x,rho,S,re_psi,im_psi"] + ["%r,1,0,1,0" % x for x in xs]
    (tmp_path / "psi.csv").write_text("\r\n".join(rows) + "\r\n")
    cfg = write_cfg(
        tmp_path,
        "s.cfg",
        'family = "dnls"\nb = ["0", "1", "0", "1/2"]\npsi_csv = "%s"\n'
        "dt = 0.001\nt_end = 0.002\n" % (tmp_path / "psi.csv"),
    )
    code, _, err = run(["simulate", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err == "config error: bad psi_csv: %s\n" % message


@pytest.mark.parametrize(
    "line",
    ["x_min = -5", "x_max = 5", "n = 512", "amplitude = 1", "width = 4", "center = 1", "momentum = 2"],
)
def test_psi_csv_rejects_the_keys_it_overrides(tmp_path, capsys, line):
    """A psi_csv file gives the grid points and the state, so a grid or
    Gaussian key next to it would be ignored: it is a config error before
    any step."""
    rows = ["x,rho,S,re_psi,im_psi"] + ["%r,1,0,1,0" % x for x in range(8)]
    (tmp_path / "psi.csv").write_text("\r\n".join(rows) + "\r\n")
    cfg = write_cfg(
        tmp_path,
        "s.cfg",
        'family = "dnls"\nb = ["0", "1", "0", "1/2"]\npsi_csv = "%s"\n'
        "dt = 0.001\nt_end = 0.002\n%s\n" % (tmp_path / "psi.csv", line),
    )
    out = tmp_path / "out"
    code, _, err = run(["simulate", "--config", cfg, "--out", str(out)], capsys)
    assert code == 1
    assert err == "config error: keys not allowed with psi_csv: %s\n" % line.split(" = ")[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "line",
    [
        "dt = [1]",
        'dt = "abc"',
        "dt = Infinity",
        "snapshot_every = [2]",
        "snapshot_every = 2.5",
        "dt = true",
        "amplitude = [1]",
        "amplitude = NaN",
        'width = "w"',
        "n = [512]",
        'tolerance_rho = "tight"',
    ],
)
def test_malformed_number_is_a_one_line_config_error(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, "v.cfg", VERIFY_CFG.replace("dt = 0.002\n", "") + line + "\n")
    code, _, err = run(["verify", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert line.split(" = ")[0] in err
    assert "Traceback" not in err
    assert not (tmp_path / "verify_report.txt").exists()


LINEARIZATION_CFG = 'mode = "linearization"\nn = 256\ndt = 0.002\nt_end = 0.05\n'


def test_linearization_D_reads_rationals_like_model_configs(tmp_path, capsys):
    discrepancies = []
    for sub, value in (("rational", '"3/5"'), ("float", "0.6")):
        cfg = write_cfg(tmp_path, f"{sub}.cfg", LINEARIZATION_CFG + f"D = {value}\n")
        code, out, _ = run(["verify", "--config", cfg, "--out", str(tmp_path / sub)], capsys)
        assert code == 0
        discrepancies += [ln for ln in out.splitlines() if ln.startswith("max_rho_discrepancy: ")]
    assert len(discrepancies) == 2
    assert discrepancies[0] == discrepancies[1]


@pytest.mark.parametrize("value", ['"abc"', "Infinity", "NaN", "[1]", "true", '"1/0"'])
def test_linearization_bad_D_is_a_one_line_config_error(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path, "lin.cfg", LINEARIZATION_CFG + f"D = {value}\n")
    code, _, err = run(["verify", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("config error: D ") and err.count("\n") == 1


@pytest.mark.parametrize("value", ['"nosuch"', "[1]", "{}", "true"])
def test_unknown_verify_mode_is_a_one_line_config_error(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path, "m.cfg", VERIFY_CFG + f"mode = {value}\n")
    code, _, err = run(["verify", "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err.startswith("config error: unknown verify mode ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_linearization_failure_prints_the_residual_table(tmp_path, capsys):
    """Both verify modes report a tolerance failure the same way: exit 3,
    passed: False in the report, and one table row per failed tolerance."""
    cfg = write_cfg(tmp_path, "lin.cfg", LINEARIZATION_CFG + 'D = "3/5"\ntolerance_rho = 1e-12\n')
    code, out, err = run(["verify", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 3
    assert "passed: False" in out
    lines = err.splitlines()
    assert lines[0] == "tolerance exceeded:" and len(lines) == 2
    assert re.fullmatch(r"  tolerance_rho: residual \S+ > 1\.000e-12", lines[1])


# ---------------------------------------------------------------------------
# coupled / gauged commands
# ---------------------------------------------------------------------------


def test_coupled_transform_report(tmp_path, capsys):
    text = (
        "p = 2\n"
        'a = ["1", "2"]\n'
        'b = [["1/2", "0"], ["0", "1/3"]]\n'
        'c = [["0", "1/5"], ["0", "0"]]\n'
        'd = [["1/7", "1/3"], ["1/4", "1/2"]]\n'
        'e = [["1/9", "1/6"], ["1/12", "1/8"]]\n'
    )
    cfg = write_cfg(tmp_path, "c.cfg", text)
    code, out, _ = run(
        ["coupled-transform", "--config", cfg, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    assert "TotalOnly" in out
    assert "special_reduction" in out


def test_coupled_transform_nonconserving_rejected(tmp_path, capsys):
    text = (
        "p = 2\n"
        'a = ["1", "1"]\n'
        'b = [["0", "0"], ["0", "0"]]\n'
        'c = [["0", "0"], ["0", "0"]]\n'
        'd = [["0", "1/3"], ["1/4", "0"]]\n'
        'e = [["0", "1/4"], ["1/3", "0"]]\n'
    )
    cfg = write_cfg(tmp_path, "c.cfg", text)
    code, _, err = run(
        ["coupled-transform", "--config", cfg, "--out", str(tmp_path)], capsys
    )
    assert code == 2
    assert "obstruction" in err


COUPLED_CFG = {
    "p": 2,
    "a": ["1", "2"],
    "b": [["1/2", "0"], ["0", "1/3"]],
    "c": [["0", "1/5"], ["0", "0"]],
    "d": [["1/7", "1/3"], ["1/4", "1/2"]],
    "e": [["1/9", "1/6"], ["1/12", "1/8"]],
    "fpot": [[["1", "0"], ["0", "0"]], [["0", "1/2"], ["1/2", "0"]]],
    "multiplets": [[0, 1]],
}


def test_coupled_transform_reads_every_key(tmp_path, capsys):
    path = _write_new_cfg(tmp_path, COUPLED_CFG)
    code, out, _ = run(["coupled-transform", "--config", path, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "TotalOnly" in out


@pytest.mark.parametrize(
    "key, value",
    [
        ("p", True),
        ("p", 2.7),
        ("p", 0),
        ("a", [True, 2]),
        ("a", ["1/0", "2"]),
        ("b", [["1/2", "0"], ["0", math.inf]]),
        ("fpot", []),
        ("fpot", None),
        ("multiplets", [[0, 1.5]]),
        ("multiplets", [[0, True]]),
        ("multiplets", None),
        ("multiplets", [0, 1]),
    ],
)
def test_malformed_coupled_value_is_a_one_line_config_error(tmp_path, capsys, key, value):
    path = _write_new_cfg(tmp_path, {**COUPLED_CFG, key: value})
    out = tmp_path / "out"
    code, _, err = run(["coupled-transform", "--config", path, "--out", str(out)], capsys)
    _assert_one_line_config_error(code, err)
    assert key in err
    assert not out.exists()


def test_gauged_transform_report(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "g.cfg", 'q = "2"\nD = "1/2"\nalpha = "1/3"\n')
    code, out, _ = run(
        ["gauged-transform", "--config", cfg, "--out", str(tmp_path)], capsys
    )
    assert code == 0
    # beta = 2/3 - 4*(1/4)/2 = 1/6
    assert "beta: 1/6" in out


@pytest.mark.parametrize("q", ["true", "Infinity", '"1/0"', '"two"'])
def test_gauged_transform_reads_the_family_keys(tmp_path, capsys, q):
    cfg = write_cfg(tmp_path, "g.cfg", f'q = {q}\nD = "1/2"\nalpha = "1/3"\n')
    code, _, err = run(["gauged-transform", "--config", cfg, "--out", str(tmp_path)], capsys)
    assert code == 1
    assert err.startswith("config error: bad model config: q ") and err.count("\n") == 1


def test_gauged_transform_rejects_unknown_and_missing_keys(tmp_path, capsys):
    for text, message in (
        ('q = "2"\nD = "1/2"\nalpha = "1/3"\nfamily = "dnls"\n', "unknown config keys: family"),
        ('q = "2"\nD = "1/2"\n', "missing config keys: alpha"),
        ('q = "2"\nD = "1/2"\nalpha = "1/3"\nside = "matter"\n', "unknown config keys: side"),
    ):
        cfg = write_cfg(tmp_path, "g.cfg", text)
        code, _, err = run(["gauged-transform", "--config", cfg, "--out", str(tmp_path)], capsys)
        assert code == 1
        assert err == f"config error: {message}\n"


# ---------------------------------------------------------------------------
# malformed values, fuzzed
# ---------------------------------------------------------------------------

# values that no model, grid or solver key accepts as written (strings that
# name a family or a boundary are filtered out below)
_VALID_WORDS = {cls.family for cls in FAMILIES} | {"dirichlet", "periodic"}
_BAD = st.one_of(
    st.sampled_from(
        [True, False, None, math.nan, math.inf, -math.inf, "1/0", "-3/0", "1e999", "", {}, [1]]
    ),
    st.text(string.ascii_letters, min_size=1, max_size=6).filter(lambda w: w not in _VALID_WORDS),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3),
)


def _valid_model_config(cls) -> dict:
    """A config of family ``cls`` with every coefficient 1/2 and every
    expression rho/2."""
    kinds = {f.name: f.type for f in cls.__dataclass_fields__.values()}
    cfg = {"family": cls.family}
    for key, names in cls.config_keys.items():
        values = [[["1/2", "1", "0"]] if kinds[n] == "RhoExpr" else "1/2" for n in names]
        cfg[key] = values if len(names) > 1 else values[0]
    return cfg


@st.composite
def _malformed_model_config(draw):
    """A valid model config with one key, one list entry or one entry of an
    expression triple replaced by a malformed value."""
    cfg = _valid_model_config(draw(st.sampled_from(FAMILIES)))
    key = draw(st.sampled_from(sorted(cfg)))
    value = cfg[key]
    if isinstance(value, list) and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        if isinstance(value[i], list):  # an expression: [[coeff, power, log power]]
            value[i][draw(st.integers(0, 2))] = draw(_BAD)
        else:
            value[i] = draw(_BAD)
    else:
        cfg[key] = draw(_BAD)
    return cfg


def _write_new_cfg(tmp_path, cfg: dict) -> str:
    """``cfg`` as a config file under a new name (overwriting one file per
    example is far slower than creating files on some filesystems)."""
    fd, path = tempfile.mkstemp(suffix=".cfg", dir=tmp_path)
    with os.fdopen(fd, "w") as fh:
        fh.write("".join(f"{key} = {json.dumps(value)}\n" for key, value in cfg.items()))
    return path


def _assert_one_line_config_error(code, err):
    assert code == 1, err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_valid_model_configs_build():
    for cls in FAMILIES:
        cfg = _valid_model_config(cls)
        assert type(cli.build_model(cfg, set())) is cls


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cfg=_malformed_model_config())
def test_fuzzed_model_config_is_a_one_line_config_error(tmp_path, capsys, cfg):
    path = _write_new_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, _, err = run(["transform", "--config", path, "--out", str(out)], capsys)
    _assert_one_line_config_error(code, err)
    assert not out.exists()


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    key=st.sampled_from(sorted(cli._GRID_KEYS | cli._INIT_KEYS | cli._SOLVER_KEYS)),
    value=_BAD,
)
def test_fuzzed_run_config_is_a_one_line_config_error(tmp_path, capsys, monkeypatch, key, value):
    """A malformed grid, initial-state or solver value fails in the
    ``build_*`` helpers, before any time step."""
    monkeypatch.chdir(tmp_path)  # a psi_csv path names no file
    cfg = {"family": "dnls", "b": ["0", "0", "0", "0"], "n": 16, "dt": 0.001, "t_end": 0.002}
    if key == "psi_csv":
        del cfg["n"]  # psi_csv gives the grid; n next to it is an error of its own
    cfg[key] = value
    path = _write_new_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, _, err = run(["simulate", "--config", path, "--out", str(out)], capsys)
    _assert_one_line_config_error(code, err)
    assert not out.exists()


def _with_bad_leaf(draw, value):
    """``value`` with one entry of its nested lists replaced by a malformed value."""
    if not isinstance(value, list):
        return draw(_BAD)
    i = draw(st.integers(0, len(value) - 1))
    value[i] = _with_bad_leaf(draw, value[i])
    return value


@st.composite
def _malformed_coupled_config(draw):
    """COUPLED_CFG with one key, or one entry of its nested lists, replaced by
    a malformed value.  A list of two nonzero integers is a valid ``a``."""
    cfg = copy.deepcopy(COUPLED_CFG)
    key = draw(st.sampled_from(sorted(cfg)))
    if isinstance(cfg[key], list) and draw(st.booleans()):
        cfg[key] = _with_bad_leaf(draw, cfg[key])
    else:
        valid_a = lambda v: isinstance(v, list) and len(v) == 2 and 0 not in v
        cfg[key] = draw(_BAD.filter(lambda v: key != "a" or not valid_a(v)))
    return cfg


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(cfg=_malformed_coupled_config())
def test_fuzzed_coupled_config_is_a_one_line_config_error(tmp_path, capsys, cfg):
    path = _write_new_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, _, err = run(["coupled-transform", "--config", path, "--out", str(out)], capsys)
    _assert_one_line_config_error(code, err)
    assert not out.exists()


_VERIFY_BASES = {
    "equivalence": {"family": "dnls", "b": ["0", "0", "0", "0"]},
    "linearization": {"mode": "linearization", "D": "1/2"},
}


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    mode_key=st.sampled_from(
        [(mode, k) for mode, tols in cli._VERIFY_TOLERANCES.items() for k in sorted(tols)]
    ),
    value=_BAD,
)
def test_fuzzed_verify_tolerance_is_a_one_line_config_error(tmp_path, capsys, mode_key, value):
    """A malformed tolerance fails before any time step, in either mode."""
    mode, key = mode_key
    cfg = {**_VERIFY_BASES[mode], "n": 16, "dt": 0.001, "t_end": 0.002, key: value}
    path = _write_new_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code, _, err = run(["verify", "--config", path, "--out", str(out)], capsys)
    _assert_one_line_config_error(code, err)
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300", "1/0", "tight"])
def test_bad_tolerance_flag_is_a_one_line_config_error(tmp_path, capsys, value):
    """A tolerance no residual can be compared with fails before any time
    step; 0 stays valid (see test_verify_zero_tolerance_fails)."""
    cfg = write_cfg(tmp_path, "v.cfg", VERIFY_CFG)
    out = tmp_path / "out"
    argv = ["verify", "--config", cfg, "--out", str(out), f"--tolerance={value}"]
    code, _, err = run(argv, capsys)
    _assert_one_line_config_error(code, err)
    assert "--tolerance" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, key", [(mode, k) for mode, tols in cli._VERIFY_TOLERANCES.items() for k in sorted(tols)]
)
def test_negative_tolerance_key_is_a_one_line_config_error(tmp_path, capsys, mode, key):
    cfg = {**_VERIFY_BASES[mode], "n": 16, "dt": 0.001, "t_end": 0.002, key: -1e-9}
    out = tmp_path / "out"
    path = _write_new_cfg(tmp_path, cfg)
    code, _, err = run(["verify", "--config", path, "--out", str(out)], capsys)
    _assert_one_line_config_error(code, err)
    assert key in err
    assert not out.exists()


_DNLS = 'family = "dnls"\nb = ["0", "1", "0", "0"]\n'
_EMPTY_F = "".join(f"f{i} = []\n" for i in range(2, 6))  # f2..f5
_COUPLED = (
    'p = 2\na = ["1", "1"]\nc = [["0", "0"], ["0", "0"]]\nd = [["1/7", "1/3"], ["1/4", "1/2"]]\n'
    'e = [["1/9", "1/6"], ["1/12", "1/8"]]\n'
)
_COUPLED_B = 'b = [["1/2", "1/3"], ["1/5", "1/7"]]\n'
_PARTITION = "bad coupled model: multiplets must partition 0..p-1"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("transform", 'family "dnls"\n', "line 1: expected 'key = value', got 'family \"dnls\"'"),
        ("transform", " = 1\n", "line 1: empty key"),
        (
            "transform",
            "family = dnls\n",
            "line 1: bad value for 'family': Expecting value: line 1 column 1 (char 0)",
        ),
        ("simulate", _DNLS + "amplitude = -1\n", "amplitude and width must be positive"),
        ("simulate", _DNLS + "width = 0\n", "amplitude and width must be positive"),
        (
            "equiv",
            'f1 = [["1", "1"]]\n' + _EMPTY_F + "g1 = []\n" + _EMPTY_F.replace("f", "g"),
            "bad coefficient triples: f1 must be a list of [coeff, power, log power] triples, "
            "got [['1', '1']]",
        ),
        (
            "linearize",
            'f1 = [["1", "0", "1/2"]]\n' + _EMPTY_F,
            "bad coefficient triples: f1 must have integer log powers, got [['1', '0', '1/2']]",
        ),
        ("simulate", _DNLS + "n = 7\n", "need at least 8 grid points"),
        ("simulate", _DNLS + "psi_csv = PSI\n", "bad psi_csv: field contains non-finite entries"),
        (
            "coupled-transform",
            _COUPLED + 'b = [["1/2", "1/3", "0"], ["1/5", "1/7", "0"]]\n',
            "bad coupled model: matrix must be 2x2",
        ),
        ("coupled-transform", _COUPLED + _COUPLED_B + "multiplets = [[0], [0]]\n", _PARTITION),
        ("coupled-transform", _COUPLED + _COUPLED_B + "multiplets = [[0, 1], []]\n", _PARTITION),
    ],
    ids=[
        "no-equals", "empty-key", "bad-json", "amplitude", "width", "equiv", "linearize",
        "few-points", "inf-psi", "non-square", "repeated-index", "empty-multiplet",
    ],
)
def test_malformed_line_state_or_triples_is_a_one_line_config_error(
    tmp_path, capsys, command, text, message
):
    """A config line with no '=', an empty key or a value that is not JSON;
    a Gaussian whose amplitude or width is not positive; coefficient
    triples of the wrong shape or with a fractional log power, read by
    ``equiv`` and ``linearize``; a grid of fewer than 8 points; a psi_csv
    state with an inf entry; and a coupled model with a non-square matrix or
    multiplets that repeat an index or hold an empty group: exit 1 with one
    line naming the fault."""
    psi = tmp_path / "psi.csv"
    rows = ["%d,1,0,%s,0" % (i, "inf" if i == 3 else "1") for i in range(16)]
    psi.write_text("\r\n".join(["x,rho,S,re_psi,im_psi", *rows]) + "\r\n")
    cfg = write_cfg(tmp_path, "c.cfg", text.replace("PSI", json.dumps(str(psi))))
    code, _, err = run([command, "--config", cfg, "--out", str(tmp_path / "out")], capsys)
    assert code == 1
    assert err == f"config error: {message}\n"


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def test_the_environment_cannot_move_a_run(tmp_path, capsys, monkeypatch):
    """The density floor is a constant, not a setting: verify with MG_FLOOR
    set (which once moved the EIP collapse residual) writes the same stdout,
    reports and trajectory files, byte for byte, as with it unset."""
    cfg = write_cfg(
        tmp_path, "eip.cfg", 'family = "eip"\nkappa = "3/10"\nn = 512\nsnapshot_every = 10\n'
    )
    runs = []
    for floor in ("1e-8", None):
        if floor is None:
            monkeypatch.delenv("MG_FLOOR", raising=False)
        else:
            monkeypatch.setenv("MG_FLOOR", floor)
        out = tmp_path / f"out-{floor}"
        code, stdout, _ = run(["verify", "--config", cfg, "--out", str(out)], capsys)
        assert code == 0
        files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert "verify_report.txt" in files and "trajectory/snapshot_0100.csv" in files
        runs.append((stdout, files))
    assert runs[0] == runs[1]


def test_a_bad_floor_env_cannot_stop_a_run(tmp_path, capsys, monkeypatch):
    """No command reads MG_FLOOR: simulate runs to the end with a value that
    is no number at all, or no valid floor, and writes what it writes unset."""
    run_cfg = write_cfg(
        tmp_path, "run.cfg", 'family = "dnls"\nb = ["0","0","0","0"]\nn = 16\nt_end = 0.002\n'
    )

    def simulate(name):
        out = tmp_path / name
        code, stdout, err = run(["simulate", "--config", run_cfg, "--out", str(out)], capsys)
        assert code == 0 and err == "", name
        return stdout, {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    monkeypatch.delenv("MG_FLOOR", raising=False)
    unset = simulate("unset")
    assert unset[1]
    for i, value in enumerate(("notanumber", "-1e-9", "0", "nan", "inf", "1e400")):
        monkeypatch.setenv("MG_FLOOR", value)
        stdout, files = simulate(f"set-{i}")
        assert files == unset[1], value
        assert stdout == unset[0].replace(str(tmp_path / "unset"), str(tmp_path / f"set-{i}")), value


def test_missing_config_flag(capsys):
    code, _, err = run(["transform"], capsys)
    assert code == 1
    assert "--config" in err


def test_non_utf8_config_is_a_one_line_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b'\xff\xfefamily = "dnls"\n')
    code, _, err = run(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")], capsys)
    assert code == 1, err
    assert err.startswith("config error: cannot read config: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_config_with_a_utf8_byte_order_mark_reads_like_one_without(tmp_path, capsys):
    """A config saved with a UTF-8 byte-order mark (ef bb bf, as some editors
    write) gives the same report, byte for byte, as the file without it."""
    text = b'family = "dnls"\nb = ["0", "1", "0", "1/2"]\n'
    reports = []
    for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(data)
        out = tmp_path / name
        code, _, err = run(["transform", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0, err
        reports.append((out / "transform_report.txt").read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# command-line arguments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--dims", "2"],
        ["simulate", "--bogus"],
        ["verify", "--dims", "2"],
        ["transform", "--tolerance", "0"],
        ["transform", "--dims", "two"],
        [],
    ],
)
def test_usage_error_exits_1_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("nls-gauge") and ": error: " in err
    assert err.count("\n") == 1


_FREE = "f1 = []\n" + _EMPTY_F  # the free equation
_OUT_CONFIGS = {
    "transform": 'family = "dnls"\nb = ["0", "1", "0", "1/2"]\n',
    "equiv": _FREE + _FREE.replace("f", "g"),
    "linearize": _FREE,
    "simulate": VERIFY_CFG,
    "verify": VERIFY_CFG,
    "coupled-transform": "".join(f"{k} = {json.dumps(v)}\n" for k, v in COUPLED_CFG.items()),
    "gauged-transform": 'q = "2"\nD = "1/2"\nalpha = "1/3"\n',
}


@pytest.mark.parametrize("command", list(_OUT_CONFIGS))
def test_out_naming_a_file_is_a_one_line_error_before_any_computation(
    tmp_path, capsys, monkeypatch, command
):
    """An --out that exists and is no directory, or lies under a file, is
    refused before the config is read, and creates nothing.  The first once
    ended in a FileExistsError traceback, the second in an output error
    after all the computation."""
    calls = []
    monkeypatch.setattr(solver, "integrate", lambda *args: calls.append(args))
    cfg = write_cfg(tmp_path, "c.cfg", _OUT_CONFIGS[command])
    afile = tmp_path / "afile"
    afile.write_text("")
    for target, where in (
        (afile, "exists and"),
        (afile / "sub", f"lies under {str(afile)!r}, which"),
        (afile / "sub" / "deeper", f"lies under {str(afile)!r}, which"),
    ):
        code, out, err = run([command, "--config", cfg, "--out", str(target)], capsys)
        assert code == 1 and out == "" and calls == []
        assert err == f"config error: --out {str(target)!r} {where} is not a directory\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "c.cfg"]


def test_output_that_cannot_be_written_is_a_one_line_error(tmp_path, capsys):
    """A file named ``trajectory`` inside --out stops verify's export with
    one line and exit 1, not a traceback, and leaves no report or plot that
    could pass for a finished run."""
    cfg = write_cfg(tmp_path, "v.cfg", VERIFY_CFG)
    out = tmp_path / "out"
    out.mkdir()
    (out / "trajectory").write_text("")
    code, _, err = run(["verify", "--config", cfg, "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith("output error: ") and err.count("\n") == 1, err
    assert "trajectory" in err
    assert sorted(os.listdir(out)) == ["trajectory"]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--tolerance" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# package layout
# ---------------------------------------------------------------------------


def test_every_module_imports_first_and_the_root_defines_no_api():
    """Each module of the package (globbed, so a new one is covered) imports
    cleanly as the first nlsgauge import of an interpreter, and the package
    root defines no public name besides its submodules: a caller imports a
    name from the module that defines it."""
    package = Path(nlsgauge.__file__).parent
    names = sorted(
        "nlsgauge" if p.stem == "__init__" else f"nlsgauge.{p.stem}" for p in package.glob("*.py")
    )
    script = (
        "import importlib, sys\n"
        "for name in sys.argv[1:]:\n"
        "    for key in [k for k in sys.modules if k.split('.')[0] == 'nlsgauge']:\n"
        "        del sys.modules[key]\n"
        "    print(name, flush=True)\n"
        "    importlib.import_module(name)\n"
    )
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *names],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == names
    public = {
        n for n, v in vars(nlsgauge).items() if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert public == set()


def test_every_import_is_module_level_and_the_sibling_imports_are_acyclic():
    """In each module of the package (globbed, so a new one is covered) no
    import statement sits inside a function or a method, and the graph of
    relative imports between sibling modules has no cycle."""
    package = Path(nlsgauge.__file__).parent
    graph = {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = [n for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not inner, f"{path.name}:{inner[0].lineno} imports inside {fn.name}"
        graph[path.stem] = {
            node.module or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
    graphlib.TopologicalSorter(graph).static_order()  # raises CycleError on a cycle
