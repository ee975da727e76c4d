"""Recorded output of the whole CLI: one table of cases, one comparison rule
and one re-recording command.

Each case runs ``nls-gauge <argv> --config <config> --out <fresh dir>``
(``catalog`` takes neither flag).  Its report, and for ``verify`` runs its
``trajectory/diagnostics.csv``, is recorded under ``tests/data`` as the line
``exit <code>`` and then the file, or the run's stdout and stderr when it
wrote no such file.  A report must also be the run's stdout.

A recording compares byte for byte, except the ``verify`` and ``simulate``
outputs: there each number may move by up to ``MAX_MOVE`` (absolute), and
all other text must match.  A reordering of floating-point operations
moves the residuals by about 1e-12; a change of the discretization moves
them by 1e-9 or more and fails until the files are recorded again.

To print the worst move of each file and overall beside ``MAX_MOVE``, with
each fault (exit 1 on any), or to record every file again from the current
code (list each changed file, with its reason, in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden.py --moves
    PYTHONPATH=src python tests/test_golden.py --regen
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

from nlsgauge import cli
from nlsgauge.models import model_to_config
from test_models import FAMILY_SAMPLES

DATA = Path(__file__).parent / "data"

MAX_MOVE = 1e-10

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Case(NamedTuple):
    argv: list
    config: "str | Path | None"  # config text, or a config file under tests/data
    report: str  # the recording of <command>_report.txt
    diagnostics: "str | None" = None  # the recording of trajectory/diagnostics.csv

    def recordings(self) -> list:
        return [name for name in (self.report, self.diagnostics) if name]


def _config_text(cfg: dict) -> str:
    return "".join(f"{key} = {json.dumps(value)}\n" for key, value in cfg.items())


# the benchmark's cli-verify-n512 models, each with its snapshot spacing at n = 512
RUN_MODELS = {
    "dnls": ('family = "dnls"\nb = ["0", "1", "0", "1/2"]\n', 100),
    "eip": ('family = "eip"\nkappa = "3/10"\n', 10),
    "doebner-goldin": (
        'family = "doebner-goldin"\nc = ["2/5", "-1/5", "0", "-2/5", "1/10"]\nD = "2/5"\n',
        100,
    ),
}


def _run_config(name: str, n: int, t_end: float) -> str:
    """A run of the README Gaussian (the default initial state), with a
    snapshot every 100 steps off n = 512."""
    model, every = RUN_MODELS[name]
    every = every if n == 512 else 100
    return f"{model}n = {n}\ndt = 0.001\nt_end = {t_end}\nsnapshot_every = {every}\n"


def _cases() -> list:
    cases = [Case(["catalog"], None, "catalog.txt")]
    for name, model in FAMILY_SAMPLES.items():
        text = _config_text(model_to_config(model))
        cases.append(Case(["transform"], text, f"transform_{name}_report.txt"))
        cases.append(Case(["transform", "--dims", "2"], text, f"transform_dims2_{name}.txt"))
    for q in ("2", "1", "1/2"):
        text = _config_text({"q": q, "D": "1/2", "alpha": "1/3"})
        tag = q.replace("/", "_")
        cases.append(Case(["gauged-transform"], text, f"gauged_transform_q{tag}.txt"))
    for name in ("per_species_p2", "total_only_p3_fpot", "custom_multiplets_p3", "jackiw_like_p3"):
        config = DATA / f"coupled_{name}.cfg"
        cases.append(Case(["coupled-transform"], config, f"coupled_{name}_report.txt"))
    # an equivalent pair and one failing its f~3 relation, a pair with f6 != 0
    # failing its f~2 relation (checked after f1 there), a linearizable vector
    # and one failing its f4 condition (rational powers and log terms)
    names = ("equiv", "equiv_witness", "equiv_f6_witness", "linearize", "linearize_witness")
    for name in ("transform", *names):
        config = DATA / f"five_function_{name}.cfg"
        cases.append(Case([name.split("_")[0]], config, f"five_function_{name}_report.txt"))
    verify_runs = [(name, name, 512, 1.0) for name in RUN_MODELS]
    verify_runs += [(f"n4096_{name}", name, 4096, 0.1) for name in ("dnls", "eip")]
    for tag, name, n, t_end in verify_runs:
        report, diagnostics = f"verify_{tag}_report.txt", f"verify_{tag}_diagnostics.csv"
        cases.append(Case(["verify"], _run_config(name, n, t_end), report, diagnostics))
    for name in RUN_MODELS:
        cases.append(Case(["simulate"], _run_config(name, 512, 0.1), f"simulate_{name}_report.txt"))
    linearization = 'mode = "linearization"\nD = "1/2"\nn = 512\ndt = 0.001\nt_end = 0.1\n'
    cases.append(Case(["verify"], linearization, "verify_linearization_report.txt"))
    return cases


CASES = _cases()


def run_case(case: Case, tmp) -> tuple[dict, bool]:
    """Each recorded name of ``case`` -> what the run gives for it, and
    whether the run's stdout is its report."""
    out = Path(tempfile.mkdtemp(dir=tmp))
    config = case.config
    if isinstance(config, str):
        config = out / "run.cfg"
        config.write_bytes(case.config.encode())
    argv = case.argv + (["--config", str(config), "--out", str(out)] if config else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)

    def recording(path: Path) -> str:
        if not path.exists():
            return f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
        return f"exit {code}\n{path.read_bytes().decode()}"

    report = out / f"{case.argv[0].replace('-', '_')}_report.txt"
    got = {case.report: recording(report)}
    if case.diagnostics:
        got[case.diagnostics] = recording(out / "trajectory" / "diagnostics.csv")
    return got, not report.exists() or stdout.getvalue() == report.read_bytes().decode()


def compare(old: str, new: str, max_move: float) -> tuple[float, list]:
    """The worst absolute move of a number from ``old`` to ``new`` and one
    line for each fault: a number moved by more than ``max_move``, any
    other changed text, or, at ``max_move`` 0, any changed byte."""
    old_lines, new_lines = old.split("\n"), new.split("\n")
    if len(old_lines) != len(new_lines):
        return math.inf, [f"{len(old_lines)} lines -> {len(new_lines)}"]
    worst, faults = 0.0, []
    for i, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a == b:
            continue
        if NUMBER.split(a) != NUMBER.split(b):
            worst = math.inf
            faults.append(f"line {i}: {a!r} -> {b!r}")
            continue
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            move = float(y) - float(x)
            worst = max(worst, abs(move))
            if abs(move) > max_move or (max_move == 0 and x != y):
                faults.append(f"line {i}: {x} -> {y}  {move:+.2e}")
    return worst, faults


def _recorded(name: str) -> str:
    path = DATA / name
    return path.read_bytes().decode() if path.exists() else ""


def check(case: Case, tmp) -> dict:
    """Each recorded name of ``case`` -> its worst move from the recording
    and its faults."""
    got, stdout_is_report = run_case(case, tmp)
    max_move = MAX_MOVE if case.argv[0] in ("verify", "simulate") else 0.0
    result = {name: compare(_recorded(name), new, max_move) for name, new in got.items()}
    if not stdout_is_report:
        result[case.report][1].append("stdout differs from the report")
    return result


@pytest.mark.parametrize("case", CASES, ids=lambda case: Path(case.report).stem)
def test_output_matches_its_recording(tmp_path, case):
    for name, (_, faults) in check(case, tmp_path).items():
        assert not faults, (name, faults)


def test_planted_faults_fail_the_comparison():
    """A changed catalog line, a transform coefficient off by one, a dropped
    report key and a verify residual moved by 1e-9 each fail their
    comparison; a move of 1e-11 passes."""
    catalog = _recorded("catalog.txt")
    assert compare(catalog, catalog.replace("eip:", "eip2:", 1), 0.0)[1]
    transform = _recorded("transform_dnls_report.txt")
    for old, new in (('- "-57/80"', '- "23/80"'), ("dims: 1\n", "")):
        assert old in transform
        assert compare(transform, transform.replace(old, new, 1), 0.0)[1], old
    verify = _recorded("verify_dnls_report.txt")
    line = re.search(r"max_rho_discrepancy: (\S+)", verify)
    for move, fails in ((1e-9, True), (-1e-9, True), (1e-11, False)):
        moved = verify.replace(line[0], f"max_rho_discrepancy: {float(line[1]) + move!r}")
        worst, faults = compare(verify, moved, MAX_MOVE)
        assert bool(faults) == fails and worst == pytest.approx(abs(move), rel=1e-3), move
    assert compare(verify, verify, 0.0) == (0.0, [])


def test_data_holds_exactly_the_cases_inputs_and_recordings():
    inputs = [case.config.name for case in CASES if isinstance(case.config, Path)]
    recorded = [name for case in CASES for name in case.recordings()]
    assert len(set(recorded)) == len(recorded)
    assert sorted(p.name for p in DATA.iterdir()) == sorted(inputs + recorded)


def test_moves_exits_1_when_a_recording_fails(monkeypatch, capsys):
    """``--moves`` exits 0 on the recordings themselves, and 1 when a number
    moves by more than MAX_MOVE or a run's stdout is not its report."""
    verify = _recorded("verify_eip_report.txt")
    drift = re.search(r"N_drift_original: (\S+)", verify)
    moved = verify.replace(drift[0], f"N_drift_original: {float(drift[1]) + 2 * MAX_MOVE!r}")
    for edits, stdout_is_report, code in (
        ({}, True, 0),
        ({"verify_eip_report.txt": moved}, True, 1),
        ({}, False, 1),
    ):

        def replay(case, tmp, edits=edits, stdout_is_report=stdout_is_report):
            got = {name: edits.get(name, _recorded(name)) for name in case.recordings()}
            return got, stdout_is_report

        monkeypatch.setitem(globals(), "run_case", replay)
        assert main(["--moves"]) == code
    out = capsys.readouterr().out
    assert out.count(f"MAX_MOVE {MAX_MOVE:.0e}\n") == 3
    assert f"{2 * MAX_MOVE:+.2e}" in out and "stdout differs from the report" in out


def main(argv) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        if argv == ["--regen"]:
            for case in CASES:
                for name, data in run_case(case, tmp)[0].items():
                    (DATA / name).write_bytes(data.encode())
            return 0
        if argv == ["--moves"]:
            worst, ok = 0.0, True
            for case in CASES:
                for name, (move, faults) in check(case, tmp).items():
                    print(f"{name:<46} {move:.2e}", *(f"\n  {fault}" for fault in faults), sep="")
                    worst, ok = max(worst, move), ok and not faults
            print(f"worst move {worst:.2e}, MAX_MOVE {MAX_MOVE:.0e}")
            return 0 if ok else 1
    print("usage: test_golden.py --moves | --regen", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
