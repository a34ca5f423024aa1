"""scripts/run_full_validation.py: the report and exit codes come from the CLI."""
import importlib.util
import json
import sys
from pathlib import Path

from ramsq import cli
from ramsq.validation import run_validation

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(monkeypatch, capfd, *argv):
    script = load_script("run_full_validation")
    monkeypatch.setattr(sys, "argv", ["run_full_validation.py", *argv])
    code = script.main()
    captured = capfd.readouterr()
    return code, captured.out, captured.err


def test_full_validation_writes_report_and_summary(tmp_path, capfd, monkeypatch):
    path = tmp_path / "report.json"
    code, out, err = run_script(monkeypatch, capfd, "--sampler", "mean",
                                "--realizations", "300", "--out", str(path))
    assert code == 0
    assert err == f"wrote {path}\n"
    report = run_validation(seed=42, realizations=300, sampler="mean").as_dict()
    assert path.read_text() == json.dumps(report, sort_keys=True, indent=2) + "\n"

    lines = out.splitlines()
    assert len(lines) == len(report["checks"]) + 1
    for line, check in zip(lines, report["checks"]):
        assert line.startswith(f"[validate] {check['name']}: pass")
    margin = next(c for c in report["checks"] if c["name"] == "mc-oracle-mean")
    assert f"worst {margin['worst_sigma_margin']:.3f} sigma" in out
    assert lines[-1].startswith("[validate] status=pass wall=")
    assert lines[-1].endswith(f"s -> {path}")


def test_full_validation_unwritable_out_exits_2_before_run(tmp_path, capfd, monkeypatch):
    def refuse_run(**kwargs):
        raise AssertionError("run_validation must not start")

    monkeypatch.setattr(cli, "run_validation", refuse_run)
    code, out, err = run_script(monkeypatch, capfd, "--sampler", "mean",
                                "--realizations", "300",
                                "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ")
