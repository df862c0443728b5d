import json
import math
import os
import subprocess
import sys

import pytest

import chspectral
from chspectral import suites
from chspectral.cli import entry


def write_config(tmp_path, spec, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


CONST = {"smooth": {"kind": "const", "value": 1.0}}
PEAKON = {"atoms": [{"q": 0.3, "p": 1.0}]}
CENTERED = {"atoms": [{"q": 0.5, "p": 1.0}]}


def test_discriminant_csv_values(tmp_path):
    cfg = write_config(tmp_path, CONST)
    assert entry(["discriminant", "--config", cfg, "--lambda-min", "0",
                  "--lambda-max", "1", "--count", "5",
                  "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "discriminant.csv").read_text().splitlines()
    assert lines[0] == "lambda,delta"
    assert len(lines) == 6
    lam0, delta0 = map(float, lines[1].split(","))
    assert lam0 == 0.0
    assert delta0 == pytest.approx(math.cosh(0.5), abs=1e-10)
    # lambda = 1/4 makes the oscillator frequency vanish: delta is exactly 1
    assert float(lines[2].split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_discriminant_empty_window_header_only(tmp_path):
    cfg = write_config(tmp_path, CONST)
    assert entry(["discriminant", "--config", cfg, "--lambda-min", "5",
                  "--lambda-max", "5", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "discriminant.csv").read_text() == "lambda,delta\n"


def test_discriminant_stdout(tmp_path, capsys):
    cfg = write_config(tmp_path, CONST)
    entry(["discriminant", "--config", cfg, "--lambda-min", "0",
           "--lambda-max", "1", "--count", "2"])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "lambda,delta" and len(out) == 3


def test_spectrum_peakon_rows(tmp_path):
    cfg = write_config(tmp_path, PEAKON)
    assert entry(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in
            (tmp_path / "spectrum.csv").read_text().splitlines()[1:]]
    aux = [r for r in rows if r[0] == "aux"]
    assert len(aux) == 1
    exact = math.sinh(0.5) / (2.0 * math.sinh(0.15) * math.sinh(0.35))
    assert float(aux[0][2]) == pytest.approx(exact, rel=1e-10)
    assert aux[0][4] == "false"
    kinds = {r[0] for r in rows}
    assert kinds == {"aux", "periodic", "antiperiodic"}
    for r in rows:
        if r[0] == "periodic":
            assert float(r[3]) == 1.0
        elif r[0] == "antiperiodic":
            assert float(r[3]) == -1.0


def test_spectrum_centered_peakon_flagged_degenerate(tmp_path):
    cfg = write_config(tmp_path, CENTERED)
    entry(["spectrum", "--config", cfg, "--out", str(tmp_path)])
    rows = [line.split(",") for line in
            (tmp_path / "spectrum.csv").read_text().splitlines()[1:]]
    aux = [r for r in rows if r[0] == "aux"]
    assert len(aux) == 1 and aux[0][4] == "true"
    assert float(aux[0][3]) == pytest.approx(-1.0, abs=1e-10)


def test_spectrum_const_matches_closed_form(tmp_path):
    cfg = write_config(tmp_path, CONST)
    entry(["spectrum", "--config", cfg, "--lambda-max", "45",
           "--out", str(tmp_path)])
    rows = [line.split(",") for line in
            (tmp_path / "spectrum.csv").read_text().splitlines()[1:]]
    aux = [r for r in rows if r[0] == "aux"]
    assert [int(r[1]) for r in aux] == [1, 2]
    for k, r in enumerate(aux, start=1):
        assert float(r[2]) == pytest.approx(0.25 + (k * math.pi) ** 2, rel=1e-9)
        assert r[4] == "true"


def test_verify_writes_report_and_field_csvs(tmp_path):
    assert entry(["verify", "hamiltonian", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify_hamiltonian.json").read_text())
    assert list(doc) == ["identity", "n", "residuals", "tolerance", "pass"]
    assert doc["pass"] is True and doc["n"] == 256
    fields = (tmp_path / "hamiltonian_two_mode.csv").read_text().splitlines()
    assert fields[0] == "x,j_gradh2,k_gradh3,residual"
    assert len(fields) == 257
    assert not (tmp_path / "hamiltonian_peakon_offset.csv").exists()


def test_verify_all_writes_suite_artifacts_from_one_spectrum_per_member(
        tmp_path, monkeypatch):
    computed = []
    real = suites.auxiliary_spectrum

    def counted(m, **kwargs):
        computed.append(m)
        return real(m, **kwargs)

    monkeypatch.setattr(suites, "auxiliary_spectrum", counted)
    assert entry(["verify", "all", "--out", str(tmp_path)]) == 0
    assert len(computed) == 5 and len({id(m) for m in computed}) == 5
    reports = [f"verify_{s}.json" for s in
               ("lemma", "gradients", "theorem1", "theorem2", "hamiltonian")]
    tables = ["gradients_two_mode.csv", "gradients_peakon_offset.csv",
              "hamiltonian_const.csv", "hamiltonian_cosine.csv",
              "hamiltonian_two_mode.csv"]
    assert sorted(os.listdir(tmp_path)) == sorted(reports + tables)


def test_verify_gradients_strict_fail_and_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, CONST)
    code = entry(["verify", "gradients", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "no non-degenerate points" in captured.err
    doc = json.loads(captured.out)
    assert doc["pass"] is False and doc["residuals"] == []


def test_verify_gradients_strict_peakon_passes(tmp_path):
    # default n=256: the 5e-4 tolerance budgets for hat smearing at that grid
    cfg = write_config(tmp_path, PEAKON)
    code = entry(["verify", "gradients", "--config", cfg,
                  "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "verify_gradients.json").read_text())
    assert doc["pass"] is True and len(doc["residuals"]) == 1
    grads = (tmp_path / "gradients_config.csv").read_text().splitlines()
    assert grads[0] == "x,d_mu,d_logrho,d_f,d_g"
    assert len(grads) == 257


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        entry(["discriminant"])
    assert err.value.code == 2
    cfg = write_config(tmp_path, CONST)
    with pytest.raises(SystemExit) as err:
        entry(["spectrum", "--config", cfg, "--steps", "1000"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        entry(["verify", "nonsense"])
    assert err.value.code == 2
    missing = str(tmp_path / "nope.json")
    with pytest.raises(SystemExit) as err:
        entry(["spectrum", "--config", missing])
    assert err.value.code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as err:
        entry(["spectrum", "--config", str(bad)])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["spectrum", "--lambda-max", "inf"],
    ["discriminant", "--lambda-max", "inf"],
    ["spectrum", "--lambda-max", "nan"],
    ["spectrum", "--lambda-min", "nan"],
    ["discriminant", "--lambda-min=-inf"],
    ["verify", "gradients", "--eps", "nan"],
])
def test_non_finite_window_or_eps_exit_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, CONST)
    with pytest.raises(SystemExit) as err:
        entry(argv + ["--config", cfg, "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, PEAKON)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        entry(["spectrum", "--config", cfg, "--out", str(out)])
        entry(["discriminant", "--config", cfg, "--count", "50",
               "--out", str(out)])
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    assert (a / "discriminant.csv").read_bytes() == (b / "discriminant.csv").read_bytes()


def test_module_invocation(tmp_path):
    cfg = write_config(tmp_path, CONST)
    # the child imports the same package sources as this test process
    src = os.path.dirname(os.path.dirname(chspectral.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "chspectral", "discriminant", "--config", cfg,
         "--lambda-min", "0", "--lambda-max", "1", "--count", "3"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert proc.stdout.startswith("lambda,delta")
