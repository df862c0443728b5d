import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chspectral
from chspectral import suites
from chspectral.cli import _csv, entry
from chspectral.corpus import default_corpus


def write_config(tmp_path, spec, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


CONST = {"smooth": {"kind": "const", "value": 1.0}}
PEAKON = {"atoms": [{"q": 0.3, "p": 1.0}]}
CENTERED = {"atoms": [{"q": 0.5, "p": 1.0}]}
TWO_MODE = next(mb.m for mb in default_corpus() if mb.name == "two_mode").spec()


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


def test_csv_writer_matches_the_per_float_join():
    # one %-format call over the table writes what joining format(float(x),
    # ".17g") per value wrote, signed zero, subnormals and non-finite included
    def joined(header, columns):
        rows = [",".join(format(float(x), ".17g") for x in row) for row in zip(*columns)]
        return "\n".join([header] + rows) + "\n"

    special = [-0.0, 0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf,
               0.1, 1 / 3, 2.0 ** 53 + 2, 1e-310]
    columns = (np.array(special), [3, -7, 0, 2 ** 60, 1, 2, 3, 4, 5, 6, 7, 8],
               [np.float64(x) * 1.5 for x in special])
    assert _csv("a,b,c", columns) == joined("a,b,c", columns)
    lams = np.linspace(-500.0, 5e4, 4000)
    assert _csv("lambda,delta", (lams, np.cos(lams) * 1e9)) == \
        joined("lambda,delta", (lams, np.cos(lams) * 1e9))
    assert _csv("lambda,delta", ()) == joined("lambda,delta", ()) == "lambda,delta\n"


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


def spectrum_rows(tmp_path, cfg, *window):
    out = tmp_path / "_".join(("spectrum",) + window)
    assert entry(["spectrum", "--config", cfg, *window, "--out", str(out)]) == 0
    return [line.split(",") for line in
            (out / "spectrum.csv").read_text().splitlines()[1:]]


def test_spectrum_negative_window_lists_points_below_zero(tmp_path):
    # m = -1: psi'' = (1/4 + lambda) psi, so the auxiliary points are
    # -(1/4 + (k pi)^2), each on a closed gap: a double edge
    cfg = write_config(tmp_path, {"smooth": {"kind": "const", "value": -1.0}})
    rows = spectrum_rows(tmp_path, cfg, "--lambda-min=-300", "--lambda-max=300")
    aux = [r for r in rows if r[0] == "aux"]
    assert [int(r[1]) for r in aux] == [-5, -4, -3, -2, -1]
    for k, r in zip(range(5, 0, -1), aux):
        assert float(r[2]) == pytest.approx(-(0.25 + (k * math.pi) ** 2), rel=1e-9)
        assert r[4] == "true"
    double = [r[2] for r in rows if r[0] != "aux" and r[4] == "true"]
    assert double == [r[2] for r in aux]


def test_spectrum_lambda_min_zero_gives_the_default_rows(tmp_path):
    # the brackets then start at 0, not at 1e-6: values move by rounding only
    cfg = write_config(tmp_path, TWO_MODE)
    rows = spectrum_rows(tmp_path, cfg, "--lambda-min=0")
    default = spectrum_rows(tmp_path, cfg)
    assert [(r[0], r[1], r[4]) for r in rows] == [(r[0], r[1], r[4]) for r in default]
    for r, d in zip(rows, default):
        assert [float(r[2]), float(r[3])] == pytest.approx([float(d[2]), float(d[3])],
                                                           rel=1e-13)


def test_spectrum_edge_index_ranks_within_the_window(tmp_path):
    # an edge row's index is its rank among the window's edges of its kind;
    # an aux row's index is its Sturm index, whatever the window
    cfg = write_config(tmp_path, TWO_MODE)
    full = spectrum_rows(tmp_path, cfg, "--lambda-max", "200")
    upper = spectrum_rows(tmp_path, cfg, "--lambda-min", "100", "--lambda-max", "200")
    for rows, index in ((full, "4"), (upper, "1")):
        edge = [r for r in rows if r[0] == "periodic" and abs(float(r[2]) - 159.168) < 1e-3]
        assert [r[1] for r in edge] == [index]
    assert [r[1] for r in upper if r[0] == "aux"] == ["4"]
    assert ["aux", "4"] in [r[:2] for r in full]


def test_spectrum_warns_once_when_hills_pattern_breaks(tmp_path, capsys):
    # two_mode to 4000 loses band edges above ~1680 (ROADMAP item 2): the
    # run still succeeds and its CSV is written, with one warning line
    cfg = write_config(tmp_path, TWO_MODE)
    capsys.readouterr()
    rows = spectrum_rows(tmp_path, cfg, "--lambda-max", "4000")
    assert len([r for r in rows if r[0] == "aux"]) == 20
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("chspectral: warning: the spectrum breaks Hill's pattern: ")


def test_spectrum_of_every_shipped_config_is_silent(tmp_path, capsys):
    configs = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")
    names = sorted(os.listdir(configs))
    assert len(names) >= 5
    capsys.readouterr()
    for name in names:
        spectrum_rows(tmp_path, os.path.join(configs, name))
        assert capsys.readouterr().err == "", name


def test_spectrum_checks_only_windows_from_zero(tmp_path, capsys, monkeypatch):
    # Hill's pattern is stated for a window whose bottom lies in [0, GUARD_BAND];
    # a check that always complains shows which windows are checked
    from chspectral import cli

    calls = []

    def complain(points, edges):
        calls.append(len(points))
        return ["always"]

    monkeypatch.setattr(cli, "hill_problems", complain)
    negative = write_config(tmp_path, {"smooth": {"kind": "const", "value": -1.0}}, "neg.json")
    two_mode = write_config(tmp_path, TWO_MODE)
    capsys.readouterr()
    spectrum_rows(tmp_path, negative, "--lambda-min=-300", "--lambda-max=300")
    spectrum_rows(tmp_path, two_mode, "--lambda-min", "20", "--lambda-max", "100")
    assert calls == [] and capsys.readouterr().err == ""
    for window in (("--lambda-min=0",), ()):
        spectrum_rows(tmp_path, two_mode, *window)
        assert capsys.readouterr().err == \
            "chspectral: warning: the spectrum breaks Hill's pattern: always\n"
    assert calls == [2, 2]


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


def test_usage_errors_exit_2(tmp_path, capsys):
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
    # windows where solutions grow like e^1000: one line, no traceback
    two_mode = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs",
                            "two_mode.json")
    for argv in (["spectrum", "--config", two_mode, "--lambda-min=-1e6", "--lambda-max", "10"],
                 ["discriminant", "--config", two_mode, "--lambda-min=-1e7", "--lambda-max", "0"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            entry(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err == \
            "chspectral: trajectory exceeded the overflow guard 1e300\n"


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


def test_in_process_reruns_are_byte_identical(tmp_path):
    # the second run of each command shares a process with the first, and
    # the step-table memo the first run filled; nothing left there may
    # change its files
    cfg = write_config(tmp_path, TWO_MODE)
    for argv in (["spectrum"], ["verify", "gradients"], ["discriminant"]):
        a, b = (tmp_path / "_".join(argv) / run for run in "ab")
        for out in (a, b):
            assert entry(argv + ["--config", cfg, "--out", str(out)]) == 0
        names = sorted(os.listdir(a))
        assert names and names == sorted(os.listdir(b))
        assert all((a / f).read_bytes() == (b / f).read_bytes() for f in names)


@pytest.mark.parametrize("suite, cases", [("lemma", 18), ("theorem1", 1), ("theorem2", 1)])
def test_strict_bracket_suites_take_an_atom_of_weight_zero(tmp_path, suite, cases):
    # an atom without mass leaves every bracket defined, so it is no reason to skip
    cfg = write_config(tmp_path, dict(TWO_MODE, atoms=[{"q": 0.3, "p": 0.0}]))
    assert entry(["verify", suite, "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / f"verify_{suite}.json").read_text())
    assert doc["pass"] is True and len(doc["residuals"]) == cases


def fresh_python(*argv):
    """Run `python argv...` in a fresh interpreter on this test's package sources."""
    src = os.path.dirname(os.path.dirname(chspectral.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


def test_module_invocation(tmp_path):
    cfg = write_config(tmp_path, CONST)
    proc = fresh_python("-m", "chspectral", "discriminant", "--config", cfg,
                        "--lambda-min", "0", "--lambda-max", "1", "--count", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("lambda,delta")


def test_import_path_loads_no_scipy(tmp_path):
    # scipy is imported only when a samples coefficient builds its spline;
    # a purely atomic spectrum (Green's matrices, numpy.linalg) needs none
    configs = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs")
    paths = sorted(os.path.join(configs, name) for name in os.listdir(configs))
    assert len(paths) >= 5
    peakon = os.path.join(configs, "peakon_offset.json")
    proc = fresh_python(
        "-c",
        "import sys\n"
        "import chspectral.cli\n"
        "from chspectral import load_coefficient, make_coefficient\n"
        "for path in sys.argv[1:]:\n"
        "    load_coefficient(path)\n"
        f"chspectral.cli.entry(['spectrum', '--config', {peakon!r}, '--out', {str(tmp_path)!r}])\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        "make_coefficient({'smooth': {'kind': 'samples', 'values': [1.0, 1.2, 1.0, 0.8]}})\n"
        "print('scipy.interpolate' in sys.modules)\n",
        *paths)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True"]
    assert (tmp_path / "spectrum.csv").read_text().startswith("kind,index,lambda,rho,degenerate\n")
