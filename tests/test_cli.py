import json
import math

import pytest

import paritylab.cli as cli
from paritylab.spectral import DegenerateFermiLevelError


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LAB_THREADS", raising=False)
    return tmp_path


def _write_config(path, **overrides):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(overrides, fh)
    return str(path)


def test_theory_check_passes(tmp_path, capsys):
    assert cli.main(["theory-check"]) == 0
    out = capsys.readouterr().out
    assert "all identity checks passed" in out
    assert "fail" not in out
    table = [line.split() for line in out.splitlines()[:-1]]

    # the run scenario writes the same checks with the same verdicts
    cfg = _write_config(tmp_path / "tc.json", scenario="theory-check", output="tc.csv")
    assert cli.main(["run", cfg]) == 0
    lines = (tmp_path / "tc.csv").read_text().splitlines()
    assert lines[0] == "check,value,reference,residual,tolerance,status"
    rows = [line.split(",") for line in lines[1:]]
    assert sorted((t[0], t[-1]) for t in table) == [(r[0], r[-1]) for r in rows]
    assert len(rows) == 9


def test_failed_theory_check_exits_3(tmp_path, monkeypatch, capsys):
    header, rows = cli.theory_check_rows()
    failing = rows[:1] + [rows[1][:-1] + ("fail",)]
    monkeypatch.setattr(cli, "theory_check_rows", lambda: (header, failing))
    assert cli.main(["theory-check"]) == 3
    captured = capsys.readouterr()
    assert "all identity checks passed" not in captured.out
    assert f"check {rows[1][0]} failed" in captured.err
    cfg = _write_config(tmp_path / "tc.json", scenario="theory-check", output="tc.csv")
    assert cli.main(["run", cfg]) == 3
    assert f"check {rows[1][0]} failed" in capsys.readouterr().err
    assert (tmp_path / "tc.csv").read_text().count(",fail\n") == 1


def test_print_config_round_trips(capsys):
    assert cli.main(["run", "--print-config", "impurity-sweep"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == cli.DEFAULTS["impurity-sweep"]
    assert cli.main(["run", "--print-config", "nope"]) == 2


def test_run_without_config_is_a_usage_error(capsys):
    assert cli.main(["run"]) == 2
    assert "config" in capsys.readouterr().err


def test_config_errors(tmp_path, capsys, monkeypatch):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(bad_json)]) == 2

    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2

    cfg = _write_config(tmp_path / "s.json", scenario="quench")
    assert cli.main(["run", cfg]) == 2

    cfg = _write_config(tmp_path / "k.json", scenario="impurity-sweep",
                        ratios=[0.8], sizes=[40], typo_key=1)
    assert cli.main(["run", cfg]) == 2
    assert "typo_key" in capsys.readouterr().err

    cfg = _write_config(tmp_path / "r.json", scenario="impurity-sweep",
                        ratios=[-0.5], sizes=[40])
    assert cli.main(["run", cfg]) == 2

    # non-finite ratios are config errors, not solver failures
    for bad in (math.nan, math.inf):
        cfg = _write_config(tmp_path / "n.json", scenario="impurity-sweep",
                            ratios=[bad], sizes=[40])
        assert cli.main(["run", cfg]) == 2
        cfg = _write_config(tmp_path / "z.json", scenario="zero-modes", ratio=bad)
        assert cli.main(["run", cfg]) == 2
    assert "finite" in capsys.readouterr().err

    cfg = _write_config(tmp_path / "p.json", scenario="impurity-sweep",
                        boundary="periodic", ratios=[0.8], sizes=[40])
    assert cli.main(["run", cfg]) == 2

    # wrong-typed values must be config errors, not tracebacks
    for key, value in (("sizes", "nope"), ("ratios", "nope"),
                       ("ratios", [0.8, None]), ("aspect_den", "wide")):
        cfg = _write_config(tmp_path / "t.json", scenario="impurity-sweep",
                            **{"ratios": [0.8], "sizes": [40], key: value})
        assert cli.main(["run", cfg]) == 2, (key, value)
        assert key in capsys.readouterr().err

    cfg = _write_config(tmp_path / "n.json", scenario="ssh-collapse",
                        n_imps="357", ratios=[0.8], sizes=[40])
    assert cli.main(["run", cfg]) == 2
    assert "n_imps" in capsys.readouterr().err

    cfg = _write_config(tmp_path / "w.json", scenario="slope-at-unity",
                        windows=[0.1, 0.1])
    assert cli.main(["run", cfg]) == 2

    # region geometries that place no even/odd pair are config errors
    for name, config in (
            ("ladder", dict(scenario="impurity-sweep", ratios=[0.8],
                            sizes={"lo": 10, "hi": 30, "step": 2})),
            ("ring", dict(scenario="impurity-sweep", boundary="periodic",
                          ratios=[0.8], sizes=[6, 10])),
            ("ssh", dict(scenario="ssh-collapse", ratios=[0.8], sizes=[402, 802])),
            ("aspect", dict(scenario="slope-at-unity", aspect_num=3, aspect_den=2))):
        cfg = _write_config(tmp_path / f"{name}.json", output=f"{name}.csv", **config)
        assert cli.main(["run", cfg]) == 2, name
        assert "n_sites=" in capsys.readouterr().err, name
        assert not (tmp_path / f"{name}.csv").exists(), name
    cfg = _write_config(tmp_path / "a0.json", scenario="slope-at-unity", aspect_den=0)
    assert cli.main(["run", cfg]) == 2

    # worker counts and ladder steps are checked before any solve
    cfg = _write_config(tmp_path / "par.json", output="par.csv", scenario="impurity-sweep",
                        ratios=[0.8], sizes=[40], parallelism=0)
    assert cli.main(["run", cfg]) == 2
    assert "parallelism" in capsys.readouterr().err
    monkeypatch.setenv("LAB_THREADS", "two")
    cfg = _write_config(tmp_path / "env.json", output="env.csv", scenario="dot-crossover",
                        ratios=[0.2])
    assert cli.main(["run", cfg]) == 2
    assert "LAB_THREADS" in capsys.readouterr().err
    monkeypatch.delenv("LAB_THREADS")
    cfg = _write_config(tmp_path / "step.json", output="step.csv", scenario="impurity-sweep",
                        ratios=[0.8], sizes={"lo": 40, "hi": 80, "step": 0})
    assert cli.main(["run", cfg]) == 2
    assert "step" in capsys.readouterr().err

    # slope-at-unity needs two ratios in every fit window and two sizes
    for name, overrides in (("one-ratio", dict(ratios=[1.0], sizes=[40, 80])),
                            ("narrow", dict(ratios=[0.9, 1.0], sizes=[40, 80])),
                            ("one-size", dict(sizes=[40, 40]))):
        cfg = _write_config(tmp_path / f"{name}.json", output=f"{name}.csv",
                            scenario="slope-at-unity", **overrides)
        assert cli.main(["run", cfg]) == 2, name
        capsys.readouterr()
    for name in ("par", "env", "step", "one-ratio", "narrow", "one-size"):
        assert not (tmp_path / f"{name}.csv").exists(), name

    # infinite integers and unbounded or empty ladders are config errors
    for name, config in (
            ("inf-aspect", dict(scenario="impurity-sweep", ratios=[0.8], sizes=[40],
                                aspect_den=math.inf)),
            ("inf-size", dict(scenario="ssh-collapse", ratios=[0.8], sizes=[math.inf])),
            ("inf-lead", dict(scenario="zero-modes", lead=math.inf)),
            ("inf-ladder", dict(scenario="impurity-sweep", ratios=[0.8],
                                sizes={"lo": 40, "hi": math.inf, "step": 20})),
            ("inf-x", dict(scenario="dot-crossover", ratios=[0.2], x_hi=math.inf)),
            ("inf-window", dict(scenario="slope-at-unity", windows=[math.inf, 0.05])),
            ("nan-factor", dict(scenario="impurity-sweep", ratios=[0.8],
                                sizes={"lo": 40, "hi": 80, "step": 20, "factor": math.nan})),
            # a ladder with no rung in range is as empty as an empty list
            ("no-rung", dict(scenario="impurity-sweep", ratios=[0.8],
                             sizes={"lo": 41, "hi": 45, "step": 20}))):
        cfg = _write_config(tmp_path / f"{name}.json", output=f"{name}.csv", **config)
        assert cli.main(["run", cfg]) == 2, name
        assert "config error" in capsys.readouterr().err, name
        assert not (tmp_path / f"{name}.csv").exists(), name


def test_impurity_sweep_is_deterministic(tmp_path, capsys):
    common = dict(scenario="impurity-sweep", ratios=[0.8], sizes=[40, 60],
                  aspect_den=4)
    cfg_a = _write_config(tmp_path / "a.json", output="a.csv", **common)
    cfg_b = _write_config(tmp_path / "b.json", output="b.csv", **common)
    assert cli.main(["run", cfg_a]) == 0
    assert "wrote 4 rows to a.csv" in capsys.readouterr().out
    assert cli.main(["run", cfg_b]) == 0

    text_a = (tmp_path / "a.csv").read_bytes()
    assert text_a == (tmp_path / "b.csv").read_bytes()
    lines = text_a.decode().splitlines()
    assert lines[0] == "scenario,ratio,n_sites,region_len,parity,entropy,fluctuation"
    assert len(lines) == 5
    assert b"\r" not in text_a
    rows = [line.split(",") for line in lines[1:]]
    assert [(int(r[2]), r[4]) for r in rows] == [
        (40, "even"), (40, "odd"), (60, "even"), (60, "odd")]
    # full precision floats survive a text round trip
    assert float(rows[0][5]) == float("%.17g" % float(rows[0][5]))


def test_compare_equal_and_perturbed(tmp_path, capsys):
    common = dict(scenario="impurity-sweep", ratios=[0.8], sizes=[40, 60],
                  aspect_den=4)
    cli.main(["run", _write_config(tmp_path / "a.json", output="a.csv", **common)])
    cli.main(["run", _write_config(tmp_path / "b.json", output="b.csv", **common)])
    keys = "ratio,n_sites,parity"
    assert cli.main(["compare", "a.csv", "b.csv", "--keys", keys]) == 0
    assert "0 mismatches" in capsys.readouterr().out

    lines = (tmp_path / "b.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = "%.17g" % (float(cells[5]) + 1e-6)
    lines[1] = ",".join(cells)
    (tmp_path / "b.csv").write_text("\n".join(lines) + "\n")
    assert cli.main(["compare", "a.csv", "b.csv", "--keys", keys]) == 1
    err = capsys.readouterr().err
    assert "entropy" in err

    # tolerance turns the same comparison green
    assert cli.main(["compare", "a.csv", "b.csv", "--keys", keys,
                     "--tol", "1e-3"]) == 0


def test_compare_schema_and_key_errors(tmp_path, capsys):
    (tmp_path / "x.csv").write_text("a,b\n1,2\n")
    (tmp_path / "y.csv").write_text("a,c\n1,2\n")
    assert cli.main(["compare", "x.csv", "y.csv", "--keys", "a"]) == 2
    assert "schema mismatch" in capsys.readouterr().err

    (tmp_path / "z.csv").write_text("a,b\n1,2\n1,3\n")
    assert cli.main(["compare", "z.csv", "z.csv", "--keys", "a"]) == 2
    assert "duplicate key" in capsys.readouterr().err

    assert cli.main(["compare", "x.csv", "x.csv", "--keys", "q"]) == 2
    assert cli.main(["compare", "x.csv", "x.csv", "--keys", "a",
                     "--values", "nope"]) == 2


def test_numerical_failure_names_the_grid_point(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise DegenerateFermiLevelError("level crossing at the Fermi energy")

    monkeypatch.setattr(cli, "boundary_sweep", explode)
    cfg = _write_config(tmp_path / "c.json", scenario="impurity-sweep",
                        ratios=[0.8], sizes=[40], output="c.csv")
    assert cli.main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "ratio=0.8" in err and "level crossing" in err


def test_block_collapses_onto_single_defect_of_same_strength(tmp_path, capsys):
    sizes = [200, 400, 800]
    cfg_a = _write_config(tmp_path / "block.json", scenario="ssh-collapse",
                          n_imps=[3], ratios=[0.4, 0.8], sizes=sizes,
                          output="block.csv")
    cfg_b = _write_config(tmp_path / "single.json", scenario="ssh-collapse",
                          n_imps=[1], ratios=[0.4**3, 0.8**3], sizes=sizes,
                          output="single.csv")
    assert cli.main(["run", cfg_a]) == 0
    assert cli.main(["run", cfg_b]) == 0
    assert cli.main(["compare", "block.csv", "single.csv",
                     "--keys", "strength",
                     "--values", "delta_entropy,delta_fluct",
                     "--tol", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "compared 2 shared keys, 0 mismatches" in out


def test_zero_modes_scenario(tmp_path):
    cfg = _write_config(tmp_path / "zm.json", scenario="zero-modes", ratio=0.8,
                        lead=10, n_imps=[3, 5], output="zm.csv")
    assert cli.main(["run", cfg]) == 0
    lines = (tmp_path / "zm.csv").read_text().splitlines()
    assert lines[0] == "scenario,n_imp,n_sites,ratio,splitting"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[1]) for r in rows] == [3, 5]
    assert [int(r[2]) for r in rows] == [26, 30]
    # longer block hybridizes less
    assert 0 < float(rows[1][4]) < float(rows[0][4])


def test_slope_at_unity_scenario(tmp_path):
    cfg = _write_config(tmp_path / "sl.json", scenario="slope-at-unity",
                        ratios=[0.95, 1.0], sizes=[40, 80],
                        windows=[0.1, 0.05], output="sl.csv")
    assert cli.main(["run", cfg]) == 0
    lines = (tmp_path / "sl.csv").read_text().splitlines()
    assert lines[0] == "scenario,kind,window,slope"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 6
    by_kind = {}
    for _, kind, window, slope in rows:
        by_kind.setdefault(kind, {})[float(window)] = float(slope)
    for kind in ("entropy", "fluctuation"):
        fits = by_kind[kind]
        assert set(fits) == {0.0, 0.05, 0.1}
        # the window -> 0 row is the two-point extrapolation of the others
        extrapolated = (fits[0.05] * 0.1 - fits[0.1] * 0.05) / (0.1 - 0.05)
        assert fits[0.0] == pytest.approx(extrapolated, abs=1e-12)


def test_dot_crossover_scenario(tmp_path):
    cfg = _write_config(tmp_path / "dc.json", scenario="dot-crossover",
                        ratios=[0.3], x_lo=0.5, x_hi=10.0, ladder_factor=1.3,
                        output="dc.csv")
    assert cli.main(["run", cfg]) == 0
    lines = (tmp_path / "dc.csv").read_text().splitlines()
    assert lines[0] == "scenario,ratio,n_sites,x,dslope_entropy,dslope_fluct"
    xs = [float(line.split(",")[3]) for line in lines[1:]]
    assert len(xs) >= 3
    assert all(b > a for a, b in zip(xs, xs[1:]))
