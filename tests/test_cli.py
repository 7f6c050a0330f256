import concurrent.futures
import itertools
import json
import math
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import paritylab.cli as cli
from paritylab import scattering, sweeps
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


def test_quadrature_off_by_1e9_fails_the_theory_check(monkeypatch, capsys):
    # the quadratures hold to ~1e-15, so a drift of 1e-9 is a failure
    monkeypatch.setattr(cli, "tabulated_entropy_integral", lambda: -math.pi / 6.0 + 1e-9)
    assert cli.main(["theory-check"]) == 3
    assert "check entropy-quadrature failed" in capsys.readouterr().err


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
    # every case must be rejected while planning, before any chain is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("a config error reached a solve")

    monkeypatch.setattr(sweeps, "half_filled_block", no_solve)
    monkeypatch.setattr(scattering, "sublattice_singular_values", no_solve)

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

    # integer keys take JSON integers only: no float is rounded, no string
    # parsed and no boolean counted
    sweep = dict(scenario="impurity-sweep", ratios=[0.8], sizes=[40])
    for n, (key, config) in enumerate([(key, {**sweep, key: value}) for key, value in (
            ("sizes", [40.9]), ("sizes", ["40"]), ("sizes", [True, 40]),
            ("sizes", [40.0, 80]), ("aspect_den", 2.7), ("aspect_den", True),
            ("parallelism", 1.9), ("parallelism", "1"), ("parallelism", True),
            ("sizes", {"lo": 40.5, "hi": 80, "step": 20}),
            ("sizes", {"lo": 40, "hi": "80", "step": 20}),
            ("sizes", {"lo": 40, "hi": 80, "step": 20.0}),
            ("sizes", {"lo": 40, "hi": 80, "step": 20, "offset": False}))] + [
            ("lead", dict(scenario="zero-modes", lead=30.5)),
            ("n_imps", dict(scenario="zero-modes", n_imps=[3.0, 5])),
            ("n_imps", dict(scenario="ssh-collapse", n_imps=["3"], ratios=[0.8],
                            sizes=[40, 80])),
            ("aspect_num", dict(scenario="slope-at-unity", aspect_num=1.5, sizes=[40, 80]))]):
        cfg = _write_config(tmp_path / f"int{n}.json", output=f"int{n}.csv", **config)
        assert cli.main(["run", cfg]) == 2, config
        assert f"bad value for {key}" in capsys.readouterr().err, config
        assert not (tmp_path / f"int{n}.csv").exists(), config

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
    # more workers than cores is refused before the pool forks any of them
    too_many = (os.cpu_count() or 1) + 1
    cfg = _write_config(tmp_path / "cores.json", output="cores.csv", scenario="impurity-sweep",
                        ratios=[0.8], sizes=[40, 80], parallelism=too_many)
    assert cli.main(["run", cfg]) == 2
    assert "cpu_count" in capsys.readouterr().err
    monkeypatch.setenv("LAB_THREADS", str(too_many))
    cfg = _write_config(tmp_path / "env.json", output="env.csv", scenario="dot-crossover",
                        ratios=[0.2])
    assert cli.main(["run", cfg]) == 2
    assert "LAB_THREADS" in capsys.readouterr().err
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

    # float keys take JSON numbers only: a string or boolean is not parsed
    for name, config in (
            ("str-ratios", dict(scenario="impurity-sweep", ratios=["0.8"], sizes=[40])),
            ("bool-ratios", dict(scenario="impurity-sweep", ratios=[True], sizes=[40])),
            ("str-ratio", dict(scenario="zero-modes", ratio="0.8")),
            ("str-x-lo", dict(scenario="dot-crossover", ratios=[0.2], x_lo="0.3")),
            ("bool-x-hi", dict(scenario="dot-crossover", ratios=[0.2], x_hi=True)),
            ("str-factor", dict(scenario="dot-crossover", ratios=[0.2], ladder_factor="1.25")),
            ("str-windows", dict(scenario="slope-at-unity", windows=["0.1", 0.05])),
            ("bool-windows", dict(scenario="slope-at-unity", windows=[0.1, True])),
            ("str-ladder-factor", dict(scenario="impurity-sweep", ratios=[0.8],
                                       sizes={"lo": 40, "hi": 80, "step": 20,
                                              "factor": "1.2"}))):
        cfg = _write_config(tmp_path / f"{name}.json", output=f"{name}.csv", **config)
        assert cli.main(["run", cfg]) == 2, name
        assert "config error" in capsys.readouterr().err, name
        assert not (tmp_path / f"{name}.csv").exists(), name

    # dot ladders too narrow for their ratio (ratio**2 would overflow for
    # the second), fits over fewer than two distinct sizes, and a kind no
    # scenario knows
    for name, config in (
            ("dot-narrow", dict(scenario="dot-crossover", ratios=[0.05, 5.0])),
            ("dot-strong", dict(scenario="dot-crossover", ratios=[1e200])),
            ("ssh-one-size", dict(scenario="ssh-collapse", ratios=[0.8], sizes=[40])),
            ("ssh-same-size", dict(scenario="ssh-collapse", ratios=[0.8], sizes=[40, 40])),
            *((f"kind-{scenario}", dict(scenario=scenario, kind="bogus"))
              for scenario in ("impurity-sweep", "ssh-collapse", "dot-crossover",
                               "slope-at-unity"))):
        cfg = _write_config(tmp_path / f"{name}.json", output=f"{name}.csv", **config)
        assert cli.main(["run", cfg]) == 2, name
        assert "config error" in capsys.readouterr().err, name

    # chains above MAX_SITES are refused with their size and memory, also
    # where the dot ladder's ratio**2 underflows or its sizes overflow
    for name, config in (
            ("dot-underflow", dict(scenario="dot-crossover", ratios=[1e-200])),
            ("dot-overflow", dict(scenario="dot-crossover", ratios=[1e-160])),
            ("dot-huge", dict(scenario="dot-crossover", ratios=[0.001])),
            ("big-ladder", dict(scenario="impurity-sweep", ratios=[0.8],
                                sizes={"lo": 9000, "hi": 12000, "step": 20}))):
        cfg = _write_config(tmp_path / f"{name}.json", output=f"{name}.csv", **config)
        assert cli.main(["run", cfg]) == 2, name
        err = capsys.readouterr().err
        assert "MAX_SITES" in err and "GB" in err, name
    # the zero-modes scan takes O(L) memory: its refusal names the size only
    cfg = _write_config(tmp_path / "big-lead.json", output="big-lead.csv",
                        scenario="zero-modes", lead=10**6)
    assert cli.main(["run", cfg]) == 2
    assert "n_sites=2.00001e+06 is above MAX_SITES=10000\n" in capsys.readouterr().err
    # each refusal quotes its own route's memory: the open-chain tear or a
    # bond-centred ring's mirror sector
    for name, config, gigabytes in (
            ("open", dict(scenario="ssh-collapse", ratios=[0.8], sizes=[400, 20000]), 1.84),
            ("ring", dict(scenario="impurity-sweep", boundary="periodic", ratios=[0.8],
                          sizes=[20002]), 1.88)):
        cfg = _write_config(tmp_path / f"{name}.json", output=f"{name}.csv", **config)
        assert cli.main(["run", cfg]) == 2, name
        assert f"(~{gigabytes:.3g} GB to solve)" in capsys.readouterr().err, name

    for output in (None, str(tmp_path / "missing" / "out.csv"), ""):
        cfg = _write_config(tmp_path / "out.json", scenario="zero-modes", output=output)
        assert cli.main(["run", cfg]) == 2, output
        assert "output" in capsys.readouterr().err, output
    assert not list(tmp_path.glob("*.csv"))


# JSON values a config key may be given: in-range and huge integers,
# ordinary and non-finite numbers, names and other strings, nested lists
# and size-ladder objects
_JSON_NUMBERS = st.one_of(st.integers(1, 64), st.integers(-10, 2000), st.integers(),
                          st.sampled_from([10**30, -10**30, 2**63, 10**400]),
                          st.floats(0.05, 3.0), st.floats(),
                          st.sampled_from([math.nan, math.inf, -math.inf]))
_JSON_NAMES = st.sampled_from(("open", "periodic", "both", "entropy", "fluctuation", "out.csv"))
_JSON_LEAVES = st.one_of(_JSON_NUMBERS, st.booleans(), st.none(), st.text(max_size=6),
                         _JSON_NAMES)
_LADDERS = st.dictionaries(st.sampled_from(["lo", "hi", "step", "offset", "factor"]),
                           _JSON_NUMBERS, max_size=5)
_JSON_VALUES = st.recursive(_JSON_LEAVES | _LADDERS, lambda inner: st.lists(inner, max_size=4),
                            max_leaves=8)


def _json_like(default):
    # a value of the default's JSON type half the time, any JSON value else
    typed = {list: st.lists(_JSON_NUMBERS, max_size=5), dict: _LADDERS,
             str: _JSON_NAMES}.get(type(default), _JSON_NUMBERS)
    return typed | _JSON_VALUES


@st.composite
def _drawn_configs(draw):
    # a scenario's defaults with up to three keys other than the scenario replaced
    config = dict(cli.DEFAULTS[draw(st.sampled_from(cli.SCENARIOS))])
    keys = draw(st.lists(st.sampled_from(sorted(set(config) - {"scenario"})),
                         max_size=3, unique=True))
    config.update((key, draw(_json_like(config[key]))) for key in keys)
    return config


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_drawn_configs())
@example(config={**cli.DEFAULTS["impurity-sweep"],
                 "sizes": {"lo": 100, "hi": 10_000, "step": 2, "factor": 1.0000000000000002}})
def test_planners_are_total(monkeypatch, config):
    # every drawn config plans or raises ConfigError, and nothing is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("a planner reached a solve")

    monkeypatch.setattr(sweeps, "half_filled_block", no_solve)
    monkeypatch.setattr(scattering, "sublattice_singular_values", no_solve)
    path = _write_config("drawn.json", **config)
    try:
        parsed = cli._load_config(path)
        header, jobs, rows = cli._PLANNERS[parsed["scenario"]](parsed)
    except cli.ConfigError:
        return
    assert header and jobs


def test_planners_measure_each_chain_of_each_grid_point(monkeypatch):
    # each grid point builds its two chains once, with its own ratio, and is
    # two jobs: `measure` of the even chain at l, then of the odd one at
    # l + 1, in plan order.  Nothing is solved.
    def no_solve(*args, **kwargs):
        raise AssertionError("a planner reached a solve")

    monkeypatch.setattr(sweeps, "half_filled_block", no_solve)
    built = []
    for name in ("pair_specs", "dot_pair"):
        def recorded(*args, build=getattr(sweeps, name)):
            built.append(args[:2])
            return build(*args)
        monkeypatch.setattr(cli, name, recorded)

    def plan(**config):
        built.clear()
        path = _write_config("p.json", **config)
        return cli._PLANNERS[config["scenario"]](cli._load_config(path))

    dots = [(r, n) for r in (0.3, 0.5) for n in cli._dot_ladder(r, 0.5, 10.0, 1.3)]
    # (config, then per grid point its label, the arguments of its chains and l)
    for config, points in (
            (dict(scenario="impurity-sweep", ratios=[0.6, 2.0], sizes=[40, 60], aspect_den=5),
             [(f"ratio={r:g} n_sites={n}", (r, n, ell), ell)
              for r in (0.6, 2.0) for n, ell in ((40, 8), (60, 12))]),
            (dict(scenario="impurity-sweep", boundary="periodic", ratios=[0.6], sizes=[42],
                  aspect_den=3), [("ratio=0.6 n_sites=42", (0.6, 42, 14, "periodic"), 14)]),
            (dict(scenario="ssh-collapse", n_imps=[1, 3], ratios=[0.5, 0.8], sizes=[40, 80]),
             [(f"n_imp={k} ratio={r:g} n_sites={n}", (r, n, n // 2, "open", k), n // 2)
              for k in (1, 3) for r in (0.5, 0.8) for n in (40, 80)]),
            (dict(scenario="slope-at-unity", ratios=[0.95, 1.0], sizes=[40, 80]),
             [(f"n_imp=1 ratio={r:g} n_sites={n}", (r, n, n // 2), n // 2)
              for r in (0.95, 1.0) for n in (40, 80)]),
            (dict(scenario="dot-crossover", ratios=[0.3, 0.5], x_lo=0.5, x_hi=10.0,
                  ladder_factor=1.3), [(f"ratio={r:g} n_sites={n}", (r, n), n // 2)
                                       for r, n in dots])):
        build = sweeps.dot_pair if config["scenario"] == "dot-crossover" else sweeps.pair_specs
        _, jobs, _ = plan(**config)
        assert jobs == [(label, sweeps.measure, (spec, length)) for label, args, ell in points
                        for spec, length in zip(build(*args), (ell, ell + 1))], config
        assert built == [args[:2] for _, args, _ in points], config

    # rows label each chain's values and take even minus odd per grid point:
    # block splittings n_imp * r + 1/L in S and 2/L in F extrapolate to
    # n_imp * r and 0
    _, jobs, rows = plan(scenario="impurity-sweep", ratios=[0.6, 2.0], sizes=[40, 60],
                         aspect_den=5)
    values = [(float(i), -float(i)) for i in range(len(jobs))]
    chains = [(r, n, ell + odd, parity) for r in (0.6, 2.0) for n, ell in ((40, 8), (60, 12))
              for odd, parity in enumerate(("even", "odd"))]
    assert rows(values) == [("impurity-sweep", *chain, *v) for chain, v in zip(chains, values)]
    _, _, rows = plan(scenario="ssh-collapse", n_imps=[1, 3], ratios=[0.5, 0.8], sizes=[40, 80])
    blocks = list(itertools.product((1, 3), (0.5, 0.8)))
    out = rows([value for k, r in blocks for n in (40, 80)
                for value in ((k * r + 1 / n, 2.0 + 2 / n), (0.0, 2.0))])
    assert [row[1:4] for row in out] == [(k, r, r**k) for k, r in blocks]
    assert [x for row in out for x in row[4:]] == pytest.approx(
        [x for k, r in blocks for x in (k * r, 0.0)], abs=1e-12)

    # a chain that cannot be placed is refused by its grid point: a ring not
    # 2 mod 4 sites long, an aspect that leaves no even subsystem
    with pytest.raises(cli.ConfigError, match="ratio=0.6 n_sites=40: ring size must be 2 mod 4"):
        plan(scenario="impurity-sweep", boundary="periodic", ratios=[0.6], sizes=[42, 40])
    with pytest.raises(cli.ConfigError,
                       match="n_imp=1 ratio=0.8 n_sites=100: size 100 gives no even subsystem"):
        plan(scenario="ssh-collapse", ratios=[0.8], sizes=[120, 100], aspect_den=3)


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

    # a file equals itself where a value is nan or inf, whose difference is NaN
    (tmp_path / "n.csv").write_text("a,b,c\n1,nan,inf\n2,-inf,0.5\n")
    assert cli.main(["compare", "n.csv", "n.csv", "--keys", "a", "--tol", "0"]) == 0
    assert "0 mismatches" in capsys.readouterr().out
    # differing text still compares as numbers, and nan matches no number
    (tmp_path / "m.csv").write_text("a,b,c\n1,nan,inf\n2,1.0,0.50\n")
    assert cli.main(["compare", "n.csv", "m.csv", "--keys", "a", "--tol", "0"]) == 1
    assert "-inf vs 1.0" in capsys.readouterr().err
    (tmp_path / "k.csv").write_text("a,b,c\n1,1.0,inf\n2,-inf,0.50\n")
    assert cli.main(["compare", "n.csv", "k.csv", "--keys", "a", "--tol", "1e300"]) == 1
    assert "nan vs 1.0" in capsys.readouterr().err

    # a key that one file holds and the other lacks, a dropped row, is a
    # mismatch either way round
    (tmp_path / "full.csv").write_text("a,b\n1,2\n2,3\n")
    (tmp_path / "part.csv").write_text("a,b\n1,2\n")
    for pair in (("full.csv", "part.csv"), ("part.csv", "full.csv")):
        assert cli.main(["compare", *pair, "--keys", "a"]) == 1, pair
        captured = capsys.readouterr()
        assert "key ('2',) only in full.csv" in captured.err, pair
        assert "compared 1 shared keys, 1 mismatches" in captured.out, pair


def test_compare_schema_and_key_errors(tmp_path, capsys):
    (tmp_path / "x.csv").write_text("a,b\n1,2\n")
    (tmp_path / "y.csv").write_text("a,c\n1,2\n")
    assert cli.main(["compare", "x.csv", "y.csv", "--keys", "a"]) == 2
    assert "schema mismatch" in capsys.readouterr().err

    (tmp_path / "z.csv").write_text("a,b\n1,2\n1,3\n")
    assert cli.main(["compare", "z.csv", "z.csv", "--keys", "a"]) == 2
    assert "duplicate key" in capsys.readouterr().err

    # a row with fewer or more cells than the header names its file and row
    (tmp_path / "short.csv").write_text("a,b\n1,2\n2\n")
    (tmp_path / "long.csv").write_text("a,b\n1,2,3\n")
    for path, row in (("short.csv", "['2']"), ("long.csv", "['1', '2', '3']")):
        assert cli.main(["compare", path, path, "--keys", "a"]) == 2, path
        assert (f"compare error: {path}: row {row} does not have the header's 2 cells"
                in capsys.readouterr().err), path

    assert cli.main(["compare", "x.csv", "x.csv", "--keys", "q"]) == 2
    assert cli.main(["compare", "x.csv", "x.csv", "--keys", "a",
                     "--values", "nope"]) == 2

    # a negative or NaN tolerance would fail every row, even of one file
    for tol in ("-1", "nan"):
        capsys.readouterr()
        assert cli.main(["compare", "x.csv", "x.csv", "--keys", "a", "--tol", tol]) == 2
        assert "--tol" in capsys.readouterr().err


def test_numerical_failure_names_the_grid_point(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise DegenerateFermiLevelError("level crossing at the Fermi energy")

    with monkeypatch.context() as patch:
        patch.setattr(sweeps, "half_filled_block", explode)
        cfg = _write_config(tmp_path / "c.json", scenario="impurity-sweep",
                            ratios=[0.8], sizes=[40], output="c.csv")
        assert cli.main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "ratio=0.8" in err and "level crossing" in err

    # a failed invariant or a degenerate Fermi level inside any solve is a
    # numerical failure (exit 3) that names the grid point, in every scenario
    failures = (DegenerateFermiLevelError("level crossing at the Fermi energy"),
                ValueError("occupations outside [0, 1]: min -1.000e-03, max 1.000e+00"))
    for config, label in (
            (dict(scenario="impurity-sweep", ratios=[0.8], sizes=[40]),
             "ratio=0.8 n_sites=40"),
            (dict(scenario="impurity-sweep", boundary="periodic", ratios=[0.8], sizes=[42]),
             "ratio=0.8 n_sites=42"),
            (dict(scenario="ssh-collapse", n_imps=[1], ratios=[0.8], sizes=[40, 80]),
             "n_imp=1 ratio=0.8 n_sites=40"),
            (dict(scenario="dot-crossover", ratios=[0.3], x_lo=0.5, x_hi=10.0,
                  ladder_factor=1.3), "ratio=0.3 n_sites=8"),
            (dict(scenario="slope-at-unity", ratios=[0.95, 1.0], sizes=[40, 80]),
             "n_imp=1 ratio=0.95 n_sites=40"),
            (dict(scenario="zero-modes", lead=10, n_imps=[3]), "n_imp=3 n_sites=26")):
        for failure in failures:
            def fail(*args, **kwargs):
                raise failure

            with monkeypatch.context() as patch:
                # every sweep scenario here, open or ring, solves at half filling
                if config["scenario"] == "zero-modes":
                    patch.setattr(scattering, "sublattice_singular_values", fail)
                elif isinstance(failure, DegenerateFermiLevelError):
                    patch.setattr(sweeps, "half_filled_block", fail)
                else:
                    patch.setattr(sweeps, "sublattice_occupations", fail)
                cfg = _write_config(tmp_path / "f.json", output="f.csv", **config)
                assert cli.main(["run", cfg]) == 3, (config, failure)
            err = capsys.readouterr().err
            assert f"numerical failure at {label}" in err, err
            assert str(failure) in err, err
        if config["scenario"] != "zero-modes":
            # a grid point is two jobs: the last failure, on its odd chain alone, names it
            solve = sweeps.half_filled_block
            with monkeypatch.context() as patch:
                patch.setattr(sweeps, "half_filled_block",
                              lambda spec, ell: fail() if ell % 2 else solve(spec, ell))
                assert cli.main(["run", cfg]) == 3, config
            assert f"numerical failure at {label}: {failure}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_pool_failure_names_the_first_failing_grid_point(tmp_path, monkeypatch, capsys):
    # a real failure inside the workers: ratio 1e20 leaves a degenerate Fermi
    # level on both rings; the first of them in plan order is named
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("LAB_THREADS", "2")
    cfg = _write_config(tmp_path / "f.json", output="f.csv", scenario="impurity-sweep",
                        boundary="periodic", sizes=[42, 82], ratios=[0.8, 1e20])
    assert cli.main(["run", cfg]) == 3
    assert "numerical failure at ratio=1e+20 n_sites=42:" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_resolve_parallelism(monkeypatch):
    monkeypatch.delenv("LAB_THREADS", raising=False)
    assert cli.resolve_parallelism(3) == 3
    monkeypatch.setenv("LAB_THREADS", "2")
    assert cli.resolve_parallelism(7) == 2
    monkeypatch.setenv("LAB_THREADS", "zero")
    with pytest.raises(ValueError):
        cli.resolve_parallelism(1)
    monkeypatch.setenv("LAB_THREADS", "0")
    with pytest.raises(ValueError):
        cli.resolve_parallelism(1)


def test_parallel_results_match_serial(tmp_path, monkeypatch):
    # two workers on any machine: the bytes must not depend on the worker count
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for name, config in (
            ("open", dict(scenario="impurity-sweep", ratios=[0.5, 0.8], sizes=[40, 60],
                          aspect_den=4)),
            ("ring", dict(scenario="impurity-sweep", boundary="periodic", ratios=[0.5, 0.8],
                          sizes=[42, 82])),
            ("ssh", dict(scenario="ssh-collapse", n_imps=[1, 3], ratios=[0.5, 0.8],
                         sizes=[40, 80])),
            ("dot", dict(scenario="dot-crossover", ratios=[0.3, 0.5], x_lo=0.5, x_hi=10.0,
                         ladder_factor=1.3)),
            ("slope", dict(scenario="slope-at-unity", ratios=[0.9, 0.95, 1.0],
                           sizes=[40, 80]))):
        for workers in (1, 2):
            cfg = _write_config(tmp_path / f"{name}{workers}.json", output=f"{name}{workers}.csv",
                                parallelism=workers, **config)
            assert cli.main(["run", cfg]) == 0, (name, workers)
        assert (tmp_path / f"{name}1.csv").read_bytes() == (tmp_path / f"{name}2.csv").read_bytes()


def test_pool_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # records each pool's size and shutdown and runs its jobs in this process
    started, shutdowns = [], []

    class Recorder:
        def __init__(self, max_workers):
            started.append(max_workers)

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            shutdowns.append(cancel_futures)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    # two sizes of one ratio are two grid points of two chains each
    cfg = _write_config(tmp_path / "c.json", scenario="impurity-sweep", ratios=[0.8],
                        sizes=[24, 32], aspect_den=4)
    header, jobs, rows = cli._PLANNERS["impurity-sweep"](cli._load_config(cfg))
    assert len(jobs) == 4
    serial = cli._execute(jobs, rows)
    assert started == []
    # one pool per run, of no more workers than jobs
    for parallelism, workers in ((5000, 4), (2, 2)):
        started.clear()
        assert cli._execute(jobs, rows, parallelism) == serial
        assert started == [workers]
    # the pool goes down with its pending jobs dropped
    assert shutdowns == [True, True]
    started.clear()
    assert cli._execute(jobs[:1], rows, 2) == cli._execute(jobs[:1], rows)
    assert started == []


def test_repeated_grid_values_are_merged(tmp_path, capsys):
    common = dict(scenario="impurity-sweep", aspect_den=4)
    cfg_dup = _write_config(tmp_path / "dup.json", output="dup.csv", ratios=[0.8, 0.8],
                            sizes=[40, 60, 40], **common)
    cfg_once = _write_config(tmp_path / "once.json", output="once.csv", ratios=[0.8],
                             sizes=[40, 60], **common)
    assert cli.main(["run", cfg_dup]) == 0
    assert "wrote 4 rows to dup.csv" in capsys.readouterr().out
    assert cli.main(["run", cfg_once]) == 0
    assert (tmp_path / "dup.csv").read_bytes() == (tmp_path / "once.csv").read_bytes()
    assert cli.main(["compare", "dup.csv", "once.csv", "--keys", "ratio,n_sites,parity"]) == 0


@pytest.mark.parametrize("config", [
    dict(scenario="ssh-collapse", n_imps=[1], ratios=[0.8], sizes=[40, 80]),
    dict(scenario="dot-crossover", ratios=[0.3], x_lo=0.5, x_hi=10.0, ladder_factor=1.3),
], ids=lambda config: config["scenario"])
def test_kind_selects_value_columns(tmp_path, config):
    cfg_both = _write_config(tmp_path / "both.json", output="both.csv", **config)
    cfg_entropy = _write_config(tmp_path / "entropy.json", output="entropy.csv",
                                kind="entropy", **config)
    assert cli.main(["run", cfg_both]) == 0
    assert cli.main(["run", cfg_entropy]) == 0
    both = (tmp_path / "both.csv").read_text().splitlines()
    entropy = (tmp_path / "entropy.csv").read_text().splitlines()
    # the entropy-only CSV is the full one without its last (fluctuation) column
    assert both[0].endswith("_fluct") and entropy[0].endswith("_entropy")
    assert entropy == [line.rsplit(",", 1)[0] for line in both]


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
