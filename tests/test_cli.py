import math
import textwrap
from pathlib import Path

import pytest

from partcache import cli, stp_rlnc, stp_rlnc_file, zipf_popularity
from partcache.cli import (
    SweepSpec,
    format_real,
    load_sweep_spec,
    main,
    read_csv_rows,
    run_validation,
)
from .conftest import make_cfg

DEMO_CFG = str(Path(__file__).resolve().parents[1] / "scripts" / "configs" / "demo5.cfg")

CFG_TEXT = textwrap.dedent(
    """
    n_files = 5
    cache_size = 2
    sic_capability = 3
    path_loss_exp = 4.0
    bandwidth_hz = 1.0e7
    slot_duration_s = 1.0e-3
    file_size_bits = 1.0e4
    bs_density = 1.0e-4
    zipf_gamma = 1.0
    """
)


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(CFG_TEXT, encoding="utf-8")
    return str(path)


def parse_csv_text(text):
    import csv

    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


# ------------------------------------------------------------------ helpers


def test_format_real():
    assert format_real(0.1) == "0.1"
    assert format_real(1.0) == "1"
    assert format_real(1.0 / 3.0) == "0.333333333333"
    assert format_real(1e-12) == "1e-12"
    assert float(format_real(math.pi)) == pytest.approx(math.pi, abs=1e-11)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "t.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        cli._write_csv(
            fh,
            ["a", "b"],
            [[1.5, None], [0.1, "x;y"]],
            notes=["warning: something"],
        )
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# warning: something\n")
    header, rows = read_csv_rows(path)
    assert header == ["a", "b"]
    assert rows[0] == {"a": "1.5", "b": ""}
    assert rows[1]["b"] == "x;y"


# ------------------------------------------------------------------ analyze


def test_analyze_writes_expected_row(cfg_file, tmp_path):
    out = tmp_path / "analyze.csv"
    rc = main(
        ["analyze", "--config", cfg_file, "--codes", "1,2,2,0,0", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv_rows(out)
    assert header[:5] == ["design", "codes", "serve", "total", "per_file"]
    (row,) = rows
    assert row["design"] == "rlnc"
    assert row["codes"] == "1,2,2,0,0"
    assert row["serve"] == ""
    cfg = make_cfg()
    pop = zipf_popularity(5, 1.0)
    from partcache import RlncAllocation

    want = stp_rlnc(RlncAllocation((1, 2, 2, 0, 0)), pop, cfg).total
    assert float(row["total"]) == pytest.approx(want, abs=1e-10)
    # the canonical rendering survives a round trip through the reader
    assert format_real(float(row["total"])) == row["total"]
    per_file = [float(v) for v in row["per_file"].split(";")]
    assert len(per_file) == 5
    assert per_file[3] == 0.0
    assert per_file[0] == pytest.approx(stp_rlnc_file(1, cfg), abs=1e-10)


def test_analyze_uc_defaults_serves(cfg_file, tmp_path, capsys):
    rc = main(["analyze", "--config", cfg_file, "--design", "uc", "--codes", "2,2,0,0,0"])
    assert rc == 0
    _, (row,) = parse_csv_text(capsys.readouterr().out)
    assert row["serve"] == "3,3,0,0,0"


def test_analyze_with_cross_check(cfg_file, tmp_path):
    out = tmp_path / "xc.csv"
    rc = main(
        [
            "analyze",
            "--config",
            cfg_file,
            "--codes",
            "1,2,2,0,0",
            "--simulate",
            "--trials",
            "3000",
            "--seed",
            "5",
            "--disc-scale",
            "25",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    _, (row,) = read_csv_rows(out)
    assert row["trials"] == "3000" and row["seed"] == "5"
    assert abs(float(row["mc_mean"]) - float(row["total"])) <= 0.05


def test_analyze_error_exits(cfg_file, capsys):
    # out-of-range split count: usage error, message names the legal range
    assert main(["analyze", "--config", cfg_file, "--codes", "1,2,9,0,0"]) == 2
    assert "0..3" in capsys.readouterr().err
    # wrong list length
    assert main(["analyze", "--config", cfg_file, "--codes", "1,2"]) == 2
    # serve counts make no sense for the coded design
    assert (
        main(["analyze", "--config", cfg_file, "--codes", "1,1,0,0,0", "--serve", "1,1,0,0,0"])
        == 2
    )
    # over-budget allocation: infeasible, distinct exit code
    assert main(["analyze", "--config", cfg_file, "--codes", "1,1,1,0,0"]) == 3
    capsys.readouterr()


def test_shipped_demo_config_parses(capsys):
    assert main(["analyze", "--config", DEMO_CFG, "--codes", "1,2,2,0,0"]) == 0
    capsys.readouterr()


def test_missing_config_reports_usage_error(tmp_path, capsys):
    assert main(["analyze", "--config", str(tmp_path / "no.cfg"), "--codes", "1,0,0,0,0"]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------- optimize


def test_optimize_greedy_demo(cfg_file, capsys):
    assert main(["optimize", "--config", cfg_file]) == 0
    _, (row,) = parse_csv_text(capsys.readouterr().out)
    assert row["design"] == "rlnc"
    assert row["method"] == "greedy"
    assert row["guarantee"] == "0.5"
    assert row["codes"] == "1,2,2,0,0"
    assert 0.0 < float(row["objective"]) < 1.0


def test_optimize_uc_reports_serves(cfg_file, capsys):
    assert main(["optimize", "--config", cfg_file, "--design", "uc"]) == 0
    _, (row,) = parse_csv_text(capsys.readouterr().out)
    assert row["serve"].count(",") == 4


def test_optimize_budget_exit(tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text(
        CFG_TEXT.replace("n_files = 5", "n_files = 12").replace(
            "sic_capability = 3", "sic_capability = 4"
        ),
        encoding="utf-8",
    )
    assert main(["optimize", "--config", str(big), "--method", "exhaustive"]) == 4
    capsys.readouterr()


# ----------------------------------------------------------------- simulate


def test_simulate_requires_codes(cfg_file, capsys):
    assert main(["simulate", "--config", cfg_file]) == 2
    assert main(["simulate", "--config", cfg_file, "--design", "baseline1", "--codes", "1,0,0,0,0"]) == 2
    capsys.readouterr()


def test_simulate_baseline_with_default_seed(cfg_file, tmp_path):
    out = tmp_path / "b1.csv"
    rc = main(
        [
            "simulate",
            "--config",
            cfg_file,
            "--design",
            "baseline1",
            "--trials",
            "500",
            "--disc-scale",
            "20",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# warning: no seed given")
    _, (row,) = read_csv_rows(out)
    assert row["seed"] == "0"
    assert row["codes"] == "" and row["per_file_mean"] == ""
    assert 0.0 <= float(row["mc_mean"]) <= 1.0


def test_simulate_rlnc_row(cfg_file, tmp_path):
    out = tmp_path / "mc.csv"
    rc = main(
        [
            "simulate",
            "--config",
            cfg_file,
            "--codes",
            "1,1,0,0,0",
            "--trials",
            "400",
            "--seed",
            "3",
            "--disc-scale",
            "20",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    _, (row,) = read_csv_rows(out)
    assert len(row["per_file_mean"].split(";")) == 5
    assert row["seed"] == "3"


@pytest.fixture
def huge_file_cfg(tmp_path):
    # 1e8 bits over a 1e4-bit slot: 2**rate_ratio overflows a float
    path = tmp_path / "huge.cfg"
    path.write_text(CFG_TEXT.replace("1.0e4", "1.0e8"), encoding="utf-8")
    return str(path)


def test_analyze_files_too_large_for_any_stage(huge_file_cfg, tmp_path):
    out = tmp_path / "a.csv"
    argv = ["analyze", "--config", huge_file_cfg, "--codes", "1,1,0,0,0", "--out", str(out)]
    assert main(argv) == 0
    _, (row,) = read_csv_rows(out)
    assert float(row["total"]) == 0.0
    assert all(float(v) == 0.0 for v in row["per_file"].split(";"))


def test_simulate_baseline_files_too_large_for_any_stage(huge_file_cfg, tmp_path):
    out = tmp_path / "b1.csv"
    argv = [
        "simulate", "--config", huge_file_cfg, "--design", "baseline1",
        "--trials", "40", "--seed", "2", "--disc-scale", "10", "--out", str(out),
    ]
    assert main(argv) == 0
    _, (row,) = read_csv_rows(out)
    assert float(row["mc_mean"]) == 0.0 and float(row["mc_ci"]) == 0.0


# -------------------------------------------------------------------- sweep


def write_sweep(tmp_path, body):
    (tmp_path / "system.cfg").write_text(CFG_TEXT, encoding="utf-8")
    spec = tmp_path / "sweep.spec"
    spec.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(spec)


def test_sweep_analytic_runs(tmp_path, capsys):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = cache_size
        grid = 2, 3
        designs = rlnc-greedy, uc-greedy, rlnc:1-1-0-0-0
        evaluation = analytic
        """,
    )
    out_dir = tmp_path / "out"
    assert main(["sweep", spec, "--out", str(out_dir)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 3
    fixed = out_dir / "sweep_cache_size_rlnc_1-1-0-0-0.csv"
    assert fixed.exists()
    header, rows = read_csv_rows(fixed)
    assert header == ["variable", "value", "design", "objective", "mc_mean", "mc_ci", "trials", "seed"]
    assert [r["value"] for r in rows] == ["2", "3"]
    # the pinned whole-file allocation has the same objective at either size
    assert rows[0]["objective"] == rows[1]["objective"]
    assert rows[0]["mc_mean"] == ""
    greedy = read_csv_rows(out_dir / "sweep_cache_size_rlnc-greedy.csv")[1]
    assert float(greedy[1]["objective"]) >= float(greedy[0]["objective"]) - 1e-12


def test_sweep_simulation_is_deterministic(tmp_path, capsys):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = file_size
        grid = 5e3, 1e4
        designs = rlnc:1-2-0-0-0, baseline1
        evaluation = both
        trials = 200
        seed = 44
        """,
    )
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", spec, "--out", str(a_dir), "--disc-scale", "20"]) == 0
    assert main(["sweep", spec, "--out", str(b_dir), "--disc-scale", "20"]) == 0
    capsys.readouterr()
    for name in ("sweep_file_size_rlnc_1-2-0-0-0.csv", "sweep_file_size_baseline1.csv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    _, rows = read_csv_rows(a_dir / "sweep_file_size_rlnc_1-2-0-0-0.csv")
    assert all(r["seed"] == "44" for r in rows)
    # success decays with file size
    assert float(rows[1]["objective"]) < float(rows[0]["objective"])
    # baseline rows carry no closed form
    _, rows = read_csv_rows(a_dir / "sweep_file_size_baseline1.csv")
    assert all(r["objective"] == "" for r in rows)


def test_depth_sweep_simulates_each_baseline_once(tmp_path, capsys, monkeypatch):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = sic_capability
        grid = 1, 2, 3
        designs = baseline2, rlnc:1-1-0-0-0
        evaluation = simulate
        trials = 60
        seed = 8
        """,
    )
    calls = []
    real = cli.simulate.simulate_baseline
    monkeypatch.setattr(
        cli.simulate, "simulate_baseline", lambda *a: calls.append(a) or real(*a)
    )
    out_dir = tmp_path / "out"
    assert main(["sweep", spec, "--out", str(out_dir), "--disc-scale", "12"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
    path = out_dir / "sweep_sic_capability_baseline2.csv"
    assert "simulated once at sic_capability = 1" in path.read_text(encoding="utf-8")
    _, rows = read_csv_rows(path)
    pop = zipf_popularity(5, 1.0)
    for row in rows:
        cfg = make_cfg(sic_capability=int(float(row["value"])))
        est = real(2, pop, cfg, 60, 8, 12.0)
        assert (row["mc_mean"], row["mc_ci"]) == (format_real(est.mean), format_real(est.ci_half_width))


def test_sweep_builds_one_popularity_per_library(tmp_path, capsys, monkeypatch):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = zipf_gamma
        grid = 0.8, 1.2
        designs = rlnc-greedy, uc-greedy, rlnc:1-1-0-0-0
        evaluation = analytic
        """,
    )
    calls = []
    real = cli.zipf_popularity
    monkeypatch.setattr(cli, "zipf_popularity", lambda n, g: calls.append((n, g)) or real(n, g))
    assert main(["sweep", spec, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert sorted(calls) == [(5, 0.8), (5, 1.2)]


def test_sweep_seed_override_and_warning(tmp_path, capsys):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = zipf_gamma
        grid = 0.5, 1.0
        designs = rlnc-greedy
        evaluation = both
        trials = 100
        """,
    )
    out_dir = tmp_path / "o1"
    assert main(["sweep", spec, "--out", str(out_dir), "--disc-scale", "15"]) == 0
    path = out_dir / "sweep_zipf_gamma_rlnc-greedy.csv"
    assert path.read_text(encoding="utf-8").startswith("# warning: no seed given")
    out_dir2 = tmp_path / "o2"
    assert main(["sweep", spec, "--out", str(out_dir2), "--seed", "9", "--disc-scale", "15"]) == 0
    capsys.readouterr()
    _, rows = read_csv_rows(out_dir2 / "sweep_zipf_gamma_rlnc-greedy.csv")
    assert all(r["seed"] == "9" for r in rows)


def test_sweep_skips_small_size_rule_when_it_needs_room(tmp_path, capsys):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = cache_size
        grid = 2, 3
        designs = asymptotic-small, asymptotic-large
        evaluation = analytic
        """,
    )
    out_dir = tmp_path / "out"
    assert main(["sweep", spec, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    text = (out_dir / "sweep_cache_size_asymptotic-small.csv").read_text(encoding="utf-8")
    assert "skipped asymptotic-small" in text
    _, rows = read_csv_rows(out_dir / "sweep_cache_size_asymptotic-small.csv")
    assert rows == []  # 2*3 and 3*3 stages both exceed the 5 files
    _, rows = read_csv_rows(out_dir / "sweep_cache_size_asymptotic-large.csv")
    assert len(rows) == 2


def test_sweep_rejects_integer_variable_fractions(tmp_path, capsys):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = sic_capability
        grid = 1, 2.5
        designs = rlnc-greedy
        evaluation = analytic
        """,
    )
    assert main(["sweep", spec, "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_sweep_rejects_analytic_baselines(tmp_path, capsys):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = cache_size
        grid = 2, 3
        designs = baseline2
        evaluation = analytic
        """,
    )
    assert main(["sweep", spec, "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_sweep_infeasible_fixed_allocation(tmp_path, capsys):
    spec = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = cache_size
        grid = 1, 2
        designs = rlnc:1-1-0-0-0
        evaluation = analytic
        """,
    )
    assert main(["sweep", spec, "--out", str(tmp_path / "x")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "mutation",
    [
        ("variable = cache_size", "variable = alpha"),
        ("grid = 2, 3", "grid = 3, 2"),
        ("grid = 2, 3", "grid ="),
        ("designs = rlnc-greedy", "designs = ,"),
        ("designs = rlnc-greedy", "designs = rlnc-magic"),
        ("designs = rlnc-greedy", "designs = rlnc:1-2"),
        ("evaluation = analytic", "evaluation = sometimes"),
        ("config = system.cfg", "config = missing.cfg"),
        ("variable = cache_size", "variable = cache_size\nvariable = cache_size"),
        ("evaluation = analytic", "flavor = vanilla"),
    ],
)
def test_sweep_spec_errors(tmp_path, mutation, capsys):
    base = """
    config = system.cfg
    variable = cache_size
    grid = 2, 3
    designs = rlnc-greedy
    evaluation = analytic
    """
    old, new = mutation
    body = textwrap.dedent(base).replace(old, new)
    spec = write_sweep(tmp_path, body)
    assert main(["sweep", spec, "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


def test_load_sweep_spec_resolves_config_relative_to_spec(tmp_path):
    spec_path = write_sweep(
        tmp_path,
        """
        config = system.cfg
        variable = file_size
        grid = 1e3, 1e4
        designs = rlnc-greedy
        """,
    )
    spec = load_sweep_spec(spec_path)
    assert isinstance(spec, SweepSpec)
    assert Path(spec.config_path) == tmp_path / "system.cfg"
    assert spec.evaluation == "analytic"
    assert spec.trials == 10000 and spec.seed is None


# ----------------------------------------------------------------- validate


def test_validation_suite_passes_at_reduced_trials():
    lines = []
    ok = run_validation(seed=0, trials=1200, emit=lines.append)
    assert ok, "\n".join(lines)
    assert len(lines) == len(cli.VALIDATION_CHECKS)
    assert all(line.startswith("PASS ") for line in lines)


def test_validation_catches_an_injected_defect(monkeypatch):
    real = cli.analysis.coupon_pmf

    def wrong(s_code, tries, cap):
        value = real(s_code, tries, cap)
        return value + 1e-6 if (s_code, tries) == (3, 5) else value

    monkeypatch.setattr(cli.analysis, "coupon_pmf", wrong)
    lines = []
    ok = run_validation(seed=0, trials=1200, emit=lines.append)
    assert not ok
    assert any(
        line.startswith("FAIL coupon-pmf") for line in lines
    ), "\n".join(lines)


def test_validate_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(
        cli, "VALIDATION_CHECKS", [("always-green", lambda ctx: (True, "ok"))]
    )
    assert main(["validate", "--trials", "10"]) == 0
    monkeypatch.setattr(
        cli, "VALIDATION_CHECKS", [("always-red", lambda ctx: (False, "boom"))]
    )
    assert main(["validate", "--trials", "10"]) == 5
    capsys.readouterr()
