import json
import warnings

import pytest

from vsbdf3.cli import build_parser, main, run_convergence
from vsbdf3.time_grid import build_from_ratios, build_uniform, save_grid


def test_parser_knows_all_subcommands():
    p = build_parser()
    for cmd in ("convergence", "ratio-figure", "validate-lemmas", "certify",
                "energy", "kernels", "consistency"):
        args = p.parse_args(["--quiet", cmd, *_minimal(cmd)])
        assert args.command == cmd


def _minimal(cmd):
    return {
        "convergence": ["--case", "uniform"],
        "ratio-figure": ["--ratio", "1.7", "--length", "10", "--out", "x.csv"],
        "validate-lemmas": [],
        "certify": ["--grid", "g.json"],
        "energy": ["--eps2", "0.16", "--tau", "0.01", "--steps", "5"],
        "kernels": ["--grid", "g.json", "--out", "d"],
        "consistency": ["--function", "t3", "--levels", "10", "--out", "x.csv"],
    }[cmd]


def test_run_convergence_rates_near_three():
    reports = run_convergence("uniform", [0.16], [10, 20, 40], m=8)
    assert len(reports) == 1
    rows = reports[0].rows
    assert [r.n for r in rows] == [10, 20, 40]
    assert rows[0].rate is None
    for r in rows[1:]:
        assert 2.5 < r.rate < 3.5


def test_run_convergence_case_two_needs_seed():
    with pytest.raises(ValueError):
        run_convergence("2", [0.16], [10, 20], m=8)


def test_run_convergence_dedups_and_sorts_levels():
    reports = run_convergence("uniform", [0.16], [20, 10, 20], m=8)
    assert [r.n for r in reports[0].rows] == [10, 20]


def test_convergence_csv_and_json_outputs(tmp_path):
    csv_path = tmp_path / "case1.csv"
    rc = main(["--quiet", "convergence", "--case", "1", "--eps2", "0.16",
               "--n", "10,20", "--m", "8", "--out", str(csv_path),
               "--format", "csv"])
    assert rc == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "N,error,rate,max_r,min_r"
    assert len(lines) == 3

    json_path = tmp_path / "case1.json"
    rc = main(["--quiet", "convergence", "--case", "1", "--eps2", "0.16",
               "--n", "10,20", "--m", "8", "--out", str(json_path),
               "--format", "json"])
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["metadata"]["case"] == "1"
    assert payload["metadata"]["eps2"] == 0.16
    assert len(payload["rows"]) == 2
    assert "wall" not in json.dumps(payload).lower()


def test_convergence_output_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--quiet", "convergence", "--case", "2", "--seed", "1",
            "--eps2", "0.16", "--n", "10,20", "--m", "8", "--format", "json"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convergence_multi_eps2_suffixed_paths(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(["--quiet", "convergence", "--case", "uniform",
               "--eps2", "0.16,0.36", "--n", "10", "--m", "8",
               "--out", str(out), "--format", "csv"])
    assert rc == 0
    assert (tmp_path / "table_eps2_0.16.csv").exists()
    assert (tmp_path / "table_eps2_0.36.csv").exists()
    assert not out.exists()


def test_convergence_case_two_without_seed_exits_2():
    assert main(["--quiet", "convergence", "--case", "2"]) == 2


def test_ratio_figure_traces_pivots(tmp_path):
    out = tmp_path / "fig.csv"
    rc = main(["--quiet", "ratio-figure", "--ratio", "1.732",
               "--length", "120", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,p"
    # the trace stops at the first nonpositive pivot, index 90
    assert len(lines) == 91
    j, p = lines[-1].split(",")
    assert j == "90"
    assert float(p) <= 0.0


def test_ratio_figure_rejects_short_length():
    assert main(["--quiet", "ratio-figure", "--ratio", "1.1",
                 "--length", "1", "--out", "x.csv"]) == 2


def test_certify_exit_codes(tmp_path, capsys):
    good = save_grid(build_from_ratios([1.405] * 30, 1.0), tmp_path / "good.json")
    bad = save_grid(build_from_ratios([1.732] * 40, 1.0), tmp_path / "bad.json")
    assert main(["--quiet", "certify", "--grid", str(good)]) == 0
    assert main(["--quiet", "certify", "--grid", str(bad)]) == 1
    assert main(["--quiet", "certify", "--grid", str(tmp_path / "nope.json")]) == 2
    negative = tmp_path / "negative.json"
    negative.write_text('{"T": 0.1, "steps": [0.2, -0.1]}')
    not_json = tmp_path / "not.json"
    not_json.write_text("steps: 0.1, 0.2\n")
    nan_horizon = tmp_path / "nan.json"
    nan_horizon.write_text('{"T": NaN, "steps": [0.1, 0.2]}')
    # the ratio 1e300 overflows the closed-form weights
    overflow = tmp_path / "overflow.json"
    overflow.write_text('{"T": 2e150, "steps": [1e-150, 1e-150, 1e150, 1e150]}')
    # a subnormal step overflows the shifted diagonal 2*(beta_0 - gamma)/tau
    subnormal = tmp_path / "subnormal.json"
    subnormal.write_text('{"T": 1.0, "steps": [0.5, 0.5, 1e-320]}')
    boolean = tmp_path / "boolean.json"
    boolean.write_text('{"T": 2, "steps": [1, true]}')
    strings = tmp_path / "strings.json"
    strings.write_text('{"T": "1", "steps": ["0.5", "0.5"]}')
    # integers too large for a float, as the horizon and as a step
    huge_horizon = tmp_path / "huge_horizon.json"
    huge_horizon.write_text('{"T": 1%s, "steps": [1.0]}' % ("0" * 400))
    huge_step = tmp_path / "huge_step.json"
    huge_step.write_text('{"T": 2.0, "steps": [1.0, 1%s]}' % ("0" * 400))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in (negative, not_json, nan_horizon, overflow, subnormal, boolean, strings,
                     huge_horizon, huge_step):
            assert main(["--quiet", "certify", "--grid", str(path)]) == 2
            assert main(["--quiet", "kernels", "--grid", str(path),
                         "--out", str(tmp_path / "mats")]) == 2
            assert not (tmp_path / "mats").exists()
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_certify_reads_no_level_after_the_first_nonpositive_pivot(tmp_path, capsys):
    # both grids stop at level 2; the first would overflow level 3's
    # envelopes (r_2^4 with r_2 = 1e100), the second level 5's weights
    # (r_5 = 1e300), which the kernels command still builds
    envelope = tmp_path / "envelope.json"
    envelope.write_text('{"T": 2.0, "steps": [1e-100, 1.0, 1.0]}')
    late = tmp_path / "late_overflow.json"
    late.write_text('{"T": 1e150, "steps": [1.0, 44.0, 1.0, 1e-150, 1e150]}')
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for path in (envelope, late):
            assert main(["certify", "--grid", str(path)]) == 1
            out = capsys.readouterr()
            assert out.out.splitlines()[-1] == "NOT certified: first nonpositive pivot at level 2"
            assert out.err == ""
        assert main(["--quiet", "kernels", "--grid", str(late),
                     "--out", str(tmp_path / "mats")]) == 2
    assert capsys.readouterr().err.startswith("error: level 5: step ratio r_5 = ")


def test_ratio_figure_rejects_overflowing_ratio(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--quiet", "ratio-figure", "--ratio", "1e200", "--length", "4",
                   "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: level 2: step ratio r_2 = 1e+200 gives non-finite")
    assert err.count("\n") == 1


def test_validate_lemmas_quick_resolution():
    assert main(["--quiet", "validate-lemmas", "--resolution", "0.05"]) == 0


def test_energy_command_writes_trace(tmp_path):
    out = tmp_path / "energy.csv"
    rc = main(["--quiet", "energy", "--eps2", "0.16", "--tau", "0.01",
               "--steps", "15", "--seed", "2", "--m", "8", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,energy"
    assert len(lines) == 17  # header + E(u^0) + 15 steps
    energies = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(energies) <= energies[0] + 1e-10


def test_energy_command_validates_arguments():
    assert main(["--quiet", "energy", "--eps2", "0.16", "--tau", "0",
                 "--steps", "5"]) == 2
    assert main(["--quiet", "energy", "--eps2", "0.16", "--tau", "0.01",
                 "--steps", "0"]) == 2


def test_energy_command_rejects_overflowing_step(capsys):
    # a subnormal step overflows b0 = 1/tau; the level is refused before
    # any arithmetic, so no numpy warning reaches stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--quiet", "energy", "--eps2", "0.16", "--tau", "1e-320",
                   "--steps", "3", "--m", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == ("error: level 1: step 1e-320 gives non-finite kernel weights "
                   "b0, b1, b2 = inf, 0.0, 0.0\n")


def test_kernels_dump(tmp_path):
    grid_path = save_grid(build_uniform(4, 4.0), tmp_path / "g.json")
    outdir = tmp_path / "mats"
    rc = main(["--quiet", "kernels", "--grid", str(grid_path), "--out", str(outdir)])
    assert rc == 0
    b = (outdir / "B.csv").read_text().strip().splitlines()
    d = (outdir / "D.csv").read_text().strip().splitlines()
    a = (outdir / "A.csv").read_text().strip().splitlines()
    assert b[0] == d[0] == a[0] == "row,col,value"
    # banded storage for B/A: N + (N-1) + (N-2) entries; full lower triangle for D
    assert len(b) - 1 == len(a) - 1 == 4 + 3 + 2
    assert len(d) - 1 == 4 * 5 // 2
    first = b[1].split(",")
    assert (first[0], first[1]) == ("1", "1")
    assert float(first[2]) == 1.0  # b0 at level 1 on tau=1


def test_consistency_command(tmp_path):
    out = tmp_path / "eta.csv"
    rc = main(["--quiet", "consistency", "--function", "t3",
               "--levels", "10,20", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,tau,max_eta"
    assert len(lines) == 3
    for line in lines[1:]:
        assert float(line.split(",")[2]) <= 1e-11
    assert main(["--quiet", "consistency", "--function", "t3",
                 "--levels", "2", "--out", str(out)]) == 2


def test_unknown_command_is_a_parse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_quiet_flag_suppresses_progress(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    main(["--quiet", "ratio-figure", "--ratio", "1.2", "--length", "10",
          "--out", str(out)])
    assert capsys.readouterr().out == ""
    main(["ratio-figure", "--ratio", "1.2", "--length", "10", "--out", str(out)])
    assert capsys.readouterr().out != ""
