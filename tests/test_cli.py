import hashlib
import json
import math
import warnings

import pytest

from dense_oracles import doc_kernels
from vsbdf3 import cli
from vsbdf3.bdf_kernels import assemble_B
from vsbdf3.cli import _Parser, build_parser, main, run_convergence
from vsbdf3.time_grid import (
    build_alternating,
    build_from_ratios,
    build_from_steps,
    build_random,
    build_uniform,
    save_grid,
)


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
    rc = main(["--quiet", "convergence", "--case", "uniform", "--eps2", "0.16",
               "--n", "1,10,20", "--m", "8", "--out", str(json_path),
               "--format", "json"])
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["metadata"]["case"] == "uniform"
    assert payload["metadata"]["eps2"] == 0.16
    assert len(payload["rows"]) == 3
    # a one-step grid has no ratios: its extremes are null
    assert [(row["max_r"], row["min_r"]) for row in payload["rows"]] == [
        (None, None), (1.0, 1.0), (1.0, 1.0)]
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


@pytest.mark.parametrize("eps2", ["0.1,0.10000000001", "0.16,0.36,0.16"])
def test_convergence_refuses_eps2_values_sharing_a_file_name(tmp_path, capsys, monkeypatch,
                                                              eps2):
    # both values format as 0.1 (or repeat): one table would overwrite the other
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("solved before refusing"))
    rc = main(["--quiet", "convergence", "--case", "uniform", "--eps2", eps2, "--n", "10",
               "--m", "8", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "twice" in err[0]
    assert list(tmp_path.iterdir()) == []


def test_convergence_refuses_a_bad_eps2_before_any_solve(tmp_path, capsys, monkeypatch):
    # every (eps2, N) configuration is checked before the first solve, so a
    # bad value late in the list costs no solve of the good ones
    solved, solve = [], cli.run
    monkeypatch.setattr(cli, "run", lambda config: solved.append(config.eps2) or solve(config))
    argv = ["--quiet", "convergence", "--case", "1", "--n", "20,40", "--m", "8",
            "--out", str(tmp_path / "t.csv")]
    assert main([*argv, "--eps2", "0.16,nan"]) == 2
    assert solved == []
    assert capsys.readouterr().err == "error: eps2 must be positive and finite, got nan\n"
    assert list(tmp_path.iterdir()) == []
    assert main([*argv, "--eps2", "0.16"]) == 0
    assert solved == [0.16, 0.16]


def test_convergence_case_two_without_seed_exits_2():
    assert main(["--quiet", "convergence", "--case", "2"]) == 2


@pytest.mark.parametrize("case", ["1", "uniform"])
def test_convergence_refuses_a_seed_its_case_never_reads(tmp_path, capsys, monkeypatch, case):
    # only case 2 draws its grids from the seed; elsewhere it would be
    # recorded in the metadata of a table it did not shape
    monkeypatch.setattr(cli, "chebyshev_operator", lambda m: pytest.fail("built before refusing"))
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("solved before refusing"))
    assert main(["--quiet", "convergence", "--case", case, "--seed", "7", "--n", "2,4",
                 "--m", "4", "--eps2", "0.16", "--format", "json",
                 "--out", str(tmp_path / "u.json")]) == 2
    assert capsys.readouterr().err == f"error: case {case} takes no seed\n"
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("ratio, length, sha256", [
    ("1.732", "120", "88daf635818e2a00b9f099667ce2121e464bc42451bec142f026f149452b2d03"),
    ("1.405", "10000", "a29e1f5c16c72609bc5554abec56f465c4083b80496b5eac98b7db4c296bd912"),
])
def test_ratio_figure_bytes_are_pinned(tmp_path, ratio, length, sha256):
    out = tmp_path / "fig.csv"
    assert main(["--quiet", "ratio-figure", "--ratio", ratio, "--length", length,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_ratio_figure_rejects_short_length():
    assert main(["--quiet", "ratio-figure", "--ratio", "1.1",
                 "--length", "1", "--out", "x.csv"]) == 2


def test_certify_exit_codes(tmp_path, capsys):
    good = save_grid(build_from_ratios([1.405] * 30, 1.0), tmp_path / "good.json")
    bad = save_grid(build_from_ratios([1.732] * 40, 1.0), tmp_path / "bad.json")
    assert main(["--quiet", "certify", "--grid", str(good)]) == 0
    assert main(["--quiet", "certify", "--grid", str(bad)]) == 1
    assert main(["--quiet", "certify", "--grid", str(tmp_path / "nope.json")]) == 2
    # a one-step grid has no ratios, so no largest one
    one = save_grid(build_uniform(1, 1.0), tmp_path / "one.json")
    capsys.readouterr()
    assert main(["certify", "--grid", str(one)]) == 0
    assert capsys.readouterr().out == ("grid: 1 steps, horizon 1, max ratio None\n"
                                       "certified: all pivots positive\n")
    negative = tmp_path / "negative.json"
    negative.write_text('{"T": 0.1, "steps": [0.2, -0.1]}')
    not_json = tmp_path / "not.json"
    not_json.write_text("steps: 0.1, 0.2\n")
    nan_horizon = tmp_path / "nan.json"
    nan_horizon.write_text('{"T": NaN, "steps": [0.1, 0.2]}')
    # the ratio 1e300 overflows the closed-form weights
    overflow = tmp_path / "overflow.json"
    overflow.write_text('{"T": 2e150, "steps": [1e-150, 1e-150, 1e150, 1e150]}')
    # a subnormal step overflows b0 = 1/tau, which kernels dumps and the
    # step-free certificate never forms
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
        for path in (negative, not_json, nan_horizon, overflow, boolean, strings,
                     huge_horizon, huge_step):
            assert main(["--quiet", "certify", "--grid", str(path)]) == 2
            assert main(["--quiet", "kernels", "--grid", str(path),
                         "--out", str(tmp_path / "mats")]) == 2
            assert not (tmp_path / "mats").exists()
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and all(line.startswith("error: ") for line in err)
        assert main(["--quiet", "kernels", "--grid", str(subnormal),
                     "--out", str(tmp_path / "mats")]) == 2
        assert not (tmp_path / "mats").exists()
        assert capsys.readouterr().err == (
            "error: level 3: step 1e-320 gives non-finite kernel weights "
            "b0, b1, b2 = inf, -0.0, 0.0\n")
        assert main(["certify", "--grid", str(subnormal)]) == 0
        assert capsys.readouterr() == ("grid: 3 steps, horizon 1, max ratio 1.0\n"
                                       "certified: all pivots positive\n", "")
        # a ratio, or the product of two, that underflows to zero makes the
        # scaled coupling beta_k / sqrt(ratios) a 0/0 (the kernels command,
        # which divides by no ratio, still builds these grids)
        for text, level, cause, values in (
                ('{"T": 1e300, "steps": [1e300, 1e-300, 1e-300]}', 2, "r_2 = 0.0", "1.0, nan, 0.0"),
                ('{"T": 1e150, "steps": [1e150, 1e-50, 1e-250]}', 3, "r_3 = 1e-200",
                 "1.0, -0.0, nan")):
            underflow = tmp_path / "underflow.json"
            underflow.write_text(text)
            assert main(["--quiet", "certify", "--grid", str(underflow)]) == 2
            assert capsys.readouterr().err == (
                f"error: level {level}: step ratio {cause} gives non-finite kernel weights "
                f"a0, a1, a2 = {values}\n")


def test_deeply_nested_grid_json_is_a_usage_error(tmp_path, capsys):
    # the decoder recurses once per bracket and exceeds the recursion limit
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    capsys.readouterr()
    for command in (["certify"], ["kernels", "--out", str(tmp_path / "mats")]):
        assert main(["--quiet", *command, "--grid", str(nested)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: grid JSON is nested too deeply"]
    assert not (tmp_path / "mats").exists()


@pytest.mark.parametrize("argv", [
    ["convergence", "--case", "1", "--n", "", "--m", "8"],
    ["convergence", "--case", "1", "--n", ",", "--m", "8"],
    ["convergence", "--case", "1", "--eps2", "", "--m", "8"],
    ["consistency", "--function", "t3", "--levels", ""],
])
def test_empty_list_arguments_are_usage_errors(tmp_path, capsys, argv):
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit) as info:
        main(["--quiet", *argv, "--out", str(out)])
    assert info.value.code == 2
    assert "empty" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_ENERGY = ["energy", "--eps2", "0.16", "--tau", "0.01"]


@pytest.mark.parametrize("argv", [
    ["ratio-figure", "--ratio", "1.405", "--length", "10000", "--out", "x.csv"],
    ["consistency", "--function", "t3", "--levels", "40,80,160,320", "--out", "x.csv"],
    ["convergence", "--case", "2", "--seed", "1", "--n", "20,40,80,160", "--m", "20"],
    [*_ENERGY, "--steps", "200", "--seed", "1", "--m", "128"],
    [*_ENERGY, "--m", "128", "--steps", "200"],
])
def test_study_sized_counts_are_accepted(argv):
    build_parser().parse_args(argv)


# each count is bounded on its own: 10^6 levels at any m, and m up to 512
_LIMIT, _M_LIMIT = _Parser.LIMITS["steps"], _Parser.LIMITS["m"]


@pytest.mark.parametrize("argv, accepted", [
    (["ratio-figure", "--ratio", "1.4", "--length", f"{_LIMIT}", "--out", "x"], True),
    (["ratio-figure", "--ratio", "1.4", "--length", f"{_LIMIT + 1}", "--out", "x"], False),
    (["consistency", "--function", "t3", "--levels", "3,100000000", "--out", "x"], False),
    (["consistency", "--function", "t3", "--levels", f"{_LIMIT}", "--out", "x"], True),
    (["convergence", "--case", "1", "--n", f"20,{_LIMIT + 1}", "--m", "2"], False),
    (["convergence", "--case", "1", "--m", f"{_M_LIMIT}"], True),
    (["convergence", "--case", "1", "--m", f"{_M_LIMIT + 1}"], False),
    (["convergence", "--case", "1", "--n", "20,1000", "--m", f"{_M_LIMIT}"], True),
    (["convergence", "--case", "1", "--m", f"{_M_LIMIT}", "--n", "20,1000"], True),
    ([*_ENERGY, "--steps", "512", "--m", f"{_M_LIMIT}"], True),
    ([*_ENERGY, "--steps", "513", "--m", f"{_M_LIMIT}"], True),
    ([*_ENERGY, "--m", f"{_M_LIMIT}", "--steps", "513"], True),
    ([*_ENERGY, "--steps", f"{2**19}", "--m", "16"], True),
    ([*_ENERGY, "--m", "16", "--steps", f"{2**19}"], True),
    ([*_ENERGY, "--steps", f"{2**19 + 1}", "--m", "16"], True),
    ([*_ENERGY, "--steps", f"{2**17 + 1}"], True),  # at the default m = 32
    ([*_ENERGY, "--steps", f"{_LIMIT}", "--m", f"{_M_LIMIT}"], True),
    ([*_ENERGY, "--steps", f"{_LIMIT + 1}", "--m", "4"], False),
    ([*_ENERGY, "--steps", f"{10**30}"], False),  # beyond int64
])
def test_counts_are_bounded_while_parsing(capsys, argv, accepted):
    # parse_args runs no command, so a missing bound allocates nothing here
    if accepted:
        build_parser().parse_args(argv)
        return
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(argv)
    assert info.value.code == 2
    assert "is above the limit" in capsys.readouterr().err


def test_certify_verdict_does_not_depend_on_the_unit_of_time(tmp_path, capsys):
    # the shifted matrix scales as 1/tau: squares of its entries at steps of
    # 1e-160 or 2^600 leave the float range unless the recursion rescales
    tiny = tmp_path / "tiny.json"
    tiny.write_text('{"T": 4e-160, "steps": [1e-160, 1e-160, 1e-160, 1e-160]}')
    assert main(["--quiet", "certify", "--grid", str(tiny)]) == 0
    bad = build_from_ratios([1.732] * 40, 1.0)
    huge = build_from_steps([math.ldexp(t, 600) for t in bad.steps])
    verdicts = []
    for grid, name in ((bad, "bad.json"), (huge, "huge.json")):
        assert main(["certify", "--grid", str(save_grid(grid, tmp_path / name))]) == 1
        verdicts.append(capsys.readouterr().out.splitlines()[-1])
    assert verdicts == ["NOT certified: first nonpositive pivot at level 30"] * 2


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


def test_level_two_ratio_that_overflows_the_three_step_form_is_refused(tmp_path, capsys):
    # r_2 = 1e154 lies above sqrt(max / 3): the term 3 r_2^2 of the
    # three-step form at r_1 = 0, which level 2 reads, overflows
    wide = tmp_path / "wide.json"
    wide.write_text('{"T": 1e154, "steps": [1.0, 1e154]}')
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--quiet", "certify", "--grid", str(wide)]) == 2
        assert main(["--quiet", "kernels", "--grid", str(wide),
                     "--out", str(tmp_path / "mats")]) == 2
    assert not (tmp_path / "mats").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("error: level 2: step ratio r_2 = 1e+154 gives non-finite ")
               for line in err)


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


def test_validate_lemmas_refuses_a_resolution_finer_than_its_point_bound(capsys):
    # 1e-6 would ask for 1.4e6 points per axis, 2e12 box points
    assert main(["--quiet", "validate-lemmas", "--resolution", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: resolution must lie in [0.0007025, 1.405], at most 2000 ")
    assert err.count("\n") == 1


def test_validate_lemmas_stdout_is_pinned(capsys):
    assert main(["validate-lemmas"]) == 0
    assert capsys.readouterr().out == (
        "resolution 0.005, kappas [0.25, 0.5, 1.0, 1.4]\n"
        "  transfer factor   in [1.000000000000, 2.633322817258]  (certified [1, 2.7])\n"
        "  subdiag cert      in [-1.650820e+00, 0.000000e+00]  (certified <= 0)\n"
        "  pivot lower cert  in [-1.136868e-13, 1.697316e+03]  (certified >= 0)\n"
        "  pivot upper cert  in [-1.632615e+03, -2.000000e+00]  (certified <= 0)\n"
        "all bounds hold\n"
    )


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
    # below the parser's bound on m, so fourier_operator refuses it
    assert main(["--quiet", "energy", "--eps2", "0.16", "--tau", "0.01",
                 "--steps", "5", "--m", f"{-10**30}"]) == 2


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


def test_energy_command_refuses_steps_whose_sum_overflows(tmp_path, capsys):
    # each step is finite, but the levels would end at inf; the grid is
    # refused before any level is solved, with no numpy warning on stderr
    out = tmp_path / "energy.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--quiet", "energy", "--eps2", "0.16", "--tau", "1e308",
                   "--steps", "3", "--m", "4", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: step sizes must have a finite sum, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("seed, sha256", [
    (["--seed", "1"], "b9b07cd66cc3aafebf48883cfb965e37c3f954a0a470761be2f18e4ab228d7dd"),
    ([], "e8cb182f05c469987e130acaa5d56ecf54b9af15c425081e123f2a2c782a236e"),
])
def test_energy_trace_bytes_are_pinned(tmp_path, seed, sha256):
    # the 200-step criterion 8 run at m = 32, on random bounded and uniform steps
    out = tmp_path / "energy.csv"
    assert main(["--quiet", "energy", "--eps2", "0.16", "--tau", "0.01", "--steps", "200",
                 *seed, "--m", "32", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def test_energy_residual_whose_two_norm_overflows_is_a_divergence(capsys):
    # the first residual, about 1e199, is finite but its sum of squares is
    # not; exit 3 names the level, with no numpy warning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["--quiet", "energy", "--eps2", "1e200", "--tau", "0.01",
                   "--steps", "3", "--m", "4"])
    assert rc == 3
    assert capsys.readouterr().err == ("error: Newton did not converge at level 1: "
                                       "residual 1.000e+199 after 0 iterations\n")


@pytest.mark.parametrize("command, seed, rest", [
    ("energy", -1, ["--eps2", "0.16", "--tau", "0.01", "--steps", "5"]),
    ("convergence", -10, ["--case", "2", "--n", "5"]),
    # the grid seed -3 + 5 is not negative, but the base seed is
    ("convergence", -3, ["--case", "2", "--n", "5"]),
])
def test_negative_seed_is_refused_while_parsing(capsys, monkeypatch, command, seed, rest):
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("solved before refusing"))
    with pytest.raises(SystemExit) as info:
        main(["--quiet", command, "--seed", str(seed), *rest])
    assert info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"vsbdf3 {command}: error: --seed must be non-negative, got {seed}"]


def test_certify_decides_a_grid_of_one_tiny_step(tmp_path, capsys):
    # the verdict rests on the step ratios alone, so a step whose shifted
    # diagonal (2*beta_0 - 2*gamma) / tau overflows still gets one, and
    # kernels dumps the same grid, whose b0 = 1/tau is finite
    path = tmp_path / "tiny.json"
    path.write_text('{"T": 1e-308, "steps": [1e-308]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["certify", "--grid", str(path)]) == 0
        assert capsys.readouterr() == ("grid: 1 steps, horizon 1e-308, max ratio None\n"
                                       "certified: all pivots positive\n", "")
        assert main(["--quiet", "kernels", "--grid", str(path),
                     "--out", str(tmp_path / "mats")]) == 0
    assert (tmp_path / "mats" / "B.csv").read_text() == "row,col,value\n1,1,1e+308\n"


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


def _dense_csv(mat, banded):
    # the dump of a dense matrix: B and A banded, D its full lower triangle
    lines = ["row,col,value"]
    for i in range(mat.shape[0]):
        for j in range(max(0, i - 2) if banded else 0, i + 1):
            lines.append(f"{i + 1},{j + 1},{float(mat[i, j])!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [build_random(40, 1.0, 3), build_alternating(20, 1.0)],
                         ids=["random40", "alternating20"])
def test_kernels_dump_bytes_match_the_dense_oracles(tmp_path, grid):
    outdir = tmp_path / "mats"
    assert main(["--quiet", "kernels", "--grid", str(save_grid(grid, tmp_path / "g.json")),
                 "--out", str(outdir)]) == 0
    km = assemble_B(grid)
    for name, mat, banded in (("B", km.B, True), ("A", km.A, True),
                              ("D", doc_kernels(grid), False)):
        assert (outdir / f"{name}.csv").read_text() == _dense_csv(mat, banded)


def test_kernels_refuses_non_finite_inverse_kernels(tmp_path, capsys):
    # every ratio is 44, inside the wild cap, yet row 112 of D = B^{-1}
    # overflows to inf - inf; the kernel weights themselves are finite
    grid_path = save_grid(build_from_steps([1e-150 * 44.0**k for k in range(150)]),
                          tmp_path / "g.json")
    kept = tmp_path / "kept"
    kept.mkdir()
    # a directory that holds an earlier dump keeps it byte for byte
    prior = tmp_path / "prior"
    assert main(["--quiet", "kernels", "--grid", str(save_grid(build_uniform(5, 1.0),
                 tmp_path / "good.json")), "--out", str(prior)]) == 0
    dump = {path.name: path.read_bytes() for path in prior.iterdir()}
    assert sorted(dump) == ["A.csv", "B.csv", "D.csv"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for outdir in (tmp_path / "new" / "mats", kept, prior):
            assert main(["--quiet", "kernels", "--grid", str(grid_path),
                         "--out", str(outdir)]) == 2
            assert capsys.readouterr().err == (
                "error: level 112: the kernel weights give a non-finite inverse kernel "
                "D[112,1] = nan\n")
    # each failed dump leaves the directory as it found it
    assert not (tmp_path / "new").exists()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "g.json", "good.json", "kept", "prior"]
    assert list(kept.iterdir()) == []
    assert {path.name: path.read_bytes() for path in prior.iterdir()} == dump


def test_kernels_computes_each_row_once_and_replaces_an_earlier_dump(tmp_path, monkeypatch):
    # the rows are written in one pass into a scratch directory, which is
    # removed after the three files move into --out
    outdir = tmp_path / "mats"
    assert main(["--quiet", "kernels", "--grid", str(save_grid(build_uniform(5, 1.0),
                 tmp_path / "old.json")), "--out", str(outdir)]) == 0
    calls, rows = [], cli.inverse_kernel_rows
    monkeypatch.setattr(cli, "inverse_kernel_rows", lambda b: calls.append(b) or rows(b))
    grid = build_alternating(8, 1.0)
    assert main(["--quiet", "kernels", "--grid", str(save_grid(grid, tmp_path / "g.json")),
                 "--out", str(outdir)]) == 0
    assert len(calls) == 1
    assert sorted(path.name for path in outdir.iterdir()) == ["A.csv", "B.csv", "D.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["g.json", "mats", "old.json"]
    assert (outdir / "B.csv").read_text() == _dense_csv(assemble_B(grid).B, True)


def test_kernels_refuses_a_directory_in_place_of_a_dump_file(tmp_path, capsys):
    # the three files move into --out one at a time; a directory named A.csv
    # would stop the moves after B.csv had moved, leaving a mixed dump
    outdir = tmp_path / "mats"
    assert main(["--quiet", "kernels", "--grid", str(save_grid(build_uniform(3, 1.0),
                 tmp_path / "g3.json")), "--out", str(outdir)]) == 0
    (outdir / "A.csv").unlink()
    (outdir / "A.csv").mkdir()
    dump = {name: (outdir / name).read_bytes() for name in ("B.csv", "D.csv")}
    capsys.readouterr()
    assert main(["--quiet", "kernels", "--grid", str(save_grid(build_uniform(4, 1.0),
                 tmp_path / "g4.json")), "--out", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {outdir / 'A.csv'} is a directory, not a file kernels can replace\n")
    assert {name: (outdir / name).read_bytes() for name in ("B.csv", "D.csv")} == dump
    assert sorted(path.name for path in outdir.iterdir()) == ["A.csv", "B.csv", "D.csv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["g3.json", "g4.json", "mats"]


def test_kernels_refuses_grids_too_large_to_dump(tmp_path, capsys):
    # the CSV output grows as N^2, about 105 MB at 3,000 steps, the largest
    # grid the command dumps
    grid_path = save_grid(build_uniform(3001, 1.0), tmp_path / "big.json")
    outdir = tmp_path / "mats"
    assert main(["--quiet", "kernels", "--grid", str(grid_path), "--out", str(outdir)]) == 2
    assert capsys.readouterr().err == (
        "error: kernels needs a grid of at most 3000 steps, got 3001\n")
    assert not outdir.exists()


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


# ---------------------------------------------------------------------------
# the canonical outputs, pinned by sha256


def _grid_json(steps):
    return json.dumps({"T": math.fsum(steps), "steps": steps})


# Grid files the pinned commands read: ratios alternating 1.4 and 1/1.4
# (certified), a constant ratio 1.732 (not certified), and steps of five
# sizes, all multiples of 1/64 (the kernels dump).
_PIN_GRIDS = {
    "certified.json": _grid_json([0.1 * 1.4 ** (k % 2) for k in range(30)]),
    "failing.json": _grid_json([1.732 ** k for k in range(40)]),
    "kernels.json": _grid_json([(3 + 7 * k % 5) / 64 for k in range(24)]),
}
_CONV = ["convergence", "--eps2", "0.16,0.36", "--n", "20,40,80,160", "--m", "20"]
_CONV_RANDOM = [*_CONV, "--case", "2", "--format", "json", "--out", "conv.json", "--seed"]
_ENERGY = ["energy", "--eps2", "0.16", "--tau", "0.01", "--steps", "200", "--out", "energy.csv"]
_PINNED = {
    # name: (argv, exit code, sha256 of stdout and of each file written)
    "conv-random-seed1": ([*_CONV_RANDOM, "1"], 0, {
        "conv_eps2_0.16.json": "a69f1b845ceaca464e1582ea1b0337abdfdfa01d2045a6c73c35b06eee39369e",
        "conv_eps2_0.36.json": "63b42c23bc2242bab50e5fa693e023081a4f019c405d9b6e3f81774f420df92f",
        "stdout": "a10364ea9b0bc564f4a67bfb5dc2e799e96f1fd75c1364eb830455f801ca8c34",
    }),
    "conv-random-seed2": ([*_CONV_RANDOM, "2"], 0, {
        "conv_eps2_0.16.json": "a3e38fafd60d64cd22e91bcf60a5a1ef4dda448fa1f431e856a3d36d09be8752",
        "conv_eps2_0.36.json": "c576877442531e9e14328bf2e8adae277e553edb31732f0b1e75121c93275e1d",
        "stdout": "1a0a47b0eb2636505aaa3c0d82ecaf5e10d63d1a0a84e150a69af8887c7f7640",
    }),
    "conv-random-seed3": ([*_CONV_RANDOM, "3"], 0, {
        "conv_eps2_0.16.json": "871dff75c7dc017c662f46cb6b1bb27cc133477d4b92b1d50abb1936a6cdd1d1",
        "conv_eps2_0.36.json": "9a022df855f2c398ce0279c98379abd719b615655a48481fb356a6d19b3a5e46",
        "stdout": "2a6051de0792dac4fb46b9756a241ba2b7049568c6a76455c25b5065d2104625",
    }),
    "case1": ([*_CONV, "--case", "1", "--out", "case1.csv"], 0, {
        "case1_eps2_0.16.csv": "e669fedd11a54251f1d4be2c63c068e26fb09ee1a38a86e2ff06f576b37bd0d2",
        "case1_eps2_0.36.csv": "b25336c87fae93ee3a8099b9b362f52ce942657f0e953d15436150828c8134cd",
        "stdout": "4b40c3805f3aefe312e4f94820380ff02a0469db569b7cedca1537f1acc1512a",
    }),
    "uniform": ([*_CONV, "--case", "uniform", "--out", "uniform.csv"], 0, {
        "uniform_eps2_0.16.csv": "5bbac177ec443176413a4385968f8751e266d15ca6be86d2142aaa423d92aaf3",
        "uniform_eps2_0.36.csv": "a6d9ddf10d03ec5f09909f7588b6d8b87e1eaefd066d36dd7176b202f5e88a98",
        "stdout": "657225dd287082d0aaba7d8e2d4fee11f9b951056b5dadeb9afdd548b427281d",
    }),
    "energy-seed2": ([*_ENERGY, "--seed", "2"], 0, {
        "energy.csv": "d458da22077b3da0bfe97f3e1b38775293df4ea5c4873002f8cdb8c7dc7439ca",
        "stdout": "4317118275edffffae9e63e6a6b8bc5340c210f77fb0cbddd9fa3ebcbddd8510",
    }),
    "energy-seed3": ([*_ENERGY, "--seed", "3"], 0, {
        "energy.csv": "cc642fb0900ea7a35447c498cb6dafec3d22215fba272c9be0c662ccdacd0668",
        "stdout": "4317118275edffffae9e63e6a6b8bc5340c210f77fb0cbddd9fa3ebcbddd8510",
    }),
    "energy-seed1-m64": ([*_ENERGY, "--seed", "1", "--m", "64"], 0, {
        "energy.csv": "24a9f4dda636df01df16c6f6bd2be15689f395f2c92f51388192b76925c8a626",
        "stdout": "4317118275edffffae9e63e6a6b8bc5340c210f77fb0cbddd9fa3ebcbddd8510",
    }),
    "kernels": (["kernels", "--grid", "kernels.json", "--out", "mats"], 0, {
        "mats/A.csv": "484520e691c3aab4b4cbb660c9911e301582ae14efd9b78954c79b0974962056",
        "mats/B.csv": "81ca78ce33e76b4e7d24a873062c0a021db9f46c26c62c7a89e836a4ec59ff46",
        "mats/D.csv": "d151de1f8d7befabd527666413d0814fd838f5ef114c1c5f45995e65f861353c",
        "stdout": "efd7709df3e5c00fcd6b38d672e1a4820c7b695c03f4967ba5784d84de9438fd",
    }),
    "consistency": (["consistency", "--function", "sin", "--levels", "10,20,40,80",
                     "--out", "eta.csv"], 0, {
        "eta.csv": "3460b26d90d899c255130779f58bfb9ec0ecbf2c177383f94237cab0c8961b25",
        "stdout": "3d5ce48d8ec02ab2faf41f7d93b8b47e10f0a8e98a364d461a2104840589e20c",
    }),
    "certify-certified": (["certify", "--grid", "certified.json"], 0, {
        "stdout": "ea932ead49f5a4547abbc29aa0b0ef92bff467f10f51a00a526c651692d10674",
    }),
    "certify-failing": (["certify", "--grid", "failing.json"], 1, {
        "stdout": "b4663daeeb180478b44879165c5afba147490f62532c4aaa739aa055efc93a88",
    }),
    "validate-lemmas-1.405": (["validate-lemmas", "--resolution", "1.405"], 0, {
        "stdout": "3428b8d9b75e09f9565126c6d2a8319fa626d61aff1d67584870c78fe172a161",
    }),
    "validate-lemmas-0.05": (["validate-lemmas", "--resolution", "0.05"], 0, {
        "stdout": "eea1cead3a4fa8344b45ea81b14999d3846d439a1bb90f2079950d72e63f559f",
    }),
}


@pytest.mark.parametrize("name", _PINNED)
def test_canonical_outputs_are_pinned(tmp_path, capsys, monkeypatch, name):
    """Every canonical command's stdout and files, byte for byte.

    The hashes assume numpy 2.4.6 and the OpenBLAS 0.3.31 its wheels bundle;
    another numpy or BLAS may round the solver's products differently.  A
    change that moves a byte updates this table and says why in CHANGES.md.
    """
    argv, code, digests = _PINNED[name]
    monkeypatch.chdir(tmp_path)  # so the paths the commands print are relative
    for grid, text in _PIN_GRIDS.items():
        (tmp_path / grid).write_text(text)
    capsys.readouterr()
    assert main(argv) == code
    written = {p.relative_to(tmp_path).as_posix(): p.read_bytes() for p in tmp_path.rglob("*")
               if p.is_file() and p.name not in _PIN_GRIDS}
    written["stdout"] = capsys.readouterr().out.encode()
    assert {key: hashlib.sha256(data).hexdigest() for key, data in written.items()} == digests
