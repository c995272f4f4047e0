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
        assert main(["--quiet", "certify", "--grid", str(subnormal)]) == 2
        assert capsys.readouterr().err == (
            "error: level 3: step 1e-320 gives non-finite kernel weights "
            "shifted diagonal, b1, b2 = inf, -0.0, 0.0\n")
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
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for outdir in (tmp_path / "new" / "mats", kept):
            assert main(["--quiet", "kernels", "--grid", str(grid_path),
                         "--out", str(outdir)]) == 2
            assert capsys.readouterr().err == (
                "error: level 112: the kernel weights give a non-finite inverse kernel "
                "D[112,1] = nan\n")
    # no partial dump: the directories the command made are gone as well
    assert not (tmp_path / "new").exists()
    assert list(kept.iterdir()) == []


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
