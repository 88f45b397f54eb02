"""Tests for the command-line interface contract."""

import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jlproj.cli import cli_main
from jlproj.experiments import required_k


def test_sweep_s_contract(tmp_path, capsys):
    """The documented sweep-s invocation writes the documented CSV header."""
    out = tmp_path / "out.csv"
    code = cli_main(
        [
            "sweep-s",
            "--n", "120", "--d", "300", "--k", "50",
            "--s", "1,2,4,8,16", "--t", "5",
            "--trials", "3", "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "construction,input_family,s,probe,mean,std,trials"
    assert len(lines) == 1 + 2 * 2 * 5 * 2
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config"]["k"] == 50
    assert manifest["axis"] == {"name": "s", "values": [1, 2, 4, 8, 16]}
    assert "version" in manifest and "started_at" in manifest


def test_sweep_t_header(tmp_path):
    out = tmp_path / "t.csv"
    code = cli_main(
        ["sweep-t", "--n", "80", "--d", "200", "--k", "30", "--s", "8",
         "--t", "1,2,4", "--trials", "2", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "construction,input_family,t,probe,mean,std,trials"


def test_sweep_k_header(tmp_path):
    out = tmp_path / "k.csv"
    code = cli_main(
        ["sweep-k", "--n", "80", "--d", "200", "--k", "25,50", "--s", "8",
         "--t", "4", "--trials", "2", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "construction,input_family,k,probe,mean,std,trials"
    assert len(lines) == 1 + 3 * 2 * 2 * 2


def test_cdf_writes_cdf_and_tail(tmp_path):
    out = tmp_path / "cdf.csv"
    code = cli_main(
        ["cdf", "--n", "80", "--d", "200", "--k", "30", "--s", "8", "--t", "4",
         "--trials", "2", "--seed", "1", "--grid-points", "11", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "construction,grid,cdf"
    tail = tmp_path / "cdf.tail.csv"
    assert tail.read_text().splitlines()[0] == "construction,threshold,exceedance"
    assert out.with_suffix(".manifest.json").exists()


def test_required_k_prints_integer(capsys):
    assert cli_main(["required-k", "--n", "5000", "--eps", "0.2"]) == 0
    assert capsys.readouterr().out.strip() == str(required_k(5000, 0.2))


@pytest.mark.parametrize("eps", ["1e-200", "1e-160"])
def test_required_k_tiny_eps_exits_two(eps, capsys):
    """eps^2 underflows to 0 or the bound overflows: one error line, no traceback."""
    assert cli_main(["required-k", "--n", "10", "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_verify_passes(capsys):
    """Every check passes, and the report is pinned byte for byte."""
    code = cli_main(["verify", "--seed", "3", "--trials", "200", "--pairs", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) == 11
    assert out == (Path(__file__).parent / "data" / "verify_seed3_stdout.txt").read_text()


def test_verify_two_pairs_passes(capsys):
    """Two pairs with equal collision counts have sample SE 0; collision-mean
    takes the law's SE, so the smallest accepted sample still passes."""
    assert cli_main(["verify", "--seed", "0", "--trials", "1", "--pairs", "2"]) == 0
    assert "PASS collision-mean: " in capsys.readouterr().out


def test_verify_lists_failed_checks(capsys, monkeypatch):
    from jlproj import cli
    from jlproj.experiments import CheckResult

    monkeypatch.setattr(
        cli,
        "run_verification",
        lambda *a, **kw: [
            CheckResult("good-check", True, "fine"),
            CheckResult("bad-check", False, "off by a lot"),
        ],
    )
    code = cli_main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL bad-check" in captured.out
    assert "bad-check" in captured.err


@pytest.mark.parametrize("argv", [["sweep-s", "--bogus", "1"], ["cdf", "--probes", "0.5"]], ids=["bogus", "cdf-probes"])
def test_unknown_flag_exits_two(argv, tmp_path, capsys):
    """cdf pools every delta and reads no quantile probes, so it takes no --probes."""
    assert cli_main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_command_exits_two(capsys):
    assert cli_main(["frobnicate"]) == 2


def test_invalid_argument_exits_two(tmp_path, capsys):
    code = cli_main(
        ["sweep-s", "--n", "20", "--d", "50", "--k", "10", "--s", "11",
         "--trials", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_sweep_k_accepts_s_above_default_grid(tmp_path):
    out = tmp_path / "x.csv"
    code = cli_main(
        ["sweep-k", "--k", "600", "--s", "500", "--n", "5", "--d", "50", "--trials", "1", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.with_suffix(".manifest.json").read_text())["config"]["k"] == 600


def test_sweep_k_default_grid_ignores_s_without_the_graph_construction(tmp_path):
    """Only the graph construction needs k >= s, so without it the whole default k grid runs."""
    out = tmp_path / "x.csv"
    argv = ["sweep-k", "--constructions", "Dense,Ach", "--s", "500", "--n", "5", "--d", "50", "--trials", "1"]
    assert cli_main([*argv, "--out", str(out)]) == 0
    manifest = json.loads(out.with_suffix(".manifest.json").read_text())
    assert manifest["axis"] == {"name": "k", "values": [25, 50, 100, 200, 400]}
    assert manifest["config"]["k"] == 500


_SMALL = ["--n", "5", "--d", "50", "--trials", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-t", "--t", "", *_SMALL],
        ["sweep-s", "--s", "", *_SMALL],
        ["sweep-k", "--k", "", *_SMALL],
        ["sweep-k", "--k", "20", "--probes", "", *_SMALL],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-3"],
        ["verify", "--pairs", "0"],
        ["verify", "--pairs", "1"],
        ["sweep-k", "--k", "20", "--probes", "0.5,0.99,0.5", *_SMALL],
    ],
    ids=[
        "empty-t", "empty-s", "empty-k", "sweep-k-empty-probes",
        "trials-0", "trials-negative", "pairs-0", "pairs-1",
        "sweep-k-repeated-probes",
    ],
)
def test_invalid_run_size_exits_two(argv, tmp_path, capsys):
    if argv[0] != "verify":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_rerun_is_byte_identical(tmp_path):
    args = ["sweep-s", "--n", "60", "--d", "150", "--k", "20", "--s", "1,4",
            "--t", "3", "--trials", "2", "--seed", "5"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    args = ["sweep-k", "--n", "60", "--d", "150", "--k", "25,50", "--s", "8",
            "--t", "3", "--trials", "2", "--seed", "5"]
    monkeypatch.setenv("JL_THREADS", "1")
    out1 = tmp_path / "serial.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    monkeypatch.setenv("JL_THREADS", "8")
    out2 = tmp_path / "threaded.csv"
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["cdf", "--constructions", "Dense", "--k", "1100000", "--d", "1000", "--n", "1", "--trials", "1"],
        ["sweep-s", "--n", "20", "--d", "50", "--k", "10", "--s", "2", "--trials", "1"],
    ],
    ids=["dense-budget", "out-is-a-directory"],
)
def test_resource_and_os_errors_exit_three(argv, tmp_path, capsys):
    out = tmp_path / "x.csv" if argv[0] == "cdf" else tmp_path
    assert cli_main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_missing_output_directory_fails_before_sampling(tmp_path, capsys, monkeypatch):
    from jlproj import cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("sampling started before the output path was checked")

    monkeypatch.setattr(cli, "run_sparsity_sweep", must_not_run)
    out = tmp_path / "missing" / "x.csv"
    assert cli_main(["sweep-s", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output directory") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _must_not_run(*args, **kwargs):
    raise AssertionError("sampling started before the block was checked")


def test_cdf_without_the_graph_construction_ignores_s_above_k(tmp_path):
    """Only the graph construction needs s <= k, so cdf without it runs at k = 10 < s = 16."""
    out = tmp_path / "c.csv"
    argv = ["cdf", "--constructions", "Dense,Ach", "--k", "10", *_SMALL, "--out", str(out)]
    assert cli_main(argv) == 0
    assert json.loads(out.with_suffix(".manifest.json").read_text())["config"]["s"] == 16


@pytest.mark.parametrize("command", ["cdf", "sweep-t"])
def test_graph_cell_with_s_above_k_exits_two_before_sampling(command, tmp_path, capsys, monkeypatch):
    """The default s = 16 exceeds --k 10, so the graph cells are refused before any draw."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    assert cli_main([command, "--k", "10", *_SMALL, "--out", str(tmp_path / "g.csv")]) == 2
    assert capsys.readouterr().err == "error: column sparsity s=16 exceeds k=10\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep-s", "sweep-t", "sweep-k", "cdf"])
def test_out_is_a_directory_exits_three_before_sampling(command, tmp_path, capsys, monkeypatch):
    """--out naming an existing directory is refused in one line naming --out."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    assert cli_main([command, *_SMALL, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-k", "--n", "1", "--d", "2700000", "--k", "400", "--constructions", "Dense"],
        ["sweep-t", "--n", "2", "--d", "2700000", "--k", "400", "--t", "5"],
    ],
    ids=["sweep-k", "sweep-t"],
)
def test_transform_budget_exits_three_before_sampling(argv, tmp_path, capsys, monkeypatch):
    """A 400 x 2700000 dense transform is refused before the input batch is drawn."""
    from jlproj import core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    assert cli_main([*argv, "--trials", "1", "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: dense transform of 400x2700000") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag,value", [("--grid-min", "-inf"), ("--grid-max", "inf"), ("--tail-min", "-inf"), ("--tail-max", "inf")]
)
def test_cdf_infinite_bound_exits_two_before_sampling(flag, value, tmp_path, capsys, monkeypatch):
    """An infinite grid or tail bound would write nan; it is refused before any draw."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    argv = ["cdf", *_SMALL, f"{flag}={value}", "--out", str(tmp_path / "c.csv")]
    assert cli_main(argv) == 2
    assert capsys.readouterr().err == "error: grid and tail bounds must be finite, and so must hi - lo\n"
    assert list(tmp_path.iterdir()) == []


_GRID_ORDER = "grid needs lo < hi and at least 2 points"
_TAIL_ORDER = "tail thresholds need 0 < tail_lo < tail_hi and >= 2 points"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--grid-min", "1", "--grid-max", "-1"], _GRID_ORDER),
        (["--grid-min", "0.5", "--grid-max", "0.5"], _GRID_ORDER),
        (["--grid-points", "1"], _GRID_ORDER),
        (["--tail-min", "1", "--tail-max", "0.5"], _TAIL_ORDER),
        (["--tail-min", "0"], _TAIL_ORDER),
        (["--tail-points", "1"], _TAIL_ORDER),
    ],
)
def test_cdf_grid_order_exits_two_before_sampling(flags, message, tmp_path, capsys, monkeypatch):
    """A descending or one-point grid or tail table is refused before any draw."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    assert cli_main(["cdf", *_SMALL, *flags, "--out", str(tmp_path / "c.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep-s", "sweep-k"])
def test_dense_input_budget_exits_three_before_sampling(command, tmp_path, capsys, monkeypatch):
    from jlproj import core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    argv = [command, "--n", "1100000", "--d", "1000", "--k", "16", "--trials", "1"]
    assert cli_main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: dense input block") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep-t", "cdf"])
def test_sparse_input_budget_exits_three_before_sampling(command, tmp_path, capsys, monkeypatch):
    """n * t above the entry budget: 1100000 x 1000 sparse inputs."""
    from jlproj import core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    argv = [command, "--n", "1100000", "--d", "1000", "--t", "1000", "--k", "16", "--trials", "1"]
    assert cli_main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: sparse input block of 1100000x1000") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep-s", "sweep-t", "sweep-k", "cdf"])
def test_delta_block_budget_exits_three_before_sampling(command, tmp_path, capsys, monkeypatch):
    """trials * n above the entry budget: each cell's delta block is 2000000 x 1000."""
    from jlproj import core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    argv = [command, "--n", "1000", "--d", "10", "--trials", "2000000", "--k", "5", "--s", "2"]
    assert cli_main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: delta block of 2000000x1000") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command", [["sweep-k", "--constructions", "Dense"], ["sweep-t"]], ids=["sweep-k", "sweep-t"]
)
def test_projection_output_budget_exits_three_before_sampling(command, tmp_path, capsys, monkeypatch):
    """n * k above a 5000-entry budget: a cell's (n, k) projection output
    is 100 x 60, while its transform, input and delta blocks fit."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "MAX_DENSE_ENTRIES", 5000)
    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    argv = [*command, "--n", "100", "--d", "40", "--k", "60", "--t", "2", "--s", "2", "--trials", "1"]
    assert cli_main(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: projection output of 100x60 entries exceeds") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,what", [("--grid-points", "CDF grid"), ("--tail-points", "tail grid")])
def test_cdf_grid_budget_exits_three_before_sampling(flag, what, tmp_path, capsys, monkeypatch):
    """A cdf grid of 10^11 points is refused before any draw, in one line."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    argv = ["cdf", "--n", "50", "--d", "100", "--trials", "1", flag, "100000000000"]
    assert cli_main(argv + ["--out", str(tmp_path / "g.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {what} of 1x100000000000") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,axis", [("sweep-s", "s"), ("sweep-t", "t"), ("sweep-k", "k")])
def test_empty_axis_exits_two_before_sampling(command, axis, tmp_path, capsys, monkeypatch):
    """An empty swept axis is rejected before any input batch is drawn."""
    from jlproj import core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    argv = [command, f"--{axis}", "", "--n", "50", "--d", "100", "--trials", "1"]
    assert cli_main(argv + ["--out", str(tmp_path / "e.csv")]) == 2
    assert capsys.readouterr().err == f"error: the {axis} axis needs at least one value\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,axis,values", [("sweep-s", "s", "4,2,4"), ("sweep-t", "t", "5,2,5"), ("sweep-k", "k", "32,16,32")]
)
def test_repeated_axis_value_exits_two_before_sampling(command, axis, values, tmp_path, capsys, monkeypatch):
    """A swept axis that repeats a value is rejected before any input batch is drawn."""
    from jlproj import core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    argv = [command, f"--{axis}", values, "--n", "50", "--d", "100", "--trials", "1"]
    assert cli_main(argv + ["--out", str(tmp_path / "r.csv")]) == 2
    assert capsys.readouterr().err == f"error: the {axis} axis must not repeat a value\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command,axis,values,rule",
    [
        ("sweep-s", "s", "1,200", "s=200 must satisfy 1 <= s <= 50"),
        ("sweep-t", "t", "1,101", "t=101 must satisfy 1 <= t <= 100"),
        ("sweep-k", "k", "2,50", "k=2 must satisfy 16 <= k <= inf"),
    ],
    ids=["sweep-s", "sweep-t", "sweep-k"],
)
def test_axis_value_out_of_range_exits_two_before_sampling(command, axis, values, rule, tmp_path, capsys, monkeypatch):
    """A swept value outside its range (s above the default k = 50, t above
    d, k below the default s = 16) is rejected before any input batch is drawn."""
    from jlproj import core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    argv = [command, f"--{axis}", values, "--n", "50", "--d", "100", "--trials", "1"]
    assert cli_main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == f"error: sweep value {rule}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
@pytest.mark.parametrize("command", ["sweep-k", "verify"])
def test_bad_thread_count_exits_two_before_sampling(command, value, tmp_path, capsys, monkeypatch):
    """JL_THREADS is read once, before any draw; anything but a positive
    integer is rejected with one line naming the variable."""
    from jlproj import constructions, core, stats

    for module in (core, constructions, stats):
        monkeypatch.setattr(module, "derive_stream", _must_not_run)
    monkeypatch.setenv("JL_THREADS", value)
    argv = ["verify", "--trials", "1"] if command == "verify" else [command, *_SMALL, "--out", str(tmp_path / "t.csv")]
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: JL_THREADS must be a positive integer, got {value!r}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_refused_allocation_exits_three(tmp_path):
    """An allocation inside the entry budget that the machine refuses is one
    `error:` line and exit 3, not a traceback: a 2**29-column cdf draws its
    supports from a 2 GiB index pool, above a 2 GiB address-space limit set
    in the child only."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from jlproj.cli import cli_main\n"
        "sys.exit(cli_main(['cdf', '--d', '536870912', '--k', '2', '--s', '1', '--t', '1', '--n', '1', "
        f"'--trials', '1', '--constructions', 'Ach', '--out', {str(tmp_path / 'x.csv')!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_graph_layout_budget_exits_three_before_drawing(capsys, monkeypatch):
    """verify --pairs P streams the rows of a 2P-column layout: 2 * 40M * 16 entries."""
    from jlproj import constructions, stats

    monkeypatch.setattr(constructions, "sample_without_replacement", _must_not_run)
    monkeypatch.setattr(stats, "subset_blocks", _must_not_run)
    assert cli_main(["verify", "--trials", "1", "--pairs", "40000000"]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: graph layout of 80000000x16") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_failed_write_leaves_no_partial_output(tmp_path):
    """A CSV write cut off by the file-size limit keeps --out's old bytes."""
    out = tmp_path / "x.csv"
    out.write_text("old\n")
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_FSIZE, (256, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))\n"
        "from jlproj.cli import cli_main\n"
        f"sys.exit(cli_main(['sweep-k', '--n', '20', '--d', '50', '--k', '8,16', '--s', '4', '--trials', '2', "
        f"'--out', {str(out)!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


@pytest.mark.parametrize("command,sibling", [("sweep-s", "x.manifest.json"), ("cdf", "x.tail.csv")])
def test_sibling_output_that_is_a_directory_exits_three_before_sampling(
    command, sibling, tmp_path, capsys, monkeypatch
):
    """The manifest and tail files are checked with --out, before any draw."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    (tmp_path / sibling).mkdir()
    assert cli_main([command, *_SMALL, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == [sibling]


@pytest.mark.parametrize(
    "command,fifo",
    [("sweep-s", "x.csv"), ("sweep-t", "x.csv"), ("sweep-k", "x.manifest.json"), ("cdf", "x.tail.csv")],
)
def test_output_that_is_a_fifo_exits_three_before_sampling(command, fifo, tmp_path, capsys, monkeypatch):
    """An output path must be absent or a regular file: a FIFO is not renamed over."""
    from jlproj import constructions, core

    monkeypatch.setattr(core, "derive_stream", _must_not_run)
    monkeypatch.setattr(constructions, "derive_stream", _must_not_run)
    os.mkfifo(tmp_path / fifo)
    assert cli_main([command, *_SMALL, "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1
    assert stat.S_ISFIFO(os.lstat(tmp_path / fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == [fifo]


def test_out_symlink_to_a_regular_file_is_allowed(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n")
    out = tmp_path / "x.csv"
    out.symlink_to(target)
    assert cli_main(["sweep-s", *_SMALL, "--out", str(out)]) == 0
    assert out.read_text().startswith("construction,input_family,s,")


# Property test of the exit contract: any argv at tiny sizes (d <= 50,
# n <= 20, trials <= 2) exits 0-3 without a traceback.  verify runs its
# moment checks at >= 4000 trials whatever --trials is (about 1.5 s), so
# it gets two examples.
_EXAMPLES = {"sweep-s": 25, "sweep-t": 25, "sweep-k": 25, "cdf": 25, "verify": 2, "required-k": 50}
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_ABSENT = st.none()
# (--out, a path made before the run, how it is made)
_GOOD_OUTS = [("x.csv", None, None), ("x", None, None)]
_BAD_OUTS = [
    ("missing/x.csv", None, None),
    ("x.csv", "x.csv", os.mkdir),
    ("x.csv", "x.csv", os.mkfifo),
    ("x.csv", "x.manifest.json", os.mkdir),
    ("x.csv", "x.tail.csv", os.mkfifo),
]


def _comma_list(elements, **bounds):
    return st.lists(elements, max_size=4, **bounds).map(lambda values: ",".join(map(str, values)))


def _flags(command):
    """(flag, valid values, any values) per flag; a None value leaves the flag out."""
    if command == "verify":
        return [
            ("--seed", st.integers(0, 3), st.integers(-2, 3)),
            ("--trials", st.integers(1, 2), st.integers(-2, 2)),
            ("--pairs", st.integers(2, 100), st.integers(-2, 100)),
        ]
    if command == "required-k":
        return [
            ("--n", st.integers(2, 10**9), st.integers(-2, 10**9)),
            ("--eps", st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), _ANY_FLOAT),
        ]
    axis = command[-1] if command.startswith("sweep-") else None
    size = st.integers(1, 60)
    flags = [
        ("--n", st.integers(1, 20), st.integers(-2, 20)),
        ("--d", st.integers(1, 50), st.integers(-2, 50)),
        ("--trials", st.integers(1, 2), st.integers(-2, 2)),
        *(
            (f"--{name}", _ABSENT | _comma_list(size, min_size=1, unique=True), _comma_list(st.integers(-2, 60)))
            if name == axis
            else (f"--{name}", _ABSENT | size, st.integers(-2, 60))
            for name in ("k", "s", "t")
        ),
        ("--seed", _ABSENT | st.integers(0, 2**64 - 1), st.integers(-(2**64), 2**65)),
    ]
    if axis is not None:
        probe = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        flags.append(("--probes", _ABSENT | _comma_list(probe, min_size=1, unique=True), _comma_list(_ANY_FLOAT)))
    if command in ("sweep-k", "cdf"):
        kinds = _comma_list(st.sampled_from(["Dense", "Ach", "Sparse"]), min_size=1, unique=True)
        flags.append(("--constructions", _ABSENT | kinds, _comma_list(st.sampled_from(["Dense", "Gauss", ""]))))
    if command == "cdf":
        flags += [(flag, _ABSENT | st.floats(-2.0, 2.0), _ANY_FLOAT) for flag in ("--grid-min", "--grid-max")]
        flags += [(flag, _ABSENT | st.floats(1e-6, 2.0), _ANY_FLOAT) for flag in ("--tail-min", "--tail-max")]
        points = st.integers(-2, 300) | st.just(10**11)
        flags += [(flag, _ABSENT | st.integers(2, 300), points) for flag in ("--grid-points", "--tail-points")]
    return flags


@st.composite
def _run(draw, command):
    """argv, --out and JL_THREADS for one run; each value is valid nine times in ten."""
    argv = [command]
    for flag, valid, wild in _flags(command):
        value = draw(wild if draw(st.integers(0, 9)) == 9 else valid)
        if value is not None:
            argv.append(f"{flag}={value}")
    out = draw(st.sampled_from(_BAD_OUTS if draw(st.integers(0, 9)) == 9 else _GOOD_OUTS))
    return argv, out, draw(st.sampled_from([None, "1", "2"]))


@pytest.mark.parametrize("command", list(_EXAMPLES))
def test_exit_contract(command):
    """Exit code in {0, 1, 2, 3}; no traceback; exactly one `error:` line
    on stderr unless the exit is 0 or 1; on exit 0 every float in the CSVs
    is finite."""

    @settings(max_examples=_EXAMPLES[command], derandomize=True, deadline=None)
    @given(_run(command))
    def check(run):
        argv, (name, made, make), threads = run
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            if made is not None:
                make(os.path.join(tmp, made))
            if command not in ("verify", "required-k"):
                argv = [*argv, "--out", os.path.join(tmp, name)]
            if threads is None:
                mp.delenv("JL_THREADS", raising=False)
            else:
                mp.setenv("JL_THREADS", threads)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            err = stderr.getvalue()
            assert code in (0, 1, 2, 3), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            if code not in (0, 1):
                assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)
            if code == 0:
                for csv in filter(Path.is_file, Path(tmp).glob("*.csv")):
                    for field in csv.read_text().replace("\n", ",").split(","):
                        try:
                            value = float(field)
                        except ValueError:
                            continue
                        assert math.isfinite(value), (argv, csv.name, field)

    check()
