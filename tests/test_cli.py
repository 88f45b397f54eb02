"""Tests for the command-line interface contract."""

import json
import os
import subprocess
import sys

import pytest

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
    code = cli_main(["verify", "--seed", "3", "--trials", "200", "--pairs", "20000"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [line for line in out.splitlines() if line]
    assert all(line.startswith("PASS") for line in lines)
    assert len(lines) >= 10


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


def test_unknown_flag_exits_two(tmp_path, capsys):
    assert cli_main(["sweep-s", "--bogus", "1", "--out", str(tmp_path / "x.csv")]) == 2


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


_SMALL = ["--n", "5", "--d", "50", "--trials", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep-t", "--t", "", *_SMALL],
        ["sweep-s", "--s", "", *_SMALL],
        ["sweep-k", "--k", "", *_SMALL],
        ["sweep-k", "--k", "20", "--probes", "", *_SMALL],
        ["cdf", "--k", "20", "--probes", "", *_SMALL],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "-3"],
        ["verify", "--pairs", "0"],
        ["verify", "--pairs", "1"],
        ["sweep-k", "--k", "20", "--probes", "0.5,0.99,0.5", *_SMALL],
        ["cdf", "--k", "20", "--probes", "0.5,0.5", *_SMALL],
    ],
    ids=[
        "empty-t", "empty-s", "empty-k", "sweep-k-empty-probes", "cdf-empty-probes",
        "trials-0", "trials-negative", "pairs-0", "pairs-1",
        "sweep-k-repeated-probes", "cdf-repeated-probes",
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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1
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
