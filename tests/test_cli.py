"""Command-line interface behavior and output artifacts."""

import json

import pytest

from spo import cli


def test_run_writes_json_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main([
        "run", "--env", "free_space", "--kind", "spo", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    path = out / "run_spo_free_space_0.json"
    doc = json.loads(path.read_text())
    assert doc["metrics"]["kind"] == "spo"
    assert doc["metrics"]["success"] is True
    assert doc["config"]["rng_seed"] == 0
    assert doc["mode"] == "virtual"
    printed = capsys.readouterr().out
    assert '"schema_version": 1' in printed


def test_compare_writes_csv_and_report(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli.main([
        "compare", "--env", "free_space", "--seeds", "2", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    csv_path = out / "compare_free_space.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("kind,seed,")
    assert len(lines) == 1 + 4 * 2  # header + 4 kinds x 2 seeds
    assert len(list(out.glob("run_*.json"))) == 8
    printed = capsys.readouterr().out
    assert "idle reduction vs blocking [spo]" in printed


def test_sweep_emits_grid_rows(tmp_path):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--env", "free_space", "--kind", "spo", "--param", "rtt_base",
        "--from", "0.05", "--to", "0.25", "--steps", "3", "--seeds", "1",
        "--jitter", "0.0", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep_rtt_base_spo_free_space.csv").read_text().splitlines()
    assert lines[0].startswith("param_value,kind,")
    assert len(lines) == 4
    assert lines[1].startswith("0.05,spo,")
    assert lines[3].startswith("0.25")  # float repr of the last grid point


def test_sweep_rejects_unknown_parameter(tmp_path):
    code = cli.main([
        "sweep", "--env", "free_space", "--param", "bandwidth",
        "--from", "0", "--to", "1", "--steps", "2", "--out", str(tmp_path),
    ])
    assert code == 2


def test_calibrate_writes_loadable_weights(tmp_path):
    from spo.harness import load_weights

    path = tmp_path / "w.txt"
    code = cli.main([
        "calibrate", "--env", "free_space", "--weights-out", str(path),
        "--out", str(tmp_path),
    ])
    assert code == 0
    w = load_weights(path)
    assert w.dim == 8


def test_run_accepts_precomputed_weights(tmp_path):
    wpath = tmp_path / "w.txt"
    assert cli.main([
        "calibrate", "--env", "free_space", "--weights-out", str(wpath),
        "--out", str(tmp_path),
    ]) == 0
    assert cli.main([
        "run", "--env", "free_space", "--weights", str(wpath),
        "--out", str(tmp_path),
    ]) == 0


def test_invalid_config_exits_two(tmp_path, capsys):
    code = cli.main([
        "run", "--env", "free_space", "--kmin", "5", "--kmax", "2",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "k_min <= k_max violated" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "net.cfg"
    cfg_path.write_text("rtt_base = 0.1\njitter_half_width = 0.0\nk_max = 8\n")
    out = tmp_path / "out"
    code = cli.main([
        "run", "--env", "free_space", "--config", str(cfg_path),
        "--rtt", "0.2", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads((out / "run_spo_free_space_0.json").read_text())
    assert doc["config"]["rtt_base"] == 0.2  # flag wins
    assert doc["config"]["k_max"] == 8  # file value kept


def test_spo_seed_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("SPO_SEED", "17")
    out = tmp_path / "out"
    code = cli.main(["run", "--env", "free_space", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "run_spo_free_space_17.json").read_text())
    assert doc["config"]["rng_seed"] == 17


def test_custom_environment_file(tmp_path):
    env_path = tmp_path / "bench.cfg"
    env_path.write_text(
        "name = bench\nd_s = 4\nd_a = 4\n"
        "dynamics = waypoint_tracker\nmax_steps = 400\n"
        "goal_radius = 0.2\nwaypoints = 0.5,-0.5,0.5,-0.5\n"
    )
    out = tmp_path / "out"
    code = cli.main(["run", "--env", str(env_path), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "run_spo_bench_0.json").read_text())
    assert doc["env"] == "bench"


def test_bad_environment_file_exits_two(tmp_path, capsys):
    env_path = tmp_path / "bad.cfg"
    env_path.write_text("d_a = 4\n")
    code = cli.main(["run", "--env", str(env_path), "--out", str(tmp_path)])
    assert code == 2
    assert "config error: missing required key 'd_s'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--env", "missing.cfg"], "unknown environment 'missing.cfg'"),
        (["--env", "free_space", "--disturbances", "missing.csv"],
         "--disturbances needs a spec file"),
    ],
    ids=["unknown-env", "disturbances-without-spec-file"],
)
def test_environment_errors_exit_two(tmp_path, capsys, argv, message):
    code = cli.main(["run", *argv, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--mode", "socket"],
        ["run", "--addr", "127.0.0.1:1"],
        ["run", "--jobs", "2"],
        ["compare", "--mode", "socket"],
        ["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "2",
         "--mode", "socket"],
        ["calibrate", "--kind", "spo"],
        ["calibrate", "--jobs", "2"],
        ["calibrate", "--model", "drifted"],
        ["calibrate", "--drift-bias", "0.1"],
        ["calibrate", "--drift-noise", "0.1"],
        ["calibrate", "--weights", "w.txt"],
        ["serve", "--jobs", "2"],
        ["serve", "--weights", "w.txt"],
        ["serve", "--out", "out"],
        ["edge-connect", "--addr", "127.0.0.1:1", "--model", "drifted"],
        ["edge-connect", "--addr", "127.0.0.1:1", "--drift-bias", "0.1"],
        ["edge-connect", "--addr", "127.0.0.1:1", "--drift-noise", "0.1"],
        ["edge-connect", "--addr", "127.0.0.1:1", "--jobs", "2"],
    ],
    ids=lambda argv: " ".join(a for a in argv if a.startswith("--") or a == argv[0]),
)
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_edge_connect_requires_reachable_endpoint(tmp_path):
    code = cli.main([
        "edge-connect", "--env", "free_space", "--addr", "127.0.0.1:1",
        "--out", str(tmp_path),
    ])
    assert code == 3
