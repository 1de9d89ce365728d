"""Command-line interface behavior and output artifacts."""

import hashlib
import json
import socket

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


@pytest.mark.parametrize(
    "flag, env, file, expected",
    [
        ("3", "17", "5", 3),
        (None, "17", "5", 17),
        (None, None, "5", 5),
        (None, None, None, 0),
    ],
    ids=["flag", "environment", "config-file", "default"],
)
def test_base_seed_precedence(tmp_path, monkeypatch, flag, env, file, expected):
    monkeypatch.delenv("SPO_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("SPO_SEED", env)
    cfg_path = tmp_path / "seed.cfg"
    cfg_path.write_text("" if file is None else f"rng_seed = {file}\n")
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    assert cli.main(argv + (["--seed", flag] if flag is not None else [])) == 0
    [path] = (tmp_path / "out").glob("run_*.json")
    assert path.name == f"run_spo_free_space_{expected}.json"
    assert json.loads(path.read_text())["config"]["rng_seed"] == expected


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
        (["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "0"],
         "argument --steps: must be >= 1, got 0"),
        (["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "2",
          "--seeds", "-1"], "argument --seeds: must be >= 1, got -1"),
        (["calibrate", "--episodes", "0"], "argument --episodes: must be >= 1, got 0"),
        (["serve", "--port", "99999"], "argument --port: must be in 0..65535, got 99999"),
        (["serve", "--port", "-1"], "argument --port: must be in 0..65535, got -1"),
    ],
    ids=["compare-seeds-0", "sweep-steps-0", "sweep-seeds-negative", "calibrate-episodes-0",
         "serve-port-99999", "serve-port-negative"],
)
def test_out_of_range_count_exits_two_before_any_output(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *([] if argv[0] == "serve" else ["--out", str(tmp_path)])])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag, env, message",
    [
        ("-1", None, "rng_seed >= 0 violated"),
        (None, "-1", "rng_seed >= 0 violated"),
        (None, "abc", "base seed 'abc' is not an integer"),
        ("1.5", None, "base seed '1.5' is not an integer"),
    ],
    ids=["flag-negative", "environment-negative", "environment-not-an-int", "flag-not-an-int"],
)
def test_bad_base_seed_is_a_config_error(tmp_path, capsys, monkeypatch, flag, env, message):
    monkeypatch.delenv("SPO_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("SPO_SEED", env)
    argv = ["run", "--out", str(tmp_path)] + (["--seed", flag] if flag is not None else [])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
@pytest.mark.parametrize("interval", ["0.01", "0.04"])
def test_control_interval_other_than_the_spec_dt_exits_two(tmp_path, capsys, command, interval):
    cfg_path = tmp_path / "tick.cfg"
    cfg_path.write_text(f"control_interval = {interval}\n")
    extra = {"run": [], "compare": ["--seeds", "1"],
             "sweep": ["--param", "k_max", "--from", "2", "--to", "4", "--steps", "2"]}[command]
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: control_interval {interval} != free_space dt 0.02\n"
    assert not out.exists()


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
    "flag", ["--config", "--env", "--disturbances", "--weights"],
)
def test_unreadable_local_file_is_a_config_error(tmp_path, capsys, flag):
    spec = tmp_path / "spec.cfg"
    spec.write_text("d_s = 2\nd_a = 2\nwaypoints = 1.0,1.0\n")
    bad = str(tmp_path / "missing.txt")
    argv = {
        "--config": ["--config", bad],
        "--env": ["--env", str(tmp_path)],  # exists, but is a directory
        "--disturbances": ["--env", str(spec), "--disturbances", bad],
        "--weights": ["--weights", bad],
    }[flag]
    code = cli.main(["run", *argv, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    expected = str(tmp_path) if flag == "--env" else bad
    assert err.startswith(f"config error: cannot read {expected}: "), err


@pytest.mark.parametrize(
    "text, message",
    [
        ("1.0\nabc\n", "w.txt:2: expected a number, got 'abc'"),
        ("# only a comment\n", "w.txt: weights must have at least one component"),
        ("1.0\n" * 7 + "-1.0\n", "w.txt: weights must be strictly positive"),
        ("1.0\n" * 7 + "nan\n", "w.txt: weights contains non-finite entries"),
        ("1.0\n" * 3, "w.txt: 3 weights, expected d_s = 8"),
    ],
    ids=["non-numeric", "empty", "non-positive", "nan", "wrong-count"],
)
def test_bad_weights_file_exits_two_before_the_run(tmp_path, capsys, text, message):
    (tmp_path / "w.txt").write_text(text)
    code = cli.main(["run", "--weights", str(tmp_path / "w.txt"), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not list(tmp_path.glob("run_*.json"))


@pytest.mark.parametrize("flag", ["--config", "--env", "--weights"])
def test_non_utf8_file_is_a_config_error(tmp_path, capsys, flag):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("k_max = 10  # caf\xe9\n".encode("latin-1"))
    code = cli.main(["run", flag, str(bad), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {bad}: 'utf-8' codec can't decode"), err


@pytest.mark.parametrize("command", ["calibrate-weights-out", "run-out"])
def test_unwritable_output_path_is_a_config_error(tmp_path, capsys, command):
    plain = tmp_path / "plain"
    plain.write_text("a regular file\n")
    argv = {
        "calibrate-weights-out": ["calibrate", "--episodes", "1",
                                  "--weights-out", str(plain / "x"), "--out", str(tmp_path)],
        "run-out": ["run", "--out", str(plain)],
    }[command]
    code = cli.main(argv)
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {plain}: ")


@pytest.mark.parametrize("addr", ["127.0.0.1", "localhost:http", "127.0.0.1:65536", "[::1]:"])
def test_edge_connect_addr_without_a_numeric_port_exits_two(tmp_path, capsys, addr):
    code = cli.main(["edge-connect", "--addr", addr, "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: --addr {addr!r}")


def test_serve_on_a_port_in_use_is_a_network_error(capsys):
    with socket.create_server(("127.0.0.1", 0)) as taken:
        code = cli.main(["serve", "--port", str(taken.getsockname()[1])])
    assert code == 3
    assert capsys.readouterr().err.startswith("network error: ")


# SHA-256 of compare_free_space.csv from `spo compare --env free_space --seeds 3
# --seed 0`: any change to an episode's numbers shows here.
COMPARE_CSV_SHA256 = {
    "oracle": "454825106752e7225ff15aa0b9dcddad145a16ce6db71fecad3e3e91883724be",
    "drifted": "203ff56289c14c1a350319e78178616b60af1e22365418d48ae57bea67839be4",
}


@pytest.mark.parametrize("model", sorted(COMPARE_CSV_SHA256))
def test_compare_csv_is_byte_identical_to_the_pinned_digest(tmp_path, model):
    code = cli.main([
        "compare", "--env", "free_space", "--model", model, "--seeds", "3", "--seed", "0",
        "--out", str(tmp_path),
    ])
    assert code == 0
    csv = (tmp_path / "compare_free_space.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == COMPARE_CSV_SHA256[model]


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
        *(["calibrate", flag, "1"] for flag in
          ["--rtt", "--jitter", "--kmin", "--kmax", "--beta", "--epsilon", "--disturbances"]),
        ["serve", "--disturbances", "d.csv"],
        *(["edge-connect", "--addr", "127.0.0.1:1", flag, "5"]
          for flag in ["--kmin", "--kmax", "--beta"]),
        ["compare", "--jobs", "2"],
        ["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "2", "--jobs", "2"],
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
