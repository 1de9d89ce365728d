"""Command-line interface behavior and output artifacts."""

import dataclasses
import hashlib
import json
import socket

import pytest

from spo import cli, harness, sockets
from spo.cloud import DRIFT_BIAS, DRIFT_NOISE
from spo.environments import get_spec
from spo.types import SpoConfig


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
    assert doc["schema_version"] == 1
    assert capsys.readouterr().out == path.read_text()  # prints exactly the document it writes


def test_compare_writes_csv_and_report(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = cli.main([
        "compare", "--env", "free_space", "--seeds", "2", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    csv_path = out / "compare_free_space.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "kind,seed,success,steps,idle_s,hit_rate,mean_k,wasted,generated"
    assert len(lines) == 1 + 4 * 2  # header + 4 kinds x 2 seeds
    assert lines[5].startswith("spo,0,1,")  # rows sorted by (kind, seed)
    assert len(list(out.glob("run_*.json"))) == 8
    printed = capsys.readouterr().out
    assert "idle reduction vs blocking [spo]" in printed


def test_sweep_emits_grid_rows(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--env", "free_space", "--param", "rtt_base",
        "--from", "0.05", "--to", "0.25", "--steps", "3", "--seeds", "1",
        "--jitter", "0.0", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep_rtt_base_free_space.csv").read_text().splitlines()
    assert lines[0] == "param_value," + harness.CSV_HEADER
    assert len(lines) == 1 + 3 * 4  # header + 3 points x 4 kinds x 1 seed
    assert [line.split(",")[1] for line in lines[1:5]] == ["blocking", "nftc", "spo", "t1sc"]
    assert lines[1].startswith("0.05,blocking,")
    assert lines[-1].startswith("0.25,t1sc,")  # float repr of the last grid point
    assert [path.name for path in out.iterdir()] == ["sweep_rtt_base_free_space.csv"]
    printed = capsys.readouterr().out
    assert [line for line in printed.splitlines() if line.startswith("rtt_base = ")] == [
        "rtt_base = 0.05", "rtt_base = 0.15000000000000002", "rtt_base = 0.25"
    ]
    assert printed.count("idle reduction vs blocking [spo]") == 3


def test_sweep_rejects_unknown_parameter(tmp_path):
    code = cli.main([
        "sweep", "--env", "free_space", "--param", "bandwidth",
        "--from", "0", "--to", "1", "--steps", "2", "--out", str(tmp_path),
    ])
    assert code == 2


def test_sweep_labels_an_integer_field_with_its_float_grid_point(tmp_path):
    argv = ["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "3"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep_k_max_free_space.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == [
        "param_value", *["2.0"] * 4, *["3.0"] * 4, *["4.0"] * 4  # 4 kinds x 1 seed per point
    ]


def test_a_one_point_sweep_is_a_compare(tmp_path, capsys):
    common = ["--seeds", "2", "--model", "drifted"]
    assert cli.main(["compare", *common, "--out", str(tmp_path / "cmp")]) == 0
    compared = capsys.readouterr().out
    point = ["--param", "k_max", "--from", "10", "--to", "10", "--steps", "1"]
    assert cli.main(["sweep", *point, *common, "--out", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().out == "k_max = 10.0\n" + compared
    [swept] = (tmp_path / "sweep").iterdir()  # and no run JSONs
    assert swept.name == "sweep_k_max_free_space.csv"
    cut = b"".join(line.split(b",", 1)[1] + b"\n" for line in swept.read_bytes().splitlines())
    assert cut == (tmp_path / "cmp" / "compare_free_space.csv").read_bytes()


def test_nftc_rows_of_a_k_max_sweep_speculate_to_that_k_max(tmp_path):
    argv = ["sweep", "--param", "k_max", "--from", "6", "--to", "6", "--steps", "1", "--seeds", "2"]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    header, *rows = (tmp_path / "sweep_k_max_free_space.csv").read_text().splitlines()
    kind, mean_k = header.split(",").index("kind"), header.split(",").index("mean_k")
    nftc = [row.split(",")[mean_k] for row in rows if row.split(",")[kind] == "nftc"]
    assert nftc == ["6.0", "6.0"]


@pytest.mark.parametrize(
    "param, grid, message",
    [("k_max", ["2", "3", "3"], "k_max is an integer field; grid point 2.5 is not"),
     ("k_min", ["2", "12", "3"], "k_min <= k_max violated"),
     ("control_interval", ["0.02", "0.04", "2"], "control_interval 0.04 != free_space dt 0.02"),
     ("k_max", ["2", "8", "1"], "--steps 1 runs only --from 2.0, not --to 8.0")],
    ids=["non-integral-int-point", "last-point-invalid", "control-interval-off-the-spec-dt",
         "one-point-grid-from-not-to"],
)
def test_sweep_checks_every_grid_point_before_the_first_episode(
    tmp_path, capsys, monkeypatch, param, grid, message
):
    ran = []
    monkeypatch.setattr(harness, "run_experiment", lambda *args, **kwargs: ran.append(args) or [])
    start, stop, steps = grid
    argv = ["sweep", "--param", param, "--from", start, "--to", stop, "--steps", steps]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert ran == []
    assert not list(tmp_path.iterdir())


def test_a_directory_named_after_a_canonical_env_does_not_hide_it(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "free_space").mkdir()  # as `spo compare --out free_space` leaves it
    assert cli.main(["calibrate", "--env", "free_space", "--out", "free_space"]) == 0
    assert (tmp_path / "free_space" / "weights_free_space.txt").is_file()
    capsys.readouterr()
    (tmp_path / "results").mkdir()
    assert cli.main(["calibrate", "--env", "results"]) == 2
    assert "config error: no spec file at 'results'" in capsys.readouterr().err


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
    wpath, calibrated, precomputed = tmp_path / "w.txt", tmp_path / "cal", tmp_path / "pre"
    assert cli.main([
        "calibrate", "--env", "free_space", "--weights-out", str(wpath),
        "--out", str(tmp_path),
    ]) == 0
    expected = harness.calibrate_weights(get_spec("free_space"), seed=0)
    assert harness.load_weights(wpath) == expected  # the file round-trips every bit
    assert cli.main(["run", "--env", "free_space", "--out", str(calibrated)]) == 0
    assert cli.main([
        "run", "--env", "free_space", "--weights", str(wpath),
        "--out", str(precomputed),
    ]) == 0
    name = "run_spo_free_space_0.json"
    assert (precomputed / name).read_bytes() == (calibrated / name).read_bytes()


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


def test_a_config_file_fault_names_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "k.cfg"
    cfg_path.write_text("k_min = 5\nk_max = 2\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--env", "free_space", "--config", str(cfg_path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {cfg_path}: k_min <= k_max violated\n"
    assert not out.exists()


def test_a_flag_fault_under_a_config_file_does_not_name_the_file(tmp_path, capsys):
    cfg_path = tmp_path / "k.cfg"
    cfg_path.write_text("k_max = 8\n")
    assert cli.main(["run", "--env", "free_space", "--config", str(cfg_path),
                     "--kmin", "9", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "config error: k_min <= k_max violated\n"


def test_a_config_file_fault_that_a_flag_fixes_runs(tmp_path):
    cfg_path = tmp_path / "k.cfg"
    cfg_path.write_text("k_min = 5\nk_max = 2\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--env", "free_space", "--config", str(cfg_path),
                     "--kmax", "8", "--out", str(out)]) == 0
    doc = json.loads((out / "run_spo_free_space_0.json").read_text())
    assert (doc["config"]["k_min"], doc["config"]["k_max"]) == (5, 8)


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--epsilon", "nan"], "epsilon_base = nan is not finite"),
        (["run", "--rtt", "nan"], "rtt_base = nan is not finite"),
        (["compare", "--seeds", "1", "--jitter", "nan"], "jitter_half_width = nan is not finite"),
        (["sweep", "--param", "epsilon_base", "--from", "nan", "--to", "nan", "--steps", "2"],
         "epsilon_base = nan is not finite"),
        (["serve", "--rtt", "inf"], "rtt_base = inf is not finite"),
    ],
    ids=["run-epsilon-nan", "run-rtt-nan", "compare-jitter-nan", "sweep-grid-nan",
         "serve-rtt-inf"],
)
def test_non_finite_config_value_exits_two_before_any_output(
    tmp_path, capsys, monkeypatch, argv, message
):
    monkeypatch.setattr(sockets.CloudServer, "serve_forever", lambda self: None)  # never hang
    out = tmp_path / "out"
    assert cli.main([*argv, *([] if argv[0] == "serve" else ["--out", str(out)])]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


SWEEP = ["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--model", "drifted", "--drift-noise", "-1"], "drift_noise >= 0 violated"),
        (["run", "--model", "drifted", "--drift-bias", "nan"], "drift_bias = nan is not finite"),
        (["run", "--model", "drifted", "--drift-bias", "inf"], "drift_bias = inf is not finite"),
        (["run", "--model", "drifted", "--drift-noise", "nan"],
         "drift_noise = nan is not finite"),
        (["compare", "--seeds", "1", "--model", "drifted", "--drift-noise", "-1"],
         "drift_noise >= 0 violated"),
        ([*SWEEP, "--model", "drifted", "--drift-bias=-inf"],
         "drift_bias = -inf is not finite"),
        (["serve", "--model", "drifted", "--drift-noise", "-1"], "drift_noise >= 0 violated"),
        (["run", "--drift-bias", "1e-3"],
         "--drift-bias and --drift-noise need --model drifted, not oracle"),
        (["compare", "--seeds", "1", "--model", "oracle", "--drift-noise", "0"],
         "--drift-bias and --drift-noise need --model drifted, not oracle"),
        (["serve", "--model", "oracle", "--drift-bias", "0"],
         "--drift-bias and --drift-noise need --model drifted, not oracle"),
    ],
    ids=["run-noise-negative", "run-bias-nan", "run-bias-inf", "run-noise-nan",
         "compare-noise-negative", "sweep-bias-inf", "serve-noise-negative",
         "run-oracle-bias", "compare-oracle-noise", "serve-oracle-bias"],
)
def test_bad_drift_flags_exit_two_before_any_calibration_or_episode(
    tmp_path, capsys, monkeypatch, argv, message
):
    def never(*args, **kwargs):
        raise AssertionError("reached past the flag check")

    for module, name in [(harness, "calibrate_weights"), (harness, "run_single"),
                         (sockets, "CloudServer")]:
        monkeypatch.setattr(module, name, never)
    out = tmp_path / "out"
    assert cli.main([*argv, *([] if argv[0] == "serve" else ["--out", str(out)])]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_run_and_compare_json_echo_the_world_model(tmp_path):
    keys = set(dataclasses.asdict(SpoConfig())) | {"model", "drift_bias", "drift_noise"}
    run_out, cmp_out = tmp_path / "run", tmp_path / "cmp"
    assert cli.main([
        "run", "--model", "drifted", "--drift-bias", "1e-3", "--seed", "0", "--out", str(run_out),
    ]) == 0
    config = json.loads((run_out / "run_spo_free_space_0.json").read_text())["config"]
    assert set(config) == keys
    assert (config["model"], config["drift_bias"], config["drift_noise"]) == (
        "drifted", 1e-3, DRIFT_NOISE
    )
    assert cli.main(["compare", "--seeds", "1", "--seed", "0", "--out", str(cmp_out)]) == 0
    for path in cmp_out.glob("run_*.json"):
        config = json.loads(path.read_text())["config"]
        assert set(config) == keys
        assert (config["model"], config["drift_bias"], config["drift_noise"]) == (
            "oracle", DRIFT_BIAS, DRIFT_NOISE
        )


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
        "max_steps = 400\n"
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
    assert capsys.readouterr().err == f"config error: {env_path}: missing required key 'd_s'\n"


def test_a_parse_fault_names_its_file(tmp_path, capsys):
    spec_path = tmp_path / "b.cfg"
    spec_path.write_text("d_s = 2\nd_a = 2\n")
    code = cli.main(["run", "--config", str(spec_path), "--env", str(spec_path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {spec_path}:1: unknown config key 'd_s'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--env", "missing.cfg"], "unknown environment 'missing.cfg'"),
    ],
    ids=["unknown-env"],
)
def test_environment_errors_exit_two(tmp_path, capsys, argv, message):
    code = cli.main(["run", *argv, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err


@pytest.mark.parametrize(
    "argv",
    [["run"], ["compare", "--seeds", "1"],
     ["sweep", "--param", "k_max", "--from", "4", "--to", "6", "--steps", "2", "--seeds", "1"],
     ["calibrate"], ["edge-connect", "--addr", "127.0.0.1:9"]],
    ids=["run", "compare", "sweep", "calibrate", "edge-connect"],
)
def test_a_spec_whose_expert_never_moves_is_a_config_error(tmp_path, capsys, argv):
    # With neither waypoints nor a goal the expert steers to the origin anchor, where
    # every episode starts.
    spec_path = tmp_path / "still.spec"
    spec_path.write_text("name = still\nd_s = 2\nd_a = 2\n")
    code = cli.main([*argv, "--env", str(spec_path), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: still: all state dimensions constant during calibration: [0, 1]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag", ["--config", "--env", "--weights"],
)
def test_unreadable_local_file_is_a_config_error(tmp_path, capsys, flag):
    bad = str(tmp_path / "missing.txt")
    undecodable = tmp_path / "latin1.cfg"  # exists, but is not UTF-8
    undecodable.write_bytes(b"name = caf\xe9\n")
    argv = {
        "--config": ["--config", bad],
        "--env": ["--env", str(undecodable)],
        "--weights": ["--weights", bad],
    }[flag]
    code = cli.main(["run", *argv, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    expected = str(undecodable) if flag == "--env" else bad
    assert err.startswith(f"config error: cannot read {expected}: "), err


@pytest.mark.parametrize(
    "text, message",
    [
        ("weights = 1.0, abc\n", "w.txt:1: bad value for weights: '1.0, abc'"),
        ("# only a comment\n", "w.txt: missing required key 'weights'"),
        ("weights = " + "1.0, " * 7 + "-1.0\n", "w.txt: weights must be strictly positive"),
        ("weights = " + "1.0, " * 7 + "nan\n", "w.txt: weights contains non-finite entries"),
        ("weights = 1.0, 1.0, 1.0\n", "w.txt: 3 weights, expected d_s = 8"),
        ("1.0\n" * 8, "w.txt:1: expected 'key = value', got '1.0'"),
    ],
    ids=["non-numeric", "empty", "non-positive", "nan", "wrong-count", "one-number-per-line"],
)
def test_bad_weights_file_exits_two_before_the_run(tmp_path, capsys, text, message):
    path = tmp_path / "w.txt"
    path.write_text(text)
    code = cli.main(["run", "--weights", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {tmp_path}/{message}"), err
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


# SHA-256 of compare_<env>.csv from `spo compare --env <env> --model <model>
# --seeds 3 --seed 0`: any change to an episode's numbers shows here.
COMPARE_CSV_SHA256 = {
    ("free_space", "oracle"): "b5bfbbfcd4dd75a2127054a0dbe3dff80fc5bd58911fddde5bc299e7c8151664",
    ("free_space", "drifted"): "07068d593669373fef3b593ec5d2128bc1a9e7203d3c80bfa796c93ab8f7528b",
    ("tight_tolerance", "oracle"):
        "8ef9157b002b09cb5f836e110274ad51354e005f67be021575f6cc32efaa3ed1",
    ("tight_tolerance", "drifted"):
        "068d8202064baf7f0fc24eee9161bbb4acbf1cf8f4f6f1217df64e42dda04ae5",
    ("multi_stage", "oracle"): "1a09af6d9d08aaf15bc7e1b398e5e33477b3c1f9edd9aa81209aa0617942b509",
    ("multi_stage", "drifted"): "a11214da4ad5c0e1e6eb50262cabd38044ed616d4ac65948f0535af02a691e46",
}


@pytest.mark.parametrize("env, model", sorted(COMPARE_CSV_SHA256))
def test_compare_csv_is_byte_identical_to_the_pinned_digest(tmp_path, env, model):
    code = cli.main([
        "compare", "--env", env, "--model", model, "--seeds", "3", "--seed", "0",
        "--out", str(tmp_path),
    ])
    assert code == 0
    csv = (tmp_path / f"compare_{env}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == COMPARE_CSV_SHA256[env, model]


def test_a_spec_file_spelling_out_multi_stage_gives_the_canonical_results(tmp_path):
    spec = get_spec("multi_stage")

    def vector(values):
        return ",".join(map(repr, values.tolist()))

    env_path = tmp_path / "multi_stage.cfg"
    env_path.write_text(
        f"name = {spec.name}\nd_s = {spec.d_s}\nd_a = {spec.d_a}\ndt = {spec.dt!r}\n"
        f"max_steps = {spec.max_steps}\ngoal_radius = {spec.goal_radius!r}\n"
        f"start_jitter = {spec.start_jitter!r}\ngain = {spec.gain!r}\na_max = {spec.a_max!r}\n"
        f"waypoints = {'; '.join(map(vector, spec.waypoints))}\n"
        # the second bump's zeros are -0.0, and the file keeps their sign, bit for bit
        "disturbance_schedule = "
        + "; ".join(f"{step}: {vector(offset)}" for step, offset in spec.disturbance_schedule)
        + "\n"
    )
    assert "520: -0.45,0.35,-0.0," in env_path.read_text()
    outputs = {}
    for env in ("multi_stage", str(env_path)):
        out = tmp_path / str(len(outputs))
        argv = ["compare", "--env", env, "--model", "drifted", "--seeds", "2", "--seed", "0"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        outputs[env] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert "compare_multi_stage.csv" in outputs["multi_stage"]
    assert outputs[str(env_path)] == outputs["multi_stage"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--mode", "socket"],
        ["run", "--addr", "127.0.0.1:1"],
        ["run", "--jobs", "2"],
        ["compare", "--mode", "socket"],
        ["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "2",
         "--mode", "socket"],
        ["sweep", "--param", "k_max", "--from", "2", "--to", "4", "--steps", "2", "--kind", "spo"],
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
        *([command, *args, "--disturbances", "d.csv"] for command, args in [
            ("run", []), ("compare", []),
            ("sweep", ["--param", "k_max", "--from", "2", "--to", "4", "--steps", "2"]),
            ("edge-connect", ["--addr", "127.0.0.1:1"])]),
        *(["edge-connect", "--addr", "127.0.0.1:1", flag, "5"]
          for flag in ["--kmin", "--kmax", "--beta", "--rtt", "--jitter"]),
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
