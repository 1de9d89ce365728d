"""Tests of the benchmark itself: its output checks reject corrupted outputs,
a shortest run of every workload prints every metric, and the serve child
process is always reaped.

Run from the repository root: python3 -m pytest benchmarks
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import metrics  # noqa: E402
import serve_workload  # noqa: E402
from compare_workload import DRIFT  # noqa: E402
from serve_workload import Replay, ServerChild  # noqa: E402

from spo import harness  # noqa: E402
from spo.cloud import CloudSession, RolloutRequest, RolloutResponse, make_model, make_policy  # noqa: E402
from spo.edge import Outcome  # noqa: E402
from spo.environments import get_spec  # noqa: E402
from spo.harness import BaselineKind  # noqa: E402
from spo.types import ActionVector, SpoConfig, StateVector  # noqa: E402

CFG = SpoConfig()


@pytest.fixture(scope="module")
def episode():
    spec = get_spec("free_space")
    weights = harness.calibrate_weights(spec, seed=0)
    return harness.run_single(BaselineKind.SPO, spec, CFG, 0, weights, **DRIFT)


def _errors(m, records=None):
    return checks.episode_errors(m, CFG.control_interval, CFG.epsilon_base, records)


def test_a_real_episode_passes_every_check(episode):
    assert _errors(episode.metrics, episode.records) == []


@pytest.mark.parametrize(
    "change",
    [
        lambda m: {"hits": m.hits + 1},
        lambda m: {"idle_time": m.idle_time + CFG.control_interval},
        lambda m: {"wasted_predictions": m.generated_predictions + 1},
        lambda m: {"wasted_predictions": -1},
        lambda m: {"diagnostic": "environment diverged at tick 3"},
    ],
    ids=["hits_off_by_one", "idle_time", "wasted_above_generated", "wasted_negative", "diagnostic"],
)
def test_corrupted_metrics_are_rejected(episode, change):
    corrupted = dataclasses.replace(episode.metrics, **change(episode.metrics))
    assert _errors(corrupted)


def _replace_first(records, outcome, **fields):
    i = next(i for i, r in enumerate(records) if r.outcome is outcome)
    return records[:i] + [dataclasses.replace(records[i], **fields)] + records[i + 1 :]


def test_hit_above_epsilon_is_rejected(episode):
    records = _replace_first(episode.records, Outcome.HIT, error=CFG.epsilon_base * 1.01)
    assert _errors(episode.metrics, records)


@pytest.mark.parametrize("outcome", [Outcome.MISS, Outcome.STARVED_HOLD, Outcome.AWAITING_REFILL])
def test_idle_tick_with_nonzero_action_is_rejected(episode, outcome):
    moving = ActionVector([0.1] * 8)
    records = _replace_first(episode.records, outcome, action_executed=moving)
    assert _errors(episode.metrics, records)


def test_claims_reject_spo_idling_or_wasting_more(episode):
    m = episode.metrics
    calm = dataclasses.replace(m, holds=0, awaiting=0, misses=0, wasted_predictions=0)
    busy = dataclasses.replace(m, wasted_predictions=m.generated_predictions)
    ok = {"spo": [calm], "blocking": [m], "nftc": [busy], "t1sc": [m]}
    assert checks.claim_errors("env", ok) == []
    assert checks.claim_errors("env", dict(ok, blocking=[calm]))
    assert checks.claim_errors("env", dict(ok, nftc=[calm]))


def _response(kind, step_index=7):
    spec = get_spec("free_space")
    horizon = harness.FIXED_HORIZON[kind]
    cloud = CloudSession(CFG, make_policy(spec), make_model(spec), horizon)
    req = RolloutRequest(StateVector([0.0] * 8), violation_error=0.0, step_index=step_index)
    return cloud.handle(req)


def test_response_checks():
    spo, blocking = _response(BaselineKind.SPO), _response(BaselineKind.BLOCKING)
    assert checks.response_errors(3, 7, (3, spo), False, CFG.k_min, CFG.k_max) == []
    assert checks.response_errors(3, 7, (3, blocking), True, CFG.k_min, CFG.k_max) == []
    gap = RolloutResponse(spo.tuples[:1] + spo.tuples[2:], spo.horizon_used)
    assert checks.response_errors(3, 7, (3, gap), False, CFG.k_min, CFG.k_max)
    assert checks.response_errors(3, 6, (3, spo), False, CFG.k_min, CFG.k_max)
    assert checks.response_errors(4, 7, (3, spo), False, CFG.k_min, CFG.k_max)
    assert checks.response_errors(3, 7, (3, spo), True, CFG.k_min, CFG.k_max)
    short = RolloutResponse(spo.tuples[:1], 1)
    assert checks.response_errors(3, 7, (3, short), False, CFG.k_min, CFG.k_max)


def test_scaler_divides_by_the_mean_reference_time_around_each_call(monkeypatch):
    samples = iter([hostspeed.REF_S, 3 * hostspeed.REF_S, 5 * hostspeed.REF_S])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples))
    scaler = hostspeed.Scaler()
    assert scaler.scale(2.0) == pytest.approx(1.0)
    assert scaler.scale(4.0) == pytest.approx(1.0)
    assert scaler.speed() == pytest.approx(1 / 3)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["compare", "serve_spo", "serve_blocking"]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["compare", "serve_spo", "serve_blocking"])
def test_shortest_run_prints_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert f"{name} " in out.stdout and f" {unit}\n" in out.stdout
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "compare", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_server_child_is_reaped_when_the_body_fails():
    with pytest.raises(RuntimeError):
        with ServerChild(BaselineKind.SPO, 0) as server:
            raise RuntimeError("client failed")
    assert server.proc.returncode is not None


def test_server_child_is_reaped_when_it_fails_to_start(monkeypatch):
    started = []
    popen = subprocess.Popen

    def recording_popen(*args, **kwargs):
        started.append(popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(serve_workload.subprocess, "Popen", recording_popen)
    with pytest.raises(RuntimeError, match="did not start"):
        ServerChild(BaselineKind.SPO, 0, args=("--kmin", "0"))
    assert len(started) == 1 and started[0].returncode is not None


def test_replay_counts_a_response_that_differs_from_the_in_process_one():
    work = Replay(BaselineKind.BLOCKING, 0)
    work.expected[0] = work.expected[0][:-1] + bytes([work.expected[0][-1] ^ 1])
    with ServerChild(BaselineKind.BLOCKING, 0) as server:
        result = work.one_pass(server.port, hostspeed.Scaler())
    assert result["attempted"] == len(work.requests)
    assert len(result["failures"]) == 1 and "request 1:" in result["failures"][0]
