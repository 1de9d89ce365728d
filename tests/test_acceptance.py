"""Acceptance gate: ten product-level criteria, one pass/fail line each.

Criteria 4-7 share one batch of benchmark runs (module-scoped fixtures) so the
whole gate stays well inside its runtime budget.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from spo import cli
from spo.ahs import AhsState, record_violation, update_horizon
from spo.edge import Outcome
from spo.environments import get_spec
from spo.harness import BaselineKind, calibrate_weights, run_single
from spo.sockets import edge_connect_run
from spo.transport import decode_tuple, encode_tuple
from spo.types import (
    ActionVector,
    SpeculativeTuple,
    SpoConfig,
    StateVector,
    WeightMatrix,
)
from spo.verifier import verify

CFG = SpoConfig()  # 150 +/- 30 ms RTT, 50 Hz, epsilon 20, K in [2, 10], beta 1
DRIFT_BIAS = 8e-4
DRIFT_NOISE = 2e-4
SEEDS = list(range(10))


def _report(n: int, detail: str) -> None:
    print(f"[PASS] criterion {n}: {detail}")


@pytest.fixture(scope="module")
def drifted_runs():
    """tight_tolerance / Drifted model runs shared by criteria 4, 5, and 7."""
    spec = get_spec("tight_tolerance")
    weights = calibrate_weights(spec, seed=CFG.rng_seed)
    runs = {}
    for kind in (BaselineKind.SPO, BaselineKind.NFTC, BaselineKind.BLOCKING):
        runs[kind] = [
            run_single(
                kind, spec, CFG, seed, weights,
                model_kind="drifted", drift_bias=DRIFT_BIAS, drift_noise=DRIFT_NOISE,
            )
            for seed in SEEDS
        ]
    return runs


@pytest.fixture(scope="module")
def oracle_run():
    """free_space / Oracle run shared by criteria 6 and 7."""
    spec = get_spec("free_space")
    weights = calibrate_weights(spec, seed=CFG.rng_seed)
    return run_single(BaselineKind.SPO, spec, CFG, 0, weights)


def test_criterion_1_ahs_convergence_bound():
    s = AhsState.initial(CFG)
    assert s.horizon == 2
    updates = 0
    while s.horizon < CFG.k_max:
        s = update_horizon(s, CFG.epsilon_base)
        updates += 1
    assert updates == 8
    assert s.horizon == 10
    _report(1, f"K reached {s.horizon} from 2 in exactly {updates} updates")


def test_criterion_2_contraction_law_fuzz():
    rng = np.random.default_rng(0xA1)
    n = 100_000
    for _ in range(n):
        k_min = int(rng.integers(1, 5))
        k_max = int(rng.integers(k_min + 1, k_min + 15))
        k = int(rng.integers(k_min, k_max + 1))
        eps = float(rng.uniform(0.1, 100.0))
        e_miss = eps * float(rng.uniform(1.0 + 1e-9, 50.0))
        s = AhsState(horizon=k, k_min=k_min, k_max=k_max, beta=1)
        s = update_horizon(record_violation(s, e_miss), eps)
        expected = max(k_min, min(k_max, math.floor(k * eps / e_miss)))
        assert s.horizon == expected
        assert k_min <= s.horizon <= k_max
    _report(2, f"{n} fuzzed contractions matched max(K_min, floor(K*eps/e_miss)) exactly")


def test_criterion_3_single_cycle_detection():
    rng = np.random.default_rng(0xA3)
    n = 1_000
    eps = CFG.epsilon_base
    for _ in range(n):
        d = int(rng.integers(1, 24))
        w = WeightMatrix(rng.uniform(0.05, 10.0, d))
        predicted = rng.normal(0.0, 1.0, d)
        direction = rng.normal(0.0, 1.0, d)
        if not direction.any():
            direction[0] = 1.0
        unit = direction / math.sqrt(float(np.dot(w.inverse_variances, direction**2)))
        disturbed = predicted + unit * eps * float(rng.uniform(1.0 + 1e-6, 25.0))
        tup = SpeculativeTuple(StateVector(predicted), ActionVector(np.zeros(d)), 0)
        out = verify(StateVector(disturbed), tup, w, eps)
        assert not out.is_hit
        assert out.error > eps
    _report(3, f"{n}/{n} beyond-tube disturbances classified Miss in the same cycle")


def test_criterion_4_idle_time_reduction(drifted_runs):
    spo_idle = float(np.mean([r.metrics.idle_time for r in drifted_runs[BaselineKind.SPO]]))
    blk_idle = float(np.mean([r.metrics.idle_time for r in drifted_runs[BaselineKind.BLOCKING]]))
    assert blk_idle > 0
    ratio = spo_idle / blk_idle
    # 60% reduction with >= 5 pp margin: SPO idle at most 35% of Blocking's.
    assert ratio <= 0.35
    assert all(r.metrics.success for r in drifted_runs[BaselineKind.SPO])
    _report(
        4,
        f"mean idle over {len(SEEDS)} seeds: SPO {spo_idle:.2f}s vs Blocking "
        f"{blk_idle:.2f}s (ratio {ratio:.3f} <= 0.35, reduction {100 * (1 - ratio):.1f}%)",
    )


def test_criterion_5_wasted_prediction_reduction(drifted_runs):
    spo_wasted = float(np.mean(
        [r.metrics.wasted_predictions for r in drifted_runs[BaselineKind.SPO]]
    ))
    nftc_wasted = float(np.mean(
        [r.metrics.wasted_predictions for r in drifted_runs[BaselineKind.NFTC]]
    ))
    assert nftc_wasted > 0
    ratio = spo_wasted / nftc_wasted
    assert ratio <= 0.60
    _report(
        5,
        f"mean wasted predictions: SPO {spo_wasted:.1f} vs NFTC {nftc_wasted:.1f} "
        f"(ratio {ratio:.3f} <= 0.60, reduction {100 * (1 - ratio):.1f}%)",
    )


def test_criterion_6_oracle_steady_state(oracle_run):
    m = oracle_run.metrics
    assert m.success
    assert m.misses == 0 and m.hits > 0  # verification hit rate 1.0 throughout
    horizons = oracle_run.horizons
    saturated_from = horizons.index(CFG.k_max)
    post = horizons[saturated_from:]
    assert post and all(h == CFG.k_max for h in post)
    mean_k_post = sum(h * h for h in post) / sum(post)
    assert mean_k_post == 10.0
    _report(
        6,
        f"post-warm-up hit rate {m.hits}/{m.hits + m.misses} = 1.0; horizon "
        f"saturated at K_max={CFG.k_max} from refill {saturated_from + 1} onward",
    )


def test_criterion_7_safety_invariant(drifted_runs, oracle_run):
    all_runs = [oracle_run] + [r for runs in drifted_runs.values() for r in runs]
    audited = 0
    for run in all_runs:
        last_flush_source = -1
        for rec in run.records:
            audited += 1
            if rec.outcome in (Outcome.HIT, Outcome.DIRECT):
                # Flush atomicity: never execute a tuple generated before the
                # most recent verification failure.
                assert rec.source_request_id > last_flush_source
            else:
                assert rec.action_executed.is_zero()
                if rec.outcome is Outcome.MISS:
                    last_flush_source = rec.source_request_id
    _report(
        7,
        f"{audited} step records across {len(all_runs)} runs: every non-Hit tick "
        "held at zero action; no pre-flush tuple executed post-flush",
    )


def test_criterion_8_wire_format():
    rng = np.random.default_rng(0xA8)
    n = 10_000
    for i in range(n):
        d_s = int(rng.integers(1, 64))
        d_a = int(rng.integers(1, 12))
        t = SpeculativeTuple(
            StateVector(rng.uniform(-1e3, 1e3, d_s).astype(np.float32).astype(np.float64)),
            ActionVector(rng.uniform(-2.0, 2.0, d_a).astype(np.float32).astype(np.float64)),
            step_index=i,
        )
        data = encode_tuple(t)
        assert len(data) == 4 * (d_s + d_a)
        back = decode_tuple(data, d_s, d_a, step_index=i)
        assert back.predicted_state == t.predicted_state  # float32-exact identity
        assert back.action == t.action
    for d_s in (141, 148, 295):
        t = SpeculativeTuple(
            StateVector(rng.uniform(-1.0, 1.0, d_s)), ActionVector(np.zeros(8)), 0
        )
        assert len(encode_tuple(t)) == 4 * (d_s + 8)
    assert 4 * (148 + 8) == 624
    _report(8, f"{n} random tuples round-tripped float32-exact; "
               "sizes at d_s=141/148/295 match 4(d_s+d_a), 624 bytes at d_s=148")


def test_criterion_9_compare_determinism(tmp_path):
    args = ["compare", "--env", "free_space", "--seeds", "3", "--seed", "0"]
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(args + ["--out", str(out)]) == 0
        outputs.append((out / "compare_free_space.csv").read_bytes())
    assert outputs[0] == outputs[1]
    _report(9, f"two compare invocations produced byte-identical CSVs "
               f"({len(outputs[0])} bytes)")


def test_criterion_10_socket_mode_consistency():
    spec = get_spec("free_space")
    weights = calibrate_weights(spec, seed=CFG.rng_seed)
    virtual = run_single(BaselineKind.SPO, spec, CFG, 0, weights).metrics

    proc = subprocess.Popen(
        [sys.executable, "-m", "spo.cli", "serve", "--env", "free_space",
         "--kind", "spo", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("serving on port ")
        port = int(line.rsplit(" ", 1)[1])
        start = time.monotonic()
        socket_metrics = edge_connect_run(
            ("127.0.0.1", port), spec, CFG, BaselineKind.SPO, 0, weights
        ).metrics
        elapsed = time.monotonic() - start
    finally:
        proc.terminate()
        proc.wait(timeout=5)
    assert socket_metrics.success
    diff = abs(socket_metrics.hit_rate - virtual.hit_rate)
    assert diff <= 0.05
    _report(
        10,
        f"socket-mode hit rate {socket_metrics.hit_rate:.3f} vs virtual "
        f"{virtual.hit_rate:.3f} (|diff| {diff:.3f} <= 0.05; real-time run "
        f"{elapsed:.1f}s over loopback, separate server process)",
    )
