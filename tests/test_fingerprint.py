"""Pins the bytes the program emits.

One sha256 over the chain dumps and ``metrics.csv`` of fixed-seed runs of
models 1-4 under non-greedy and greedy publishing, and one over the dumps,
``metrics.csv`` and trace reports of fault-injected runs. A change that
alters any emitted byte (transaction bytes, signatures, block times,
metrics, traces) changes a digest; such a change must say which outputs
move and why, and update the value here. A third digest covers the chain
queries the participants make, which reach the bytes above only through
the simulated time each one bills.
"""

import hashlib
import io
import json

from chorchain import harness as H
from chorchain.provider import ProviderChainView

FINGERPRINT = "7d7891910ddedf4626fbeb7600cf43be94382c70cdebdd027d9f8d818dc33d31"
FAULT_FINGERPRINT = "2d1afd82db42cbb171bf6dd7272007f33bb3ff057dab8f3ef5eed0b8fa192eed"
QUERY_FINGERPRINT = "0cbd035c442572b64b541c7fb0b2a1921dfc29761e19c64b58b3a5063a23ed24"


def test_fixed_seed_dumps_and_metrics_are_unchanged():
    digest = hashlib.sha256()
    for model_id in (1, 2, 3, 4):
        for greedy in (False, True):
            config = H.ScenarioConfig(
                model_id=model_id, variant="0", greedy=greedy, seed=5, repetitions=2
            )
            result = H.run_scenario(config)
            for dump in result.dumps:
                digest.update(dump.encode())
            csv = io.StringIO()
            H.write_metrics_csv(result.runs, csv)
            digest.update(csv.getvalue().encode())
    assert digest.hexdigest() == FINGERPRINT


def test_fault_injected_runs_are_unchanged():
    """Seed 5 of models 1-4, corrupting each planned handover in turn: the
    detection path, where the sender publishes an extraordinary end."""
    digest = hashlib.sha256()
    runs = 0
    for model_id in (1, 2, 3, 4):
        plan = H.build_plan(H.builtin_model(model_id), [0])
        for step in range(1, len(H.planned_handovers(plan)) + 1):
            result = H.run_scenario(H.ScenarioConfig(model_id=model_id, seed=5, fault_step=step))
            for dump in result.dumps:
                digest.update(dump.encode())
            csv = io.StringIO()
            H.write_metrics_csv(result.runs, csv)
            digest.update(csv.getvalue().encode())
            digest.update(json.dumps(result.trace_reports, sort_keys=True).encode())
            runs += 1
    assert runs == 20
    assert digest.hexdigest() == FAULT_FINGERPRINT


def test_participants_chain_queries_are_unchanged(monkeypatch):
    """Every provider query the participants make in verified runs of models
    1-4 at seed 5, greedy off and on, by method and argument, in order.
    Provider queries bill simulated time, so ``FINGERPRINT`` sees how many
    ran; this sees which ones, and in what order."""
    digest = hashlib.sha256()
    for method in ("get_transaction", "get_spender"):
        original = getattr(ProviderChainView, method)

        def logged(self, arg, method=method, original=original):
            key = arg.hex() if isinstance(arg, bytes) else f"{arg[0].hex()}:{arg[1]}"
            digest.update(f"{method} {key}\n".encode())
            return original(self, arg)

        monkeypatch.setattr(ProviderChainView, method, logged)
    for model_id in (1, 2, 3, 4):
        for greedy in (False, True):
            H.run_scenario(H.ScenarioConfig(model_id=model_id, greedy=greedy, seed=5))
    assert digest.hexdigest() == QUERY_FINGERPRINT
