"""Pins the bytes the program emits.

One sha256 over the chain dumps and ``metrics.csv`` of fixed-seed runs of
models 1-4 under non-greedy and greedy publishing. A change that alters any
emitted byte (transaction bytes, signatures, block times, metrics) changes
the digest; such a change must say which outputs move and why, and update
the value here.
"""

import hashlib
import io

from chorchain import harness as H

FINGERPRINT = "7d7891910ddedf4626fbeb7600cf43be94382c70cdebdd027d9f8d818dc33d31"


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
