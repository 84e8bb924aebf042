"""Golden simulated costs: payloads and per-phase seconds pinned to exact values.

Every registered backend, sharded fleets over PIM children and a two-cluster
IM-PIR server answer the same seeded queries through ``engine.answer`` (one
query on an explicit lane) and ``engine.answer_many`` (one flush).  The
payload hashes and each query's ``breakdown.durations`` must equal the values
in ``golden_costs.json`` with exact float equality: refactoring the scan path
may change wall-clock speed, never a retrieved byte or a simulated second.

Regenerate the file only for a deliberate cost-model change, and say so in
the change log::

    PYTHONPATH=src python tests/test_golden_costs.py > tests/golden_costs.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.core.config import IMPIRConfig
from repro.core.engine import available_backends, create_server
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.pir.database import Database

GOLDEN_PATH = Path(__file__).with_name("golden_costs.json")

NUM_RECORDS = 300
RECORD_SIZE = 24
INDICES = (0, 1, 150, 299, 77)

#: Cases beyond the registered backends' defaults: ``(builder kind, kwargs,
#: lane for the single-query path)``.
EXTRA_CASES = {
    "im-pir-streamed/segments": ("im-pir-streamed", {"segment_records": 64}, 0),
    "sharded/im-pir": ("sharded", {"child_kind": "im-pir", "num_shards": 3}, 0),
    "sharded/im-pir-streamed": (
        "sharded",
        {"child_kind": "im-pir-streamed", "num_shards": 2, "segment_records": 40},
        0,
    ),
    "im-pir/2-clusters/lane-1": (
        "im-pir",
        {
            "config": IMPIRConfig(
                pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2
            )
        },
        1,
    ),
}


def _cases() -> Dict[str, tuple]:
    cases = {name: (name, {}, 0) for name in available_backends()}
    cases.update(EXTRA_CASES)
    return cases


def _row(result) -> Dict[str, object]:
    return {
        "payload_sha256": hashlib.sha256(result.answer.payload).hexdigest(),
        "durations": dict(result.breakdown.durations),
    }


def capture(case: str) -> Dict[str, List[Dict[str, object]]]:
    """Answer the seeded queries on ``case`` both ways; return the rows."""
    kind, kwargs, lane = _cases()[case]
    database = Database.random(NUM_RECORDS, RECORD_SIZE, seed=41)
    client = PIRClient(NUM_RECORDS, RECORD_SIZE, seed=42, prg=make_prg("numpy"))
    queries = [client.query(index)[0] for index in INDICES]
    engine = create_server(kind, database, server_id=0, **kwargs).engine
    return {
        "answer": [_row(engine.answer(query, lane=lane)) for query in queries],
        "answer_many": [_row(result) for result in engine.answer_many(queries).results],
    }


def _golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_simulated_costs_and_payloads_match_golden(case):
    assert capture(case) == _golden()[case]


if __name__ == "__main__":
    json.dump({case: capture(case) for case in sorted(_cases())}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
