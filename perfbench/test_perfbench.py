"""The benchmark's own tests, on tiny shapes (a few seconds in all)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import run
from perfbench.report import tail
from perfbench.spans import Span, coverage, self_seconds, union
from perfbench.workloads import BatchLarge, FleetRW

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, *argv: str):
    status = run.main(list(argv))
    lines = capsys.readouterr().out.splitlines()
    return status, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_printed_metrics_match_benchmark_json(capsys, workload, trace):
    status, lines, result = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--tiny",
    )
    assert status == 0, lines
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    expected = {metric["name"]: metric["unit"] for metric in declared}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in expected.items():
        assert any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines)


def _inject_wrong_byte(client, nth: int = 3) -> None:
    """Flip one bit of the ``nth`` record ``client`` reconstructs."""
    reconstruct = client.reconstruct
    calls = [0]

    def corrupted(answers):
        record = reconstruct(answers)
        calls[0] += 1
        if calls[0] == nth:
            record = bytes([record[0] ^ 1]) + record[1:]
        return record

    client.reconstruct = corrupted


def test_injected_wrong_byte_is_counted(capsys, monkeypatch):
    setup = BatchLarge.setup

    def faulty_setup(self, hub=True):
        state = setup(self, hub)
        _inject_wrong_byte(state.client)
        return state

    monkeypatch.setattr(BatchLarge, "setup", faulty_setup)
    status, lines, result = _run(
        capsys, "--workload", "batch-large", "--seed", "3", "--seconds", "0.2", "--tiny",
    )
    assert status == run.EXIT_WRONG
    assert not result["correct"] and result["failed"] >= 1
    assert any(line.startswith("error_frac ") and not line.startswith("error_frac 0 ") for line in lines)
    assert any(line.startswith("offending: index ") for line in lines)


def test_fleet_rw_deterministic_figures_repeat_for_one_seed():
    workload = FleetRW(7, tiny=True)
    episodes = [workload.drive(workload.setup(), 0.0).episode for _ in range(2)]
    for key in ("sim_retrievals_per_s", "migrations", "cache_hit_frac", "records_sha256"):
        assert episodes[0][key] == episodes[1][key]
    assert episodes[0]["migrations"] >= 1 and episodes[0]["cache_hit_frac"] > 0


def test_self_time_and_coverage_arithmetic():
    spans = [
        Span(1, "outer", 0.0, 10.0, None, None, 1),
        Span(2, "inner", 2.0, 5.0, 1, None, 1),
        Span(3, "inner", 4.0, 6.0, 1, None, 1),
        Span(4, "other", 20.0, 21.0, None, None, 1),
    ]
    assert union([(4.0, 6.0), (2.0, 5.0)]) == [(2.0, 6.0)]
    assert self_seconds(spans)[1] == pytest.approx(6.0)
    assert coverage(spans, [(0.0, 10.0), (15.0, 25.0)]) == pytest.approx(11.0 / 20.0)


def test_tail_keeps_ten_independent_samples_beyond():
    assert tail(list(range(1000)), 1000)[0] == 99.0
    assert tail(list(range(100)), 100)[0] == 90.0
    assert tail(list(range(5)), 5)[0] == 50.0
    # 1600 retrievals served by 100 flushes of 16: the flushes count.
    assert tail(list(range(1600)), 100)[0] == 90.0
