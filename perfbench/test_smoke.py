"""Smoke tests of the benchmark itself: tiny runs of every workload, and a
planted wrong reference that must show in the failure count and exit code.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from quiverhom import algfile, cli, igusa_todorov  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_family_counts():
    assert inputs.enumerate_family_counts() == inputs.FAMILY_COUNTS
    assert sum(inputs.FAMILY_COUNTS.values()) * len(inputs.FAMILY_KS) == 5376


def test_family_draws_are_orbit_representatives():
    rng = random.Random(3)
    for nv, na in inputs.FAMILY_COUNTS:
        combo = inputs.draw_family_quiver(rng, nv, na)
        assert inputs.canonical_combo(nv, combo) == combo
        assert inputs.is_connected(nv, combo) and len(combo) == na


def test_monomial_sampler_dimension_matches_the_program():
    rng = random.Random(4)
    for _ in range(20):
        text, nv, arrows, gens = inputs.draw_monomial(rng)
        vertices = [str(v + 1) for v in range(nv)]
        assert algfile.parse_algebra_text(text).dimension == \
            inputs.monomial_dimension(vertices, arrows, gens, 80)


TINY = {
    "combinatorial": lambda state: state["pool"][:6],
    "linear_q": lambda state: [
        workloads.DecomposeQuery("alpha", 4, 1), workloads.DecomposeQuery("beta", 2, 2),
        workloads.PhiQuery(2),
        workloads.Sec3IsoQuery("omega_m", Fraction(3, 2)),
        workloads.Sec3IsoQuery("omega_n", Fraction(-1)),
        workloads.Sec3IsoQuery("distinct", Fraction(1), Fraction(2, 3)),
    ],
    "syzygy_fp": lambda state: [workloads.PdQuery(6), workloads.SyzygyQuery("2", 4)],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_queries_match_their_references(name):
    state = workloads.WORKLOADS[name].setup(1)
    tally = run.Tally(speed.SpeedProbe())
    run.run_round(TINY[name](state), state, tally, workloads.Mismatch)
    assert tally.failed == 0, tally.errors
    assert len(tally.intervals) == len(TINY[name](state))


def test_one_round_prints_every_end_to_end_metric(capsys):
    assert run.main(["--workload", "combinatorial", "--seed", "2", "--seconds", "0.01"]) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["unit"] == units[k] and m["value"] > 0 for k, m in result["metrics"].items())


def test_planted_wrong_reference_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(inputs, "truncated_gldim", lambda nv, arrows, k: 99)
    assert run.main(["--workload", "combinatorial", "--seed", "2", "--seconds", "0.01"]) == 1
    result = last_json(capsys)
    assert not result["correct"] and result["failed"] > 0


def test_planted_wrong_linear_reference_is_counted(monkeypatch):
    monkeypatch.setattr(workloads, "expected_decomposition", lambda family, i, n: {"S_1": n})
    state = workloads.linear_q_setup(0)
    tally = run.Tally(speed.SpeedProbe())
    run.run_round([workloads.DecomposeQuery("alpha", 1, 1)], state, tally, workloads.Mismatch)
    assert tally.failed == 1


def test_raising_query_is_counted():
    class Broken:
        kind = "broken"

        def run(self, state):
            raise ValueError("boom")

    tally = run.Tally(speed.SpeedProbe())
    run.run_round([Broken()], {}, tally, workloads.Mismatch)
    assert tally.failed == 1 and len(tally.intervals) == 1


def test_tracing_patches_every_binding_and_restores_it():
    original = igusa_todorov.phi_of_reps
    assert cli.phi_of_reps is original
    tracer = tracing.Tracer()
    with tracing.Installed(tracer, spans=True, counters=True):
        assert cli.phi_of_reps is igusa_todorov.phi_of_reps is not original
        state = workloads.syzygy_fp_setup(0)
        tally = run.Tally(speed.SpeedProbe())
        run.run_round([workloads.SyzygyQuery("1", 2)], state, tally, workloads.Mismatch)
    assert cli.phi_of_reps is igusa_todorov.phi_of_reps is original
    assert tracer.calls["reps.syzygy"] == 2 and tracer.calls["algebra.build"] == 1
    name, start, end, parent = tracer.spans[-1]
    assert start <= end and parent >= -1
    metrics = tracing.layer_metrics(tracer, tracer.counts)
    assert metrics["fields.fp_ops"][0] > 0


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "combinatorial", "--seed", "1", "--seconds", "0.01",
                     "--trace", "1"]) == 0
    result = last_json(capsys)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(m["value"] > 0 for m in result["metrics"].values() if m["unit"] == "s")
