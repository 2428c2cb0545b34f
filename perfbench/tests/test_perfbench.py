"""Tests of the benchmark itself: generator, oracles, metrics, tracing.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import treeinv  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# The per-layer names the benchmark promises, as its design lists them.
PROMISED_LAYER_METRICS = [
    "inversion.fixed_point_s", "inversion.fixed_point_calls", "inversion.coeffs_out",
    "inversion.verify_s", "inversion.poly_degree_s",
    "trees.labeled_cold_s", "trees.trees_walked", "trees.census_reuse_ratio",
    "trees.labeled_warm_s", "trees.grouped_s",
    "jacobian.analyze_s", "jacobian.chain_s", "jacobian.loop_s",
    "partition.report_s", "partition.z_identity_s", "partition.self_norm_s",
    "numeric.theorem1_s", "numeric.points", "mapfile.parse_s",
    "trace.overhead_rps",
]  # fmt: skip
TIMED = [n[: -len("_s")] for n in PROMISED_LAYER_METRICS if n.endswith("_s")]


class Stub:
    """treeinv with some public functions replaced."""

    def __init__(self, **overrides):
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(treeinv, name)


def first_cycle(workload, seed=0):
    return list(islice(gen.cases(workload, seed), gen.cycle_length(workload)))


def case_named(workload, kind):
    return next(c for c in first_cycle(workload) if c.name.endswith(kind))


def test_generator_is_deterministic_per_seed():
    for workload in gen.CYCLES:
        n = 2 * gen.cycle_length(workload)
        again = list(islice(gen.cases(workload, 11), n))
        assert list(islice(gen.cases(workload, 11), n)) == again
        other = list(islice(gen.cases(workload, 12), n))
        assert [c.text for c in other] != [c.text for c in again]


def test_generated_text_parses_to_the_built_map():
    for workload in gen.CYCLES:
        for case in first_cycle(workload):
            pmap = treeinv.parse_map(case.text)
            assert (pmap.n, pmap.d) == (case.n, case.d)
            assert treeinv.serialize_map(pmap) == case.text


def test_conjugator_is_unimodular():
    rng = Random(5)
    for n in (3, 4):
        A, Ainv = gen.unimodular(rng, n)
        prod = [[sum(A[i][k] * Ainv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_cheap_cases_meet_their_known_answers():
    tr = Tracer()
    for kind in ("triangular-3-2", "m2zero-2-2", "conjugated-3-2"):
        checks = workloads.identities(treeinv, case_named("identities", kind), tr)
        assert all(checks.values()), (kind, checks)
    checks = workloads.invert(treeinv, case_named("invert", "univar-2"), tr)
    assert checks.keys() >= {"verify_inverse", "theorem1", "lagrange"} and all(checks.values())


def test_injected_wrong_series_fails_a_check():
    case = case_named("invert", "univar-2")

    def wrong(pmap, D):
        G = treeinv.fixed_point_inverse(pmap, D)
        return [G[0] + treeinv.Series(treeinv.Poly.monomial((3,), Fraction(1, 7)), D)]

    checks = workloads.invert(Stub(fixed_point_inverse=wrong), case, Tracer())
    assert not checks["verify_inverse"] and not checks["lagrange"]


def test_injected_wrong_tree_sum_fails_a_check():
    case = case_named("treesum", "dense-2-3")

    def grouped_off(pmap, D, method="labeled"):
        G = treeinv.tree_sum_inverse(pmap, D, method=method)
        if method == "grouped":
            G = [G[0].scale(2)]
        return G

    checks = workloads.treesum(Stub(tree_sum_inverse=grouped_off), case, Tracer())
    assert not checks["labeled_eq_grouped"] and checks["verify_inverse"]


def test_injected_wrong_verdict_fails_a_check():
    case = case_named("identities", "triangular-3-2")

    def flipped(pmap):
        v = treeinv.analyze(pmap)
        return treeinv.JacobianVerdict(not v.unit_jacobian, v.nilpotency_order, v.traces_vanish)

    checks = workloads.identities(Stub(analyze=flipped), case, Tracer())
    assert not checks["unit"]


def test_raising_requests_count_as_failed():
    def boom(*args, **kwargs):
        raise treeinv.BudgetExceededError("injected")

    loop = run.run_loop(Stub(parse_map=boom), "identities", 0, 0, trace=False)
    assert len(loop["failures"]) == len(loop["latencies"]) == gen.cycle_length("identities")
    metrics, extra = run.end_to_end(loop, [0.1])
    assert extra["failed_ratio"] == 1.0 and metrics["throughput_rps"][0] == 0.0


def test_times_are_scaled_by_the_kernel_timings_around_them():
    meter = speed.Speedometer()
    meter.samples = [0.01, 0.01, 0.04, 0.02, 0.02, 0.02]
    assert meter.scale(3) == speed.CAL_REF_S / 0.02
    assert meter.scale(0) == speed.CAL_REF_S / 0.01
    meter.segments = [(0, 1.0, 0), (1, 0.5, 3), (1, 0.25, 4)]
    wall, ref = meter.request_seconds(2)
    assert wall == [1.0, 0.75]
    assert ref == [speed.CAL_REF_S / 0.01, 0.75 * speed.CAL_REF_S / 0.02]
    loop = run.run_loop(treeinv, "treesum", 0, 0, trace=False)
    assert len(loop["wall_latencies"]) == len(loop["latencies"]) == gen.cycle_length("treesum")
    assert all(ref > 0 and wall > 0 for ref, wall in zip(loop["latencies"], loop["wall_latencies"]))


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_spec_names_the_promised_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == ["invert", "treesum", "identities"]
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(PROMISED_LAYER_METRICS) <= names
    for layer in TIMED:
        assert {f"{layer}.calls", f"{layer}.failed"} <= names


def test_every_spec_metric_is_emitted_with_its_unit():
    loop = run.run_loop(treeinv, "invert", 0, 0, trace=True)
    assert not loop["failures"]
    e2e, _ = run.end_to_end(loop, run.measure_setup())
    layers = run.per_layer(loop)
    for section, emitted in (("end_to_end", e2e), ("per_layer", layers)):
        assert set(emitted) == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            value, unit = emitted[m["name"]]
            assert unit == m["unit"] and isinstance(value, (int, float))
    for name in ("throughput_rps", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb"):
        assert e2e[name][0] > 0
    assert layers["inversion.fixed_point.calls"][0] == gen.cycle_length("invert")


def test_traced_spans_carry_request_and_parent():
    tr = Tracer()
    with tr.request(7, enabled=True):
        workloads.invert(treeinv, case_named("invert", "univar-3"), tr)
    request_span, *calls = tr.spans
    assert request_span.name == "request" and request_span.parent is None
    assert {s.name for s in calls} == {"mapfile.parse", "inversion.fixed_point", "inversion.verify", "numeric.theorem1"}
    assert all(s.parent == request_span.id and s.request == 7 and s.start <= s.end for s in calls)


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invert", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and '"metrics"' not in out.stdout


def test_reports_from_different_backends_are_not_comparable(tmp_path, capsys):
    import compare

    paths = []
    for backend in ("pure", "compiled"):
        report = {"workload": "invert", "seconds": 40, "trace": 0, "env": {"backend": backend},
                  "metrics": {"throughput_rps": {"value": 1.0, "unit": "1/s"}}}  # fmt: skip
        paths.append(tmp_path / f"{backend}.json")
        paths[-1].write_text(json.dumps(report))
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[1])]) == 2
    assert "not comparable" in capsys.readouterr().out
    assert compare.main(["--base", str(paths[0]), "--new", str(paths[0])]) == 0
