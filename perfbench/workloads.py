"""One request per workload: a sequence of public treeinv calls on one map.

Each request function takes the treeinv API (the package, or a stand-in
in the benchmark's tests), the generated Case, and the run's Tracer.
Every public call is wrapped in a span named after the layer it enters.
The function returns its correctness checks as {name: passed}; a
request fails when one is False or when a call raises.

The oracles never reuse the timed code path for the same answer: the
inverse is checked by exact substitution (verify_inverse) and, in one
variable, against the closed-form Lagrange reversion; the two tree
sums are checked against each other; Jacobian, nilpotency, degree and
Z verdicts are checked against what the generator built.
"""

from __future__ import annotations

from math import factorial


def tree_count(V: int, d: int) -> int:
    """(V + N - 1)! / (d!)^V labeled trees in stratum V, N = (d-1)V + 1."""
    N = (d - 1) * V + 1
    return factorial(V + N - 1) // factorial(d) ** V


def strata(d: int, D: int) -> list[tuple[int, int]]:
    """The (V, d) strata tree_sum_inverse walks for degree cap D."""
    out = []
    V = 0
    while (d - 1) * V + 1 <= D:
        out.append((V, d))
        V += 1
    return out


def _parse(api, case, tr):
    with tr.span("mapfile.parse"):
        pmap = api.parse_map(case.text)
    return pmap, (pmap.n, pmap.d) == (case.n, case.d)


def invert(api, case, tr) -> dict[str, bool]:
    """parse -> fixed_point_inverse -> verify_inverse -> theorem1_check(G=)."""
    pmap, shape_ok = _parse(api, case, tr)
    with tr.span("inversion.fixed_point"):
        G = api.fixed_point_inverse(pmap, case.cap)
    tr.count("inversion.coeffs_out", sum(len(g.body.terms) for g in G))
    with tr.span("inversion.verify"):
        inverse_ok = api.verify_inverse(pmap, G, case.cap)
    points = api.default_sample_points(pmap)
    with tr.span("numeric.theorem1"):
        report = api.theorem1_check(pmap, case.cap, points, tol=1e-6, G=G)
    tr.count("numeric.points", len(points))
    checks = {"shape": shape_ok, "verify_inverse": inverse_ok, "theorem1": report.passed}
    if case.lagrange_a is not None:
        oracle = api.lagrange_oracle_1d(case.d, case.lagrange_a, case.cap)
        checks["lagrange"] = G == [oracle]
    return checks


def treesum(api, case, tr) -> dict[str, bool]:
    """parse -> labeled tree sum -> grouped tree sum -> labeled == grouped -> verify.

    A labeled call is cold when it reaches a stratum no earlier request
    of the run reached, so it pays the full labeled-tree walk; otherwise
    the package's census cache serves it and it is warm.
    """
    pmap, shape_ok = _parse(api, case, tr)
    fresh = [s for s in strata(case.d, case.cap) if s not in tr.strata_seen]
    tr.strata_seen.update(fresh)
    layer = "trees.labeled_cold" if fresh else "trees.labeled_warm"
    tr.count("trees.trees_walked", sum(tree_count(V, d) for V, d in fresh))
    with tr.span(layer):
        labeled = api.tree_sum_inverse(pmap, case.cap, method="labeled")
    with tr.span("trees.grouped"):
        grouped = api.tree_sum_inverse(pmap, case.cap, method="grouped")
    with tr.span("inversion.verify"):
        inverse_ok = api.verify_inverse(pmap, labeled, case.cap)
    return {"shape": shape_ok, "labeled_eq_grouped": labeled == grouped, "verify_inverse": inverse_ok}


def identities(api, case, tr) -> dict[str, bool]:
    """parse -> analyze -> chain/loop tensors -> degree probe -> Z checks.

    Known answers: a unit map has M of order case.nilpotency, so the
    k-chain vanishes iff k >= that order and every loop vanishes; a
    non-unit map (tr M != 0 by construction) has no vanishing chain and
    a nonzero 1-loop.  Z = 1 exactly for unit maps, and Z * JF(G) = 1
    for every map.
    """
    pmap, shape_ok = _parse(api, case, tr)
    checks = {"shape": shape_ok}
    with tr.span("jacobian.analyze"):
        verdict = api.analyze(pmap)
    checks["unit"] = verdict.unit_jacobian == case.unit
    checks["nilpotency"] = verdict.nilpotency_order == case.nilpotency
    checks["traces"] = verdict.traces_vanish == case.unit
    for k in range(1, case.chain_k + 1):
        with tr.span("jacobian.chain"):
            chain = api.symmetrized_chain_tensor(pmap, k)
        with tr.span("jacobian.loop"):
            loop = api.symmetrized_loop_tensor(pmap, k)
        if case.unit:
            checks[f"chain{k}"] = (not chain) == (k >= case.nilpotency)
            checks[f"loop{k}"] = not loop
        else:
            checks[f"chain{k}"] = bool(chain)
            if k == 1:
                checks["loop1"] = bool(loop)
    if case.probe_cap is not None:
        with tr.span("inversion.poly_degree"):
            degree = api.polynomial_inverse_degree(pmap, case.probe_cap)
        checks["inverse_degree"] = degree == case.inverse_degree
    with tr.span("partition.report"):
        report = api.partition_report(pmap, case.cap)
    checks["z_one"] = report.self_normalized == case.unit
    with tr.span("partition.z_identity"):
        checks["z_identity"] = api.verify_z_identity(pmap, case.cap)
    if case.unit:
        with tr.span("partition.self_norm"):
            checks["self_norm"] = api.check_self_normalization(pmap, case.cap)
    return checks


REQUESTS = {"invert": invert, "treesum": treesum, "identities": identities}
