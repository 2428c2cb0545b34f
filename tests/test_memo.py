"""The per-map memo: what it shares, what it must not, and that it cannot go stale."""

from __future__ import annotations

import pytest

from treeinv import inversion, jacobian
from treeinv.catalog import catalog, get_fixture, random_map
from treeinv.errors import GuardExceededError
from treeinv.inversion import check_quadratic_nilpotent_theorem, polynomial_inverse_degree
from treeinv.jacobian import analyze, symmetrized_chain_tensor, symmetrized_loop_tensor
from treeinv.numeric import default_sample_points, theorem1_check
from treeinv.partition import (
    check_self_normalization,
    log_z_series,
    partition_report,
    verify_z_identity,
    z_series,
)
from treeinv.poly import Poly
from treeinv.tensormap import SymTensor, jacobian_det, jacobian_power


def test_tensor_is_read_only():
    pmap = get_fixture("random-2-2")
    with pytest.raises(AttributeError):
        pmap.tensor = SymTensor(2, 2)
    with pytest.raises(TypeError):
        pmap.tensor.entries[(0, (0, 0))] = 1
    with pytest.raises(AttributeError):
        pmap.tensor.n = 3


def test_overwritten_powers_break_chain_and_loop_agreement():
    pmap = random_map(2, 2, seed=31)
    assert not jacobian_power(pmap, 2).trace().is_zero()
    # a wrong packed M^2 in the memo, before its trace is taken: the
    # coefficient side now disagrees with the contraction
    powers = pmap._memo["M^k"]
    powers._powers[1] = [
        [(den, {key: 2 * v for key, v in nums.items()}) for den, nums in row]
        for row in powers.power(2)
    ]
    with pytest.raises(AssertionError):
        symmetrized_chain_tensor(pmap, 2)
    with pytest.raises(AssertionError):
        symmetrized_loop_tensor(pmap, 2)


def test_chain_and_loop_share_one_walk(monkeypatch):
    pmap = random_map(3, 2, seed=32)
    walks = []
    real = jacobian._walk_chains

    def counted(pmap, k, K):
        walks.append(k)
        return real(pmap, k, K)

    monkeypatch.setattr(jacobian, "_walk_chains", counted)
    for k in (1, 2):
        symmetrized_chain_tensor(pmap, k)
        symmetrized_loop_tensor(pmap, k)
        symmetrized_chain_tensor(pmap, k)
    assert walks == [1, 2]


def test_overwritten_chain_walk_breaks_chain_and_loop_agreement():
    pmap = random_map(2, 2, seed=31)
    symmetrized_chain_tensor(pmap, 2)
    den, walked = pmap._memo[("chain", 2)]
    assert any(prod[i][i] for prod in walked.values() for i in range(2))
    # a wrong walk in the memo: the contraction now disagrees with the powers of M
    pmap._memo[("chain", 2)] = den, {
        mu: [[2 * v for v in row] for row in prod] for mu, prod in walked.items()
    }
    with pytest.raises(AssertionError):
        symmetrized_chain_tensor(pmap, 2)
    with pytest.raises(AssertionError):
        symmetrized_loop_tensor(pmap, 2)


def test_overwritten_det_breaks_analyze_agreement():
    nonunit = get_fixture("random-2-2")
    jacobian_det(nonunit)
    nonunit._memo["det"] = Poly.const(2, 1)
    with pytest.raises(AssertionError):
        analyze(nonunit)

    unit = get_fixture("triangular-3-2")
    jacobian_det(unit)
    unit._memo["det"] = Poly.const(3, 1) + Poly.variable(3, 0)
    with pytest.raises(AssertionError):
        analyze(unit)


def test_det_guard_checked_before_memo():
    pmap = get_fixture("random-2-2")
    jacobian_det(pmap)
    with pytest.raises(GuardExceededError):
        jacobian_det(pmap, guard=1)


def _answers(pmap, D: int) -> dict:
    out = {
        "log_z": log_z_series(pmap, D),
        "z": z_series(pmap, D),
        "z_identity": verify_z_identity(pmap, D),
        "report": vars(partition_report(pmap, D)),
    }
    if D > pmap.gabber_bound():
        out["degree"] = polynomial_inverse_degree(pmap, D)
    if analyze(pmap).unit_jacobian:
        out["self_norm"] = check_self_normalization(pmap, D)
    if jacobian_power(pmap, 2).is_zero():
        out["quadratic"] = check_quadratic_nilpotent_theorem(pmap, D)
    return out


@pytest.mark.parametrize("pmap", catalog(), ids=lambda p: p.name)
def test_small_cap_after_large_equals_fresh_map(pmap):
    large = max(12, pmap.gabber_bound() + 1)
    _answers(pmap, large)
    fresh = get_fixture(pmap.name)
    for D in (large - 1, 5, 1):
        assert _answers(pmap, D) == _answers(fresh, D), D
        fresh = get_fixture(pmap.name)



def test_inverse_consumers_share_the_memoized_G(monkeypatch):
    pmap = random_map(2, 2, seed=34)
    runs = []
    real = inversion.fixed_point_inverse

    def counted(pmap, D):
        runs.append(D)
        return real(pmap, D)

    monkeypatch.setattr(inversion, "fixed_point_inverse", counted)
    report = inversion.invert_report(pmap, 8)
    theorem1_check(pmap, 6, default_sample_points(pmap))
    for leaves in ((0,), (0, 1), (1, 1, 0)):
        inversion.correlation_tensor(pmap, 0, leaves)
    assert runs == [8]
    assert report.series == real(pmap, 8)
    assert theorem1_check(pmap, 6, default_sample_points(pmap)) == theorem1_check(
        pmap, 6, default_sample_points(pmap), G=real(pmap, 6)
    )


def test_invert_report_still_verifies_the_memoized_G(monkeypatch):
    pmap = random_map(2, 2, seed=35)
    inversion.inverse_series(pmap, 8)
    monkeypatch.setattr(inversion, "verify_inverse", lambda pmap, G, D: False)
    with pytest.raises(AssertionError, match="verification"):
        inversion.invert_report(pmap, 8)
