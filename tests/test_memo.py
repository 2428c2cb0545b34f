"""The per-map memo: what it shares, what it must not, and that it cannot go stale."""

from __future__ import annotations

from fractions import Fraction

import pytest

from treeinv import inversion, jacobian, trees
from treeinv.catalog import catalog, get_fixture, random_map
from treeinv.errors import GuardExceededError
from treeinv.inversion import (
    check_quadratic_nilpotent_theorem,
    inverse_series,
    polynomial_inverse_degree,
)
from treeinv.jacobian import analyze, symmetrized_chain_tensor, symmetrized_loop_tensor
from treeinv.numeric import default_sample_points, theorem1_check
from treeinv.plan import PLANS
from treeinv.partition import (
    check_self_normalization,
    log_z_series,
    partition_report,
    verify_z_identity,
    z_series,
)
from treeinv.poly import Series, _from_nums
from treeinv.tensormap import SymTensor, build_H, jacobian_det, jacobian_powers, norm_w
from treeinv.trees import amplitude_vector, enumerate_trees, labeled_shape_census, tree_sum_inverse


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
    assert not jacobian_powers(pmap, 2).matrix(2).trace().is_zero()
    # a wrong packed M^2 in the memo, before its trace is taken: the
    # coefficient side now disagrees with the contraction
    powers = pmap._memo["M^k"]
    powers._powers[2] = [
        [{key: 2 * v for key, v in nums.items()} for nums in row] for row in powers.power(2)
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
    nonunit._memo["det"] = Series.one(2, 2)
    with pytest.raises(AssertionError):
        analyze(nonunit)

    unit = get_fixture("triangular-3-2")
    jacobian_det(unit)
    unit._memo["det"] = Series.one(3, 3) + Series.variable(3, 0, 3)
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
    if jacobian_powers(pmap, 2).matrix(2).is_zero():
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


def test_corrupted_amplitude_is_carried_by_both_sums_and_refused_by_verify():
    # the dict route: a structure's first sighting runs no plan
    PLANS.clear()
    pmap = random_map(2, 2, seed=36)
    D = 5
    assert inversion.verify_inverse(pmap, tree_sum_inverse(pmap, D), D)
    # a wrong amplitude for the one-vertex subtree, at root index 0
    amps, addmul = pmap._memo[("amplitudes", D)]
    assert addmul is trees._addmul
    vec = amps[((), ())]
    assert vec[0]
    amps[((), ())] = [{k: 2 * v for k, v in vec[0].items()}] + vec[1:]
    labeled = tree_sum_inverse(pmap, D, method="labeled")
    grouped = tree_sum_inverse(pmap, D, method="grouped")
    # both sums read the shared memo, so only substitution sees the fault
    assert labeled == grouped
    assert not inversion.verify_inverse(pmap, labeled, D)


def _warm_tree_plans(pmap, D: int) -> None:
    """Compile the contraction plan of pmap's structure, on copies of pmap, and run both methods on it."""
    PLANS.clear()
    for _ in range(2):
        fresh = type(pmap)(pmap.tensor)
        tree_sum_inverse(fresh, D)
        tree_sum_inverse(fresh, D, method="grouped")


def test_corrupted_slot_is_carried_by_both_sums_and_refused_by_verify():
    pmap = random_map(2, 2, seed=36)
    D = 5
    _warm_tree_plans(pmap, D)
    want = tree_sum_inverse(pmap, D)
    assert inversion.verify_inverse(pmap, want, D)
    amps, addmul = pmap._memo[("amplitudes", D)]
    (slots,) = addmul.args
    assert addmul.func is trees._addmul_slots and type(slots) is list
    assert amps is PLANS.plans[("trees", 2, 2, D, tuple(pmap.tensor._scaled[1]))].amps
    # the one-vertex subtree's amplitude at root index 0, at the slots the
    # contraction plan records it in
    _, at = amps[((), ())][0]
    assert any(slots[s] for s in at)
    for s in at:
        slots[s] *= 2
    labeled = tree_sum_inverse(pmap, D, method="labeled")
    grouped = tree_sum_inverse(pmap, D, method="grouped")
    # both sums read the shared slot list, so only substitution sees the fault
    assert labeled == grouped != want
    assert not inversion.verify_inverse(pmap, labeled, D)
    PLANS.clear()


def test_a_wrong_weight_in_one_sum_plan_breaks_labeled_equals_grouped(monkeypatch):
    pmap = random_map(2, 2, seed=36)
    D = 5
    _warm_tree_plans(pmap, D)
    want = tree_sum_inverse(pmap, D)
    # the first and the last shape of the grouped sum trade weights
    weights = trees._stratum_weights
    (V0, w0, s0), *middle, (V1, w1, s1) = weights(2, D, "grouped")
    assert w0 != w1

    def traded(d, cap, method):
        if method == "grouped":
            return ((V0, w1, s0), *middle, (V1, w0, s1))
        return weights(d, cap, method)

    monkeypatch.setattr(trees, "_stratum_weights", traded)
    fresh = type(pmap)(pmap.tensor)
    labeled = tree_sum_inverse(fresh, D, method="labeled")
    # on the plan route, so both methods read one run's slots
    assert fresh._memo[("amplitudes", D)][1].func is trees._addmul_slots
    assert labeled == want
    assert tree_sum_inverse(fresh, D, method="grouped") != labeled
    PLANS.clear()


@pytest.mark.parametrize("pmap", catalog(), ids=lambda p: p.name)
def test_memoized_amplitudes_equal_fresh_contractions(pmap):
    # the dict route: a structure's first sighting runs no plan
    PLANS.clear()
    n, d = pmap.n, pmap.d
    D = 3 * (d - 1) + 1
    tree_sum_inverse(pmap, D, method="grouped")
    tree_sum_inverse(pmap, D, method="labeled")
    memo, addmul = pmap._memo[("amplitudes", D)]
    assert addmul is trees._addmul
    L, _ = pmap.tensor._scaled
    for V in range(4):
        # one labeled tree of each census shape; the memo packs in base D + 1,
        # amplitude_vector in base N + 1, so compare the unpacked forms
        shapes = {s for _, s in labeled_shape_census(V, d)}
        for tree in enumerate_trees(V, d):
            shape = trees._nested_shape(tree.rooted())
            if shape in shapes:
                shapes.remove(shape)
                got = [_from_nums(n, D + 1, L**V, nums) for nums in memo[shape]]
                assert got == amplitude_vector(tree, pmap), (V, shape)
        assert not shapes
    # on the plan route, each shape's (keys, slots) pairs read one run's
    # slot list as the same Vector
    _warm_tree_plans(pmap, D)
    fresh = type(pmap)(pmap.tensor)
    tree_sum_inverse(fresh, D)
    amps, addmul = fresh._memo[("amplitudes", D)]
    assert addmul.func is trees._addmul_slots
    (slots,) = addmul.args
    assert {s: [dict(zip(keys, [slots[i] for i in at])) for keys, at in row] for s, row in amps.items()} == memo
    PLANS.clear()


def test_int_form_is_made_once_and_read_unchanged():
    pmap = random_map(3, 2, seed=33)
    tensor = pmap.tensor
    first = tensor._scaled
    assert tensor._scaled is first
    L, scaled = first
    assert all(Fraction(v, L) == tensor.entries[key] for key, v in scaled.items())
    snapshot = dict(scaled)
    # every reader of the int form: H (and through it the fixed point),
    # the tree vertex, the packed M and I - M, the chain walk and ||w||
    inverse_series(pmap, 6)
    build_H(pmap)
    tree_sum_inverse(pmap, 5, method="labeled")
    tree_sum_inverse(pmap, 5, method="grouped")
    analyze(pmap)
    symmetrized_chain_tensor(pmap, 2)
    norm_w(pmap)
    assert tensor._scaled is first
    assert first == (L, snapshot)
