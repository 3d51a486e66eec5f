"""Physical estimator: profile loading, board geometry, error budget,
row identities, and the parameter grid search."""

import collections
import dataclasses
import math
import os
import random
import subprocess
import sys

import pytest

from wmodexp import estimator
from wmodexp.estimator import (
    DEFAULT_MQB_BUDGETS,
    BudgetOverflow,
    ErrorBudget,
    EstimateRow,
    GridRanges,
    HardwareProfile,
    LayoutPoint,
    audit_row,
    best_under_budget,
    board_layout,
    ccz_state_error,
    estimate,
    factory_dimensions,
    grid_search,
    load_profile,
    padding_bits,
    pareto_frontier,
    parse_config,
    physical_per_logical,
    schedule,
    _variant_cost,
)

# The published n=2048, 1e-3 operating point and its reported stats; the
# reproduction tests use the same tolerance bands as the acceptance gate.
GE_POINT = LayoutPoint(L1=15, L2=27, d_off=4, g_mul=5, g_exp=5, g_sep=1024)
GE_MQB = 19.249
GE_EXPECTED_HOURS = 7.313
GE_B_TOFS = 2.698
N, NE = 2048, 3029


def shape(variant, point, n=N, n_e=NE):
    """The Schedule of point's windows, g_sep and d_off under variant."""
    cost_row = _variant_cost(variant, n, n_e, point.g_exp, point.g_mul)
    return schedule(cost_row, point.g_sep, point.d_off)


@pytest.fixture(scope="module")
def profile():
    return load_profile()


@pytest.fixture(scope="module")
def ge_row(profile):
    row = estimate(profile, GE_POINT, shape("original", GE_POINT))
    return row


# ---------------------------------------------------------------------------
# Profile and config plumbing.


def test_load_profile_without_file_gives_defaults(profile):
    assert profile == HardwareProfile()


def test_parse_config_basics():
    text = "# comment\n\np_phys = 1e-4  # trailing\nq=1.5\n"
    assert parse_config(text) == {"p_phys": 1e-4, "q": 1.5}


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_config("p_phys = 1e-3\nnot a config line\n")


def test_load_profile_rejects_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_knob = 3\n")
    with pytest.raises(ValueError, match="no_such_knob"):
        load_profile(str(bad))


def test_load_profile_overlays_user_values(tmp_path):
    over = tmp_path / "over.cfg"
    over.write_text("p_phys = 1e-4\ncycle_ns = 500\n")
    prof = load_profile(str(over))
    assert prof.p_phys == 1e-4
    assert prof.cycle_ns == 500
    assert prof.reaction_ns == HardwareProfile().reaction_ns


def test_profile_validation():
    with pytest.raises(ValueError):
        HardwareProfile(p_phys=0.0)
    with pytest.raises(ValueError):
        HardwareProfile(p_phys=1.5)
    with pytest.raises(ValueError):
        HardwareProfile(serial_overhead=0.8)


def test_unit_cell_error_fit(profile):
    # A * (p/p_thr)^((d+1)/2) at the defaults: 0.1 * 0.1^14 at d = 27.
    assert profile.unit_cell_error(27) == pytest.approx(1e-15, rel=1e-9)
    assert profile.unit_cell_error(3) == pytest.approx(1e-3, rel=1e-9)


def test_physical_per_logical_at_27():
    assert physical_per_logical(27) == 2 * 28**2 == 1568


# ---------------------------------------------------------------------------
# Layout points.


def test_layout_point_validation():
    with pytest.raises(ValueError):
        LayoutPoint(L1=27, L2=15, d_off=4, g_mul=5, g_exp=5, g_sep=1024)
    with pytest.raises(ValueError):
        LayoutPoint(L1=15, L2=15, d_off=4, g_mul=5, g_exp=5, g_sep=1024)
    with pytest.raises(ValueError):
        LayoutPoint(L1=15, L2=27, d_off=-1, g_mul=5, g_exp=5, g_sep=1024)
    with pytest.raises(ValueError):
        LayoutPoint(L1=15, L2=27, d_off=4, g_mul=0, g_exp=5, g_sep=1024)


def test_layout_point_replace_is_validated():
    assert GE_POINT._replace(d_off=5) == LayoutPoint(15, 27, 5, 5, 5, 1024)
    with pytest.raises(ValueError, match="L1 must be smaller than L2"):
        GE_POINT._replace(L1=27)
    with pytest.raises(ValueError, match="d_off must be >= 0"):
        GE_POINT._replace(d_off=-1)


def test_layout_points_sort_by_field_tuple():
    ranges = GridRanges()
    rng = random.Random(17)
    points = []
    while len(points) < 500:
        l1, l2 = rng.choice(ranges.l1), rng.choice(ranges.l2)
        if l1 < l2:
            shape = (ranges.d_off, ranges.g_mul, ranges.g_exp, ranges.g_sep)
            points.append(LayoutPoint(l1, l2, *map(rng.choice, shape)))
    by_fields = sorted(points, key=lambda p: (p.L1, p.L2, p.d_off, p.g_mul, p.g_exp, p.g_sep))
    assert sorted(points) == by_fields
    assert repr(GE_POINT) == "LayoutPoint(L1=15, L2=27, d_off=4, g_mul=5, g_exp=5, g_sep=1024)"


# ---------------------------------------------------------------------------
# Factory memo: one record per (L1, L2) on each profile, invisible to
# equality, hashing and the config keys.


def test_factory_memo_equals_fresh_computation():
    profile = HardwareProfile()
    ranges = GridRanges()
    pairs = [(l1, l2) for l1 in ranges.l1 for l2 in ranges.l2 if l1 < l2]
    assert len(pairs) == 74
    for l1, l2 in pairs:
        point = LayoutPoint(l1, l2, 2, 4, 4, 256)
        width, height, depth = factory_dimensions(profile, point)
        ccz_time = depth * profile.cycle_s * l2
        pairs_needed = math.ceil(ccz_time / profile.reaction_s / 2)
        fresh = (ccz_state_error(profile, point), width, height, ccz_time, pairs_needed)
        assert profile.factory(point) == fresh
        assert profile.factory(point._replace(d_off=9, g_sep=2048)) is profile.factory(point)


def test_factory_memo_is_per_profile(profile):
    base = profile.factory(GE_POINT).ccz_error
    noisy = dataclasses.replace(profile, p_phys=2e-3)
    assert noisy.factory(GE_POINT).ccz_error == ccz_state_error(noisy, GE_POINT)
    assert noisy.factory(GE_POINT).ccz_error != base
    assert profile.factory(GE_POINT).ccz_error == base


def test_factory_memo_is_not_part_of_the_profile(profile, tmp_path):
    profile.factory(GE_POINT)
    assert profile == HardwareProfile()
    assert hash(profile) == hash(HardwareProfile())
    assert repr(profile) == repr(HardwareProfile())
    assert "_factories" not in {f.name for f in dataclasses.fields(HardwareProfile)}
    bad = tmp_path / "memo.cfg"
    bad.write_text("_factories = 1\n")
    with pytest.raises(ValueError, match=r"unknown config keys: \['_factories'\]"):
        load_profile(str(bad))


# ---------------------------------------------------------------------------
# Board geometry. The dimensions below are frozen regression values for
# the default profile; mqb at the published point is checked against the
# acceptance band around the published 19.249 through estimate() below.


def test_factory_dimensions_at_ge_point(profile):
    assert factory_dimensions(profile, GE_POINT) == (13, 7, 5.0)


def test_board_layout_at_ge_point(profile):
    board = board_layout(profile, GE_POINT, pieces=2, piece_len=1048, registers=3)
    assert (board.width, board.height) == (99, 62)
    assert board.ccz_pairs == 7
    assert board.ccz_time_s == pytest.approx(135e-6, rel=1e-12)
    assert board.tiles == 2 * 99 * 62
    assert board.distillation_tiles == 7 * 13 * 7 * 2
    assert board.storage_tiles == board.tiles - 2 * board.distillation_tiles
    assert board.toffoli_rate == pytest.approx(2 * 2 * 7 / 135e-6, rel=1e-12)


def test_padding_bits_monotone():
    base = padding_bits(496920, 2, 4)
    assert base == math.ceil(math.log2(2 * 496920)) + 4
    assert padding_bits(496920, 2, 5) == base + 1


# ---------------------------------------------------------------------------
# Single-point estimates.


def test_ge_point_reproduction(ge_row):
    assert ge_row.mqb == pytest.approx(GE_MQB, rel=0.15)
    assert ge_row.expected_hours == pytest.approx(GE_EXPECTED_HOURS, rel=0.25)
    assert ge_row.b_tofs == pytest.approx(GE_B_TOFS, rel=0.05)
    assert ge_row.binding == "depth"


def test_ge_point_frozen_values(ge_row):
    # Regression pins for the calibrated model at the published point.
    assert ge_row.mqb == pytest.approx(19.2488, abs=5e-4)
    assert ge_row.hours == pytest.approx(5.7709, abs=5e-4)
    assert ge_row.retry_risk == pytest.approx(0.2074, abs=5e-4)
    assert ge_row.expected_hours == pytest.approx(7.2812, abs=5e-4)
    assert ge_row.b_tofs == pytest.approx(2.6396, abs=5e-4)


def test_row_identities_audit(ge_row):
    audit_row(ge_row)
    assert ge_row.vol_per_run == pytest.approx(ge_row.mqb * ge_row.hours / 24, rel=1e-9)
    assert ge_row.expected_vol == pytest.approx(
        ge_row.vol_per_run / (1 - ge_row.retry_risk), rel=1e-9
    )
    assert math.exp(ge_row.log_skewed_volume) == pytest.approx(
        ge_row.mqb**ge_row.q * ge_row.expected_hours, rel=1e-9
    )


def test_audit_rejects_tampered_row(ge_row):
    broken = ge_row._replace(expected_hours=ge_row.expected_hours * 1.01)
    with pytest.raises(AssertionError):
        audit_row(broken)


def test_audit_rejects_tampered_row_under_optimize():
    # python -O strips assert statements; the audit must still fire there.
    child = (
        "from wmodexp.estimator import LayoutPoint, _variant_cost, audit_row, estimate, load_profile, schedule\n"
        f"sched = schedule(_variant_cost('original', {N}, {NE}, 5, 5), 1024, 4)\n"
        f"row = estimate(load_profile(), {GE_POINT!r}, sched)\n"
        "audit_row(row._replace(expected_hours=2 * row.expected_hours))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("AssertionError: EstimateRow(")


def test_published_row_arithmetic():
    # The published-row relations hold on the reported figures themselves.
    assert 5.046 / (1 - 0.31) == pytest.approx(7.313, abs=5e-4)
    assert 19.249 * 5.046 / 24 == pytest.approx(4.047, abs=5e-4)
    assert 4.047 / (1 - 0.31) == pytest.approx(5.865, abs=5e-4)


def test_zero_risk_limit(profile):
    # With the error fit and postprocessing switched off and a deep pad,
    # expected values collapse to single-run values.
    quiet = dataclasses.replace(
        profile, p_phys=1e-9, error_coeff=0.0, postprocess_error=0.0
    )
    point = GE_POINT._replace(d_off=40)
    row = estimate(quiet, point, shape("original", point))
    assert row.retry_risk < 1e-6
    assert row.expected_hours == pytest.approx(row.hours, rel=1e-5)
    assert row.expected_vol == pytest.approx(row.vol_per_run, rel=1e-5)


def test_estimate_rejects_mismatched_windows(profile):
    with pytest.raises(ValueError, match="windows"):
        estimate(profile, GE_POINT, schedule(_variant_cost("original", N, NE, 6, 5), 1024, 4))
    # The schedule of GE_POINT's shape prices no point that differs from it
    # in a window, in g_sep or in d_off; only L1 and L2 may vary.
    sched = shape("original", GE_POINT)
    for field, value in (("g_exp", 4), ("g_mul", 6), ("g_sep", 512), ("d_off", 5)):
        with pytest.raises(ValueError, match="windows, g_sep or d_off disagree"):
            estimate(profile, GE_POINT._replace(**{field: value}), sched)
    assert estimate(profile, GE_POINT._replace(L1=17, L2=29), sched).point.L2 == 29


def test_schedule_rejects_an_impossible_shape():
    cost_row = _variant_cost("original", N, NE, 5, 5)
    with pytest.raises(ValueError, match="g_sep must be >= 1"):
        schedule(cost_row, 0, 4)
    with pytest.raises(ValueError, match="d_off >= 0"):
        schedule(cost_row, 1024, -1)


def test_budget_overflow_on_undersized_factories(profile):
    # A 4096-bit run through 15/27 factories exhausts the error budget.
    with pytest.raises(BudgetOverflow) as info:
        estimate(profile, GE_POINT, shape("original", GE_POINT, 4096, 6101))
    assert info.value.args == (GE_POINT, "factory")
    assert str(info.value) == f"error budget saturated at {GE_POINT}"
    assert info.value.component == "factory"


def test_budget_overflow_point_and_message_forms():
    at_point = BudgetOverflow(GE_POINT, "data")
    assert at_point.component == "data"
    assert str(at_point) == f"error budget saturated at {GE_POINT}"
    message = BudgetOverflow("no grid point stays under the error budget")
    assert message.component is None
    assert str(message) == "no grid point stays under the error budget"
    assert message.args == ("no grid point stays under the error budget",)


def test_q_override_changes_skew_only(profile):
    flat_profile = dataclasses.replace(profile, q=1.0)
    flat = estimate(flat_profile, GE_POINT, shape("original", GE_POINT))
    assert flat.log_skewed_volume == pytest.approx(
        math.log(flat.mqb * flat.expected_hours), rel=1e-9
    )
    assert flat.hours == pytest.approx(5.7709, abs=5e-4)


def test_sliced_variants_priced_from_their_cost_rows(profile, ge_row):
    # sliced_A keeps n/2 fewer register qubits but adds n adder steps per
    # repetition; sliced_B saves n/2 adder Toffolis per repetition.
    reps = 2 * math.ceil(NE / 5) * math.ceil(N / 5)
    assert reps == 496920
    a = estimate(profile, GE_POINT, shape("sliced_A", GE_POINT))
    b = estimate(profile, GE_POINT, shape("sliced_B", GE_POINT))
    assert b.b_tofs == pytest.approx(ge_row.b_tofs - reps * N / 2 / 1e9, rel=1e-12)
    assert b.b_tofs == pytest.approx(2.13079, abs=5e-6)
    assert (b.mqb, b.hours) == (ge_row.mqb, ge_row.hours)
    assert a.b_tofs == ge_row.b_tofs
    extra_s = reps * N * profile.reaction_s * profile.serial_overhead
    assert a.hours == pytest.approx(ge_row.hours + extra_s / 3600, rel=1e-9)
    assert a.hours == pytest.approx(9.4459, abs=5e-4)
    assert a.mqb == pytest.approx(17.6964, abs=5e-4)
    assert a.binding == b.binding == "depth"


def test_error_budget_components(profile, ge_row):
    budget = ge_row.budget
    assert all(part >= 0 for part in budget.components())
    assert 0 <= budget.total < 1
    assert budget.postprocess_error == profile.postprocess_error
    # Survival composition, not a plain sum.
    survival = 1.0
    for part in budget.components():
        survival *= 1 - part
    assert budget.total == pytest.approx(1 - survival, rel=1e-12)


def test_deviation_error_halves_per_pad_bit(profile):
    deeper = GE_POINT._replace(d_off=5)
    base = estimate(profile, GE_POINT, shape("original", GE_POINT))
    deep = estimate(profile, deeper, shape("original", deeper))
    assert deep.budget.coset_error == pytest.approx(base.budget.coset_error / 2, rel=1e-9)
    assert deep.budget.runway_error == pytest.approx(base.budget.runway_error / 2, rel=1e-9)


# ---------------------------------------------------------------------------
# Grid search.


@pytest.fixture(scope="module")
def grid_original(profile):
    return grid_search(N, NE, profile, variant="original")


@pytest.fixture(scope="module")
def grid_combined(profile):
    return grid_search(N, NE, profile, variant="combined")


def test_grid_minimizer_reproduces_published_neighborhood(grid_original):
    best = grid_original.best
    assert best.b_tofs == pytest.approx(GE_B_TOFS, rel=0.05)
    assert best.mqb == pytest.approx(GE_MQB, rel=0.15)
    assert best.expected_hours == pytest.approx(GE_EXPECTED_HOURS, rel=0.25)
    point = best.point
    assert point.L2 == 27
    assert point.L1 in (15, 17)
    assert (point.g_mul, point.g_exp, point.g_sep) == (5, 5, 1024)


def test_grid_rows_all_audited_and_depth_bound(grid_original):
    for row in grid_original.frontier:
        audit_row(row)
        assert row.binding == "depth"


def test_frontier_dominance(grid_original):
    rows = grid_original.frontier
    assert rows == tuple(sorted(rows, key=lambda r: r.mqb))
    for a in rows:
        for b in rows:
            if a is b:
                continue
            assert not (a.mqb <= b.mqb and a.expected_hours <= b.expected_hours), (
                a.point,
                b.point,
            )


def test_best_under_budget_picks_cheapest_feasible(grid_original):
    frontier = grid_original.frontier
    for budget, chosen in grid_original.by_budget:
        feasible = [r for r in frontier if r.mqb <= budget]
        if not feasible:
            assert chosen is None
            continue
        assert chosen is not None
        assert chosen.mqb <= budget
        assert chosen.expected_hours == min(r.expected_hours for r in feasible)
    assert best_under_budget(frontier, 0.001) is None


def test_matched_budget_reductions_in_band(grid_original, grid_combined):
    for (budget, orig), (_, comb) in zip(
        grid_original.by_budget, grid_combined.by_budget
    ):
        assert orig is not None and comb is not None, budget
        reduction = (orig.expected_hours - comb.expected_hours) / orig.expected_hours
        assert 0.01 <= reduction <= 0.08, (budget, reduction)


def test_singleton_ranges_yield_single_row(profile):
    ranges = GridRanges(
        l1=(15,), l2=(27,), d_off=(4,), g_exp=(5,), g_mul=(5,), g_sep=(1024,)
    )
    result = grid_search(N, NE, profile, variant="original", ranges=ranges)
    assert len(result.frontier) == 1
    assert result.best == result.frontier[0]
    assert result.best.point == GE_POINT


def test_grid_search_is_deterministic(profile, grid_original):
    again = grid_search(N, NE, profile, variant="original")
    assert again.best == grid_original.best
    assert again.frontier == grid_original.frontier


def test_grid_search_matches_a_per_point_reference_loop(profile, grid_combined):
    # The loop order before schedules were hoisted: (L1, L2) outermost, then
    # d_off, then the window shapes and g_sep, with a schedule built for
    # each point. Every result ranks rows by point, so evaluation order and
    # shared schedules must leave the best row, frontier and budget rows alone.
    ranges = GridRanges()
    shapes = [
        (g_mul, g_exp, g_sep, _variant_cost("combined", N, NE, g_exp, g_mul))
        for g_exp in ranges.g_exp
        for g_mul in ranges.g_mul
        for g_sep in ranges.g_sep
    ]
    rows = []
    for l1 in ranges.l1:
        for l2 in ranges.l2:
            if l1 >= l2:
                continue
            for d_off in ranges.d_off:
                for g_mul, g_exp, g_sep, cost_row in shapes:
                    point = LayoutPoint(l1, l2, d_off, g_mul, g_exp, g_sep)
                    try:
                        rows.append(estimate(profile, point, schedule(cost_row, g_sep, d_off)))
                    except BudgetOverflow:
                        continue
    frontier = pareto_frontier(rows)
    assert grid_combined.best == min(rows, key=lambda r: (r.log_skewed_volume, r.point))
    assert grid_combined.frontier == frontier
    assert grid_combined.by_budget == tuple(
        (budget, best_under_budget(frontier, budget)) for budget in DEFAULT_MQB_BUDGETS
    )


def test_grid_overflow_set_is_pinned(profile, monkeypatch):
    # These counts are what pricing every point in full (schedule, board and
    # whole budget) gives: the early factory check must refuse exactly the
    # same points, with the same exception.
    real_estimate = estimator.estimate
    evaluated = rows = 0
    overflows = collections.Counter()

    def counting(profile, point, sched):
        nonlocal evaluated, rows
        evaluated += 1
        try:
            row = real_estimate(profile, point, sched)
        except BudgetOverflow as exc:
            assert exc.args == (point, exc.component)
            assert str(exc) == f"error budget saturated at {point}"
            overflows[exc.component] += 1
            raise
        rows += 1
        return row

    monkeypatch.setattr(estimator, "estimate", counting)
    grid_search(N, NE, profile, variant="original")
    assert evaluated == 21312
    assert overflows == {"factory": 17856, "data": 334}
    assert rows == 3122


def test_pareto_frontier_helper():
    def stub(mqb, hours):
        return EstimateRow(
            n=N,
            n_e=NE,
            p_phys=1e-3,
            point=LayoutPoint(5, 7, 2, 4, 4, 256),
            variant="original",
            initial_bits=0,
            q=1.2,
            retry_risk=0.0,
            vol_per_run=mqb * hours / 24,
            expected_vol=mqb * hours / 24,
            mqb=mqb,
            hours=hours,
            expected_hours=hours,
            b_tofs=1.0,
            log_skewed_volume=1.2 * math.log(mqb) + math.log(hours),
            budget=ErrorBudget(0.0, 0.0, 0.0, 0.0, 0.0),
        )

    a, b, c = stub(10, 5), stub(12, 4), stub(11, 6)
    kept = pareto_frontier([c, b, a])
    assert [(r.mqb, r.expected_hours) for r in kept] == [(10, 5), (12, 4)]


# ---------------------------------------------------------------------------
# Variant ordering. The combined circuit never costs more Toffolis than
# the original at the same layout point; the relative saving sits in a
# narrow band that shrinks with n. The 1024-bit case lands above that
# band for the reason acceptance criterion 4 derives: the deferred
# unlookup saves a fixed ~64 Toffolis of a ~3.2k-Toffoli addition, 2%
# alone at that size, and the initial lookup adds about 1.1% more; the
# test pins the value the formulas give.

ORDERING_POINTS = {
    1024: LayoutPoint(L1=15, L2=27, d_off=5, g_mul=5, g_exp=5, g_sep=1024),
    2048: LayoutPoint(L1=15, L2=27, d_off=4, g_mul=5, g_exp=5, g_sep=1024),
    3072: LayoutPoint(L1=17, L2=29, d_off=6, g_mul=5, g_exp=5, g_sep=1024),
    4096: LayoutPoint(L1=17, L2=31, d_off=9, g_mul=5, g_exp=5, g_sep=1024),
}
PUBLISHED_NE = {1024: 1493, 2048: 3029, 3072: 4565, 4096: 6101}


@pytest.mark.parametrize("n", sorted(ORDERING_POINTS))
def test_combined_never_beats_original_by_much(profile, n):
    n_e = PUBLISHED_NE[n]
    point = ORDERING_POINTS[n]
    orig = estimate(profile, point, shape("original", point, n, n_e))
    comb = estimate(profile, point, shape("combined", point, n, n_e))
    assert comb.b_tofs <= orig.b_tofs
    reduction = (orig.b_tofs - comb.b_tofs) / orig.b_tofs
    if n == 1024:
        assert reduction == pytest.approx(0.0421, abs=0.002)
    else:
        assert 0.01 <= reduction <= 0.04, reduction


def test_combined_cheaper_across_grid_sample(profile):
    for g_sep in (512, 1024, 2048):
        for d_off in (2, 6, 9):
            point = LayoutPoint(L1=15, L2=27, d_off=d_off, g_mul=5, g_exp=5, g_sep=g_sep)
            orig = estimate(profile, point, shape("original", point))
            comb = estimate(profile, point, shape("combined", point))
            assert comb.b_tofs < orig.b_tofs
            assert comb.hours < orig.hours
