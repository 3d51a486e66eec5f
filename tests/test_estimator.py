"""Physical estimator: profile loading, board geometry, error budget,
row identities, and the parameter grid search."""

import dataclasses
import math

import pytest

from wmodexp.estimator import (
    DEFAULT_MQB_BUDGETS,
    BudgetOverflow,
    EstimateRow,
    GridRanges,
    HardwareProfile,
    LayoutPoint,
    audit_row,
    best_under_budget,
    board_layout,
    error_budget,
    estimate,
    factory_dimensions,
    grid_search,
    load_profile,
    padding_bits,
    pareto_frontier,
    parse_config,
    physical_per_logical,
    _variant_cost,
)

# The published n=2048, 1e-3 operating point and its reported stats; the
# reproduction tests use the same tolerance bands as the acceptance gate.
GE_POINT = LayoutPoint(L1=15, L2=27, d_off=4, g_mul=5, g_exp=5, g_sep=1024)
GE_MQB = 19.249
GE_EXPECTED_HOURS = 7.313
GE_B_TOFS = 2.698
N, NE = 2048, 3029


@pytest.fixture(scope="module")
def profile():
    return load_profile()


@pytest.fixture(scope="module")
def ge_row(profile):
    row = estimate(N, NE, profile, GE_POINT, _variant_cost("original", N, NE, 5, 5))
    return row


# ---------------------------------------------------------------------------
# Profile and config plumbing.


def test_packaged_defaults_match_in_code_defaults(profile):
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


def test_layout_point_distance_defaults_and_overrides():
    assert GE_POINT.data_distance == 27
    assert GE_POINT.injection_distance == 15
    tweaked = dataclasses.replace(GE_POINT, d1=13, d2=25)
    assert tweaked.injection_distance == 13
    assert tweaked.data_distance == 25


# ---------------------------------------------------------------------------
# Board geometry. The dimensions below are frozen regression values for
# the default profile; mqb at the published point is checked against the
# acceptance band around the published 19.249 through estimate() below.


def test_factory_dimensions_at_ge_point(profile):
    assert factory_dimensions(profile, GE_POINT) == (13, 7, 5.0)


def test_board_layout_at_ge_point(profile):
    board = board_layout(profile, GE_POINT, pieces=2, piece_len=1048)
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
    assert ge_row.skewed_volume == pytest.approx(
        ge_row.mqb**ge_row.q * ge_row.expected_hours, rel=1e-9
    )


def test_audit_rejects_tampered_row(ge_row):
    broken = dataclasses.replace(ge_row, expected_hours=ge_row.expected_hours * 1.01)
    with pytest.raises(AssertionError):
        audit_row(broken)


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
    point = dataclasses.replace(GE_POINT, d_off=40)
    row = estimate(N, NE, quiet, point, _variant_cost("original", N, NE, 5, 5))
    assert row.retry_risk < 1e-6
    assert row.expected_hours == pytest.approx(row.hours, rel=1e-5)
    assert row.expected_vol == pytest.approx(row.vol_per_run, rel=1e-5)


def test_estimate_rejects_mismatched_windows(profile):
    with pytest.raises(ValueError, match="windows"):
        estimate(N, NE, profile, GE_POINT, _variant_cost("original", N, NE, 6, 5))


def test_budget_overflow_on_undersized_factories(profile):
    # A 4096-bit run through 15/27 factories exhausts the error budget.
    with pytest.raises(BudgetOverflow):
        estimate(4096, 6101, profile, GE_POINT, _variant_cost("original", 4096, 6101, 5, 5))


def test_q_override_changes_skew_only(profile):
    flat = estimate(N, NE, profile, GE_POINT, _variant_cost("original", N, NE, 5, 5), q=1.0)
    assert flat.skewed_volume == pytest.approx(flat.mqb * flat.expected_hours, rel=1e-9)
    assert flat.hours == pytest.approx(5.7709, abs=5e-4)


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
    deeper = dataclasses.replace(GE_POINT, d_off=5)
    base = estimate(N, NE, profile, GE_POINT, _variant_cost("original", N, NE, 5, 5))
    deep = estimate(N, NE, profile, deeper, _variant_cost("original", N, NE, 5, 5))
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


def test_pareto_frontier_helper():
    def stub(mqb, hours):
        row = object.__new__(EstimateRow)
        object.__setattr__(row, "mqb", mqb)
        object.__setattr__(row, "expected_hours", hours)
        object.__setattr__(row, "point", LayoutPoint(5, 7, 2, 4, 4, 256))
        return row

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
    orig = estimate(n, n_e, profile, point, _variant_cost("original", n, n_e, 5, 5))
    comb = estimate(n, n_e, profile, point, _variant_cost("combined", n, n_e, 5, 5))
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
            orig = estimate(N, NE, profile, point, _variant_cost("original", N, NE, 5, 5))
            comb = estimate(N, NE, profile, point, _variant_cost("combined", N, NE, 5, 5))
            assert comb.b_tofs < orig.b_tofs
            assert comb.hours < orig.hours
