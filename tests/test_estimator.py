"""Physical estimator: profile loading, board geometry, error budget,
row identities, and the parameter grid search."""

import collections
import dataclasses
import gc
import math
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmodexp import estimator
from wmodexp.costs import VARIANTS
from wmodexp.estimator import (
    DEFAULT_MQB_BUDGETS,
    MAX_D_OFF,
    MAX_DISTANCE,
    MAX_G_SEP,
    BudgetOverflow,
    ErrorBudget,
    EstimateRow,
    GridRanges,
    HardwareProfile,
    LayoutPoint,
    audit_row,
    best_under_budget,
    ccz_state_error,
    estimate,
    factory,
    grid_search,
    layout_point,
    load_profile,
    padding_bits,
    pareto_frontier,
    parse_config,
    profile_domain,
    schedule,
    _variant_cost,
)

# Each HardwareProfile field's closed range, in field order.
DOMAIN = profile_domain()

# The published n=2048, 1e-3 operating point and its reported stats; the
# reproduction tests use the same tolerance bands as the acceptance gate.
GE_POINT = LayoutPoint(L1=15, L2=27, d_off=4, g_mul=5, g_exp=5, g_sep=1024)
GE_MQB = 19.249
GE_EXPECTED_HOURS = 7.313
GE_B_TOFS = 2.698
N, NE = 2048, 3029

# A non-default profile: every field a hoisted term of the price reads.
OTHER_PROFILE = HardwareProfile(
    p_phys=5e-4,
    cycle_ns=500,
    reaction_ns=3000,
    serial_overhead=1.1,
    routing_height=7,
    cz_fixup_height=4,
    l1_factory_cells=1200,
)


def shape(variant, point, n=N, n_e=NE):
    """The Schedule of point's windows, g_sep and d_off under variant."""
    cost_row = _variant_cost(variant, n, n_e, point.g_exp, point.g_mul)
    return schedule(cost_row, point.g_sep, point.d_off)


def price(profile, variant, point, n=N, n_e=NE):
    """estimate() of point under variant: its Schedule and its Factory."""
    return estimate(profile, shape(variant, point, n, n_e), factory(profile, point.L1, point.L2))


@pytest.fixture(scope="module")
def profile():
    return load_profile()


@pytest.fixture(scope="module")
def ge_row(profile):
    return price(profile, "original", GE_POINT)


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
    with pytest.raises(ValueError, match="line 2: bad number '1e-3x'"):
        parse_config("q = 1\np_phys = 1e-3x\n")


def test_load_profile_rejects_unknown_key():
    with pytest.raises(ValueError, match="no_such_knob"):
        load_profile("no_such_knob = 3\n")


def test_load_profile_overlays_user_values():
    prof = load_profile("p_phys = 1e-4\ncycle_ns = 500\n")
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


def test_profile_domain_names_the_field_and_its_range():
    # Away from the cross-field bound on p_phys, each field alone decides.
    loose = {"p_phys": 1e-9, "error_threshold": 1.0}
    for name, (lo, hi) in DOMAIN.items():
        HardwareProfile(**{**loose, name: lo})
        HardwareProfile(**{**loose, name: hi})
        for value in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf), math.nan):
            with pytest.raises(ValueError) as info:
                HardwareProfile(**{**loose, name: value})
            assert str(info.value) == f"{name} must lie in [{lo!r}, {hi!r}], got {value!r}"
    # The error fit must fall with the code distance: p_phys is at most half
    # the threshold.
    HardwareProfile(p_phys=0.005)
    with pytest.raises(ValueError) as info:
        HardwareProfile(p_phys=0.006)
    assert str(info.value) == "p_phys must be at most error_threshold / 2 = 0.005, got 0.006"


def test_unit_cell_error_fit(profile):
    # A * (p/p_thr)^((d+1)/2) at the defaults: 0.1 * 0.1^14 at d = 27.
    assert profile.unit_cell_error(27) == pytest.approx(1e-15, rel=1e-9)
    assert profile.unit_cell_error(3) == pytest.approx(1e-3, rel=1e-9)


def test_qubits_per_tile_at_27(profile):
    assert factory(profile, 15, 27).qubits_per_tile == 2 * 28**2 == 1568


# ---------------------------------------------------------------------------
# Layout points.


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
# Factory records: one per (L1, L2), from the profile's formulas.


def reference_footprint(profile, l1, l2):
    """(width, height, depth) of one CCZ factory block by the integer
    formulas it was first written with: math.ceil on each rounded figure."""
    shrink = l1 / l2
    t1_w = profile.t1_width * shrink
    t1_h = profile.t1_height * shrink
    t1_d = profile.t1_depth * shrink
    ccz_rate = 1.0 / profile.ccz_depth
    t1_rate = 1.0 / t1_d
    t1_count = math.ceil(ccz_rate * profile.t_per_ccz / t1_rate)
    column_height = t1_h * math.ceil(t1_count / 2)
    width = math.ceil(t1_w * 2 + profile.ccz_width + profile.storage_width * shrink)
    height = math.ceil(max(profile.ccz_height, column_height))
    depth = max(profile.ccz_depth, t1_d)
    return width, height, depth


def test_factory_equals_its_formulas():
    ranges = GridRanges()
    pairs = [(l1, l2) for l1 in ranges.l1 for l2 in ranges.l2 if l1 < l2]
    assert len(pairs) == 74
    board = ("width", "height", "pairs", "board_width", "strip_height", "distillation_tiles")
    for profile in (HardwareProfile(), OTHER_PROFILE):
        for l1, l2 in pairs:
            width, height, depth = reference_footprint(profile, l1, l2)
            ccz_time = depth * profile.cycle_s * l2
            pairs_needed = math.ceil(ccz_time / profile.reaction_s / 2)
            error = ccz_state_error(profile, l1, l2)
            fac = factory(profile, l1, l2)
            assert fac == (
                l1,
                l2,
                error,
                width,
                height,
                ccz_time,
                pairs_needed,
                (width + 1) * pairs_needed + 1,
                height * 2
                + profile.cz_fixup_height * 2
                + profile.adder_height
                + profile.routing_height,
                int(height * width * pairs_needed * 2),
                2 * (l2 + 1) ** 2,
                profile.cycle_s * l2,
                profile.unit_cell_error(l2),
                profile.reaction_s,
            )
            assert [type(getattr(fac, name)) for name in board] == [float] * len(board)


@pytest.mark.parametrize("l1, l2", [(0, 11), (-1, 0), (27, 15), (15, 15), (15, MAX_DISTANCE + 1)])
def test_factory_refuses_impossible_distances(profile, l1, l2):
    with pytest.raises(ValueError, match=f"0 < L1 < L2 <= {MAX_DISTANCE}, got L1={l1}, L2={l2}"):
        factory(profile, l1, l2)


def test_profile_is_its_fields(profile):
    assert not hasattr(HardwareProfile, "factory")
    assert vars(profile) == {f.name: getattr(profile, f.name) for f in dataclasses.fields(profile)}


# ---------------------------------------------------------------------------
# Board geometry. The dimensions below are frozen regression values for
# the default profile; mqb at the published point is checked against the
# acceptance band around the published 19.249 through estimate() below.


def test_factory_footprint_at_ge_point(profile):
    fac = factory(profile, 15, 27)
    assert (fac.width, fac.height) == (13, 7)
    assert fac.ccz_time_s == 5.0 * profile.cycle_s * 27


def test_board_layout_at_ge_point(profile, ge_row):
    # Two strips of 99 x 62 tiles. The factory record fixes the strip width,
    # its 29 fixed rows and its distillation tiles; the schedule's pieces of
    # 1,048 qubits in three registers fill 11 rows of 97 tiles each.
    fac = factory(profile, 15, 27)
    assert fac.pairs == 7
    assert fac.ccz_time_s == pytest.approx(135e-6, rel=1e-12)
    assert fac.board_width == 99
    assert fac.strip_height == 7 * 2 + 3 * 2 + 3 + 6 == 29
    assert fac.distillation_tiles == 7 * 13 * 7 * 2
    sched = shape("original", GE_POINT)
    assert (sched.pieces, sched.piece_len, sched.registers) == (2, 1048, 3)
    assert 29 + math.ceil(1048 / 97) * 3 == 62
    tiles = 2 * 99 * 62
    assert ge_row.mqb == tiles * fac.qubits_per_tile / 1e6
    # Every tile outside the distillation blocks stores data for the run,
    # and the two strips distill 2 * 2 * 7 CCZ states per CCZ time.
    runtime_s = ge_row.hours * 3600
    storage_tiles = tiles - 2 * fac.distillation_tiles
    assert ge_row.budget.data_error == pytest.approx(
        storage_tiles * (runtime_s / fac.round_s) * fac.unit_cell_error, rel=1e-12
    )
    assert ge_row.binding == "depth"
    assert runtime_s >= ge_row.b_tofs * 1e9 / (2 * 2 * 7 / 135e-6)


def test_padding_bits_monotone():
    base = padding_bits(496920, 2, 4)
    assert base == math.ceil(math.log2(2 * 496920)) + 4
    assert padding_bits(496920, 2, 5) == base + 1
    # Exact at any size: the float log2 of 2^53 + 2 and of 2^60 + 2 rounds
    # to exactly 53 and 60, so its ceiling would fall one bit short.
    assert padding_bits(2**53 + 2, 1, 0) == 54
    assert padding_bits(2**60 + 2, 1, 0) == 61
    assert padding_bits(2**53, 1, 0) == 53


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
        "from wmodexp.estimator import (\n"
        "    _variant_cost, audit_row, estimate, factory, load_profile, schedule)\n"
        f"sched = schedule(_variant_cost('original', {N}, {NE}, 5, 5), 1024, 4)\n"
        "profile = load_profile()\n"
        "row = estimate(profile, sched, factory(profile, 15, 27))\n"
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


def drifted(row, identity, rel):
    """row with the left side of one audit identity moved by rel and every
    other identity kept."""
    scale = 1 + rel
    if identity == "expected_hours":
        expected_hours = row.expected_hours * scale
        log_skewed_volume = row.q * math.log(row.mqb) + math.log(expected_hours)
        return row._replace(expected_hours=expected_hours, log_skewed_volume=log_skewed_volume)
    if identity == "expected_vol":
        return row._replace(expected_vol=row.expected_vol * scale)
    if identity == "vol_per_run":
        return row._replace(
            vol_per_run=row.vol_per_run * scale, expected_vol=row.expected_vol * scale
        )
    return row._replace(log_skewed_volume=row.log_skewed_volume * scale)


@pytest.mark.parametrize(
    "identity", ["expected_hours", "expected_vol", "vol_per_run", "log_skewed_volume"]
)
def test_audit_holds_each_identity_to_audit_rel(ge_row, identity):
    for rel in (1e-10, -1e-10):
        audit_row(drifted(ge_row, identity, rel))
    for rel in (1e-8, -1e-8):
        with pytest.raises(AssertionError):
            audit_row(drifted(ge_row, identity, rel))


def test_audit_rejects_impossible_risks_and_infinite_figures(ge_row):
    inf = math.inf
    for broken in (
        ge_row._replace(retry_risk=math.nan),
        ge_row._replace(retry_risk=1.0),
        ge_row._replace(hours=inf),
        # Every identity holds as inf against inf.
        ge_row._replace(
            hours=inf, expected_hours=inf, vol_per_run=inf, expected_vol=inf, log_skewed_volume=inf
        ),
    ):
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
    point = GE_POINT._replace(d_off=40)
    row = price(quiet, "original", point)
    assert row.retry_risk < 1e-6
    assert row.expected_hours == pytest.approx(row.hours, rel=1e-5)
    assert row.expected_vol == pytest.approx(row.vol_per_run, rel=1e-5)


def test_estimate_point_is_built_from_schedule_and_factory(profile):
    # The schedule gives d_off, the windows and g_sep; the factory L1 and L2.
    sched = shape("original", GE_POINT)
    for l1, l2 in ((15, 27), (17, 29), (17, 33)):
        row = estimate(profile, sched, factory(profile, l1, l2))
        assert row.point == GE_POINT._replace(L1=l1, L2=l2)
        assert type(row.point) is LayoutPoint
    sched = schedule(_variant_cost("original", N, NE, 6, 4), 512, 7)
    row = estimate(profile, sched, factory(profile, 15, 27))
    assert row.point == LayoutPoint(L1=15, L2=27, d_off=7, g_mul=4, g_exp=6, g_sep=512)


def test_schedule_rejects_an_impossible_shape():
    cost_row = _variant_cost("original", N, NE, 5, 5)
    for g_sep, d_off in ((0, 4), (1024, -1), (MAX_G_SEP + 1, 4), (1024, MAX_D_OFF + 1)):
        with pytest.raises(ValueError) as info:
            schedule(cost_row, g_sep, d_off)
        assert str(info.value) == (
            f"runway shape needs 1 <= g_sep <= {MAX_G_SEP} and 0 <= d_off <= {MAX_D_OFF}, "
            f"got g_sep={g_sep}, d_off={d_off}"
        )


def test_budget_overflow_on_undersized_factories(profile):
    # A 4096-bit run through 15/27 factories exhausts the error budget.
    with pytest.raises(BudgetOverflow) as info:
        price(profile, "original", GE_POINT, 4096, 6101)
    assert info.value.args == ("factory",)


def test_budget_overflow_on_a_survival_that_rounds_away(profile, ge_row):
    # Factory and data errors of 1 - 2^-30 each are below 1, but their
    # survivals multiply to about 2^-60, so 1 - survival rounds to 1.0 and
    # only the composed term overflows.
    sched, fac = shape("original", GE_POINT), factory(profile, 15, 27)
    near_one = 1 - 2.0**-30
    fac = fac._replace(
        ccz_error=near_one / sched.tofs,
        unit_cell_error=fac.unit_cell_error * near_one / ge_row.budget.data_error,
    )
    with pytest.raises(BudgetOverflow) as info:
        estimate(profile, sched, fac)
    assert info.value.args == ("total",)


def test_budget_overflow_point_and_message_forms(profile):
    # A grid whose every point overflows is bad input, not one overflow.
    point = LayoutPoint(L1=5, L2=11, d_off=2, g_mul=4, g_exp=4, g_sep=256)
    ranges = GridRanges(l1=(5,), l2=(11,), d_off=(2,), g_exp=(4,), g_mul=(4,), g_sep=(256,))
    with pytest.raises(ValueError) as info:
        grid_search(256, 300, profile, ranges=ranges)
    assert str(info.value) == (
        f"no grid point stays under the error budget (last overflow: factory error at {point})"
    )


def test_all_overflow_message_names_the_last_point_in_loop_order(profile):
    # Three factories: (13, 21) and (13, 23) overflow on the factory error
    # and (21, 23), the last in loop order, on the data error.
    ranges = GridRanges(l1=(13, 21), l2=(21, 23), d_off=(4,), g_exp=(5,), g_mul=(5,), g_sep=(1024,))
    point = GE_POINT._replace(L1=21, L2=23)
    terms = [
        outcome(estimate, profile, shape("original", point), factory(profile, l1, l2))
        for l1, l2 in ((13, 21), (13, 23), (21, 23))
    ]
    assert terms == ["factory", "factory", "data"]
    with pytest.raises(ValueError) as info:
        grid_search(N, NE, profile, ranges=ranges)
    assert str(info.value) == (
        "no grid point stays under the error budget (last overflow: data error at "
        "LayoutPoint(L1=21, L2=23, d_off=4, g_mul=5, g_exp=5, g_sep=1024))"
    )


def test_q_override_changes_skew_only(profile):
    flat_profile = dataclasses.replace(profile, q=1.0)
    flat = price(flat_profile, "original", GE_POINT)
    assert flat.log_skewed_volume == pytest.approx(
        math.log(flat.mqb * flat.expected_hours), rel=1e-9
    )
    assert flat.hours == pytest.approx(5.7709, abs=5e-4)


def test_sliced_variants_priced_from_their_cost_rows(profile, ge_row):
    # sliced_A keeps n/2 fewer register qubits but adds n adder steps per
    # repetition; sliced_B saves n/2 adder Toffolis per repetition.
    reps = 2 * math.ceil(NE / 5) * math.ceil(N / 5)
    assert reps == 496920
    a = price(profile, "sliced_A", GE_POINT)
    b = price(profile, "sliced_B", GE_POINT)
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
    assert all(part >= 0 for part in budget)
    assert 0 <= budget.total < 1
    assert budget.postprocess_error == profile.postprocess_error
    # Survival composition, not a plain sum.
    survival = 1.0
    for part in budget:
        survival *= 1 - part
    assert budget.total == pytest.approx(1 - survival, rel=1e-12)


def test_deviation_error_halves_per_pad_bit(profile):
    deeper = GE_POINT._replace(d_off=5)
    base = price(profile, "original", GE_POINT)
    deep = price(profile, "original", deeper)
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


@pytest.fixture
def no_cost_rows(monkeypatch):
    """Fail any test that builds a cost row."""

    def no_cost(*args):
        raise AssertionError("a cost row was built")

    monkeypatch.setattr(estimator, "cost", no_cost)


@pytest.mark.parametrize("axis", [f.name for f in dataclasses.fields(GridRanges)])
def test_grid_search_refuses_an_empty_axis(profile, no_cost_rows, axis):
    with pytest.raises(ValueError, match=f"empty grid axis {axis},"):
        grid_search(N, NE, profile, ranges=GridRanges(**{axis: ()}))


def test_grid_search_refuses_a_grid_without_l1_below_l2(profile, no_cost_rows):
    for l1, l2 in (((27,), (15,)), ((15,), (15,)), ((17, 19), (11, 13, 17))):
        with pytest.raises(ValueError, match="L1 must be smaller than L2"):
            grid_search(N, NE, profile, ranges=GridRanges(l1=l1, l2=l2))


def test_grid_search_is_deterministic(profile, grid_original):
    again = grid_search(N, NE, profile, variant="original")
    assert again.best == grid_original.best
    assert again.frontier == grid_original.frontier


GRID = GridRanges()


def reference_rows(profile, variant):
    """Every row the default grid prices, by a per-point loop in the order
    used before schedules were hoisted: (L1, L2) outermost, then d_off, then
    the window shapes and g_sep, with a schedule and a factory built for
    each point, and every row held to the end."""
    shapes = [
        (g_mul, g_exp, g_sep, _variant_cost(variant, N, NE, g_exp, g_mul))
        for g_exp in GRID.g_exp
        for g_mul in GRID.g_mul
        for g_sep in GRID.g_sep
    ]
    rows = []
    for l1 in GRID.l1:
        for l2 in GRID.l2:
            if l1 >= l2:
                continue
            for d_off in GRID.d_off:
                for g_mul, g_exp, g_sep, cost_row in shapes:
                    sched = schedule(cost_row, g_sep, d_off)
                    try:
                        rows.append(estimate(profile, sched, factory(profile, l1, l2)))
                    except BudgetOverflow:
                        continue
    return rows


def assert_search_over(result, rows):
    """result is the best row, frontier and budget rows of rows."""
    frontier = pareto_frontier(rows)
    assert result.best == min(rows, key=lambda r: (r.log_skewed_volume, r.point))
    assert result.frontier == frontier
    assert result.by_budget == tuple(
        (budget, best_under_budget(frontier, budget)) for budget in DEFAULT_MQB_BUDGETS
    )


def test_grid_search_matches_a_per_point_reference_loop(profile, grid_combined):
    # Every result ranks rows by point, so evaluation order, shared records
    # and folding each cost row's rows into the running best and frontier
    # must leave the best row, frontier and budget rows alone.
    assert_search_over(grid_combined, reference_rows(profile, "combined"))


def test_grid_search_matches_the_reference_under_another_profile():
    result = grid_search(N, NE, OTHER_PROFILE, "original")
    assert_search_over(result, reference_rows(OTHER_PROFILE, "original"))


# The (g_exp, g_mul) blocks of the default grid in loop order; grid_search
# folds its rows at the end of each one.
BLOCKS = [(g_exp, g_mul) for g_exp in GRID.g_exp for g_mul in GRID.g_mul]


@pytest.fixture(scope="module")
def original_rows(profile):
    return reference_rows(profile, "original")


@pytest.mark.parametrize(
    "emptied", [(0,), (4,), (8,), (0, 4, 8)], ids=["first", "middle", "last", "first-middle-last"]
)
def test_grid_search_folds_past_blocks_that_price_nothing(
    profile, grid_original, original_rows, monkeypatch, emptied
):
    # The published best row lies in the middle block, (5, 5).
    assert BLOCKS[4] == (grid_original.best.point.g_exp, grid_original.best.point.g_mul)
    blocks = {BLOCKS[index] for index in emptied}
    real_estimate = estimator.estimate

    def blocked(profile, sched, fac):
        if (sched.cost_row.w_e, sched.cost_row.w_m) in blocks:
            raise BudgetOverflow("factory")
        return real_estimate(profile, sched, fac)

    monkeypatch.setattr(estimator, "estimate", blocked)
    result = grid_search(N, NE, profile, "original")
    rows = [row for row in original_rows if (row.point.g_exp, row.point.g_mul) not in blocks]
    assert_search_over(result, rows)


def test_all_overflow_grid_names_the_last_point_and_its_term(profile, monkeypatch):
    # Every block prices nothing; the terms cycle so that the message must
    # carry the last overflow's term, not one of an earlier point.
    terms = ["factory", "data", "coset", "total"]
    raised = []

    def overflow(profile, sched, fac):
        raised.append((layout_point(sched, fac), terms[len(raised) % len(terms)]))
        raise BudgetOverflow(raised[-1][1])

    monkeypatch.setattr(estimator, "estimate", overflow)
    with pytest.raises(ValueError) as info:
        grid_search(N, NE, profile, "original")
    point, term = raised[-1]
    assert point == LayoutPoint(L1=17, L2=33, d_off=9, g_mul=6, g_exp=6, g_sep=2048)
    assert term != raised[-2][1]
    assert str(info.value) == (
        f"no grid point stays under the error budget (last overflow: {term} error at {point})"
    )


def reference_estimate(profile, sched, fac):
    """estimate() by the formulas of board_layout, error_budget and estimate
    before their per-factory and per-schedule terms moved onto the records:
    it reads only the profile, the Schedule's shape and Toffoli fields and
    the Factory's first seven fields."""
    cost_row = sched.cost_row
    point = LayoutPoint(fac.L1, fac.L2, sched.d_off, cost_row.w_m, cost_row.w_e, sched.g_sep)
    tofs = sched.tofs
    if tofs * fac.ccz_error >= 1:
        raise BudgetOverflow("factory")
    depth_s = sched.serial_steps * profile.reaction_s * profile.serial_overhead

    width = (fac.width + 1) * fac.pairs + 1
    reg_rows = math.ceil(sched.piece_len / (width - 2))
    height = math.ceil(
        fac.height * 2
        + profile.cz_fixup_height * 2
        + profile.adder_height
        + profile.routing_height
        + reg_rows * sched.registers
    )
    distillation_tiles = int(fac.height * fac.width * fac.pairs * 2)
    tiles = sched.pieces * width * height
    storage_tiles = tiles - sched.pieces * distillation_tiles
    toffoli_rate = 2.0 * sched.pieces * fac.pairs / fac.ccz_time_s

    mqb = tiles * (2 * (fac.L2 + 1) ** 2) / 1e6
    factory_s = tofs / toffoli_rate
    runtime_s = max(depth_s, factory_s)
    binding = "depth" if depth_s >= factory_s else "factory"
    hours = runtime_s / 3600.0

    unit_cell_rounds = runtime_s / (profile.cycle_s * fac.L2)
    data = storage_tiles * unit_cell_rounds * profile.unit_cell_error(fac.L2)
    deviation = 2.0**-sched.pad
    coset = sched.reps * deviation
    runway = sched.reps * (sched.pieces - 1) * deviation
    budget = ErrorBudget(data, tofs * fac.ccz_error, coset, runway, profile.postprocess_error)
    for name, part in zip(("data", "factory", "coset", "runway", "postprocess"), budget):
        if part >= 1:
            raise BudgetOverflow(name)
    survival = 1.0
    for part in budget:
        survival *= 1.0 - part
    risk = 1.0 - survival
    if risk >= 1:
        raise BudgetOverflow("total")

    vol_per_run = mqb * hours / 24.0
    expected_hours = hours / (1 - risk)
    return EstimateRow(
        cost_row.n,
        cost_row.n_e,
        profile.p_phys,
        point,
        cost_row.variant,
        cost_row.initial_bits,
        profile.q,
        risk,
        vol_per_run,
        vol_per_run / (1 - risk),
        mqb,
        hours,
        expected_hours,
        tofs / 1e9,
        profile.q * math.log(mqb) + math.log(expected_hours),
        budget,
        binding,
    )


def outcome(price, profile, sched, fac):
    """The row price gives, or the error term, the only argument, of the
    BudgetOverflow it raises."""
    try:
        return price(profile, sched, fac)
    except BudgetOverflow as exc:
        (term,) = exc.args
        return term


def test_ge_point_equals_the_reference_formulas(profile, ge_row):
    sched = shape("original", GE_POINT)
    assert ge_row == reference_estimate(profile, sched, factory(profile, 15, 27))


@pytest.mark.parametrize(
    "n, n_e, variant, hardware",
    [
        (N, NE, "original", HardwareProfile()),
        (4096, 6101, "combined", HardwareProfile()),
        (N, NE, "original", OTHER_PROFILE),
    ],
    ids=["2048-original", "4096-combined", "2048-original-other-profile"],
)
def test_estimate_equals_the_reference_formulas(n, n_e, variant, hardware):
    # Bit for bit: every (Factory, Schedule) pair of the grid gives a row
    # equal to the reference's, or a BudgetOverflow on the same error term.
    ranges = GridRanges()
    factories = [factory(hardware, l1, l2) for l1 in ranges.l1 for l2 in ranges.l2 if l1 < l2]
    kinds = collections.Counter()
    for g_exp in ranges.g_exp:
        for g_mul in ranges.g_mul:
            cost_row = _variant_cost(variant, n, n_e, g_exp, g_mul)
            for g_sep in ranges.g_sep:
                for d_off in ranges.d_off:
                    sched = schedule(cost_row, g_sep, d_off)
                    for fac in factories:
                        want = outcome(reference_estimate, hardware, sched, fac)
                        got = outcome(estimate, hardware, sched, fac)
                        assert type(got) is type(want)
                        assert got == want
                        kinds["row" if type(want) is EstimateRow else want] += 1
    assert sum(kinds.values()) == 74 * 8 * 3 * 3 * 4
    assert kinds["row"] and kinds["factory"]


# Factory and data overflows of the search at (N, NE) on the default grid,
# under the default profile and under OTHER_PROFILE. Each search evaluates
# 21,312 points; none overflows on its coset error or the composed risk.
GRID_OVERFLOWS = {
    "original": ((17856, 334), (11273, 823)),
    "opt1": ((17856, 291), (11268, 828)),
    "opt2": ((17856, 320), (11270, 826)),
    "opt3": ((17856, 334), (11269, 827)),
    "opt4": ((17856, 287), (11273, 823)),
    "combined": ((17856, 269), (11264, 832)),
    "sliced_A": ((17856, 576), (11273, 823)),
    "sliced_B": ((17856, 334), (11232, 864)),
}


def test_grid_overflow_set_is_pinned(monkeypatch):
    # These counts are what pricing every point in full (schedule, board and
    # whole budget) gives: the early factory check must refuse exactly the
    # same points, with the same exception. grid_search audits only the rows
    # it returns, so this walk audits every row estimate() prices, and checks
    # that its risk and point are its budget's total and layout_point's.
    real_estimate = estimator.estimate
    counts = collections.Counter()

    def checked(profile, sched, fac):
        counts["evaluated"] += 1
        try:
            row = real_estimate(profile, sched, fac)
        except BudgetOverflow as exc:
            (term,) = exc.args
            counts[term] += 1
            raise
        audit_row(row)
        assert row.budget.total == row.retry_risk
        assert row.point == layout_point(sched, fac)
        return row

    monkeypatch.setattr(estimator, "estimate", checked)
    for index, hardware in enumerate((HardwareProfile(), OTHER_PROFILE)):
        for variant, pins in GRID_OVERFLOWS.items():
            counts.clear()
            grid_search(N, NE, hardware, variant)
            factory_overflows, data_overflows = pins[index]
            assert counts == {
                "evaluated": 21312,
                "factory": factory_overflows,
                "data": data_overflows,
            }, variant


def test_grid_search_leaves_no_cyclic_garbage():
    # A BudgetOverflow kept past its except block holds its traceback, whose
    # frame holds the search's locals: each search would then leave its rows
    # for the cyclic collector.
    gc.collect()
    gc.disable()
    try:
        grid_search(N, NE, HardwareProfile(), "original")
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("variant", ["original", "sliced_B"])
def test_grid_search_holds_one_block_of_rows(variant):
    # Each (g_exp, g_mul) block's rows fold into the running best and
    # frontier, so a search holds at most one block's rows. Peak traced
    # memory of one search: 2,068-2,193 KB holding every priced row, and
    # 278-302 KB folding per block.
    tracemalloc.start()
    try:
        grid_search(N, NE, HardwareProfile(), variant)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 768 * 1024


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
            binding="depth",
        )

    a, b, c = stub(10, 5), stub(12, 4), stub(11, 6)
    kept = pareto_frontier([c, b, a])
    assert [(r.mqb, r.expected_hours) for r in kept] == [(10, 5), (12, 4)]


# ---------------------------------------------------------------------------
# The calibration domain. Inside it and the point bounds every figure of a
# priced point is finite, so estimate() has no float-range refusal: a point
# either prices, passing audit_row, or overflows its error budget.


def domain_corners(count, seed):
    """count seeded corners of the calibration domain: each field at one end
    of its range, and p_phys at 1e-9 or error_threshold / 2."""
    rng = random.Random(seed)
    for _ in range(count):
        values = {name: rng.choice(bounds) for name, bounds in DOMAIN.items()}
        values["p_phys"] = rng.choice((DOMAIN["p_phys"][0], values["error_threshold"] / 2))
        yield HardwareProfile(**values)


# Both ends of L1 below the largest L2, with the largest d_off and g_sep; a
# search at n = MAX_G_SEP reaches that g_sep.
BOUND_POINTS = GridRanges(
    l1=(1, MAX_DISTANCE - 1),
    l2=(MAX_DISTANCE,),
    d_off=(MAX_D_OFF,),
    g_exp=(4,),
    g_mul=(4,),
    g_sep=(MAX_G_SEP,),
)


def test_domain_corners_price_or_overflow():
    # A search at the bound points takes about 0.3 ms; one on the default
    # grid takes up to 0.25 s where every point prices, so it sees 4 corners.
    searches = collections.Counter()
    corners = list(domain_corners(128, seed=33))
    runs = [(corner, MAX_G_SEP, BOUND_POINTS) for corner in corners]
    runs += [(corner, N, GridRanges()) for corner in corners[:4]]
    for profile, n, ranges in runs:
        try:
            grid_search(n, NE, profile, ranges=ranges)
        except ValueError as exc:
            assert str(exc).startswith("no grid point stays under the error budget"), exc
            searches["overflow", n] += 1
        else:
            searches["rows", n] += 1
    assert set(searches) == {(kind, n) for kind in ("rows", "overflow") for n in (N, MAX_G_SEP)}


def log_uniform(draw, lo, hi):
    """A float log-uniform in [lo, hi], for 0 < lo <= hi."""
    return min(hi, max(lo, lo * (hi / lo) ** draw(st.floats(0, 1))))


@st.composite
def log_domain_profiles(draw):
    """A HardwareProfile with each field log-uniform in its range in the
    calibration domain (from default / 100 where the range starts at 0),
    and p_phys at most error_threshold / 2. Most of these price some grid
    point; uniform draws favour range ends, where most searches overflow
    everywhere or every point's risk rounds to the same floor."""
    default = HardwareProfile()
    values = {
        name: log_uniform(draw, lo or getattr(default, name) / 100, hi)
        for name, (lo, hi) in DOMAIN.items()
        if name != "p_phys"
    }
    values["p_phys"] = log_uniform(draw, DOMAIN["p_phys"][0], values["error_threshold"] / 2)
    return HardwareProfile(**values)


ERROR_FIT = (
    "error_coeff",
    "error_threshold",
    "l0_injection_cells",
    "l1_factory_cells",
    "l2_factory_cells",
    "l1_distill_coeff",
    "l2_distill_coeff",
    "postprocess_error",
)
HEIGHTS = ("t1_height", "ccz_height", "cz_fixup_height", "adder_height", "routing_height")
WIDTHS = ("t1_width", "ccz_width", "storage_width")


def draw_point(data):
    """A point of the default grid."""
    l2 = data.draw(st.sampled_from(GRID.l2))
    l1 = data.draw(st.sampled_from([l1 for l1 in GRID.l1 if l1 < l2]))
    shape_axes = (GRID.d_off, GRID.g_mul, GRID.g_exp, GRID.g_sep)
    return LayoutPoint(l1, l2, *(data.draw(st.sampled_from(axis)) for axis in shape_axes))


def raise_field(data, profile, name):
    """profile with the field name raised log-uniformly within its range in
    the domain."""
    value = log_uniform(data.draw, getattr(profile, name), DOMAIN[name][1])
    return dataclasses.replace(profile, **{name: value})


def before_and_after(profile, raised, point):
    """The outcomes of point under the original variant at both profiles."""
    sched = shape("original", point)
    return [outcome(estimate, p, sched, factory(p, point.L1, point.L2)) for p in (profile, raised)]


@settings(max_examples=200, deadline=None)
@given(log_domain_profiles(), st.data())
def test_raising_p_phys_keeps_the_board_and_never_lowers_the_risk(profile, data):
    # Gidney and Ekera's error model: a noisier device needs no other board
    # and runs no longer, and its retry risk does not fall. An overflow is a
    # risk of 1, so once the lower p_phys overflows the higher one must.
    # A raise of at most 10x overflows the raised point less often, and by
    # chaining the law over small raises implies it over large ones.
    highest = min(10 * profile.p_phys, profile.error_threshold / 2)
    raised = dataclasses.replace(profile, p_phys=log_uniform(data.draw, profile.p_phys, highest))
    before, after = before_and_after(profile, raised, draw_point(data))
    if type(after) is EstimateRow:
        assert type(before) is EstimateRow
        assert (after.mqb, after.hours) == (before.mqb, before.hours)
        assert after.retry_risk >= before.retry_risk


@settings(max_examples=200, deadline=None)
@given(log_domain_profiles(), st.sampled_from(ERROR_FIT), st.data())
def test_a_worse_error_fit_keeps_the_board_and_never_lowers_the_risk(profile, name, data):
    # As for p_phys; a higher error_threshold is the mirror case, so it is
    # the lower threshold that plays the raised field.
    raised = raise_field(data, profile, name)
    if name == "error_threshold":
        profile, raised = raised, profile
    before, after = before_and_after(profile, raised, draw_point(data))
    if type(after) is EstimateRow:
        assert type(before) is EstimateRow
        assert (after.mqb, after.hours) == (before.mqb, before.hours)
        assert after.retry_risk >= before.retry_risk


@settings(max_examples=200, deadline=None)
@given(log_domain_profiles(), st.sampled_from(("serial_overhead", "reaction_ns")), st.data())
def test_a_slower_reaction_never_shortens_the_run(profile, name, data):
    # Both stretch the serial schedule. serial_overhead leaves the board
    # alone. A longer reaction time needs no more factory pairs per strip,
    # but Mqb moves both ways: at the domain's edge one pair fewer narrows a
    # strip so far that its registers need more rows than the pair saved.
    raised = raise_field(data, profile, name)
    point = draw_point(data)
    before, after = before_and_after(profile, raised, point)
    pairs = [factory(p, point.L1, point.L2).pairs for p in (profile, raised)]
    assert pairs[1] <= pairs[0]
    if type(before) is type(after) is EstimateRow:
        assert after.hours >= before.hours
        if name == "serial_overhead":
            assert after.mqb == before.mqb


@settings(max_examples=200, deadline=None)
@given(log_domain_profiles(), st.sampled_from(HEIGHTS + WIDTHS), st.data())
def test_a_larger_footprint_keeps_the_hours(profile, name, data):
    # Footprints size the board, not the schedule or the factory pairs. A
    # taller strip stores the same registers on more tiles, so Mqb and the
    # risk do not fall (an overflow is a risk of 1). A wider one needs fewer
    # register rows, so its Mqb and risk move both ways.
    raised = raise_field(data, profile, name)
    before, after = before_and_after(profile, raised, draw_point(data))
    if name in HEIGHTS and type(after) is EstimateRow:
        assert type(before) is EstimateRow
        assert after.mqb >= before.mqb
        assert after.retry_risk >= before.retry_risk
    if type(before) is type(after) is EstimateRow:
        assert after.hours == before.hours


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VARIANTS), st.data())
def test_a_longer_exponent_never_lowers_the_toffolis(variant, data):
    point = draw_point(data)
    n_e = data.draw(st.integers(1, 2 * NE))
    longer = data.draw(st.integers(n_e, 2 * NE))
    tofs = [shape(variant, point, N, e).tofs for e in (n_e, longer)]
    assert tofs[1] >= tofs[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VARIANTS), st.data())
def test_a_larger_offset_never_raises_the_deviation_errors(variant, data):
    # Each offset bit halves the deviation per addition; the repetitions
    # and pieces do not depend on the offset.
    point = draw_point(data)
    d_off = data.draw(st.integers(0, MAX_D_OFF))
    deeper = data.draw(st.integers(d_off, MAX_D_OFF))
    before, after = (shape(variant, point._replace(d_off=d), N, NE) for d in (d_off, deeper))
    assert after.coset_error <= before.coset_error
    assert after.runway_error <= before.runway_error


# Every L1 lies below every L2, so each sub-grid has a point to evaluate.
# Its 56 factories and 8 shapes take a few milliseconds to search.
SUPERSET = GridRanges(
    l1=(5, 7, 9, 11, 13, 15, 17),
    l2=(19, 21, 23, 25, 27, 29, 31, 33),
    d_off=(2, 9),
    g_exp=(4, 6),
    g_mul=(5,),
    g_sep=(1024, 2048),
)


def search_or_none(profile, variant, ranges):
    """grid_search at (N, NE), or None when every point overflows."""
    try:
        return grid_search(N, NE, profile, variant, ranges)
    except ValueError as exc:
        assert str(exc).startswith("no grid point stays under the error budget"), exc
        return None


@settings(max_examples=100, deadline=None)
@given(log_domain_profiles(), st.sampled_from(VARIANTS), st.data())
def test_a_larger_grid_never_finds_a_worse_best_or_frontier(profile, variant, data):
    # A superset grid evaluates every point of the sub-grid, so its best
    # skewed volume is no larger and its frontier weakly dominates each
    # frontier row of the sub-grid; it overflows only where the sub-grid does.
    axes = {}
    for field in dataclasses.fields(SUPERSET):
        axis = getattr(SUPERSET, field.name)
        chosen = data.draw(st.sets(st.sampled_from(axis), min_size=1))
        axes[field.name] = tuple(value for value in axis if value in chosen)
    sub = search_or_none(profile, variant, GridRanges(**axes))
    if sub is None:
        return
    full = search_or_none(profile, variant, SUPERSET)
    assert full is not None
    assert full.best.log_skewed_volume <= sub.best.log_skewed_volume
    for row in sub.frontier:
        assert any(
            top.mqb <= row.mqb and top.expected_hours <= row.expected_hours
            for top in full.frontier
        ), row


# Fields that do not reach the default grid's best row at (N, NE, original).
# adder_height does not at x0.8 either, so its lower order is weak.
UNMOVED = ("ccz_height", "storage_width")


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(HardwareProfile)])
def test_the_best_row_moves_with_each_field(profile, grid_original, name):
    # Every field but error_threshold costs qubits, time or risk as it grows
    # (q weights the qubits), so the best log skewed volume does not fall as
    # it is scaled from x0.8 to x1.25, and rises at x1.25 unless the field
    # never reaches the best row; a higher threshold is the mirror case.
    sign = -1 if name == "error_threshold" else 1
    base = grid_original.best.log_skewed_volume
    moves = [
        sign * (grid_search(N, NE, scaled, "original").best.log_skewed_volume - base)
        for scaled in (
            dataclasses.replace(profile, **{name: getattr(profile, name) * scale})
            for scale in (0.8, 1.25)
        )
    ]
    assert moves[0] <= 0 <= moves[1]
    if name in UNMOVED:
        assert moves == [0, 0]
    else:
        assert moves[1] > 0


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
    orig = price(profile, "original", point, n, n_e)
    comb = price(profile, "combined", point, n, n_e)
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
            orig = price(profile, "original", point)
            comb = price(profile, "combined", point)
            assert comb.b_tofs < orig.b_tofs
            assert comb.hours < orig.hours
