"""Physical-resource estimates: board layout, error budget, runtime, and
the parameter grid search.

The machine model is a surface-code board fed by two-level CCZ factories.
Per adder piece, a column of factory pairs sits above the data registers;
the factory pairing is provisioned so that state production keeps pace
with one reaction-limited Toffoli per reaction time. Runtime is therefore
depth-limited with a factory-throughput floor; estimate() computes both
and reports which one bound. All geometry and error-fit constants are
calibration data living in the HardwareProfile defaults, which a config
file may overlay within profile_domain(); none is written into the formulas.

A point is priced from two records, each built once, so that estimate()
does only the arithmetic that needs both. schedule() books what the cost
row, g_sep and d_off fix: pieces, repetitions, padding, Toffolis, serial
steps, data registers per piece, and the coset and runway errors.
factory() books what the distances (L1, L2) and the profile fix: the CCZ
state error, footprint, CCZ time and pair count, the board strip's width,
fixed height and distillation tiles, the physical qubits per tile, the
round time and unit-cell error at the data code distance, and the reaction
time. Every board figure, here and in estimate(), is a float rounded up by
-(-x // 1). estimate() combines one of each into the point's board,
runtime, data and factory errors, and row, or raises BudgetOverflow(term)
naming the error term that reached 1. The grid search builds the factories
once and one Schedule per (cost row, g_sep, d_off), prices every
factory against each Schedule, and runs audit_row on each row it returns.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from operator import attrgetter

from .costs import CostBreakdown, cost, crossover_initial_lookup, variant_flags

# Physical-qubit budgets (in millions) for the matched-budget comparison
# tables; each is the footprint of some operating point on the frontier.
DEFAULT_MQB_BUDGETS = (
    14.747,
    15.592,
    17.492,
    18.513,
    19.249,
    21.616,
    24.001,
    25.265,
    27.308,
    29.184,
    32.602,
    40.075,
)


class BudgetOverflow(RuntimeError):
    """Accumulated error probability reached 1; the run cannot succeed.

    The only argument is the error term that reached 1: "factory", "data",
    "coset", or "total" for their composition. The caller holds the point.
    """


# The calibration domain: each HardwareProfile field lies in the closed
# range [default / 100, default * 100] unless listed here, and p_phys is at
# most error_threshold / 2, so the error fit falls with the code distance.
# Widths stay positive, so every board strip has data columns. Inside the
# domain and the point bounds below, every figure of a priced point is
# finite, and an error term at or above 1 is a BudgetOverflow.
DOMAIN_EXCEPTIONS = {
    "p_phys": (1e-9, 0.5),
    "serial_overhead": (1.0, 130.0),  # from the bare reaction limit
    "q": (0.012, 1000.0),
    "postprocess_error": (0.0, 0.5),  # 0 switches the term off
    "error_coeff": (0.0, 10.0),
}


@dataclass(frozen=True)
class HardwareProfile:
    """Device and calibration constants, checked against profile_domain()
    on construction. The fields are the whole state and the config keys:
    load_profile overlays these defaults key by key with a config's text
    (the CLI's --config)."""

    # Physical device.
    p_phys: float = 1e-3
    cycle_ns: float = 1000.0
    reaction_ns: float = 10000.0
    # Wall-clock stretch on the reaction-limited critical path. Feedforward
    # decoding, factory restocking and routing congestion stall the serial
    # schedule; 1.3 is calibrated against published end-to-end runtimes.
    serial_overhead: float = 1.3
    # Volume skew exponent for the selection metric.
    q: float = 1.2
    # Classical postprocessing retry allowance.
    postprocess_error: float = 0.01
    # Logical failure fit per qubit per code-distance-round block:
    # error_coeff * (p_phys / error_threshold) ** ((d + 1) / 2).
    error_coeff: float = 0.1
    error_threshold: float = 0.01
    # Two-level CCZ distillation: topological unit cells charged to each
    # stage and the distillation suppression coefficients.
    l0_injection_cells: float = 100.0
    l1_factory_cells: float = 1100.0
    l2_factory_cells: float = 1000.0
    l1_distill_coeff: float = 35.0
    l2_distill_coeff: float = 28.0
    # Factory footprints in logical tiles at the level-2 code distance. The
    # level-1 blocks shrink by L1/L2; depths are in code-distance rounds.
    t1_width: float = 8.0
    t1_height: float = 4.0
    t1_depth: float = 5.75
    t_per_ccz: float = 8.0
    ccz_width: float = 3.0
    ccz_height: float = 6.0
    ccz_depth: float = 5.0
    storage_width: float = 2.0
    # Board strips between the factory rows and the data registers.
    cz_fixup_height: float = 3.0
    adder_height: float = 3.0
    routing_height: float = 6.0

    def __post_init__(self) -> None:
        for name, (lo, hi) in profile_domain().items():
            value = getattr(self, name)
            if not lo <= value <= hi:  # NaN included
                raise ValueError(f"{name} must lie in [{lo!r}, {hi!r}], got {value!r}")
        if self.p_phys > self.error_threshold / 2:
            raise ValueError(
                f"p_phys must be at most error_threshold / 2 = {self.error_threshold / 2!r}, "
                f"got {self.p_phys!r}"
            )

    @property
    def cycle_s(self) -> float:
        return self.cycle_ns * 1e-9

    @property
    def reaction_s(self) -> float:
        return self.reaction_ns * 1e-9

    def unit_cell_error(self, code_distance: int) -> float:
        """Logical failure probability of one qubit over one distance-d
        round block."""
        ratio = self.p_phys / self.error_threshold
        return self.error_coeff * ratio ** ((code_distance + 1) / 2)


def profile_domain() -> dict[str, tuple[float, float]]:
    """The closed range of each HardwareProfile field, in field order."""
    return {
        f.name: DOMAIN_EXCEPTIONS.get(f.name) or (f.default / 100, f.default * 100)
        for f in fields(HardwareProfile)
    }


def parse_config(text: str) -> dict[str, float]:
    """Parse 'key = value' lines; blank lines and # comments ignored. A key
    given twice is refused, naming both lines."""
    values: dict[str, float] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in lines:
            raise ValueError(f"line {lineno}: {key} repeats line {lines[key]}")
        lines[key] = lineno
        try:
            values[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad number {value!r}") from exc
    return values


def load_profile(text: str = "") -> HardwareProfile:
    """The HardwareProfile defaults, overlaid with the config text; reads no file."""
    values = parse_config(text)
    unknown = set(values) - {f.name for f in fields(HardwareProfile)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return HardwareProfile(**values)


# One operating point of the machine: factory distances, padding deviation,
# window sizes and the runway separation; the data code distance is L2.
# Points order lexicographically by field, which breaks ties between equal
# rows. factory(), schedule() and cost() refuse its bad fields, the first
# two past the upper bounds below as well, which lie far past any useful
# layout and, with the calibration domain, keep every figure finite.
LayoutPoint = namedtuple("LayoutPoint", "L1 L2 d_off g_mul g_exp g_sep")

MAX_DISTANCE = 1000
MAX_D_OFF = 1000
MAX_G_SEP = 2**20


# One CCZ factory at distances (L1, L2) under a profile, with every term of a
# point's price that the distances and the profile alone fix:
# - the factory: its CCZ state error, its footprint (width, height) in
#   logical tiles at the data code distance L2, the time per CCZ state, and
#   the factory pairs a strip needs for one CCZ per reaction time;
# - the board strip: its width in tiles, the height of its fixed rows above
#   the data registers, and the distillation tiles of its factory pairs;
# - the data code: physical qubits per tile, the time of one code-distance
#   round block, the unit-cell error of one tile over it, and the reaction
#   time.
Factory = namedtuple(
    "Factory",
    "L1 L2 ccz_error width height ccz_time_s pairs board_width strip_height "
    "distillation_tiles qubits_per_tile round_s unit_cell_error reaction_s",
)


class ErrorBudget(
    namedtuple(
        "ErrorBudget", "data_error factory_error coset_error runway_error postprocess_error"
    )
):
    """Per-component failure probabilities of one run."""

    __slots__ = ()

    @property
    def total(self) -> float:
        """1 minus the product of the component survivals, in field order:
        the retry risk of estimate()'s row."""
        data, factory, coset, runway, postprocess = self
        survival = (1.0 - data) * (1.0 - factory) * (1.0 - coset) * (1.0 - runway)
        return 1.0 - survival * (1.0 - postprocess)


# One fully evaluated operating point.
EstimateRow = namedtuple(
    "EstimateRow",
    "n n_e p_phys point variant initial_bits q retry_risk vol_per_run expected_vol "
    "mqb hours expected_hours b_tofs log_skewed_volume budget binding",
)


# Relative tolerance of each audit_row identity.
AUDIT_REL = 1e-9


def _close(a: float, b: float) -> bool:
    """abs(a - b) <= AUDIT_REL * max(abs(a), abs(b), 1e-300) on finite
    values; unlike that test, it accepts inf against inf."""
    return math.isclose(a, b, rel_tol=AUDIT_REL, abs_tol=AUDIT_REL * 1e-300)


def audit_row(row: EstimateRow) -> None:
    """Check the EstimateRow identities to AUDIT_REL; raises AssertionError
    on drift, also under python -O. The two ends of the identity chain,
    expected_vol and the log skewed volume, must be finite; through the
    identities, so is every other figure."""
    if not (
        0 <= row.retry_risk < 1
        and math.isfinite(row.expected_vol)
        and math.isfinite(row.log_skewed_volume)
        and _close(row.expected_hours, row.hours / (1 - row.retry_risk))
        and _close(row.expected_vol, row.vol_per_run / (1 - row.retry_risk))
        and _close(row.vol_per_run, row.mqb * row.hours / 24)
        and _close(
            row.log_skewed_volume, row.q * math.log(row.mqb) + math.log(row.expected_hours)
        )
    ):
        raise AssertionError(row)


# ---------------------------------------------------------------------------
# The CCZ factory and its board strip, after the reference factory layout:
# level-1 T factories shrunk by L1/L2 feed one CCZ block, and factory pairs
# tile a strip wide enough to sustain one CCZ per reaction time.


def factory(profile: HardwareProfile, L1: int, L2: int) -> Factory:
    """The CCZ factory at distances (L1, L2) under profile; ValueError
    unless 0 < L1 < L2 <= MAX_DISTANCE. Each board figure is a float
    rounded up by -(-x // 1)."""
    if not 0 < L1 < L2 <= MAX_DISTANCE:
        raise ValueError(
            f"factory distances need 0 < L1 < L2 <= {MAX_DISTANCE}, got L1={L1}, L2={L2}"
        )
    ccz_error = ccz_state_error(profile, L1, L2)
    shrink = L1 / L2
    t1_w = profile.t1_width * shrink
    t1_h = profile.t1_height * shrink
    t1_d = profile.t1_depth * shrink
    ccz_rate = 1.0 / profile.ccz_depth
    t1_rate = 1.0 / t1_d
    t1_count = -(-(ccz_rate * profile.t_per_ccz / t1_rate) // 1)
    column_height = t1_h * -(-(t1_count / 2) // 1)
    width = -(-(t1_w * 2 + profile.ccz_width + profile.storage_width * shrink) // 1)
    height = -(-max(column_height, profile.ccz_height) // 1)
    ccz_time = max(profile.ccz_depth, t1_d) * profile.cycle_s * L2
    pairs = -(-(ccz_time / profile.reaction_s / 2) // 1)
    strip_height = (
        height * 2 + profile.cz_fixup_height * 2 + profile.adder_height + profile.routing_height
    )
    return Factory(
        L1,
        L2,
        ccz_error,
        width,
        height,
        ccz_time,
        pairs,
        (width + 1) * pairs + 1,
        strip_height,
        height * width * pairs * 2,
        2 * (L2 + 1) ** 2,
        profile.cycle_s * L2,
        profile.unit_cell_error(L2),
        profile.reaction_s,
    )


def ccz_state_error(profile: HardwareProfile, L1: int, L2: int) -> float:
    """Failure probability of one CCZ state out of the two-level factory:
    injection at distance L1 // 2, then level-1 and level-2 distillation."""
    l0 = profile.p_phys + profile.l0_injection_cells * profile.unit_cell_error(L1 // 2)
    l1 = profile.l1_distill_coeff * l0**3 + profile.l1_factory_cells * profile.unit_cell_error(L1)
    return profile.l2_distill_coeff * l1**2 + profile.l2_factory_cells * profile.unit_cell_error(L2)


def padding_bits(reps: int, pieces: int, d_off: int) -> int:
    """Coset/runway padding: enough bits that the expected deviation over
    all additions stays bounded, plus the searched offset; exact at any size."""
    return (max(2, reps * pieces) - 1).bit_length() + d_off


# ---------------------------------------------------------------------------
# Core estimate: the per-shape schedule, then the per-point price.

# The half of a point's price that the factory distances cannot change:
# the cost row and the runway shape (g_sep, d_off) fix the adder pieces, the
# repetitions, the padding, the Toffolis and serial steps of the whole run,
# the data registers per piece, and the coset and runway deviation errors.
Schedule = namedtuple(
    "Schedule",
    "cost_row g_sep d_off pieces reps pad piece_len tofs serial_steps registers "
    "coset_error runway_error",
)


def layout_point(sched: Schedule, fac: Factory) -> LayoutPoint:
    """The LayoutPoint of fac's distances and sched's shape."""
    cost_row = sched.cost_row
    return tuple.__new__(
        LayoutPoint, (fac.L1, fac.L2, sched.d_off, cost_row.w_m, cost_row.w_e, sched.g_sep)
    )


def schedule(cost_row: CostBreakdown, g_sep: int, d_off: int) -> Schedule:
    """The Schedule of every point with cost_row's windows, g_sep and d_off.

    The adder's plain 2n Toffolis and steps are recharged against the padded
    register and piece lengths, keeping the variant's difference from 2n,
    and repetition counts use ceiling window counts. Lookup and unlookup
    contribute their analytic per-addition depths (walk uncompute legs
    pipeline into the compute gaps, so depth rather than gate count paces
    the clock), while the adder depth is recharged against the runway piece
    length. Each addition deviates with probability 2^-pad per coset and
    per runway between pieces. As 2^pad >= reps * pieces * 2^d_off, the
    coset error is at most 1 and the runway error below 1.
    """
    if not (0 < g_sep <= MAX_G_SEP and 0 <= d_off <= MAX_D_OFF):
        raise ValueError(
            f"runway shape needs 1 <= g_sep <= {MAX_G_SEP} and 0 <= d_off <= {MAX_D_OFF}, "
            f"got g_sep={g_sep}, d_off={d_off}"
        )
    n, n_e = cost_row.n, cost_row.n_e
    pieces = math.ceil(n / g_sep)
    windowed_bits = n_e - cost_row.initial_bits
    reps = 2 * math.ceil(windowed_bits / cost_row.w_e) * math.ceil(n / cost_row.w_m)
    pad = padding_bits(reps, pieces, d_off)
    piece_len = g_sep + pad
    reg_len = n + pad * pieces

    add_tofs = 2 * reg_len + (cost_row.add_tofs - 2 * n)
    tofs = cost_row.adt_factor + reps * (
        cost_row.lookup_tofs + add_tofs + cost_row.unlookup_tofs
    )
    add_steps = 2.0 * piece_len + (cost_row.add_depth - 2 * n)
    serial_steps = cost_row.adt_factor + reps * (
        cost_row.lookup_depth + add_steps + cost_row.unlookup_depth
    )
    registers = cost_row.logical_qubits / n
    deviation = 2.0**-pad
    coset_error = reps * deviation
    runway_error = reps * (pieces - 1) * deviation
    return Schedule(
        cost_row,
        g_sep,
        d_off,
        pieces,
        reps,
        pad,
        piece_len,
        tofs,
        serial_steps,
        registers,
        coset_error,
        runway_error,
    )


def estimate(profile: HardwareProfile, sched: Schedule, fac: Factory) -> EstimateRow:
    """Price the operating point of sched's shape and fac's distances.

    The point is (fac.L1, fac.L2) with sched's d_off, windows and g_sep.
    The problem size (n, n_e), the variant, the run's Toffolis and serial
    steps and its deviation errors come from sched; the CCZ factory, its
    board strip and the data code's terms come from fac, which must have
    been built for profile. What is left is the arithmetic that needs both:
    the board, the runtime and the data and factory errors. Raises
    BudgetOverflow(term) when an error term is not below 1 (NaN included),
    checking the factory error first, before the board is priced, then the
    data and coset errors, then the row's retry risk, ErrorBudget.total
    ("total"). The schedule keeps the runway error below 1, and the profile
    the postprocess error. The row is not audited here: grid_search runs
    audit_row on the rows it returns.
    """
    tofs = sched.tofs
    factory_error = tofs * fac.ccz_error
    if not factory_error < 1:
        raise BudgetOverflow("factory")

    # The board: `pieces` strips, each holding the data registers of one
    # adder piece below the rows of fac's factory pairs, between the strip's
    # two edge columns.
    pieces = sched.pieces
    width = fac.board_width
    reg_rows = -(-(sched.piece_len / (width - 2)) // 1)
    height = -(-(fac.strip_height + reg_rows * sched.registers) // 1)
    tiles = pieces * width * height
    mqb = tiles * fac.qubits_per_tile / 1e6

    # Serial reaction-limited schedule. serial_overhead stretches the bare
    # reaction time for feedforward and routing stalls. The factories cap
    # the schedule from below: the run can never finish faster than the
    # board distills its CCZ states.
    depth_s = sched.serial_steps * fac.reaction_s * profile.serial_overhead
    factory_s = tofs / (2.0 * pieces * fac.pairs / fac.ccz_time_s)
    runtime_s = max(depth_s, factory_s)
    binding = "depth" if depth_s >= factory_s else "factory"
    hours = runtime_s / 3600.0

    # Every tile outside the distillation blocks stores data for the run.
    storage_tiles = tiles - pieces * fac.distillation_tiles
    data_error = storage_tiles * (runtime_s / fac.round_s) * fac.unit_cell_error
    if not data_error < 1:
        raise BudgetOverflow("data")
    coset_error = sched.coset_error
    if not coset_error < 1:
        raise BudgetOverflow("coset")
    # tuple.__new__ (here, for the row and in layout_point) skips the named
    # tuples' Python-level __new__, which took a sixth of a row's price; the
    # fields go in their declared order.
    budget = tuple.__new__(
        ErrorBudget,
        (data_error, factory_error, coset_error, sched.runway_error, profile.postprocess_error),
    )
    risk = budget.total
    if not risk < 1:
        raise BudgetOverflow("total")

    vol_per_run = mqb * hours / 24.0
    expected_hours = hours / (1 - risk)
    cost_row = sched.cost_row
    return tuple.__new__(
        EstimateRow,
        (
            cost_row.n,
            cost_row.n_e,
            profile.p_phys,
            layout_point(sched, fac),
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
        ),
    )


# ---------------------------------------------------------------------------
# Grid search.


@dataclass(frozen=True)
class GridRanges:
    l1: tuple[int, ...] = (5, 7, 9, 11, 13, 15, 17)
    l2: tuple[int, ...] = (11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 33)
    d_off: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9)
    g_exp: tuple[int, ...] = (4, 5, 6)
    g_mul: tuple[int, ...] = (4, 5, 6)
    g_sep: tuple[int, ...] = (256, 512, 1024, 2048)


@dataclass(frozen=True)
class GridResult:
    best: EstimateRow
    frontier: tuple[EstimateRow, ...]
    by_budget: tuple[tuple[float, EstimateRow | None], ...]


def _variant_cost(variant: str, n: int, n_e: int, g_exp: int, g_mul: int) -> CostBreakdown:
    initial = 0
    if variant_flags(variant).initial_lookup:
        initial = min(crossover_initial_lookup(n, g_exp, g_mul), n_e)
    return cost(variant, n, n_e, g_exp, g_mul, initial)


def grid_search(
    n: int,
    n_e: int,
    profile: HardwareProfile,
    variant: str = "original",
    ranges: GridRanges | None = None,
    budgets: tuple[float, ...] = DEFAULT_MQB_BUDGETS,
) -> GridResult:
    """Exhaustive evaluation over the layout grid.

    Builds one Factory per (L1, L2) pair with L1 < L2, one cost row per
    (g_exp, g_mul) and one Schedule per (cost row, g_sep, d_off), then
    prices every factory against each Schedule. Returns the skewed-volume
    minimizer (ranked by its log, ties broken by lexicographic point), the
    Pareto frontier over (mqb, expected_hours), and the best row under each
    physical-qubit budget; all three rank rows by point, so the order of
    evaluation does not matter. audit_row checks the best row and every
    frontier row, which include the by-budget rows. Raises ValueError,
    before any cost row is built, when n is not positive, an axis of ranges
    is empty, every g_sep exceeds n or no L1 is below an L2, so no point can
    be evaluated; and when every evaluated point overflows the error budget,
    naming the last point the loop evaluated and its BudgetOverflow's term.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got n = {n}")
    ranges = ranges or GridRanges()
    empty = [f.name for f in fields(ranges) if not getattr(ranges, f.name)]
    if empty:
        raise ValueError(f"empty grid axis {', '.join(empty)}, so no grid point can be evaluated")
    g_seps = [g_sep for g_sep in ranges.g_sep if g_sep <= n]
    if not g_seps:
        raise ValueError(
            f"every grid g_sep exceeds n = {n} (smallest g_sep is {min(ranges.g_sep)}), "
            "so no grid point can be evaluated"
        )
    factories = [factory(profile, l1, l2) for l1 in ranges.l1 for l2 in ranges.l2 if l1 < l2]
    if not factories:
        raise ValueError(f"L1 must be smaller than L2, got L1 in {ranges.l1}, L2 in {ranges.l2}")
    rows: list[EstimateRow] = []
    for g_exp in ranges.g_exp:
        for g_mul in ranges.g_mul:
            cost_row = _variant_cost(variant, n, n_e, g_exp, g_mul)
            for g_sep in g_seps:
                for d_off in ranges.d_off:
                    sched = schedule(cost_row, g_sep, d_off)
                    for fac in factories:
                        try:
                            rows.append(estimate(profile, sched, fac))
                        except BudgetOverflow as exc:
                            term = exc.args[0]
    if not rows:
        # Every point overflowed, so the loop ended on the last overflow.
        last = f"(last overflow: {term} error at {layout_point(sched, fac)})"
        raise ValueError(f"no grid point stays under the error budget {last}")
    best = min(rows, key=attrgetter("log_skewed_volume", "point"))
    frontier = pareto_frontier(rows)
    for row in (best, *frontier):
        audit_row(row)
    by_budget = tuple((b, best_under_budget(frontier, b)) for b in budgets)
    return GridResult(best=best, frontier=frontier, by_budget=by_budget)


def pareto_frontier(rows: list[EstimateRow]) -> tuple[EstimateRow, ...]:
    """Rows not dominated in both mqb and expected_hours; sorted by mqb."""
    ordered = sorted(rows, key=attrgetter("mqb", "expected_hours", "point"))
    frontier: list[EstimateRow] = []
    best_hours = math.inf
    for row in ordered:
        if row.expected_hours < best_hours:
            frontier.append(row)
            best_hours = row.expected_hours
    return tuple(frontier)


def best_under_budget(
    frontier: tuple[EstimateRow, ...], budget_mqb: float
) -> EstimateRow | None:
    """Lowest expected_hours among frontier rows with mqb <= budget."""
    within = (row for row in frontier if row.mqb <= budget_mqb)
    return min(within, key=attrgetter("expected_hours"), default=None)
