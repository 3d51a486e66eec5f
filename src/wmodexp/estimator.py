"""Physical-resource estimates: board layout, error budget, runtime, and
the parameter grid search.

The machine model is a surface-code board fed by two-level CCZ factories.
Per adder piece, a column of factory pairs sits above the data registers;
the factory pairing is provisioned so that state production keeps pace
with one reaction-limited Toffoli per reaction time. Runtime is therefore
depth-limited with a factory-throughput floor; estimate() computes both
and reports which one bound. All geometry and error-fit constants are
calibration data living in the HardwareProfile defaults, which a config
file may overlay; none is written into the formulas.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

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

    The argument is the overflowing LayoutPoint or a message. A point is
    rendered only when the error is shown, since the grid search raises and
    swallows one per overflowing point. `component` names the error term
    that reached 1, or "total" for their composition; None for a message.
    """

    def __init__(self, cause: object, component: str | None = None) -> None:
        super().__init__(cause)
        self.component = component

    def __str__(self) -> str:
        (cause,) = self.args
        return cause if isinstance(cause, str) else f"error budget saturated at {cause}"


# HardwareProfile fields that must be > 0: the cost formulas divide by all
# but q, and the selection metric needs q > 0.
_POSITIVE = frozenset({"cycle_ns", "reaction_ns", "error_threshold", "t1_depth", "ccz_depth", "q"})


@dataclass(frozen=True)
class HardwareProfile:
    """Device and calibration constants. A config file passed to
    load_profile (the CLI's --config) overlays these defaults key by key."""

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
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if f.name in _POSITIVE and value <= 0:
                raise ValueError(f"{f.name} must be > 0, got {value!r}")
            if value < 0:
                raise ValueError(f"{f.name} must be >= 0, got {value!r}")
        if not 0 < self.p_phys < 1:
            raise ValueError("p_phys must lie in (0, 1)")
        if self.postprocess_error >= 1:
            raise ValueError("postprocess_error must lie in [0, 1)")
        if self.serial_overhead < 1:
            raise ValueError("serial_overhead cannot beat the reaction limit")
        # Not a field: ==, hash, repr and the config keys ignore the memo.
        object.__setattr__(self, "_factories", {})

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

    def factory(self, point: LayoutPoint) -> Factory:
        """The CCZ factory at point's (L1, L2), priced once per profile."""
        key = point.L1, point.L2
        record = self._factories.get(key)
        if record is None:
            width, height, depth = factory_dimensions(self, point)
            ccz_time = depth * self.cycle_s * point.L2
            pairs = math.ceil(ccz_time / self.reaction_s / 2)
            error = ccz_state_error(self, point)
            record = self._factories[key] = Factory(error, width, height, ccz_time, pairs)
        return record


def parse_config(text: str) -> dict[str, float]:
    """Parse 'key = value' lines; blank lines and # comments ignored."""
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        try:
            values[key.strip()] = float(value.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad number {value.strip()!r}") from exc
    return values


def load_profile(path: str | None = None) -> HardwareProfile:
    """The HardwareProfile defaults, overlaid with an optional config file."""
    if path is None:
        return HardwareProfile()
    with open(path) as handle:
        values = parse_config(handle.read())
    unknown = set(values) - {f.name for f in fields(HardwareProfile)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return HardwareProfile(**values)


class LayoutPoint(namedtuple("LayoutPoint", "L1 L2 d_off g_mul g_exp g_sep")):
    """One operating point of the machine: factory distances, padding
    deviation, window sizes, and the runway separation. The data code
    distance is L2, the level-2 factory distance. A tuple checked on every
    construction, _replace included; points order lexicographically by
    field, which breaks ties between equal rows."""

    __slots__ = ()

    def __new__(cls, L1: int, L2: int, d_off: int, g_mul: int, g_exp: int, g_sep: int):
        if min(L1, L2, g_mul, g_exp, g_sep) < 1:
            raise ValueError("layout dimensions must be positive")
        if d_off < 0:
            raise ValueError("d_off must be >= 0")
        if L1 >= L2:
            raise ValueError("L1 must be smaller than L2")
        return super().__new__(cls, L1, L2, d_off, g_mul, g_exp, g_sep)

    @classmethod
    def _make(cls, iterable) -> LayoutPoint:
        return cls(*iterable)


# One CCZ factory at distances (L1, L2): its state error, its footprint in
# logical tiles at the data code distance, the time per CCZ state, and the
# factory pairs a strip needs for one CCZ per reaction time.
Factory = namedtuple("Factory", "ccz_error width height ccz_time_s pairs")


@dataclass(frozen=True)
class ErrorBudget:
    """Per-component failure probabilities of one run."""

    data_error: float
    factory_error: float
    coset_error: float
    runway_error: float
    postprocess_error: float

    def components(self) -> tuple[float, ...]:
        return (
            self.data_error,
            self.factory_error,
            self.coset_error,
            self.runway_error,
            self.postprocess_error,
        )

    @property
    def total(self) -> float:
        survival = 1.0
        for part in self.components():
            survival *= 1.0 - part
        return 1.0 - survival


# BudgetOverflow.component of each ErrorBudget.components() term.
_COMPONENTS = tuple(f.name.removesuffix("_error") for f in fields(ErrorBudget))


@dataclass(frozen=True)
class EstimateRow:
    """One fully evaluated operating point."""

    n: int
    n_e: int
    p_phys: float
    point: LayoutPoint
    variant: str
    initial_bits: int
    q: float
    retry_risk: float
    vol_per_run: float
    expected_vol: float
    mqb: float
    hours: float
    expected_hours: float
    b_tofs: float
    log_skewed_volume: float
    budget: ErrorBudget
    binding: str = "depth"


def audit_row(row: EstimateRow, rel: float = 1e-9) -> None:
    """Check the EstimateRow identities; raises AssertionError on drift,
    also under python -O."""

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)

    if not (
        0 <= row.retry_risk < 1
        and close(row.expected_hours, row.hours / (1 - row.retry_risk))
        and close(row.expected_vol, row.vol_per_run / (1 - row.retry_risk))
        and close(row.vol_per_run, row.mqb * row.hours / 24)
        and close(row.log_skewed_volume, row.q * math.log(row.mqb) + math.log(row.expected_hours))
    ):
        raise AssertionError(row)


# ---------------------------------------------------------------------------
# Board geometry, after the reference factory layout: level-1 T factories
# shrunk by L1/L2 feed one CCZ block, factory pairs tile a strip wide
# enough to sustain one CCZ per reaction time.


@dataclass(frozen=True)
class BoardLayout:
    pieces: int
    width: int
    height: int
    distillation_tiles: int
    tiles: int
    ccz_pairs: int
    ccz_time_s: float

    @property
    def storage_tiles(self) -> int:
        return self.tiles - self.pieces * self.distillation_tiles

    @property
    def toffoli_rate(self) -> float:
        """CCZ states produced per second across the whole board."""
        return 2.0 * self.pieces * self.ccz_pairs / self.ccz_time_s


def factory_dimensions(profile: HardwareProfile, point: LayoutPoint) -> tuple[int, int, float]:
    """(width, height, depth) of one CCZ factory block in logical tiles at
    the data code distance; depth is in code-distance rounds."""
    shrink = point.L1 / point.L2
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


def board_layout(
    profile: HardwareProfile, point: LayoutPoint, pieces: int, piece_len: int, registers: float
) -> BoardLayout:
    """Board of `pieces` strips, each holding `registers` data registers of
    piece_len qubits below its factory rows."""
    fac = profile.factory(point)
    width = (fac.width + 1) * fac.pairs + 1
    reg_rows = math.ceil(piece_len / (width - 2))
    height = math.ceil(
        fac.height * 2
        + profile.cz_fixup_height * 2
        + profile.adder_height
        + profile.routing_height
        + reg_rows * registers
    )
    distillation = fac.height * fac.width * fac.pairs * 2
    return BoardLayout(
        pieces=pieces,
        width=width,
        height=height,
        distillation_tiles=int(distillation),
        tiles=pieces * width * height,
        ccz_pairs=fac.pairs,
        ccz_time_s=fac.ccz_time_s,
    )


def physical_per_logical(code_distance: int) -> int:
    return 2 * (code_distance + 1) ** 2


def padding_bits(reps: int, pieces: int, d_off: int) -> int:
    """Coset/runway padding: enough bits that the expected deviation over
    all additions stays bounded, plus the searched offset."""
    return math.ceil(math.log2(max(2, reps * pieces))) + d_off


# ---------------------------------------------------------------------------
# Core estimate.


def estimate(profile: HardwareProfile, point: LayoutPoint, cost_row: CostBreakdown) -> EstimateRow:
    """Evaluate one operating point.

    The problem size (n, n_e), the per-repetition costs and the register
    count come from the supplied CostBreakdown, so the variant choice lives
    there. The adder's plain 2n Toffolis and steps are recharged against
    the padded register and piece lengths, keeping the variant's difference
    from 2n, and repetition counts use ceiling window counts. Raises
    BudgetOverflow when the accumulated error probability reaches 1; the
    factory error is checked first, before the schedule and board are priced.
    """
    if point.g_exp != cost_row.w_e or point.g_mul != cost_row.w_m:
        raise ValueError("cost_row windows disagree with the layout point")
    n, n_e = cost_row.n, cost_row.n_e
    pieces = math.ceil(n / point.g_sep)
    windowed_bits = n_e - cost_row.initial_bits
    reps = 2 * math.ceil(windowed_bits / point.g_exp) * math.ceil(n / point.g_mul)
    pad = padding_bits(reps, pieces, point.d_off)
    piece_len = point.g_sep + pad
    reg_len = n + pad * pieces

    add_tofs = 2 * reg_len + (cost_row.add_tofs - 2 * n)
    tofs = cost_row.adt_factor + reps * (
        cost_row.lookup_tofs + add_tofs + cost_row.unlookup_tofs
    )
    ccz_error = profile.factory(point).ccz_error
    if tofs * ccz_error >= 1:
        raise BudgetOverflow(point, "factory")

    # Serial reaction-limited schedule. Lookup and unlookup contribute
    # their analytic per-addition depths (walk uncompute legs pipeline into
    # the compute gaps, so depth rather than gate count paces the clock),
    # while the adder depth is recharged against the runway piece length.
    # serial_overhead stretches the bare reaction time for feedforward and
    # routing stalls. The factories cap the schedule from below: the run
    # can never finish faster than the board distills its CCZ states.
    add_steps = 2.0 * piece_len + (cost_row.add_depth - 2 * n)
    serial_steps = cost_row.adt_factor + reps * (
        cost_row.lookup_depth + add_steps + cost_row.unlookup_depth
    )
    depth_s = serial_steps * profile.reaction_s * profile.serial_overhead

    board = board_layout(profile, point, pieces, piece_len, cost_row.logical_qubits / n)
    mqb = board.tiles * physical_per_logical(point.L2) / 1e6
    factory_s = tofs / board.toffoli_rate
    runtime_s = max(depth_s, factory_s)
    binding = "depth" if depth_s >= factory_s else "factory"
    hours = runtime_s / 3600.0

    budget = error_budget(profile, point, tofs * ccz_error, reps, pieces, pad, board, runtime_s)
    for name, part in zip(_COMPONENTS, budget.components()):
        if part >= 1:
            raise BudgetOverflow(point, name)
    risk = budget.total
    if risk >= 1:
        raise BudgetOverflow(point, "total")

    vol_per_run = mqb * hours / 24.0
    expected_hours = hours / (1 - risk)
    log_skewed_volume = profile.q * math.log(mqb) + math.log(expected_hours)
    if not math.isfinite(log_skewed_volume):
        raise ValueError(f"q = {profile.q!r} overflows the log skewed volume")
    row = EstimateRow(
        n=n,
        n_e=n_e,
        p_phys=profile.p_phys,
        point=point,
        variant=cost_row.variant,
        initial_bits=cost_row.initial_bits,
        q=profile.q,
        retry_risk=risk,
        vol_per_run=vol_per_run,
        expected_vol=vol_per_run / (1 - risk),
        mqb=mqb,
        hours=hours,
        expected_hours=expected_hours,
        b_tofs=tofs / 1e9,
        log_skewed_volume=log_skewed_volume,
        budget=budget,
        binding=binding,
    )
    audit_row(row)
    return row


def ccz_state_error(profile: HardwareProfile, point: LayoutPoint) -> float:
    """Failure probability of one CCZ state out of the two-level factory:
    injection at distance L1 // 2, then level-1 and level-2 distillation."""
    l0 = profile.p_phys + profile.l0_injection_cells * profile.unit_cell_error(point.L1 // 2)
    l1 = profile.l1_distill_coeff * l0**3 + profile.l1_factory_cells * profile.unit_cell_error(
        point.L1
    )
    return profile.l2_distill_coeff * l1**2 + profile.l2_factory_cells * profile.unit_cell_error(
        point.L2
    )


def error_budget(
    profile: HardwareProfile,
    point: LayoutPoint,
    factory: float,
    reps: int,
    pieces: int,
    pad: int,
    board: BoardLayout,
    runtime_s: float,
) -> ErrorBudget:
    """Failure probability per component; `factory` is tofs * ccz_state_error."""
    d = point.L2
    unit_cell_rounds = runtime_s / (profile.cycle_s * d)
    data = board.storage_tiles * unit_cell_rounds * profile.unit_cell_error(d)

    deviation = 2.0**-pad
    coset = reps * deviation
    runway = reps * (pieces - 1) * deviation

    return ErrorBudget(
        data_error=min(data, 1.0),
        factory_error=min(factory, 1.0),
        coset_error=min(coset, 1.0),
        runway_error=min(runway, 1.0),
        postprocess_error=profile.postprocess_error,
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

    Returns the skewed-volume minimizer (ranked by its log, ties broken by
    lexicographic point), the Pareto frontier over (mqb, expected_hours),
    and the best row under each physical-qubit budget. Raises ValueError
    when every g_sep exceeds n, so no point can be evaluated, and
    BudgetOverflow when every evaluated point overflows the error budget.
    """
    ranges = ranges or GridRanges()
    if min(ranges.g_sep) > n:
        raise ValueError(
            f"every grid g_sep exceeds n = {n} (smallest g_sep is {min(ranges.g_sep)}), "
            "so no grid point can be evaluated"
        )
    rows: list[EstimateRow] = []
    shapes: list[tuple[int, int, int, CostBreakdown]] = []
    for g_exp in ranges.g_exp:
        for g_mul in ranges.g_mul:
            cost_row = _variant_cost(variant, n, n_e, g_exp, g_mul)
            shapes += [(g_mul, g_exp, g_sep, cost_row) for g_sep in ranges.g_sep if g_sep <= n]
    for l1 in ranges.l1:
        for l2 in ranges.l2:
            if l1 >= l2:
                continue
            for d_off in ranges.d_off:
                for g_mul, g_exp, g_sep, cost_row in shapes:
                    point = LayoutPoint(l1, l2, d_off, g_mul, g_exp, g_sep)
                    try:
                        rows.append(estimate(profile, point, cost_row))
                    except BudgetOverflow:
                        continue
    if not rows:
        raise BudgetOverflow("no grid point stays under the error budget")
    best = min(rows, key=lambda r: (r.log_skewed_volume, r.point))
    frontier = pareto_frontier(rows)
    by_budget = tuple((b, best_under_budget(frontier, b)) for b in budgets)
    return GridResult(best=best, frontier=frontier, by_budget=by_budget)


def pareto_frontier(rows: list[EstimateRow]) -> tuple[EstimateRow, ...]:
    """Rows not dominated in both mqb and expected_hours; sorted by mqb."""
    ordered = sorted(rows, key=lambda r: (r.mqb, r.expected_hours, r.point))
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
    best: EstimateRow | None = None
    for row in frontier:
        if row.mqb <= budget_mqb and (best is None or row.expected_hours < best.expected_hours):
            best = row
    return best
