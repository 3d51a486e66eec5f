"""Cost ledgers for the windowed modular exponentiation family.

Two layers with different contracts. ``cost`` evaluates the closed-form
per-repetition model with continuous window counts, which is what window
grid searches and scheme comparisons want. ``exact_cost`` takes its
windows, ragged boundary windows included, and its register sizes from the
synthesizer's ModexpPlan, books each window's Toffolis by its own formulas,
and agrees with the metered tally of the built circuit exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .builders import ModexpConfig, ModexpOptions, plan_modexp


@dataclass(frozen=True)
class Variant:
    """Which of the four optimizations a variant name switches on, and
    whether the variant has a circuit form; the sliced variants exist only
    as closed-form adjustments in cost()."""

    deferred_unlookup: bool = False
    selective_lookup: bool = False
    initial_lookup: bool = False
    lowdepth_unary: bool = False
    has_circuit: bool = True

    def options(self, initial_bits: int) -> ModexpOptions:
        """Circuit flags for this variant; initial_bits applies only when
        the variant takes an initial lookup."""
        return ModexpOptions(
            deferred_unlookup=self.deferred_unlookup,
            selective_lookup=self.selective_lookup,
            initial_lookup_bits=initial_bits if self.initial_lookup else 0,
            lowdepth_unary=self.lowdepth_unary,
        )


VARIANT_TABLE = {
    # plain windowed recursion, immediate unlookups
    "original": Variant(),
    # unlookups deferred to one shared fixup block per sweep
    "opt1": Variant(deferred_unlookup=True),
    # selective lookup, skipping the mult=0 rows of every table
    "opt2": Variant(selective_lookup=True),
    # direct initial lookup over the low exponent bits
    "opt3": Variant(initial_lookup=True),
    # low-depth unary conversion via the fanout tree
    "opt4": Variant(lowdepth_unary=True),
    # all four at once
    "combined": Variant(True, True, True, True),
    # sliced adder workspace, trading depth for qubits
    "sliced_A": Variant(has_circuit=False),
    # sliced adder workspace, trading Toffolis within equal qubits
    "sliced_B": Variant(has_circuit=False),
}
VARIANTS = tuple(VARIANT_TABLE)
CIRCUIT_VARIANTS = tuple(name for name, row in VARIANT_TABLE.items() if row.has_circuit)

# No int of FLOAT_BITS bits converts to a float. cost() checks each width
# against it before it builds or converts an int, so a huge input fails at
# once instead of building 2**width first.
FLOAT_BITS = sys.float_info.max_exp


def _unfit(what: str, **params: int) -> ValueError:
    named = ", ".join(f"{name}={value}" for name, value in params.items())
    return ValueError(f"{what} at {named} does not fit a finite float")


def variant_flags(variant: str) -> Variant:
    """The VARIANT_TABLE row of variant; raises ValueError."""
    try:
        return VARIANT_TABLE[variant]
    except KeyError:
        raise ValueError(f"unknown variant {variant!r}") from None


@dataclass(frozen=True)
class CostBreakdown:
    """Per-repetition and total costs of one scheme at one parameter point.

    lookup/add/unlookup fields are per lookup-addition; totals follow
    total = adt_factor + reps * (lookup + add + unlookup), with the same
    composition for depth. adt_factor books the one-off initial lookup.
    """

    variant: str
    n: int
    n_e: int
    w_e: int
    w_m: int
    initial_bits: int
    reps: float
    adt_factor: int
    lookup_tofs: float
    add_tofs: float
    unlookup_tofs: float
    lookup_depth: float
    add_depth: float
    unlookup_depth: float
    total_tofs: float
    total_depth: float
    logical_qubits: int


def cost(
    variant: str,
    n: int,
    n_e: int,
    w_e: int,
    w_m: int,
    initial_bits: int = 0,
) -> CostBreakdown:
    """Closed-form cost of one variant.

    The immediate-unlookup cost is booked as 3 * sqrt(L) with L the table
    size, covering unary conversion plus fixup plus unary uncomputation.
    The adder is booked at 2n Toffolis and depth, the headline figure
    without coset padding. logical_qubits ledgers the three n-bit value
    registers; workspace and exponent live in the circuit layer. Raises
    ValueError when a term or a total does not fit a finite float.
    """
    flags = variant_flags(variant)
    if min(n, n_e, w_e, w_m) < 1:
        raise ValueError(f"n, n_e, w_e, w_m must be positive, got {n}, {n_e}, {w_e}, {w_m}")
    top = n_e if flags.initial_lookup else 0
    if not 0 <= initial_bits <= top:
        takers = " and ".join(name for name, row in VARIANT_TABLE.items() if row.initial_lookup)
        raise ValueError(
            f"initial_bits = {initial_bits} must lie in [0, {top}] for {variant} at n_e = {n_e}; "
            f"only {takers} take an initial lookup"
        )
    if max(w_e + w_m, initial_bits, n.bit_length(), n_e.bit_length()) >= FLOAT_BITS:
        raise _unfit("cost", n=n, n_e=n_e, w_e=w_e, w_m=w_m, initial_bits=initial_bits)

    deferred = flags.deferred_unlookup
    selective = flags.selective_lookup
    lowdepth = flags.lowdepth_unary

    ell = w_e + w_m
    sqrt_table = 2.0 ** (ell / 2)
    lookup = float(1 << ell)
    add = 2.0 * n
    unlookup = 3.0 * sqrt_table

    adt = 1 << initial_bits if initial_bits else 0
    windowed_bits = n_e - initial_bits

    if selective:
        lookup -= float(1 << w_e)
    if deferred:
        unlookup = 2.0 * (w_m / n) * (1 << w_e) + (1 << w_m)

    lookup_d, add_d, unlookup_d = lookup, add, unlookup
    if lowdepth and not deferred:
        unlookup_d = sqrt_table + 2.0 * (w_e - 1)
    if lowdepth and deferred:
        # The unary build and teardown happen once per sweep, so their
        # depth amortizes to far below one layer per repetition.
        unlookup_d = 2.0 * (w_m / n) * (w_e - 1) + (1 << w_m)

    qubits = 3 * n
    if variant == "sliced_A":
        qubits -= n // 2
        add_d += n
    if variant == "sliced_B":
        add -= n / 2.0

    reps = 2.0 * n * windowed_bits / (w_m * w_e)
    total_tofs = adt + reps * (lookup + add + unlookup)
    total_depth = adt + reps * (lookup_d + add_d + unlookup_d)
    if not (math.isfinite(total_tofs) and math.isfinite(total_depth)):
        raise _unfit("cost", n=n, n_e=n_e, w_e=w_e, w_m=w_m, initial_bits=initial_bits)
    return CostBreakdown(
        variant=variant,
        n=n,
        n_e=n_e,
        w_e=w_e,
        w_m=w_m,
        initial_bits=initial_bits,
        reps=reps,
        adt_factor=adt,
        lookup_tofs=lookup,
        add_tofs=add,
        unlookup_tofs=unlookup,
        lookup_depth=lookup_d,
        add_depth=add_d,
        unlookup_depth=unlookup_d,
        total_tofs=total_tofs,
        total_depth=total_depth,
        logical_qubits=qubits,
    )


def per_window_cost(n: int, w_e: int, w_m: int) -> float:
    """Toffolis spent by one exponent window of the recursion: two sweeps
    of n/w_m lookup-additions, with the unlookup booked as unary creation
    plus phase fixup (2^(l/2) each, no uncomputation Toffolis). Raises
    ValueError unless n, w_e and w_m are positive."""
    if min(n, w_e, w_m) < 1:
        raise ValueError(f"n, w_e, w_m must be positive, got {n}, {w_e}, {w_m}")
    ell = w_e + w_m
    if max(ell, n.bit_length()) >= FLOAT_BITS:
        raise _unfit("per-window cost", n=n, w_e=w_e, w_m=w_m)
    unlookup = float((1 << (ell // 2)) + (1 << (ell - ell // 2)))
    per_window = 2.0 * (n / w_m) * (float(1 << ell) + 2.0 * n + unlookup)
    if not math.isfinite(per_window):
        raise _unfit("per-window cost", n=n, w_e=w_e, w_m=w_m)
    return per_window


def crossover_initial_lookup(n: int, w_e: int, w_m: int) -> int:
    """Initial-lookup width that minimizes total cost.

    Handling k low exponent bits directly costs 2^k and removes k/w_e
    exponent windows, so the objective 2^k + (n_e - k)/w_e * per_window
    has the same argmin as 2^k - k * per_window/w_e for every n_e; the
    best k is independent of the exponent length. k is searched up to 64.
    Raises ValueError unless n, w_e and w_m are positive.
    """
    per_bit = per_window_cost(n, w_e, w_m) / w_e
    return min(range(65), key=lambda k: 2.0**k - k * per_bit)


def grid_best_windows(n: int, n_e: int, variant: str) -> tuple[int, int, int]:
    """Exhaustive window search minimizing total_tofs.

    Returns (w_e, w_m, initial_bits) with windows in 1..10; ties break
    lexicographically on that triple. initial_bits ranges over 0..min(40,
    n_e) for the variants that take an initial lookup and is 0 otherwise.
    """
    # A non-positive n_e still prices initial_bits 0, so cost() refuses it.
    top = max(0, min(n_e, 40)) if variant_flags(variant).initial_lookup else 0
    best = min(
        (cost(variant, n, n_e, w_e, w_m, nep).total_tofs, w_e, w_m, nep)
        for w_e in range(1, 11)
        for w_m in range(1, 11)
        for nep in range(top + 1)
    )
    return best[1], best[2], best[3]


# ---------------------------------------------------------------------------
# Exact layer. Windows and register sizes come from the synthesizer's
# ModexpPlan; the Toffoli count of each window is predicted independently.


@dataclass(frozen=True)
class ExactCost:
    """Gate-exact totals for one ModexpConfig, split by phase."""

    adt_tofs: int
    lookup_tofs: int
    add_tofs: int
    unlookup_tofs: int
    total_tofs: int
    lookup_adds: int
    qubits: int


def exact_cost(cfg: ModexpConfig) -> ExactCost:
    """Predict the metered tally of build_windowed_modexp(cfg).

    total_tofs equals the circuit's counted-gate total and qubits equals
    its allocation high water, for every option subset, coset pad, and
    window shape, divisible or not.
    """
    opts = cfg.opts
    plan = plan_modexp(cfg)
    width = plan.value_width

    adt = (1 << opts.initial_lookup_bits) - 1
    lookup = add = unlookup = 0
    for we in plan.exp_windows:
        for wm in plan.mul_windows:
            ell = we + wm
            lookup += (1 << ell) - ((1 << we) if opts.selective_lookup else 1)
            if plan.carry:
                add += 2 * width
            if not opts.deferred_unlookup:
                low = ell // 2
                unlookup += (1 << low) + (1 << (ell - low)) - 2
        if opts.deferred_unlookup:
            unlookup += (1 << we) - 1
            unlookup += sum((1 << wm) - 1 for wm in plan.mul_windows)
    # Each exponent window runs a forward and an inverse sweep.
    lookup, add, unlookup = 2 * lookup, 2 * add, 2 * unlookup

    qubits = cfg.inst.exp_bits + 3 * width + plan.unary_size + plan.fanout
    qubits += plan.walk_bits + 1 + plan.carry

    return ExactCost(
        adt_tofs=adt,
        lookup_tofs=lookup,
        add_tofs=add,
        unlookup_tofs=unlookup,
        total_tofs=adt + lookup + add + unlookup,
        lookup_adds=2 * len(plan.exp_windows) * len(plan.mul_windows),
        qubits=qubits,
    )
