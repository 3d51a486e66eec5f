"""Cost model: formula rows, grid searches, crossover, and the exact layer."""

import math
import random
from itertools import product

import pytest

from wmodexp.builders import (
    ModexpConfig,
    ModexpOptions,
    build_windowed_modexp,
)
from wmodexp.circuit import tally
from wmodexp.costs import (
    VARIANTS,
    cost,
    crossover_initial_lookup,
    exact_cost,
    grid_best_windows,
    per_window_cost,
)
from wmodexp.numerics import ProblemInstance, WindowParams

REL = 1e-12


def test_variant_names():
    assert VARIANTS == (
        "original",
        "opt1",
        "opt2",
        "opt3",
        "opt4",
        "combined",
        "sliced_A",
        "sliced_B",
    )


def test_unknown_variant_rejected():
    with pytest.raises(ValueError, match="unknown variant 'opt5'"):
        cost("opt5", 2048, 3029, 5, 5)
    with pytest.raises(ValueError, match="unknown variant 'fastest'"):
        grid_best_windows(64, 96, "fastest")


def test_parameter_validation():
    with pytest.raises(ValueError):
        cost("original", 0, 3029, 5, 5)
    with pytest.raises(ValueError):
        cost("original", 2048, 3029, 5, 0)
    # The window search refuses a non-positive n_e as cost() does, also when
    # no initial lookup fits it.
    for variant in ("original", "combined"):
        for n_e in (0, -1):
            with pytest.raises(ValueError) as exc:
                grid_best_windows(64, n_e, variant)
            assert str(exc.value) == f"n, n_e, w_e, w_m must be positive, got 64, {n_e}, 1, 1"
    # An initial-bits refusal names the value, n_e, the variant and the takers.
    for variant, n_e, initial_bits, span in (
        ("original", 3029, 10, "[0, 0]"),
        ("opt3", 3029, -1, "[0, 3029]"),
        ("opt3", 10, 11, "[0, 10]"),
    ):
        with pytest.raises(ValueError) as exc:
            cost(variant, 2048, n_e, 5, 5, initial_bits=initial_bits)
        assert str(exc.value) == (
            f"initial_bits = {initial_bits} must lie in {span} for {variant} at n_e = {n_e}; "
            "only opt3 and combined take an initial lookup"
        )


@pytest.mark.parametrize(
    "variant, n, n_e, w_e, w_m, initial_bits",
    [
        ("original", 2048, 3029, 511, 511, 0),  # each term fits, the total is inf
        ("sliced_A", 2048, 3029, 520, 510, 0),  # the lookup term alone overflows
        ("opt3", 2048, 3029, 5, 5, 3029),  # the initial lookup overflows
        ("combined", 2048, 3029, 600, 600, 64),
        ("opt3", 2048, 10**12, 5, 5, 10**12),  # refused before 2**(10**12) is built
        ("sliced_B", 10**400, 3029, 5, 5, 0),  # n does not convert to a float
        ("opt1", 2048, 10**400, 5, 5, 0),
    ],
)
def test_unrepresentable_cost_raises(variant, n, n_e, w_e, w_m, initial_bits):
    with pytest.raises(ValueError, match="does not fit a finite float"):
        cost(variant, n, n_e, w_e, w_m, initial_bits)


@pytest.mark.parametrize("n, w", [(2048, 600), (2048, 10**12), (10**400, 5), (2**1000, 500)])
def test_unrepresentable_crossover_raises(n, w):
    with pytest.raises(ValueError, match=f"w_e={w}, w_m={w} does not fit a finite float"):
        crossover_initial_lookup(n, w, w)


@pytest.mark.parametrize("n, w_e, w_m", [(1024, 5, 0), (1024, 0, 5), (1024, -1, 5), (0, 5, 5)])
def test_crossover_refuses_non_positive_sizes(n, w_e, w_m):
    with pytest.raises(ValueError, match="n, w_e, w_m must be positive"):
        crossover_initial_lookup(n, w_e, w_m)
    with pytest.raises(ValueError, match="n, w_e, w_m must be positive"):
        per_window_cost(n, w_e, w_m)


def test_original_reference_point():
    c = cost("original", 2048, 3029, 5, 5)
    assert c.reps == pytest.approx(2 * 2048 * 3029 / 25, rel=REL)
    assert c.adt_factor == 0
    assert c.lookup_tofs == 1024
    assert c.add_tofs == 4096
    assert c.unlookup_tofs == 96
    assert (c.lookup_depth, c.add_depth, c.unlookup_depth) == (1024, 4096, 96)
    assert c.total_tofs == pytest.approx(2588551413.76, rel=REL)
    assert c.total_depth == pytest.approx(c.total_tofs, rel=REL)
    assert c.logical_qubits == 3 * 2048


def test_total_composition_invariant():
    for variant in VARIANTS:
        nep = 12 if variant in ("opt3", "combined") else 0
        c = cost(variant, 512, 700, 4, 6, nep)
        per_rep = c.lookup_tofs + c.add_tofs + c.unlookup_tofs
        assert c.total_tofs == pytest.approx(c.adt_factor + c.reps * per_rep, rel=REL)
        per_rep_d = c.lookup_depth + c.add_depth + c.unlookup_depth
        assert c.total_depth == pytest.approx(c.adt_factor + c.reps * per_rep_d, rel=REL)


def test_opt1_row():
    c = cost("opt1", 2048, 3029, 5, 5)
    expected = 2 * (5 / 2048) * 32 + 32
    assert c.unlookup_tofs == pytest.approx(expected, rel=REL)
    assert c.unlookup_depth == pytest.approx(expected, rel=REL)
    assert (c.lookup_tofs, c.add_tofs) == (1024, 4096)


def test_opt2_row():
    c = cost("opt2", 2048, 3029, 5, 5)
    assert c.lookup_tofs == 1024 - 32
    assert c.lookup_depth == 1024 - 32
    assert c.unlookup_tofs == 96


def test_opt3_row():
    c = cost("opt3", 2048, 3029, 5, 5, initial_bits=20)
    assert c.adt_factor == 2**20
    assert c.reps == pytest.approx(2 * 2048 * (3029 - 20) / 25, rel=REL)
    assert (c.lookup_tofs, c.add_tofs, c.unlookup_tofs) == (1024, 4096, 96)


def test_opt3_zero_initial_equals_original():
    a = cost("opt3", 2048, 3029, 5, 5, 0)
    b = cost("original", 2048, 3029, 5, 5)
    for field in (
        "reps",
        "adt_factor",
        "lookup_tofs",
        "add_tofs",
        "unlookup_tofs",
        "total_tofs",
        "total_depth",
        "logical_qubits",
    ):
        assert getattr(a, field) == getattr(b, field)


def test_opt4_row():
    c = cost("opt4", 2048, 3029, 5, 5)
    base = cost("original", 2048, 3029, 5, 5)
    assert c.total_tofs == pytest.approx(base.total_tofs, rel=REL)
    assert c.unlookup_depth == pytest.approx(32 + 2 * 4, rel=REL)
    assert c.total_depth < base.total_depth


def test_combined_row():
    c = cost("combined", 2048, 3029, 5, 5, initial_bits=20)
    assert c.adt_factor == 2**20
    assert c.lookup_tofs == 1024 - 32
    assert c.add_tofs == 4096
    assert c.unlookup_tofs == pytest.approx(2 * (5 / 2048) * 32 + 32, rel=REL)
    assert c.unlookup_depth == pytest.approx(2 * (5 / 2048) * 4 + 32, rel=REL)


def test_sliced_a_changes_qubits_and_depth_only():
    a = cost("sliced_A", 2048, 3029, 5, 5)
    base = cost("original", 2048, 3029, 5, 5)
    assert a.total_tofs == pytest.approx(base.total_tofs, rel=REL)
    assert a.logical_qubits == base.logical_qubits - 1024
    assert a.total_depth - base.total_depth == pytest.approx(a.reps * 2048, rel=REL)


def test_sliced_b_changes_toffolis_only():
    b = cost("sliced_B", 2048, 3029, 5, 5)
    base = cost("original", 2048, 3029, 5, 5)
    assert b.add_tofs == 2048 * 2 - 1024
    assert b.logical_qubits == base.logical_qubits
    assert b.total_depth == pytest.approx(base.total_depth, rel=REL)
    assert b.total_tofs == pytest.approx(
        base.total_tofs - b.reps * 1024, rel=REL
    )


@pytest.mark.parametrize("n", [64, 256, 1024, 2048])
def test_monotonicity_at_grid_optimum(n):
    n_e = 3 * n // 2
    best = {v: cost(v, n, n_e, *grid_best_windows(n, n_e, v)).total_tofs for v in VARIANTS[:6]}
    for single in ("opt1", "opt2", "opt3", "opt4"):
        assert best["combined"] <= best[single] + REL * best[single]
        assert best[single] <= best["original"] + REL * best["original"]


@pytest.mark.parametrize("n", [1024, 2048, 3072, 4096])
def test_grid_optimum_near_half_log(n):
    w_e, w_m, _ = grid_best_windows(n, 3 * n // 2, "original")
    half_log = math.log2(n) / 2
    assert abs(w_e - half_log) <= 2
    assert abs(w_m - half_log) <= 2


def test_grid_2048_original_matches_published_windows():
    assert grid_best_windows(2048, 3029, "original") == (5, 5, 0)


def test_grid_matches_brute_force_small():
    n, n_e = 24, 36
    best = None
    for w_e in range(1, 11):
        for w_m in range(1, 11):
            ell = w_e + w_m
            per_rep = (1 << ell) + 2.0 * n + 3.0 * 2 ** (ell / 2)
            total = 2.0 * n * n_e / (w_e * w_m) * per_rep
            key = (total, w_e, w_m, 0)
            if best is None or key < best:
                best = key
    assert grid_best_windows(n, n_e, "original") == best[1:]


def test_grid_initial_bits_stop_at_the_exponent():
    # n_e = 6 is below the 40 initial bits the search tries.
    n, n_e = 24, 6
    best = min(
        (cost("opt3", n, n_e, w_e, w_m, nep).total_tofs, w_e, w_m, nep)
        for w_e in range(1, 11)
        for w_m in range(1, 11)
        for nep in range(n_e + 1)
    )
    assert grid_best_windows(n, n_e, "opt3") == best[1:]


def test_grid_ties_break_lexicographically():
    # The original-variant cost is symmetric under swapping the windows
    # (per-rep depends on their sum, reps on their product), so every
    # asymmetric optimum is an exact tie and the search must return the
    # lexicographically first one, w_e < w_m.
    a = cost("original", 3072, 4608, 5, 6)
    b = cost("original", 3072, 4608, 6, 5)
    assert a.total_tofs == b.total_tofs
    assert grid_best_windows(3072, 4608, "original") == (5, 6, 0)


def test_per_window_reference_value():
    value = per_window_cost(2048, 5, 5)
    assert value == pytest.approx(2 * 409.6 * (1024 + 4096 + 64), rel=REL)
    assert value == pytest.approx(4.247e6, rel=5e-3)


def test_crossover_reference_point():
    assert crossover_initial_lookup(2048, 5, 5) == 20


def test_crossover_matches_brute_force():
    for n, w in product((16, 64, 256), (2, 3, 5)):
        per_bit = per_window_cost(n, w, w) / w
        brute = min(range(65), key=lambda k: (2.0**k - k * per_bit, k))
        assert crossover_initial_lookup(n, w, w) == brute


def test_crossover_stays_below_log_of_alternative():
    for n, w_e, w_m in ((512, 4, 4), (2048, 5, 5), (4096, 6, 5)):
        per_bit = per_window_cost(n, w_e, w_m) / w_e
        assert crossover_initial_lookup(n, w_e, w_m) <= math.ceil(math.log2(per_bit))


# -- exact layer -----------------------------------------------------------


def _flag_subsets(initial_bits):
    for deferred, selective, initial, lowdepth in product([False, True], repeat=4):
        yield ModexpOptions(
            deferred_unlookup=deferred,
            selective_lookup=selective,
            initial_lookup_bits=initial_bits if initial else 0,
            lowdepth_unary=lowdepth,
        )


_PADS = (None, 0, 2)


def _meter_shapes(seed=5):
    """(modulus, base, exp_bits, w_e, w_m, initial bits, coset pads): five
    hand-picked shapes, then one seeded shape per edge that the shared
    ModexpPlan has to get right: an exponent window wider than the whole
    exponent, a multiplicand window wider than the modulus, an initial
    lookup that leaves one exponent bit or none, and the ripple adder at
    pads 0 to 3."""
    shapes = [
        pytest.param(*shape, 2, _PADS, id="-".join(map(str, shape)))
        for shape in (
            (15, 7, 4, 2, 2),
            (15, 7, 5, 2, 3),
            (21, 2, 3, 1, 3),
            (33, 10, 5, 3, 2),
            (33, 10, 5, 3, 4),
        )
    ]
    rng = random.Random(seed)
    for edge in ("wide_exp", "wide_mul", "nep_one_left", "nep_all", "coset_pads"):
        modulus = rng.randrange(3, 16, 2)
        base = rng.choice([b for b in range(1, modulus) if math.gcd(b, modulus) == 1])
        exp_bits, w_e, w_m = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 3)
        nep = rng.randint(1, exp_bits - 1)
        pads = _PADS
        if edge == "wide_exp":
            w_e = exp_bits + rng.randint(1, 2)
        elif edge == "wide_mul":
            w_m = modulus.bit_length() + rng.randint(1, 2)
        elif edge == "nep_one_left":
            nep = exp_bits - 1
        elif edge == "nep_all":
            nep = exp_bits
        else:
            pads = tuple(range(4))
        shape = (modulus, base, exp_bits, w_e, w_m, nep)
        shapes.append(pytest.param(*shape, pads, id=f"{edge}-" + "-".join(map(str, shape))))
    return shapes


@pytest.mark.parametrize("modulus,base,exp_bits,w_e,w_m,nep,pads", _meter_shapes())
def test_exact_layer_matches_meter(modulus, base, exp_bits, w_e, w_m, nep, pads):
    inst = ProblemInstance(modulus, base, exp_bits)
    wp = WindowParams(w_e, w_m)
    for opts in _flag_subsets(nep):
        for pad in pads:
            cfg = ModexpConfig(inst, wp, opts, pad)
            predicted = exact_cost(cfg)
            metered = tally(build_windowed_modexp(cfg))
            assert predicted.total_tofs == metered.toffoli_count, cfg
            assert predicted.qubits == metered.qubit_highwater, cfg


def test_exact_layer_pure_initial_lookup():
    inst = ProblemInstance(15, 7, 4)
    cfg = ModexpConfig(
        inst, WindowParams(2, 2), ModexpOptions(initial_lookup_bits=4)
    )
    predicted = exact_cost(cfg)
    assert predicted.total_tofs == 2**4 - 1
    assert predicted.lookup_adds == 0
    metered = tally(build_windowed_modexp(cfg))
    assert predicted.total_tofs == metered.toffoli_count
    assert predicted.qubits == metered.qubit_highwater


def test_exact_layer_divisible_closed_form():
    # With uniform windows the exact totals collapse to closed forms: per
    # lookup-addition one walk of 2^l - 1, a 2(n + pad) ripple, and an
    # unlookup of 2^(l/2) + 2^(l - l/2) - 2.
    inst = ProblemInstance(55, 7, 6)  # 6 mod bits, 6 exp bits
    cfg = ModexpConfig(inst, WindowParams(3, 3), coset_pad=2)
    predicted = exact_cost(cfg)
    sweeps = 2 * (6 // 3)
    per_sweep = 6 // 3
    las = sweeps * per_sweep
    assert predicted.lookup_adds == las
    assert predicted.lookup_tofs == las * (2**6 - 1)
    assert predicted.add_tofs == las * 2 * (6 + 2)
    assert predicted.unlookup_tofs == las * (2**3 + 2**3 - 2)
    assert predicted.total_tofs == tally(build_windowed_modexp(cfg)).toffoli_count
