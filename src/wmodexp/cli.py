"""Batch front end: ``wmodexp tables|simulate|cost|estimate``.

The subcommands wrap the library layers in reproduction plumbing. ``tables``
dumps the lookup tables a window pair needs, ``simulate`` builds a circuit
variant and checks it branch by branch against classical modular
exponentiation, ``cost`` prints closed-form cost rows, and ``estimate``
runs the physical-layout grid search and exports the frontier.

Every output embeds a run manifest recording the subcommand, all flag
values, the RNG seed, the configuration digest, and the package version.
Outputs are pure functions of their manifest, so two runs with the same
manifest produce the same bytes. main reads the --config file once, before
any subcommand runs, and both the digest and estimate's profile come from
those bytes, so a config read from a pipe is recorded as it was read; an
unreadable config is bad input under every subcommand.

Exit codes: 0 on success, 1 when a verification step fails, 2 on bad input.
Every refusal of bad input is a plain ValueError and every verification
failure an AssertionError (sim.ContractViolation among them); main maps
them, and an OSError, to those codes by type.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import __version__
from .builders import (
    ModexpConfig,
    build_windowed_modexp,
    check_modexp_output,
    modexp_input_state,
    plan_modexp,
)
from .circuit import tally
from .costs import CIRCUIT_VARIANTS, VARIANT_TABLE, VARIANTS, CostBreakdown, cost, exact_cost
from .estimator import (
    EstimateRow,
    GridRanges,
    LayoutPoint,
    grid_search,
    load_profile,
)
from .numerics import (
    ProblemInstance,
    WindowParams,
    build_direct_exp_table,
    build_mul_table,
    build_phase_fixup_table,
    build_pruned_table,
    dump_table,
    window_width,
)
from .sim import run

ESTIMATE_HEADER = (
    "n, n_e, gate err, L1, L2, d_off, g_mul, g_exp, g_sep, "
    "%, v.p.r, E[vol], Mqb, hrs, E[hrs], B Tofs"
)

COST_FIELDS = tuple(f.name for f in fields(CostBreakdown))

# Allocation caps, both powers of two: simulate and tables refuse an input
# above one before building anything. MAX_ENTRIES bounds what a command
# enumerates: simulate's 2^n_e branches, each table that tables dumps
# (2^16 entries dump in about 0.3 s) and the squarings that carry tables'
# base up to its exponent window. MAX_GATES bounds a simulated circuit
# at (modulus bits + 8) gates per table entry that its lookups address, which
# also keeps every walk within 2^16 entries.
MAX_ENTRIES = 1 << 16
MAX_GATES = 1 << 20


# ---------------------------------------------------------------------------
# Run manifest. Every subcommand builds one and stamps it on its output.


def _render_flag(value) -> str:
    """Full-fidelity rendering of a manifest flag or a cost cell: ints
    verbatim, floats via repr, None as "-", sequences comma-joined."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ",".join(_render_flag(v) for v in value)
    return str(value)


def _manifest(args, **resolved) -> dict:
    """Provenance record of this run, as the JSON export embeds it. flags
    maps each of the subcommand's flags, in declaration order, to its
    rendered value: from resolved (keyed by argparse dest) when the
    subcommand resolved it itself, else as parsed. The output content is a
    function of this record alone."""
    flags = {}
    for flag, _ in FLAGS[args.subcommand]:
        dest = flag[2:].replace("-", "_")
        value = resolved[dest] if dest in resolved else getattr(args, dest)
        flags[flag[2:]] = _render_flag(value)
    return {
        "subcommand": args.subcommand,
        "flags": flags,
        "seed": args.seed,
        "config_sha256": hashlib.sha256(args.config_bytes).hexdigest(),
        "version": __version__,
    }


def _manifest_lines(manifest: dict) -> list[str]:
    """The manifest as the four `#` lines that head every output but JSON."""
    return [
        f"# wmodexp {manifest['subcommand']} v{manifest['version']}",
        f"# seed = {manifest['seed']}",
        f"# config sha256 = {manifest['config_sha256']}",
        "# flags: " + " ".join(f"{name}={value}" for name, value in manifest["flags"].items()),
    ]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8", newline="\n")


def _check_cap(bits: int, cap: int, name: str, what: str) -> None:
    # Compare widths: 2**bits itself may be too large to build.
    if bits >= cap.bit_length():
        raise ValueError(f"{what}: 2^{bits} exceeds the cap {name} = {cap}")


# ---------------------------------------------------------------------------
# tables


def cmd_tables(args) -> int:
    inst = ProblemInstance(args.modulus, args.base, args.ne)
    wp = WindowParams(args.we, args.wm)
    exp_width = window_width(inst.exp_bits, wp.exp_window, args.exp_index)
    mul_width = window_width(inst.mod_bits, wp.mul_window, args.mul_index)
    bits = max(exp_width + mul_width, args.initial_bits)
    _check_cap(bits, MAX_ENTRIES, "MAX_ENTRIES", "entries of the widest table")
    # The window's multiplier base**(2**squarings) costs pow one squaring per
    # exponent bit below the window, so the cap bounds those squarings too.
    squarings = args.exp_index * wp.exp_window
    _check_cap(
        (squarings - 1).bit_length(),
        MAX_ENTRIES,
        "MAX_ENTRIES",
        f"squarings of the base up to exponent bit {squarings}",
    )
    if args.outcome is not None and not 0 <= args.outcome < 1 << inst.mod_bits:
        raise ValueError(
            f"--outcome {args.outcome} is not a {inst.mod_bits}-bit measurement outcome"
        )
    offset = args.mul_index * wp.mul_window
    step = pow(inst.base, 1 << squarings, inst.modulus)
    mul = build_mul_table(inst.modulus, step, exp_width, mul_width, offset)
    pruned = build_pruned_table(mul, exp_width, offset)
    low_bits = mul.addr_bits // 2 if args.low_bits is None else args.low_bits
    outcome = args.outcome
    if outcome is None:
        # The fixup table depends on an X-basis outcome; draw one from the
        # run seed so the dump stays reproducible.
        outcome = random.Random(args.seed).randrange(1 << mul.word_bits)
    fixup = build_phase_fixup_table(mul, outcome, low_bits)
    direct = build_direct_exp_table(inst, args.initial_bits)

    manifest = _manifest(args, low_bits=low_bits, outcome=outcome)
    header = "\n".join(_manifest_lines(manifest)) + "\n"
    outdir = Path(args.out) if args.out is not None else Path(".")
    outdir.mkdir(parents=True, exist_ok=True)
    notes = []
    for name, table in (
        ("multiply.tbl", mul),
        ("pruned.tbl", pruned),
        ("phase_fixup.tbl", fixup),
        ("direct_exp.tbl", direct),
    ):
        path = outdir / name
        path.write_text(header + dump_table(table), encoding="utf-8", newline="\n")
        notes.append(
            f"wrote {path} ({table.kind}, {len(table)} entries, "
            f"{table.addr_bits} address bits)"
        )
    sys.stdout.write("\n".join(notes) + "\n")
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    inst = ProblemInstance(args.modulus, args.base, args.ne)
    wp = WindowParams(args.we, args.wm)
    variants = CIRCUIT_VARIANTS if args.variant == "all" else (args.variant,)
    _check_cap(inst.exp_bits, MAX_ENTRIES, "MAX_ENTRIES", "simulated branches")
    cfgs = [ModexpConfig(inst, wp, VARIANT_TABLE[v].options(args.nep)) for v in variants]
    plans = [plan_modexp(cfg) for cfg in cfgs]
    gates = max(plan.lookup_entries for plan in plans) * (inst.mod_bits + 8)
    # (gates - 1).bit_length() is the least bits with 2^bits >= gates.
    _check_cap((gates - 1).bit_length(), MAX_GATES, "MAX_GATES", "gates of the largest circuit")

    lines = _manifest_lines(_manifest(args))
    lines.append(
        f"instance: modulus={inst.modulus} base={inst.base} exp_bits={inst.exp_bits}"
    )
    failures = 0
    functional: dict[str, tuple] = {}
    for variant, cfg in zip(variants, cfgs):
        circuit = build_windowed_modexp(cfg)
        state = modexp_input_state(circuit, seed=args.seed)
        final = run(circuit, state)
        problems = check_modexp_output(circuit, inst, final)
        meter = tally(circuit)
        predicted = exact_cost(cfg)

        lines.append(f"variant {variant}")
        exp_qubits = circuit.register("exponent").qubits
        result_qubits = circuit.register(circuit.result_register).qubits
        outputs = sorted(
            zip(final.values(exp_qubits), final.values(result_qubits), final.signs())
        )
        for x, value, phase in outputs:
            want = pow(inst.base, x, inst.modulus)
            verdict = "ok" if value == want and phase == 1 else "MISMATCH"
            lines.append(
                f"  x={x} result={value} expected={want} phase={phase:+d} {verdict}"
            )
        functional[variant] = tuple((x, value) for x, value, _ in outputs)
        for problem in problems:
            lines.append(f"  problem: {problem}")

        meter_ok = (
            meter.toffoli_count == predicted.total_tofs
            and meter.qubit_highwater == predicted.qubits
        )
        lines.append(
            f"  meter: toffolis {meter.toffoli_count} "
            f"(predicted {predicted.total_tofs}), qubits {meter.qubit_highwater} "
            f"(predicted {predicted.qubits}) {'ok' if meter_ok else 'MISMATCH'}"
        )
        for slot in circuit.slots:
            lines.append(f"  outcome {slot} = {final.transcript[slot]:x}")
        if problems or not meter_ok:
            failures += 1

    if len(variants) > 1:
        agree = len(set(functional.values())) == 1
        lines.append(f"variants agree: {'yes' if agree else 'NO'}")
        if not agree:
            failures += 1
    lines.append("result: " + ("PASS" if not failures else f"FAIL ({failures})"))
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# cost


def cmd_cost(args) -> int:
    variants = VARIANTS if args.variant == "all" else (args.variant,)
    rows = []
    for variant in variants:
        initial = args.nep
        if args.variant == "all" and not VARIANT_TABLE[variant].initial_lookup:
            initial = 0
        rows.append(cost(variant, args.n, args.ne, args.we, args.wm, initial))

    lines = _manifest_lines(_manifest(args))
    lines.append(", ".join(COST_FIELDS))
    for row in rows:
        lines.append(", ".join(_render_flag(getattr(row, field)) for field in COST_FIELDS))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# estimate


def _estimate_values(row: EstimateRow) -> list:
    """The ESTIMATE_HEADER columns of row, in order."""
    point = row.point
    return [
        row.n,
        row.n_e,
        row.p_phys,
        point.L1,
        point.L2,
        point.d_off,
        point.g_mul,
        point.g_exp,
        point.g_sep,
        100.0 * row.retry_risk,
        row.vol_per_run,
        row.expected_vol,
        row.mqb,
        row.hours,
        row.expected_hours,
        row.b_tofs,
    ]


def _estimate_cells(row: EstimateRow) -> list[str]:
    return [
        format(value, ".6g") if isinstance(value, float) else str(value)
        for value in _estimate_values(row)
    ]


def _estimate_dict(row: EstimateRow) -> dict:
    keys = [key.strip() for key in ESTIMATE_HEADER.split(",")]
    payload = dict(zip(keys, _estimate_values(row)))
    payload["binding"] = row.binding
    return payload


def _parse_point(text: str) -> GridRanges:
    """The one-point grid of an L1,L2,d_off,g_mul,g_exp,g_sep --point;
    grid_search and the functions it calls refuse a bad field."""
    try:
        L1, L2, d_off, g_mul, g_exp, g_sep = ((int(part),) for part in text.split(","))
    except ValueError:
        raise ValueError("--point wants six integers: L1,L2,d_off,g_mul,g_exp,g_sep") from None
    return GridRanges(l1=L1, l2=L2, d_off=d_off, g_exp=g_exp, g_mul=g_mul, g_sep=g_sep)


def cmd_estimate(args) -> int:
    for budget in args.budget_mqb or ():
        if not (math.isfinite(budget) and budget > 0):
            raise ValueError(f"--budget-mqb must be finite and > 0, got {budget!r}")
    try:
        text = args.config_bytes.decode()
    except UnicodeDecodeError as exc:
        raise ValueError(f"config file {args.config} is not UTF-8 text: {exc}") from None
    profile = load_profile(text)
    if args.perr is not None:
        profile = replace(profile, p_phys=args.perr)
    if args.q is not None:
        profile = replace(profile, q=args.q)
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.out is not None and args.out.endswith(".json") else "csv"
    ranges = _parse_point(args.point) if args.point else None

    budgets = {"budgets": tuple(args.budget_mqb)} if args.budget_mqb else {}
    result = grid_search(args.n, args.ne, profile, args.variant, ranges, **budgets)

    manifest = _manifest(args, perr=profile.p_phys, q=profile.q, format=fmt)

    if fmt == "json":
        payload = {
            "manifest": manifest,
            "best": _estimate_dict(result.best),
            "frontier": [_estimate_dict(row) for row in result.frontier],
        }
        if args.budget_mqb:
            payload["by_budget"] = [
                {
                    "budget_mqb": budget,
                    "row": _estimate_dict(row) if row is not None else None,
                }
                for budget, row in result.by_budget
            ]
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0

    best = result.best
    point = " ".join(f"{name}={value}" for name, value in zip(LayoutPoint._fields, best.point))
    lines = _manifest_lines(manifest)
    lines.append(
        f"# best: {point} E[hrs]={best.expected_hours:.6g} Mqb={best.mqb:.6g} "
        f"binding={best.binding}"
    )
    lines.append(ESTIMATE_HEADER)
    if args.budget_mqb:
        for budget, row in result.by_budget:
            if row is None:
                lines.append(f"# budget {budget:.6g} Mqb: no frontier row fits")
            else:
                lines.append(f"# budget {budget:.6g} Mqb")
                lines.append(", ".join(_estimate_cells(row)))
    else:
        for row in result.frontier:
            lines.append(", ".join(_estimate_cells(row)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch.


def _add_global_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # The same three flags are accepted before and after the subcommand.
    # The subparser copies default to SUPPRESS so they never overwrite a
    # value parsed at the top level.
    default = (lambda v: v) if top else (lambda v: argparse.SUPPRESS)
    parser.add_argument(
        "--seed", type=int, default=default(0), help="RNG seed recorded in the manifest"
    )
    parser.add_argument(
        "--config", default=default(None), help="calibration config file (key = value)"
    )
    parser.add_argument(
        "--out", default=default(None), help="output path (default: stdout)"
    )


def count(text: str) -> int:
    """The argparse type of a count flag: an int, 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
    return value


# Each subcommand's flags, declared once: build_parser adds them in this
# order, and _manifest records them in it.
FLAGS: dict[str, tuple[tuple[str, dict], ...]] = {
    "tables": (
        ("--modulus", dict(type=int, default=15)),
        ("--base", dict(type=int, default=7)),
        ("--ne", dict(type=int, default=4, help="exponent register bits")),
        ("--we", dict(type=int, default=2, help="exponent window bits")),
        ("--wm", dict(type=int, default=2, help="multiplicand window bits")),
        ("--exp-index", dict(type=int, default=0)),
        ("--mul-index", dict(type=int, default=0)),
        ("--initial-bits", dict(type=int, default=2)),
        ("--low-bits", dict(type=int, help="fixup split (default: half the address bits)")),
        (
            "--outcome",
            dict(type=int, help="fixup measurement outcome (default: drawn from the seed)"),
        ),
    ),
    "simulate": (
        ("--modulus", dict(type=int, default=15)),
        ("--base", dict(type=int, default=7)),
        ("--ne", dict(type=int, default=4)),
        ("--we", dict(type=int, default=2)),
        ("--wm", dict(type=int, default=2)),
        ("--nep", dict(type=count, default=2, help="initial lookup bits (opt3, combined)")),
        ("--variant", dict(default="original", choices=(*CIRCUIT_VARIANTS, "all"))),
    ),
    "cost": (
        ("--n", dict(type=int, default=2048)),
        ("--ne", dict(type=int, default=3029)),
        ("--we", dict(type=int, default=5)),
        ("--wm", dict(type=int, default=5)),
        ("--nep", dict(type=count, default=0)),
        ("--variant", dict(default="original", choices=(*VARIANTS, "all"))),
    ),
    "estimate": (
        ("--n", dict(type=int, default=2048)),
        ("--ne", dict(type=int, default=3029)),
        ("--perr", dict(type=float, help="physical gate error rate")),
        ("--variant", dict(default="original", choices=VARIANTS)),
        ("--q", dict(type=float, help="skewed-volume exponent")),
        (
            "--budget-mqb",
            dict(
                type=float,
                action="append",
                help="emit the best row under this qubit budget (repeatable)",
            ),
        ),
        ("--point", dict(help="restrict the grid to one L1,L2,d_off,g_mul,g_exp,g_sep point")),
        ("--format", dict(choices=("csv", "json"))),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wmodexp",
        description="Windowed modular exponentiation toolkit",
    )
    _add_global_flags(parser, top=True)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, top=False)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, func, text in (
        ("tables", cmd_tables, "dump lookup tables in the text format"),
        ("simulate", cmd_simulate, "build, simulate, and verify a variant"),
        ("cost", cmd_cost, "closed-form cost rows as CSV"),
        ("estimate", cmd_estimate, "grid search and frontier export"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        for flag, options in FLAGS[name]:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Read once: the manifest digest and the profile come from these bytes.
        try:
            args.config_bytes = b"" if args.config is None else Path(args.config).read_bytes()
        except OSError as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
        return args.func(args)
    except AssertionError as exc:  # sim.ContractViolation among them
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
