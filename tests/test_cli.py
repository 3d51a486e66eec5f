"""Command line front end: manifests, round trips, exit codes, exports."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from wmodexp import builders
from wmodexp.circuit import X, Circuit, Gate
from wmodexp.cli import COST_FIELDS, ESTIMATE_HEADER, FLAGS, main
from wmodexp.costs import CIRCUIT_VARIANTS, VARIANTS
from wmodexp.estimator import HardwareProfile, profile_domain
from wmodexp.numerics import (
    ProblemInstance,
    WindowParams,
    build_direct_exp_table,
    build_mul_table,
    build_phase_fixup_table,
    build_pruned_table,
    dump_table,
)

from standalone_circuits import unreduced

INST15 = ProblemInstance(15, 7, 4)
WP22 = WindowParams(2, 2)


def data_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def comment_lines(text):
    return [line for line in text.splitlines() if line.startswith("#")]


def table_body(text):
    """A tables file without its `#` manifest lines: the dumped table."""
    return "".join(line for line in text.splitlines(True) if not line.startswith("#"))


def cells(line):
    return [cell.strip() for cell in line.split(",")]


# ---------------------------------------------------------------------------
# Parser and exit codes


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "tables" in capsys.readouterr().out


def test_missing_subcommand_is_bad_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_even_modulus_is_bad_input(capsys):
    assert main(["simulate", "--modulus", "16"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["all", "opt3"])
def test_initial_bits_above_the_exponent_are_bad_input(capsys, variant):
    # The default --nep 2 does not fit a 1-bit exponent; the message names both.
    assert main(["simulate", "--ne", "1", "--variant", variant]) == 2
    assert "initial_lookup_bits = 2 must lie in [0, exp_bits = 1]" in capsys.readouterr().err


def parser_refusal(capsys, argv):
    """What main(argv) writes to stderr as argparse refuses it with exit 2.
    Tests match only the flag and the value: argparse's own wording differs
    between Python versions."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_unknown_variant_is_bad_input(capsys):
    for argv in (
        ["simulate", "--variant", "sliced_A"],
        ["simulate", "--variant", "nope"],
        ["cost", "--variant", "nope"],
        ["estimate", "--variant", "nope"],
    ):
        err = parser_refusal(capsys, argv)
        assert "--variant" in err and argv[-1] in err


@pytest.mark.parametrize("subcommand", ["simulate", "cost"])
def test_negative_initial_bits_are_bad_input(capsys, subcommand):
    err = parser_refusal(capsys, [subcommand, "--variant", "original", "--nep", "-5"])
    assert "--nep" in err and "-5" in err


def test_help_lists_each_subcommands_variants(capsys):
    for subcommand, variants in (
        ("simulate", [*CIRCUIT_VARIANTS, "all"]),
        ("cost", [*VARIANTS, "all"]),
        ("estimate", list(VARIANTS)),
    ):
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        assert "{" + ",".join(variants) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("subcommand", ["tables", "simulate", "cost", "estimate"])
def test_missing_config_is_bad_input(capsys, tmp_path, subcommand):
    # main reads the config before any subcommand runs, so nothing is written.
    config, out = tmp_path / "absent.cfg", tmp_path / "out"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config file {config}: ")
    assert not out.exists()


def test_module_entry_point():
    # The child gets this process's import path, so it runs the same wmodexp
    # whether that comes from PYTHONPATH, pytest's pythonpath or an install.
    proc = subprocess.run(
        [sys.executable, "-m", "wmodexp.cli", "cost"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "total_tofs" in proc.stdout


# ---------------------------------------------------------------------------
# tables


def run_tables(tmp_path, extra=()):
    out = tmp_path / "tables"
    assert main(["tables", "--out", str(out), *extra]) == 0
    return {
        name: (out / f"{name}.tbl").read_text()
        for name in ("multiply", "pruned", "phase_fixup", "direct_exp")
    }


def test_tables_files_carry_manifest(tmp_path, capsys):
    files = run_tables(tmp_path)
    capsys.readouterr()
    for text in files.values():
        header = comment_lines(text)
        assert header[0].startswith("# wmodexp tables v")
        assert any(line.startswith("# seed = ") for line in header)
        assert any(line.startswith("# config sha256 = ") for line in header)
        assert any(line.startswith("# flags: ") for line in header)


def test_tables_round_trip_matches_in_memory(tmp_path, capsys):
    files = run_tables(tmp_path, ["--outcome", "5", "--low-bits", "2"])
    capsys.readouterr()
    mul = build_mul_table(15, 7, 2, 2, 0)
    assert table_body(files["multiply"]) == dump_table(mul)
    assert table_body(files["pruned"]) == dump_table(build_pruned_table(mul, WP22.exp_window, 0))
    assert table_body(files["phase_fixup"]) == dump_table(build_phase_fixup_table(mul, 5, 2))
    assert table_body(files["direct_exp"]) == dump_table(build_direct_exp_table(INST15, 2))


def test_tables_zero_width_initial_round_trips(tmp_path, capsys):
    files = run_tables(tmp_path, ["--initial-bits", "0"])
    capsys.readouterr()
    table = build_direct_exp_table(INST15, 0)
    assert table.entries == (1,)
    assert table_body(files["direct_exp"]) == dump_table(table) == "table direct_exp 0 4\n1\n"


def test_tables_pruned_xor_copy_equals_plain(tmp_path, capsys):
    # Window index 1 shifts the copied multiplicand by two bits, so the
    # XOR correction is visible in the dumped entries.
    files = run_tables(tmp_path, ["--mul-index", "1"])
    capsys.readouterr()
    plain = build_mul_table(15, 7, 2, 2, WP22.mul_window)
    pruned = build_pruned_table(plain, WP22.exp_window, WP22.mul_window)
    assert table_body(files["multiply"]) == dump_table(plain)
    assert table_body(files["pruned"]) == dump_table(pruned)
    exp_width = WP22.exp_window
    offset = WP22.mul_window
    for addr, entry in enumerate(pruned.entries):
        mult = addr >> exp_width
        assert entry ^ (mult << offset) == plain.entries[addr]
    assert pruned.entries != plain.entries


def test_tables_reruns_are_byte_identical(tmp_path, capsys):
    first = run_tables(tmp_path / "a")
    second = run_tables(tmp_path / "b")
    capsys.readouterr()
    assert first == second


def test_tables_global_flag_position_is_irrelevant(tmp_path, capsys):
    out_a = tmp_path / "a" / "t"
    out_b = tmp_path / "b" / "t"
    assert main(["--seed", "5", "tables", "--out", str(out_a)]) == 0
    assert main(["tables", "--seed", "5", "--out", str(out_b)]) == 0
    capsys.readouterr()
    for name in ("multiply", "pruned", "phase_fixup", "direct_exp"):
        path_a = out_a / f"{name}.tbl"
        path_b = out_b / f"{name}.tbl"
        assert path_a.read_text() == path_b.read_text()


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--exp-index", "-1"], "window index -1 out of range"),
        (["--mul-index", "-1"], "window index -1 out of range"),
        (["--outcome", "99"], "--outcome 99 is not a 4-bit measurement outcome"),
        (["--outcome", "-3"], "--outcome -3 is not a 4-bit measurement outcome"),
    ],
)
def test_tables_bad_index_or_outcome_is_bad_input(tmp_path, capsys, flags, reason):
    out = tmp_path / "tables"
    assert main(["tables", "--out", str(out), *flags]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, cap",
    [
        ("simulate --ne 40", "MAX_ENTRIES"),
        ("simulate --ne 1000000000000", "MAX_ENTRIES"),
        ("simulate --modulus 1000003 --base 3 --ne 8 --we 8 --wm 8", "MAX_GATES"),
        # MAX_ENTRIES admits this; it would build ~4e7 gates.
        (f"simulate --modulus {2**2047 + 3} --base 3 --ne 16 --we 1 --wm 1", "MAX_GATES"),
        ("tables --ne 40 --we 40", "MAX_ENTRIES"),
        ("tables --ne 1000000000000 --we 1000000000000", "MAX_ENTRIES"),
        ("tables --ne 40 --initial-bits 40", "MAX_ENTRIES"),
        ("tables --ne 17 --initial-bits 17", "MAX_ENTRIES"),
        ("tables --initial-bits 1000000000000", "MAX_ENTRIES"),
        # A 3-bit table, but about 10^12 squarings to reach its window.
        ("tables --ne 1000000000000 --we 1 --exp-index 999999999999", "MAX_ENTRIES"),
        ("tables --ne 65538 --we 1 --exp-index 65537", "MAX_ENTRIES"),
    ],
)
def test_allocation_caps_refuse_before_building(monkeypatch, capsys, tmp_path, argv, cap):
    import wmodexp.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("built past an allocation cap")

    for name in ("build_windowed_modexp", "modexp_input_state", "build_mul_table",
                 "build_pruned_table", "build_phase_fixup_table", "build_direct_exp_table"):
        monkeypatch.setattr(cli, name, refuse)
    plan_modexp = cli.plan_modexp

    def plan_within_branch_cap(cfg):
        # A plan lists every exponent window, so it must follow the branch check.
        assert cfg.inst.exp_bits < cli.MAX_ENTRIES.bit_length(), "planned past MAX_ENTRIES"
        return plan_modexp(cfg)

    monkeypatch.setattr(cli, "plan_modexp", plan_within_branch_cap)
    assert main([*argv.split(), "--out", str(tmp_path / "out")]) == 2
    assert f"exceeds the cap {cap} = {getattr(cli, cap)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, builder",
    [
        # 1,024 branches and 64-entry tables, the largest shape the
        # benchmark simulates.
        ("simulate --modulus 1021 --base 3 --ne 10 --we 3 --wm 3 --variant all",
         "build_windowed_modexp"),
        # A 2^13-entry initial lookup, and ragged windows (exponent 7 + 1
        # bits, multiplicand 5 + 5 + 2): both run in seconds.
        ("simulate --modulus 15 --base 7 --ne 13 --nep 13 --variant opt3",
         "build_windowed_modexp"),
        ("simulate --modulus 4093 --base 3 --ne 8 --we 7 --wm 5 --variant all",
         "build_windowed_modexp"),
        # Tables of 2^16 entries, which dump in well under a second.
        ("tables --ne 16 --initial-bits 16", "build_mul_table"),
        ("tables --modulus 251 --base 3 --ne 8 --we 8 --wm 8", "build_mul_table"),
        # 2^16 squarings to reach the last window, the most the cap admits.
        ("tables --ne 65537 --we 1 --exp-index 65536", "build_mul_table"),
    ],
)
def test_allocation_caps_admit_working_shapes(monkeypatch, argv, builder):
    import wmodexp.cli as cli

    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(cli, builder, reached)
    with pytest.raises(Reached):
        main(argv.split())


def test_gate_cap_bounds_built_circuits():
    # MAX_GATES charges (modulus bits + 8) gates per table entry that the
    # plan looks up. That must hold for the exact adder that simulate builds,
    # and must never exceed the earlier bound, which charged every lookup
    # the widest walk.
    import itertools

    from wmodexp.builders import (
        ModexpConfig,
        ModexpOptions,
        build_windowed_modexp,
        plan_modexp,
    )

    flags = list(itertools.product((False, True), repeat=3))
    for modulus, (we, wm) in itertools.product((21, 1021), ((2, 3), (3, 4), (1, 4))):
        inst = ProblemInstance(modulus, 2, 5)
        # All 16 flag subsets, the initial lookup taking every width 1..5.
        for k, (deferred, selective, lowdepth) in enumerate(flags):
            for initial in (0, 1 + k % inst.exp_bits):
                opts = ModexpOptions(deferred, selective, initial, lowdepth)
                cfg = ModexpConfig(inst, WindowParams(we, wm), opts)
                plan = plan_modexp(cfg)
                per_entry = cfg.inst.mod_bits + 8
                bound = plan.lookup_entries * per_entry
                assert len(build_windowed_modexp(cfg).gates) <= bound, cfg
                pairs = len(plan.exp_windows) * len(plan.mul_windows)
                assert bound <= ((1 + 2 * pairs) << plan.walk_bits) * per_entry, cfg


# ---------------------------------------------------------------------------
# simulate


def test_simulate_demo_passes(capsys):
    assert main(["simulate"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "MISMATCH" not in out
    assert "problem:" not in out


def test_simulate_meter_matches_prediction(capsys):
    assert main(["simulate"]) == 0
    out = capsys.readouterr().out
    meter = [line for line in out.splitlines() if "meter:" in line]
    assert len(meter) == 1
    assert meter[0].endswith("ok")
    assert "toffolis 168 (predicted 168)" in meter[0]


def test_simulate_all_variants_agree(capsys):
    assert main(["simulate", "--variant", "all"]) == 0
    out = capsys.readouterr().out
    assert "variants agree: yes" in out
    blocks = {}
    current = None
    for line in out.splitlines():
        if line.startswith("variant "):
            current = line.split()[1]
            blocks[current] = []
        elif current is not None and line.startswith("  x="):
            blocks[current].append(line)
    assert set(blocks) == {"original", "opt1", "opt2", "opt3", "opt4", "combined"}
    reference = blocks["original"]
    assert len(reference) == 16
    for lines in blocks.values():
        assert lines == reference


def test_simulate_seed_replays_identical_transcript(tmp_path, capsys):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    assert main(["simulate", "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["simulate", "--seed", "7", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert b"outcome m." in out_a.read_bytes()


def test_simulate_reports_verification_failure(monkeypatch, capsys):
    import wmodexp.cli as cli

    monkeypatch.setattr(
        cli, "check_modexp_output", lambda circuit, inst, state: ["x=0: planted"]
    )
    assert main(["simulate"]) == 1
    out = capsys.readouterr().out
    assert "problem: x=0: planted" in out
    assert "result: FAIL" in out


@pytest.mark.parametrize("modulus", ["643", "1021"])
@pytest.mark.parametrize("variant", CIRCUIT_VARIANTS)
def test_simulate_unreduced_tables_are_a_verification_failure(
    monkeypatch, capsys, modulus, variant
):
    # N added to every multiplication-table entry that fits: the exact
    # adder refuses the unreduced source, and simulate exits 1.
    monkeypatch.setattr(builders, "build_mul_table", unreduced(builders.build_mul_table))
    argv = ["simulate", "--modulus", modulus, "--base", "3", "--ne", "8", "--we", "3", "--wm", "3"]
    assert main([*argv, "--variant", variant]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ")
    assert f"ModAddOracle source not below N={modulus}" in err


def test_simulate_reports_variants_that_disagree(monkeypatch, capsys):
    # Only opt1's circuit is faulted: an X after its last gate flips bit 0
    # of its result on every branch.
    import wmodexp.cli as cli

    unpatched, built = cli.build_windowed_modexp, []

    def build(cfg):
        circuit = unpatched(cfg)
        built.append(circuit)
        if len(built) != CIRCUIT_VARIANTS.index("opt1") + 1:
            return circuit
        flip = Gate(X, (circuit.register(circuit.result_register).qubits[0],))
        return Circuit(circuit.gates + (flip,), circuit.registers, circuit.result_register)

    monkeypatch.setattr(cli, "build_windowed_modexp", build)
    assert main(["simulate", "--variant", "all"]) == 1
    out = capsys.readouterr().out
    blocks = out.split("\nvariant ")[1:]
    assert [block.split()[0] for block in blocks] == list(CIRCUIT_VARIANTS)
    assert [("MISMATCH" in block) for block in blocks] == [v == "opt1" for v in CIRCUIT_VARIANTS]
    assert "variants agree: NO\n" in out
    assert out.endswith("result: FAIL (2)\n")


# ---------------------------------------------------------------------------
# cost


def run_cost(capsys, extra=()):
    assert main(["cost", *extra]) == 0
    return capsys.readouterr().out


def test_cost_header_and_default_row(capsys):
    out = run_cost(capsys)
    lines = data_lines(out)
    assert lines[0] == ", ".join(COST_FIELDS)
    row = dict(zip(COST_FIELDS, cells(lines[1])))
    assert row["variant"] == "original"
    assert float(row["reps"]) == pytest.approx(2 * 2048 * 3029 / 25, rel=1e-12)
    assert float(row["lookup_tofs"]) == 1024.0
    assert float(row["add_tofs"]) == 4096.0
    assert float(row["unlookup_tofs"]) == pytest.approx(3 * 2**5, rel=1e-12)


def test_cost_opt3_with_zero_initial_equals_original(capsys):
    original = data_lines(run_cost(capsys, ["--variant", "original"]))[1]
    opt3 = data_lines(run_cost(capsys, ["--variant", "opt3", "--nep", "0"]))[1]
    assert cells(original)[1:] == cells(opt3)[1:]


def test_cost_initial_bits_on_original_is_bad_input(capsys):
    # Each refusal names initial_bits, n_e and the variant, and the takers.
    for argv, reason in (
        ("original --nep 8", "initial_bits = 8 must lie in [0, 0] for original at n_e = 3029"),
        ("sliced_A --nep 1", "initial_bits = 1 must lie in [0, 0] for sliced_A at n_e = 3029"),
        ("opt3 --ne 50 --nep 60", "initial_bits = 60 must lie in [0, 50] for opt3 at n_e = 50"),
    ):
        assert main(["cost", "--variant", *argv.split()]) == 2
        err = capsys.readouterr().err
        assert reason in err
        assert "only opt3 and combined take an initial lookup" in err


def test_cost_all_variants(capsys):
    # 20 initial bits is the self-paying direct-lookup size at this shape.
    lines = data_lines(run_cost(capsys, ["--variant", "all", "--nep", "20"]))
    assert [cells(line)[0] for line in lines[1:]] == list(VARIANTS)
    by_name = {cells(line)[0]: dict(zip(COST_FIELDS, cells(line))) for line in lines[1:]}
    assert int(by_name["original"]["initial_bits"]) == 0
    assert int(by_name["opt3"]["initial_bits"]) == 20
    assert int(by_name["combined"]["initial_bits"]) == 20
    assert float(by_name["combined"]["total_tofs"]) < float(
        by_name["original"]["total_tofs"]
    )


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["cost", "--we", "511", "--wm", "511"], "w_e=511, w_m=511"),
        (["cost", "--we", "520", "--wm", "510"], "w_e=520, w_m=510"),
        (["cost", "--variant", "opt3", "--nep", "3029"], "initial_bits=3029"),
        (["estimate", "--point", "15,27,4,600,600,1024"], "w_e=600, w_m=600"),
    ],
)
def test_unrepresentable_cost_is_bad_input(capsys, argv, reason):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "does not fit a finite float" in err


# ---------------------------------------------------------------------------
# estimate


PUBLISHED_POINT = ["--point", "15,27,4,5,5,1024"]


def run_estimate(capsys, extra=()):
    assert main(["estimate", *extra]) == 0
    return capsys.readouterr().out


def test_estimate_header_is_exact(capsys):
    out = run_estimate(capsys, PUBLISHED_POINT)
    assert data_lines(out)[0] == ESTIMATE_HEADER


def test_estimate_single_point_frontier(capsys):
    out = run_estimate(capsys, PUBLISHED_POINT)
    lines = data_lines(out)
    assert len(lines) == 2
    row = cells(lines[1])
    assert row[:9] == ["2048", "3029", "0.001", "15", "27", "4", "5", "5", "1024"]
    assert float(row[12]) == pytest.approx(19.2488, rel=1e-4)
    assert float(row[14]) == pytest.approx(7.28124, rel=1e-4)
    assert float(row[15]) == pytest.approx(2.63964, rel=1e-4)


def test_estimate_prices_the_published_point_near_its_reported_figures(capsys):
    # Gidney and Ekera report Mqb 19.249, E[hrs] 7.313 and 2.698 B Toffolis
    # at this point. The calibrated model matches the Mqb to four decimals
    # and falls 0.4% short on E[hrs] and 2.2% on the Toffolis; criterion 6
    # holds the grid's best row to 15%, 25% and 5% of the same targets.
    best = json.loads(run_estimate(capsys, [*PUBLISHED_POINT, "--format", "json"]))["best"]
    figures = (round(best["Mqb"], 4), round(best["E[hrs]"], 3), round(best["B Tofs"], 3))
    assert figures == (19.2488, 7.281, 2.640)


def test_estimate_frontier_rows_satisfy_identities(capsys):
    out = run_estimate(capsys)
    lines = data_lines(out)
    assert len(lines) > 2
    header = cells(lines[0])
    for line in lines[1:]:
        row = dict(zip(header, cells(line)))
        risk = float(row["%"]) / 100.0
        vpr = float(row["v.p.r"])
        assert vpr == pytest.approx(
            float(row["Mqb"]) * float(row["hrs"]) / 24.0, rel=1e-4
        )
        assert float(row["E[vol]"]) == pytest.approx(vpr / (1 - risk), rel=1e-4)
        assert float(row["E[hrs]"]) == pytest.approx(
            float(row["hrs"]) / (1 - risk), rel=1e-4
        )


def test_estimate_budget_rows(capsys):
    out = run_estimate(capsys, ["--budget-mqb", "20", "--budget-mqb", "14"])
    lines = data_lines(out)
    assert len(lines) == 3
    assert float(cells(lines[1])[12]) <= 20.0
    assert float(cells(lines[2])[12]) <= 14.0
    assert "# budget 20 Mqb" in out
    assert "# budget 14 Mqb" in out


def test_estimate_unmeetable_budget_is_commented(capsys):
    out = run_estimate(capsys, PUBLISHED_POINT + ["--budget-mqb", "0.001"])
    assert len(data_lines(out)) == 1
    assert "no frontier row fits" in out


def test_estimate_json_structure(capsys):
    out = run_estimate(
        capsys, PUBLISHED_POINT + ["--format", "json", "--budget-mqb", "25"]
    )
    payload = json.loads(out)
    assert payload["manifest"]["subcommand"] == "estimate"
    assert payload["manifest"]["version"]
    best = payload["best"]
    assert best["binding"] == "depth"
    assert best["Mqb"] == pytest.approx(19.2488, rel=1e-4)
    assert [row["Mqb"] for row in payload["frontier"]] == [best["Mqb"]]
    assert payload["by_budget"][0]["budget_mqb"] == 25.0
    assert payload["by_budget"][0]["row"]["E[hrs]"] == best["E[hrs]"]


def test_estimate_json_inferred_from_extension(tmp_path, capsys):
    out_path = tmp_path / "frontier.json"
    assert main(["estimate", "--out", str(out_path), *PUBLISHED_POINT]) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert payload["manifest"]["flags"]["format"] == "json"


def test_estimate_reruns_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["estimate", "--out", str(out_a)]) == 0
    assert main(["estimate", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_estimate_config_overlay_and_digest(tmp_path, capsys):
    overlay = tmp_path / "overlay.cfg"
    overlay.write_text("q = 1.0\n")
    digest = hashlib.sha256(overlay.read_bytes()).hexdigest()
    out = run_estimate(capsys, ["--config", str(overlay), *PUBLISHED_POINT])
    assert f"# config sha256 = {digest}" in out
    assert "q=1.0" in out
    # q only reweights the selection objective, not the row physics.
    row = cells(data_lines(out)[1])
    assert float(row[12]) == pytest.approx(19.2488, rel=1e-4)


def test_estimate_config_from_a_pipe_equals_the_file(tmp_path, capsys):
    # The config is read once: a pipe, which a second open finds empty, gives
    # the profile and the manifest digest of the bytes it carried.
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd on this platform")
    data = b"p_phys = 5e-4\ncycle_ns = 500\nreaction_ns = 3000\nserial_overhead = 1.1\n"
    cfg = tmp_path / "overlay.cfg"
    cfg.write_bytes(data)
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    try:
        piped = ["--config", f"/dev/fd/{read}", "--out", str(tmp_path / "piped")]
        assert main(["estimate", *PUBLISHED_POINT, *piped]) == 0
    finally:
        os.close(read)
    filed = ["--config", str(cfg), "--out", str(tmp_path / "filed")]
    assert main(["estimate", *PUBLISHED_POINT, *filed]) == 0
    capsys.readouterr()
    out = (tmp_path / "piped").read_bytes()
    assert out == (tmp_path / "filed").read_bytes()
    assert f"# config sha256 = {hashlib.sha256(data).hexdigest()}\n".encode() in out


def test_estimate_bad_point_is_bad_input(capsys):
    for point in ("15,27,4", "a,b,c,d,e,f", "15,27,4,5,5,1024,7"):
        assert main(["estimate", "--point", point]) == 2
        assert "error: --point wants six integers" in capsys.readouterr().err
    assert main(["estimate", "--point", "27,15,5,5,5,1024"]) == 2
    assert "L1 must be smaller than L2" in capsys.readouterr().err
    assert main(["estimate", "--n", "1024", "--ne", "1493", "--point", "15,27,4,5,5,2048"]) == 2
    err = capsys.readouterr().err
    assert "every grid g_sep exceeds n = 1024 (smallest g_sep is 2048)" in err


@pytest.mark.parametrize("variant", ["original", "combined"])
@pytest.mark.parametrize(
    ("point", "reason"),
    [
        ("0,11,2,4,4,256", "need 0 < L1 < L2 <= 1000, got L1=0, L2=11"),
        (f"15,{10**200},4,5,5,1024", f"need 0 < L1 < L2 <= 1000, got L1=15, L2={10**200}"),
        ("27,15,4,5,5,1024", "L1 must be smaller than L2"),
        ("15,15,4,5,5,1024", "L1 must be smaller than L2"),
        ("5,11,-1,4,4,256", "0 <= d_off <= 1000, got g_sep=256, d_off=-1"),
        (f"15,27,{10**400},5,5,1024", f"0 <= d_off <= 1000, got g_sep=1024, d_off={10**400}"),
        ("5,11,2,0,4,256", "w_m must be positive"),
        ("5,11,2,4,0,256", "w_e, w_m must be positive"),
        ("5,11,2,4,4,0", "needs 1 <= g_sep <= 1048576 and 0 <= d_off <= 1000, got g_sep=0"),
        ("15,27,4,5,5,4096", "every grid g_sep exceeds n = 2048 (smallest g_sep is 4096)"),
    ],
    ids=[
        "L1=0",
        "L2>max",
        "L1>L2",
        "L1=L2",
        "d_off<0",
        "d_off>max",
        "g_mul=0",
        "g_exp=0",
        "g_sep=0",
        "g_sep>n",
    ],
)
def test_estimate_invalid_point_field_is_bad_input(capsys, variant, point, reason):
    assert main(["estimate", "--variant", variant, "--point", point]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert reason in err


@pytest.mark.parametrize("q", ["0", "-1"])
def test_estimate_nonpositive_q_is_bad_input(capsys, q):
    assert main(["estimate", *PUBLISHED_POINT, "--q", q]) == 2
    assert f"q must lie in [0.012, 1000.0], got {float(q)!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("q", "reason"),
    [
        ("inf", "q must lie in [0.012, 1000.0], got inf"),
        ("1e308", "q must lie in [0.012, 1000.0], got 1e+308"),
    ],
    ids=["inf", "1e308"],
)
def test_estimate_unbounded_q_is_bad_input(capsys, q, reason):
    assert main(["estimate", *PUBLISHED_POINT, "--q", q]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    ("q", "point"), [("500", PUBLISHED_POINT), ("200", [])], ids=["500", "200"]
)
def test_estimate_large_q_runs(capsys, q, point):
    # Points are ranked by log skewed volume, so a steep q cannot overflow
    # Mqb**q at the grid's large-footprint corners.
    assert main(["estimate", *point, "--q", q]) == 0
    out = capsys.readouterr().out
    assert f"q={float(q)!r}" in out
    assert data_lines(out)[0] == ESTIMATE_HEADER


def test_estimate_config_zero_q_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "zero_q.cfg"
    cfg.write_text("q = 0\n")
    assert main(["--config", str(cfg), "estimate", *PUBLISHED_POINT]) == 2
    assert "q must lie in [0.012, 1000.0], got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "inf", "0", "-5"])
def test_estimate_bad_budget_is_bad_input(capsys, budget):
    assert main(["estimate", *PUBLISHED_POINT, "--budget-mqb", budget]) == 2
    assert "--budget-mqb must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    [
        "cycle_ns = 0",
        "reaction_ns = 0",
        "error_threshold = 0",
        "t1_depth = 0",
        "ccz_depth = 0",
        "serial_overhead = nan",
        "postprocess_error = 1.5",
        "routing_height = -1",
    ],
    ids=lambda line: line.split()[0],
)
def test_estimate_bad_calibration_names_the_field(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["estimate", "--config", str(cfg), *PUBLISHED_POINT]) == 2
    assert f"error: {line.split()[0]} must" in capsys.readouterr().err


ZERO_WIDTHS = ["t1_width = 0", "ccz_width = 0", "storage_width = 0"]


@pytest.mark.parametrize(
    ("lines", "field"),
    [
        (["routing_height = 1e305"], "routing_height"),
        (["cycle_ns = 1e305"], "cycle_ns"),
        (["t1_height = 1e306"], "t1_height"),
        (["cz_fixup_height = 1e308"], "cz_fixup_height"),
        (["error_coeff = 0", "routing_height = 1e150", "reaction_ns = 1e160"], "reaction_ns"),
        (["reaction_ns = 1.5e308"], "reaction_ns"),
        (["t1_width = 1e308"], "t1_width"),
        (["ccz_height = 1e308"], "ccz_height"),
        (["t1_depth = 1e308"], "t1_depth"),
        (["storage_width = 1e308"], "storage_width"),
        (["t_per_ccz = 1e308", "t1_depth = 100"], "t_per_ccz"),
        (["error_threshold = 1e-300"], "error_threshold"),
        (["l0_injection_cells = 1e300"], "l0_injection_cells"),
        (["l1_distill_coeff = 1e300"], "l1_distill_coeff"),
        (
            ["p_phys = 1e-300", "cycle_ns = 1e200", "reaction_ns = 1e150", "routing_height = 1e120"],
            "p_phys",
        ),
        ([*ZERO_WIDTHS, "reaction_ns = 1e6"], "t1_width"),
        (["cycle_ns = 1e-320"], "cycle_ns"),
        (["reaction_ns = 1e-318"], "reaction_ns"),
        (["t1_depth = 5e-324"], "t1_depth"),
        (["ccz_depth = 5e-324", "t1_depth = 5e-324"], "t1_depth"),
    ],
    ids=[
        "routing_height",
        "cycle_ns",
        "t1_height",
        "cz_fixup_height",
        "nan_data",
        "reaction_ns",
        "t1_width",
        "ccz_height",
        "t1_depth",
        "storage_width",
        "t_per_ccz",
        "error_threshold",
        "l0_injection_cells",
        "l1_distill_coeff",
        "volume",
        "no_data_columns",
        "cycle_ns_underflow",
        "reaction_ns_underflow",
        "t1_depth_underflow",
        "ccz_time_underflow",
    ],
)
def test_estimate_out_of_range_calibration_names_the_figure(tmp_path, capsys, lines, field):
    # Calibrations that once took a figure of the price out of float range:
    # an error fit that overflows, a board, runtime, data error or volume
    # past float range, a time that underflows to 0 s, a strip of only its
    # two edge columns, a level-1 depth of 0 and, with both depths at
    # 5e-324, a CCZ time of 0 s. Each lies outside profile_domain(), so the
    # config is refused at load, naming the first such field in field order,
    # its range and its value.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["estimate", "--config", str(cfg), *PUBLISHED_POINT]) == 2
    lo, hi = profile_domain()[field]
    value = float(next(line for line in lines if line.startswith(field)).split("=")[1])
    err = capsys.readouterr().err
    assert err == f"error: {field} must lie in [{lo!r}, {hi!r}], got {value!r}\n"


@pytest.mark.parametrize("reaction_ns", [10000, 30000, 50000])
def test_estimate_zero_widths_are_bad_input(tmp_path, capsys, reaction_ns):
    # A footprint 0 tiles wide leaves a strip of one factory pair only its
    # two edge columns at slow reaction times; every width is kept positive,
    # so the grid never meets such a strip.
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("\n".join([*ZERO_WIDTHS, f"reaction_ns = {reaction_ns}"]) + "\n")
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: t1_width must lie in [0.08, 800.0], got 0.0\n"


def test_estimate_perr_matches_a_config_setting_p_phys(tmp_path, capsys):
    # --perr overrides the profile's p_phys: the rows and the manifest's
    # flags equal those of a config file setting it, and only the config
    # digest differs.
    cfg = tmp_path / "perr.cfg"
    cfg.write_text("p_phys = 5e-4\n")
    size = ["--n", "1024", "--ne", "1493"]
    by_flag = run_estimate(capsys, [*size, "--perr", "5e-4"]).splitlines()
    by_config = run_estimate(capsys, [*size, "--config", str(cfg)]).splitlines()
    differ = [i for i, (a, b) in enumerate(zip(by_flag, by_config)) if a != b]
    assert len(by_flag) == len(by_config) > 3
    assert [by_flag[i].split(" = ")[0] for i in differ] == ["# config sha256"]
    assert "perr=0.0005" in by_flag[differ[0] + 1]


def test_estimate_repeated_config_key_is_bad_input(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("p_phys = 1e-3\n# comment\np_phys = 2e-3\n")
    assert main(["estimate", "--config", str(cfg), *PUBLISHED_POINT]) == 2
    assert "error: line 3: p_phys repeats line 1" in capsys.readouterr().err


def test_estimate_overflowing_setting_is_bad_input(capsys):
    assert main(["estimate", "--n", "4096", "--ne", "6101", *PUBLISHED_POINT]) == 2
    assert "error: no grid point stays under the error budget" in capsys.readouterr().err


def test_estimate_n_below_every_g_sep_is_bad_input(capsys):
    assert main(["estimate", "--n", "100", "--ne", "150"]) == 2
    err = capsys.readouterr().err
    assert "every grid g_sep exceeds n = 100 (smallest g_sep is 256)" in err
    assert "error budget" not in err


@pytest.mark.parametrize("n", ["0", "-5"])
@pytest.mark.parametrize("point", [[], ["--point", "5,11,2,4,4,256"]], ids=["grid", "point"])
def test_estimate_non_positive_n_names_n(capsys, n, point):
    assert main(["estimate", "--n", n, "--ne", "10", *point]) == 2
    err = capsys.readouterr().err
    assert f"error: n must be positive, got n = {n}" in err
    assert "g_sep" not in err


def test_estimate_coset_error_of_one_is_refused(capsys):
    # d_off 0, one piece and 2 * 512 * 512 repetitions, a power of two:
    # the padding makes the coset error exactly 1.
    argv = ["estimate", "--n", "2048", "--ne", "2048", "--point", "17,27,0,4,4,2048"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: no grid point stays under the error budget (last overflow: coset error at "
        "LayoutPoint(L1=17, L2=27, d_off=0, g_mul=4, g_exp=4, g_sep=2048))\n"
    )


def test_estimate_overflowing_point_names_its_error_term(capsys):
    argv = ["estimate", "--n", "256", "--ne", "300", "--point", "5,11,2,4,4,256"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: no grid point stays under the error budget (last overflow: factory error at "
        "LayoutPoint(L1=5, L2=11, d_off=2, g_mul=4, g_exp=4, g_sep=256))\n"
    )


# ---------------------------------------------------------------------------
# Exit-code contract: on any input, main returns 0, or 2 with the reason on
# stderr; nothing escapes it as a traceback. A flag refused by argparse
# exits 2 through SystemExit, which is the same exit status.


def exit_status(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("subcommand", ["tables", "simulate", "cost"])
def test_numeric_flags_exit_0_or_2(tmp_path, subcommand):
    for flag, options in FLAGS[subcommand]:
        if "type" in options:
            for value in (-1, 0, 1, 2, 3, 17, 40, 10**6):
                argv = [subcommand, flag, str(value), "--out", str(tmp_path / "out")]
                assert exit_status(argv) in (0, 2), argv


@pytest.mark.parametrize("field", [f.name for f in fields(HardwareProfile)])
def test_calibration_values_exit_0_or_2(tmp_path, field):
    cfg = tmp_path / "field.cfg"
    for value in (0, 5e-324, 1e-320, 1e-300, 0.5, 1e300, 1e308):
        cfg.write_text(f"{field} = {value!r}\n")
        assert main(["estimate", "--config", str(cfg), *PUBLISHED_POINT]) in (0, 2), value


T1_DEPTH_UNDERFLOWS = ["t1_depth = 5e-324", "t1_depth = 5e-324\nccz_depth = 5e-324"]


@pytest.mark.parametrize("text", T1_DEPTH_UNDERFLOWS, ids=["t1_depth", "ccz_depth"])
def test_grid_refuses_a_level1_depth_of_zero(capsys, tmp_path, text):
    # t1_depth * L1 / L2 would be 0.0 at 42 of the grid's 74 distance pairs;
    # the profile refuses the depth at load.
    cfg = tmp_path / "t1.cfg"
    cfg.write_text(text + "\n")
    assert main(["estimate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: t1_depth must lie in [0.0575, 575.0], got 5e-324\n"


def test_level1_depth_refusal_leaves_no_traceback(tmp_path):
    cfg = tmp_path / "t1.cfg"
    cfg.write_text(T1_DEPTH_UNDERFLOWS[0] + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "wmodexp.cli", "estimate", "--config", str(cfg)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "t1_depth" in proc.stderr


def test_non_utf8_config_is_refused_only_where_it_is_parsed(capsys, tmp_path):
    # estimate parses the config as text; cost, like tables and simulate,
    # only records the sha256 of its bytes.
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xffq = 1\n")
    assert main(["estimate", "--config", str(cfg), *PUBLISHED_POINT]) == 2
    assert capsys.readouterr().err.startswith(f"error: config file {cfg} is not UTF-8 text: ")
    assert main(["cost", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest()[:16] == "6e515f5ff67f1931"


# ---------------------------------------------------------------------------
# Output bytes, pinned. Each key is a command line run in a scratch directory
# holding reaction.cfg, and each digest the sha256 prefix of what it writes
# to --out (for "tables NAME", the file NAME it writes). A mismatch means the
# CLI's output changed, so review the change and re-pin.

PINNED_OUTPUTS = {
    "simulate --variant all": "4f35c53e34f5a0d4",
    "cost --variant all --nep 20": "498a41a654df75cb",
    "estimate --point 15,27,4,5,5,1024 --format csv": "c74ea33ecdaca7c0",
    "estimate --point 15,27,4,5,5,1024 --format json": "ab816cff5d3942f0",
    "--config reaction.cfg estimate --point 15,27,4,5,5,1024 --format csv": "caf83b10a80260a8",
    "--config reaction.cfg estimate --point 15,27,4,5,5,1024 --format json": "3ed14a747ca13b34",
    "estimate --budget-mqb 20 --budget-mqb 14 --format csv": "33f71cae722b7119",
    "estimate --variant combined --format json": "6852ec9b97d12eba",
    "tables multiply.tbl": "754b9bfb885a94e7",
    "tables pruned.tbl": "2e036c245b31098d",
    "tables phase_fixup.tbl": "761e23a2aca5b472",
    "tables direct_exp.tbl": "a8b775e35a98ef6c",
    # 2^14 branches: the widest state a tier-1 test simulates.
    "simulate --modulus 1021 --base 3 --ne 14 --we 3 --wm 3 --variant combined": "b2ac0dac5dcc1f24",
}


def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reaction.cfg").write_text("reaction_ns = 12000\n")
    assert main(["tables", "--out", "tables"]) == 0
    changed = []
    for name, pinned in PINNED_OUTPUTS.items():
        if name.startswith("tables "):
            data = (tmp_path / "tables" / name.split()[1]).read_bytes()
        else:
            assert main([*name.split(), "--out", "out"]) == 0, name
            data = (tmp_path / "out").read_bytes()
        digest = hashlib.sha256(data).hexdigest()[:16]
        if digest != pinned:
            changed.append(f"{name}: {digest} (pinned {pinned})")
    capsys.readouterr()
    assert not changed, "CLI output changed for " + "; ".join(changed)
