"""Command line front end: manifests, round trips, exit codes, exports."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from wmodexp.cli import COST_FIELDS, ESTIMATE_HEADER, main
from wmodexp.costs import VARIANTS
from wmodexp.numerics import (
    ProblemInstance,
    WindowParams,
    build_direct_exp_table,
    build_mul_table,
    build_phase_fixup_table,
    build_pruned_table,
    dump_table,
)

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


def test_unknown_variant_is_bad_input(capsys):
    assert main(["simulate", "--variant", "sliced_A"]) == 2
    assert main(["cost", "--variant", "nope"]) == 2
    assert main(["estimate", "--variant", "nope"]) == 2
    capsys.readouterr()


def test_missing_config_is_bad_input(capsys, tmp_path):
    assert main(["cost", "--config", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()


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
    mul = build_mul_table(INST15, WP22, 0, 0)
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
    plain = build_mul_table(INST15, WP22, 0, 1)
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
    assert main(["cost", "--variant", "original", "--nep", "8"]) == 2
    capsys.readouterr()


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


def test_estimate_bad_point_is_bad_input(capsys):
    assert main(["estimate", "--point", "15,27,4"]) == 2
    assert main(["estimate", "--point", "a,b,c,d,e,f"]) == 2
    capsys.readouterr()
    assert main(["estimate", "--point", "27,15,5,5,5,1024"]) == 2
    assert "L1 must be smaller than L2" in capsys.readouterr().err
    assert main(["estimate", "--n", "1024", "--ne", "1493", "--point", "15,27,4,5,5,2048"]) == 2
    assert "g_sep 2048 must not exceed n = 1024" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["0", "-1"])
def test_estimate_nonpositive_q_is_bad_input(capsys, q):
    assert main(["estimate", *PUBLISHED_POINT, "--q", q]) == 2
    assert "q must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("q", "reason"),
    [("inf", "q must be finite, got inf"), ("1e308", "overflows the log skewed volume")],
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
    assert "q must be > 0" in capsys.readouterr().err


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
    ],
    ids=lambda line: line.split()[0],
)
def test_estimate_bad_calibration_names_the_field(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(["estimate", "--config", str(cfg), *PUBLISHED_POINT]) == 2
    assert f"error: {line.split()[0]} must" in capsys.readouterr().err


def test_estimate_overflowing_setting_is_bad_input(capsys):
    assert main(["estimate", "--n", "4096", "--ne", "6101", *PUBLISHED_POINT]) == 2
    assert "error: no grid point stays under the error budget" in capsys.readouterr().err


def test_estimate_n_below_every_g_sep_is_bad_input(capsys):
    assert main(["estimate", "--n", "100", "--ne", "150"]) == 2
    err = capsys.readouterr().err
    assert "every grid g_sep exceeds n = 100 (smallest g_sep is 256)" in err
    assert "error budget" not in err


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
