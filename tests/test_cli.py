import json
import pathlib
import re
import shlex

import jsonschema
import pytest

import sdepth.cli as cli
import sdepth.verifier as verifier
from sdepth.cli import EXIT_FAILS, EXIT_INPUT, EXIT_OK, EXIT_UNKNOWN, build_parser, main
from sdepth.parsing import parse_ideal
from sdepth.poset import SdepthResult
from sdepth.verifier import STATEMENTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
CI = str(ROOT / "ideals" / "ci.ideal")
PAIR = str(ROOT / "ideals" / "pair.ideal")
EXAMPLE = str(ROOT / "ideals" / "example210.ideal")
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    payloads = [json.loads(line) for line in out.splitlines() if line.strip()]
    for payload in payloads:
        jsonschema.validate(payload, SCHEMA)
    return code, payloads


class TestSdepthCommand:
    def test_quotient_of_ci_square(self, capsys):
        code, out, _ = run(capsys, "sdepth", CI, "--module", "S/J^2")
        assert code == EXIT_OK
        assert "= 1" in out

    def test_json_agrees_with_text(self, capsys):
        code, payloads = run_json(capsys, "sdepth", CI, "--module", "S/J^2")
        assert code == EXIT_OK
        assert payloads[0]["value"] == 1
        assert payloads[0]["status"] == "exact"
        assert payloads[0]["witness"]

    def test_default_module_is_ideal(self, capsys):
        code, payloads = run_json(capsys, "sdepth", CI)
        assert code == EXIT_OK
        assert payloads[0]["module"] == "I"
        assert payloads[0]["value"] == 2

    def test_budget_exhaustion_exits_unknown(self, capsys):
        code, _, err = run(capsys, "sdepth", EXAMPLE, "--module", "S/I", "--cell-cap", "10")
        assert code == EXIT_UNKNOWN

    def test_a_refutation_below_an_unknown_is_exact(self, capsys, tmp_path, top_decision_times_out):
        # sdepth((x1, x2, x3)^2) = 1: the bound 3 times out, 2 is refuted
        path = tmp_path / "maximal.ideal"
        path.write_text("vars: x1 x2 x3\nx1\nx2\nx3\n")
        code, out, _ = run(capsys, "sdepth", str(path), "--module", "I^2")
        assert code == EXIT_OK
        assert "= 1" in out
        code, payloads = run_json(capsys, "sdepth", str(path), "--module", "I^2")
        assert code == EXIT_OK
        assert [payloads[0][key] for key in ("status", "value", "lo", "hi")] == ["exact", 1, 1, 1]

    def test_schema_ties_the_value_to_the_status(self, capsys):
        _, payloads = run_json(capsys, "sdepth", CI)
        for tampered in ({"value": None}, {"status": "unknown"}, {"lo": None}):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**payloads[0], **tampered}, SCHEMA)

    def test_export_poset(self, capsys, tmp_path):
        dot = tmp_path / "poset.dot"
        code, _, _ = run(capsys, "sdepth", CI, "--module", "S/J", "--export-poset", str(dot))
        assert code == EXIT_OK
        assert dot.read_text().startswith("digraph")

    def test_unwritable_export_poset_is_input_error(self, capsys, tmp_path):
        dot = tmp_path / "missing" / "poset.dot"
        code, _, err = run(capsys, "sdepth", CI, "--export-poset", str(dot))
        assert code == EXIT_INPUT
        assert err.startswith(f"error: cannot write {dot}: ")
        assert not dot.exists()

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_unwritable_export_poset_prints_no_result(self, capsys, tmp_path, json_flag):
        dot = tmp_path / "missing" / "poset.dot"
        code, out, err = run(capsys, "sdepth", CI, "--export-poset", str(dot), *json_flag)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: cannot write {dot}: ")

    def test_json_reports_the_reduction(self, capsys, tmp_path):
        # the exponents of J^2 = (x1*x2, x3)^2 are consecutive: no reduction
        _, payloads = run_json(capsys, "sdepth", CI, "--module", "S/J^2")
        assert payloads[0]["reduction"] is None
        # x1^3, x2^4 compress to x1, x2; the witness comes back uncompressed
        path = tmp_path / "gaps.ideal"
        path.write_text("vars: x1 x2\nx1^3\nx2^4\n")
        dot = tmp_path / "poset.dot"
        code, payloads = run_json(capsys, "sdepth", str(path), "--module", "S/I",
                                  "--export-poset", str(dot))
        assert code == EXIT_OK
        assert payloads[0]["reduction"] == "exponent-compression"
        assert payloads[0]["value"] == 0
        assert payloads[0]["witness"] == [[[0, 0], [2, 3]]]
        assert dot.read_text().count("fillcolor=lightblue") == 12

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "sdepth", str(ROOT / "nope.ideal"))
        assert code == EXIT_INPUT
        assert "error" in err

    def test_bad_module_expression(self, capsys):
        code, _, err = run(capsys, "sdepth", CI, "--module", "Q^^2")
        assert code == EXIT_INPUT


class TestDepthCommand:
    def test_quotient(self, capsys):
        code, payloads = run_json(capsys, "depth", CI, "--module", "S/J")
        assert code == EXIT_OK
        assert payloads[0]["depth_quotient"] == 1
        assert payloads[0]["depth_ideal"] == 2

    def test_socle_shortcut_reported(self, capsys):
        code, payloads = run_json(capsys, "depth", EXAMPLE, "--module", "S/I")
        assert code == EXIT_OK
        assert payloads[0]["depth_quotient"] == 0
        assert payloads[0]["method"] == "socle-shortcut"

    def test_noncyclic_module_rejected(self, capsys):
        code, _, err = run(capsys, "depth", CI, "--module", "I/I^2")
        assert code == EXIT_INPUT


class TestDimCommand:
    def test_ci(self, capsys):
        code, payloads = run_json(capsys, "dim", CI)
        assert code == EXIT_OK
        assert payloads[0]["dim"] == 1

    def test_example_ideal(self, capsys):
        # V(I) is cut out by x1 = x2 = 0, so dim(A/I) = 6 - 2 = 4
        code, payloads = run_json(capsys, "dim", EXAMPLE)
        assert code == EXIT_OK
        assert payloads[0]["dim"] == 4


class TestPowerCommand:
    def test_round_trips_through_parser(self, capsys):
        code, payloads = run_json(capsys, "power", CI, "3")
        assert code == EXIT_OK
        reparsed = parse_ideal(payloads[0]["ideal"])
        direct = parse_ideal(pathlib.Path(CI).read_text()).power(3)
        assert reparsed == direct

    def test_gen_cap(self, capsys):
        code, _, err = run(capsys, "power", EXAMPLE, "4", "--gen-cap", "10")
        assert code == EXIT_UNKNOWN

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_nonpositive_gen_cap_rejected(self, capsys, cap):
        code, _, err = run(capsys, "power", CI, "2", "--gen-cap", cap)
        assert code == EXIT_INPUT
        assert "budgets must be positive" in err


class TestVerifyCommand:
    def test_thm_2_15_on_file(self, capsys):
        code, out, _ = run(capsys, "verify", "thm_2_15", "--ideal", CI, "--n-max", "2")
        assert code == EXIT_OK
        assert "thm_2_15: holds" in out

    def test_pair_statement_on_split_file(self, capsys):
        code, payloads = run_json(capsys, "verify", "lemma_2_1", "--ideal", PAIR)
        assert code == EXIT_OK
        assert payloads[0]["verdict"] == "holds"

    def test_schema_takes_an_operand_as_an_int_or_a_bracket(self, capsys):
        _, payloads = run_json(capsys, "verify", "thm_2_15", "--ideal", CI, "--n-max", "1")
        payload, item = payloads[0], payloads[0]["items"][0]
        jsonschema.validate({**payload, "items": [{**item, "lhs": [3, 4]}]}, SCHEMA)
        for operand in ([4], "3", [3, 4, 5], [-1, 2]):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**payload, "items": [{**item, "lhs": operand}]}, SCHEMA)

    def test_pair_statement_needs_split(self, capsys):
        code, _, err = run(capsys, "verify", "lemma_2_1", "--ideal", CI)
        assert code == EXIT_INPUT

    def test_random_instances(self, capsys):
        code, payloads = run_json(
            capsys, "verify", "prop_2_2", "--random", "0", "--count", "3"
        )
        assert code == EXIT_OK
        assert len(payloads) == 3
        assert all(p["verdict"] == "holds" for p in payloads)

    def test_random_parallel_matches_serial(self, capsys):
        _, serial = run_json(capsys, "verify", "lemma_2_1", "--random", "1", "--count", "2")
        _, parallel = run_json(
            capsys, "verify", "lemma_2_1", "--random", "1", "--count", "2", "--jobs", "2"
        )
        assert serial == parallel

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_rejected(self, capsys, jobs):
        code, _, err = run(capsys, "verify", "lemma_2_1", "--random", "0", "--jobs", jobs)
        assert code == EXIT_INPUT
        assert "--jobs" in err

    @pytest.mark.parametrize("jobs, count", [(1000, 3), (2, 3), (1000, 1)])
    def test_pool_size_is_bounded(self, capsys, monkeypatch, jobs, count):
        # a fake pool that records its size and maps in this process, so
        # that a large --jobs starts no process
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        argv = ("verify", "lemma_2_1", "--random", "1", "--count", str(count))
        _, serial = run_json(capsys, *argv)
        code, pooled = run_json(capsys, *argv, "--jobs", str(jobs))
        assert code == EXIT_OK
        assert pooled == serial
        bound = min(jobs, count, 4)
        assert sizes == ([bound] if bound > 1 else [])

    def test_unknown_statement(self, capsys):
        code, _, err = run(capsys, "verify", "thm_9_9", "--random", "0")
        assert code == EXIT_INPUT
        assert "known:" in err

    def test_needs_ideal_or_seed(self, capsys):
        code, _, err = run(capsys, "verify", "lemma_2_1")
        assert code == EXIT_INPUT

    def test_zero_count_rejected(self, capsys):
        code, out, err = run(capsys, "verify", "lemma_2_1", "--random", "0", "--count", "0")
        assert code == EXIT_INPUT
        assert out == ""

    @pytest.mark.parametrize(
        "flag, value", [("--count", "1"), ("--count", "0"), ("--jobs", "1"), ("--jobs", "8")]
    )
    def test_random_only_flags_rejected_with_ideal(self, capsys, flag, value):
        code, out, err = run(capsys, "verify", "lemma_2_1", "--ideal", PAIR, flag, value)
        assert code == EXIT_INPUT
        assert out == ""
        assert "--random" in err

    def test_random_and_ideal_rejected(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma_2_1", "--random", "0", "--ideal", PAIR)
        assert code == EXIT_INPUT
        assert out == ""

    def test_power_flag_reaches_random_instances(self, capsys):
        code, payloads = run_json(capsys, "verify", "thm_2_11", "--random", "0", "--n-max", "3")
        assert code == EXIT_OK
        assert payloads[0]["instance"]["n_max"] == "3"

    def test_power_spellings_are_one_option(self, capsys):
        reports = [
            run_json(capsys, "verify", "prop_2_3", "--ideal", PAIR, flag, "1")[1]
            for flag in ("--n", "--n-max", "--k-max")
        ]
        assert reports[0][0]["instance"]["n"] == "1"
        assert reports[0] == reports[1] == reports[2]

    def test_colon_shift_file_picks_generator(self, capsys, tmp_path):
        # v = x1*x2 fails the hypothesis (v/w = x2 is in block A); v = x1*y1 meets it
        path = tmp_path / "colon.ideal"
        path.write_text("vars: x1 x2 | y1 y2\nx1*x2\nx1*y1\n")
        code, payloads = run_json(capsys, "verify", "cor_2_13", "--ideal", str(path))
        assert code == EXIT_OK
        assert payloads[0]["instance"]["v"] == "x1*y1"

    def test_colon_shift_file_reports_last_generator_error(self, capsys, tmp_path):
        # x4 sorts first and fails on v/w; x1*x3, the last generator, fails on gcds
        path = tmp_path / "nocolon.ideal"
        path.write_text("vars: x1 x2 x3 x4 | y1\nx1*x2\nx1*x3\nx4\n")
        code, _, err = run(capsys, "verify", "cor_2_13", "--ideal", str(path))
        assert code == EXIT_INPUT
        assert "gcd(v, v_i) must be the same monomial w for all i" in err

    def test_all_statements_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--random", "0", "--count", "2", "--time-limit", "10")
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert sorted(row.split()[0] for row in rows) == sorted(STATEMENTS)
        assert all(row.split()[1:] == ["2", "0", "0", "0"] for row in rows)

    def test_all_statements_json(self, capsys):
        code, payloads = run_json(capsys, "verify", "all", "--random", "3", "--time-limit", "10")
        assert code == EXIT_OK
        assert [p["statement"] for p in payloads] == sorted(STATEMENTS)

    def test_all_needs_random(self, capsys):
        code, _, _ = run(capsys, "verify", "all", "--ideal", PAIR)
        assert code == EXIT_INPUT

    def test_power_flag_on_statement_without_power_from_file(self, capsys):
        code, out, err = run(capsys, "verify", "lemma_2_1", "--ideal", PAIR, "--n", "0")
        assert code == EXIT_INPUT
        assert out == ""
        assert "lemma_2_1 takes no power" in err

    def test_power_flag_on_statement_without_power_at_random(self, capsys):
        code, out, err = run(capsys, "verify", "prop_2_2", "--random", "0", "--n", "2")
        assert code == EXIT_INPUT
        assert out == ""
        assert "prop_2_2 takes no power" in err

    def test_power_flag_reaches_all_statements(self, capsys):
        code, payloads = run_json(
            capsys, "verify", "all", "--random", "0", "--n", "1", "--time-limit", "10"
        )
        assert code == EXIT_OK
        assert [p["statement"] for p in payloads] == sorted(STATEMENTS)


# the file each statement is checked on: pair and CI statements use the
# shipped files; the rest need a shape of their own
STATEMENT_FILES = {
    "thm_2_11": "vars: x1 x2 | y1 y2\nx1*x2\nx1^2\ny1\ny2^2\n",  # block B a CI
    "thm_2_11_decomposition": "vars: x1 x2 | y1\nx1*x2\nx1^2\ny1^2\n",  # one block-B generator
    "cor_2_13": "vars: x1 x2 | y1 y2\nx1*x2\nx1*y1\n",  # colon shift with v = x1*y1
    **{s: CI for s in ("prop_2_5", "cor_2_12", "prop_2_14", "thm_2_15")},
}


def statement_file(tmp_path, statement: str) -> str:
    path = STATEMENT_FILES.get(statement, PAIR)
    if path.startswith("vars:"):
        (tmp_path / "instance.ideal").write_text(path)
        path = str(tmp_path / "instance.ideal")
    return path


@pytest.mark.parametrize("statement", sorted(STATEMENTS))
def test_every_statement_runs_from_a_file(capsys, tmp_path, statement):
    path = statement_file(tmp_path, statement)
    # a statement that takes no power rejects --n
    power = [] if STATEMENTS[statement].power == "none" else ["--n", "1"]
    # prop_2_7 on the pair file is decided only in the search's second phase,
    # which starts at half the time limit
    code, payloads = run_json(
        capsys, "verify", statement, "--ideal", path, *power, "--time-limit", "4"
    )
    assert code in (EXIT_OK, EXIT_UNKNOWN)
    assert payloads[0]["statement"] == statement
    assert payloads[0]["verdict"] != "fails"


# statements whose check loops over powers 1..n (0..n for prop_2_5 and
# thm_2_15): a bound below the first power would leave nothing to check
EMPTY_POWERS = [
    ("thm_2_11", "0", "needs n_max >= 1"),
    ("thm_2_11_decomposition", "0", "needs n >= 1"),
    ("cor_2_12", "0", "needs n_max >= 1"),
    ("cor_2_13", "0", "needs n_max >= 1"),
    ("prop_2_14", "0", "needs k_max >= 1"),
    ("prop_2_6", "0", "needs n >= 1"),
    ("obs_2_8", "0", "needs n >= 1"),
    ("prop_2_5", "-1", "needs n >= 0"),
    ("thm_2_15", "-1", "needs n_max >= 0"),
]


@pytest.mark.parametrize("statement,power,message", EMPTY_POWERS)
def test_power_bound_that_checks_nothing_is_input_error(capsys, tmp_path, statement, power, message):
    path = statement_file(tmp_path, statement)
    code, out, err = run(capsys, "verify", statement, "--ideal", path, "--n", power)
    assert code == EXIT_INPUT
    assert out == ""
    assert message in err


def test_power_bound_on_random_instance_is_input_error(capsys):
    code, out, err = run(capsys, "verify", "cor_2_12", "--random", "0", "--n", "0")
    assert code == EXIT_INPUT
    assert "needs n_max >= 1" in err


class TestSequenceCommand:
    def test_sdepth_table(self, capsys):
        code, payloads = run_json(capsys, "sequence", CI, "2")
        assert code == EXIT_OK
        rows = payloads[0]["rows"]
        assert [r["n"] for r in rows] == [1, 2]
        assert all(r["ring_quotient"] == 1 and r["shell"] == 1 for r in rows)

    @pytest.mark.parametrize("extra", [[], ["--depth"]])
    def test_empty_table_is_input_error(self, capsys, extra):
        code, out, err = run(capsys, "sequence", CI, "0", *extra)
        assert code == EXIT_INPUT
        assert out == ""
        assert "needs n_max >= 1" in err

    def test_depth_table(self, capsys):
        code, payloads = run_json(capsys, "sequence", CI, "2", "--depth")
        assert code == EXIT_OK
        assert all(r["ring_quotient"] == 1 for r in payloads[0]["rows"])
        assert all(r["shell"] is None for r in payloads[0]["rows"])

    def test_depth_table_text_marks_the_shell_na(self, capsys):
        code, out, _ = run(capsys, "sequence", CI, "2", "--depth")
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert [line.split() for line in rows] == [["1", "1", "2", "?(n/a)"], ["2", "1", "2", "?(n/a)"]]

    def test_an_open_bracket_is_an_unknown_cell(self, capsys, monkeypatch):
        monkeypatch.setattr(verifier, "sdepth_exact", lambda module, budget: SdepthResult(0, 1, None))
        code, out, _ = run(capsys, "sequence", CI, "2")
        assert code == EXIT_UNKNOWN
        rows = out.splitlines()[1:]
        assert [line.split()[1:] for line in rows] == [["?(unknown)"] * 3] * 2

    @pytest.mark.parametrize(
        "gens, message",
        [
            ("", "depth_ideal needs a nonzero proper ideal"),
            ("1\n", "depth of the zero module is undefined"),
        ],
    )
    def test_depth_table_of_zero_or_unit_ideal_is_input_error(self, capsys, tmp_path, gens, message):
        path = tmp_path / "ideal.ideal"
        path.write_text("vars: x1 x2\n" + gens)
        code, out, err = run(capsys, "sequence", str(path), "2", "--depth")
        assert code == EXIT_INPUT
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("flag, value", [("--time-limit", "5"), ("--cell-cap", "1")])
    def test_budget_flag_with_depth_is_usage_error(self, capsys, flag, value):
        code, out, err = run(capsys, "sequence", CI, "2", "--depth", flag, value)
        assert code == EXIT_INPUT
        assert out == ""
        assert f"{flag} applies to sequence without --depth only" in err

    def test_depth_ignores_the_budget_variables(self, capsys, monkeypatch):
        monkeypatch.setenv("SDEPTH_TIME_LIMIT", "abc")
        monkeypatch.setenv("SDEPTH_CELL_CAP", "abc")
        code, payloads = run_json(capsys, "sequence", CI, "2", "--depth")
        assert code == EXIT_OK
        assert [r["n"] for r in payloads[0]["rows"]] == [1, 2]
        code, _, err = run(capsys, "sequence", CI, "2")
        assert code == EXIT_INPUT
        assert "SDEPTH_TIME_LIMIT" in err


class TestExportCommand:
    def test_poset_to_stdout(self, capsys):
        code, out, _ = run(capsys, "export", "poset", CI, "--module", "S/J")
        assert code == EXIT_OK
        assert out.startswith("digraph")

    def test_lattice_to_file(self, capsys, tmp_path):
        target = tmp_path / "lat.dot"
        code, _, _ = run(capsys, "export", "lattice", CI, "-o", str(target))
        assert code == EXIT_OK
        assert target.read_text().startswith("digraph")

    @pytest.mark.parametrize("what", ["poset", "lattice"])
    def test_unwritable_output_is_input_error(self, capsys, tmp_path, what):
        target = tmp_path / "missing" / "out.dot"
        code, out, err = run(capsys, "export", what, CI, "-o", str(target))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    def test_cell_cap_with_lattice_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "lat.dot"
        code, out, err = run(capsys, "export", "lattice", CI, "--cell-cap", "50", "-o", str(target))
        assert code == EXIT_INPUT
        assert out == "" and not target.exists()
        assert "--cell-cap applies to export poset only" in err

    def test_module_with_lattice_is_usage_error(self, capsys):
        code, out, err = run(capsys, "export", "lattice", CI, "--module", "garbage((")
        assert code == EXIT_INPUT
        assert out == ""
        assert "--module applies to export poset only" in err

    def test_lattice_ignores_the_cell_cap_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("SDEPTH_CELL_CAP", "abc")
        code, out, err = run(capsys, "export", "lattice", CI)
        assert code == EXIT_OK
        assert out.startswith("digraph") and not err
        code, _, err = run(capsys, "export", "poset", CI, "--module", "S/J")
        assert code == EXIT_INPUT
        assert "SDEPTH_CELL_CAP" in err


def many_generator_file(tmp_path) -> str:
    # 81 generators: any product of two of its ideals exceeds the 5000 cap
    path = tmp_path / "wide.ideal"
    path.write_text("vars: x1 x2\n" + "\n".join(f"x1^{i}*x2^{80 - i}" for i in range(81)) + "\n")
    return str(path)


class TestCapErrors:
    """A cap that runs out makes the answer unknown: exit 3, not a traceback."""

    def test_sdepth_module_over_generator_cap(self, capsys, tmp_path):
        code, out, err = run(capsys, "sdepth", many_generator_file(tmp_path), "--module", "I^2")
        assert code == EXIT_UNKNOWN
        assert out == ""
        assert err.startswith("error: product would form 6561 generators (cap 5000)")

    def test_depth_module_over_generator_cap(self, capsys, tmp_path):
        code, out, err = run(capsys, "depth", many_generator_file(tmp_path), "--module", "S/I^2")
        assert code == EXIT_UNKNOWN
        assert out == ""
        assert err.startswith("error: product would form 6561 generators (cap 5000)")

    def test_transfer_over_lattice_cap_is_unknown(self, capsys, tmp_path):
        # (t1, t2, t3)^5 has 21 generators, one more than the lattice cap
        path = tmp_path / "m3.ideal"
        path.write_text("vars: x1 x2 x3\nx1\nx2\nx3\n")
        code, payloads = run_json(capsys, "verify", "prop_2_14", "--ideal", str(path), "--n", "5")
        assert code == EXIT_UNKNOWN
        unknown = [item["label"] for item in payloads[0]["items"] if item["verdict"] != "holds"]
        assert unknown == ["transfer agreement at k=5"]


class TestEnvBudgets:
    def test_env_time_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("SDEPTH_CELL_CAP", "10")
        code, _, _ = run(capsys, "sdepth", EXAMPLE, "--module", "S/I")
        assert code == EXIT_UNKNOWN

    @pytest.mark.parametrize("var", ["SDEPTH_TIME_LIMIT", "SDEPTH_CELL_CAP"])
    def test_malformed_env_read_by_subcommand_is_input_error(self, capsys, monkeypatch, var):
        monkeypatch.setenv(var, "abc")
        code, out, err = run(capsys, "sdepth", CI)
        assert code == EXIT_INPUT
        assert out == ""
        assert var in err

    def test_malformed_gen_cap_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SDEPTH_GEN_CAP", "1.5")
        code, _, err = run(capsys, "power", CI, "2")
        assert code == EXIT_INPUT
        assert "SDEPTH_GEN_CAP" in err

    def test_flag_overrides_malformed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SDEPTH_TIME_LIMIT", "abc")
        code, _, _ = run(capsys, "sdepth", CI, "--time-limit", "5")
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", [["dim", CI], ["depth", CI]])
    def test_malformed_env_not_read_is_ignored(self, capsys, monkeypatch, command):
        for var in ("SDEPTH_TIME_LIMIT", "SDEPTH_CELL_CAP", "SDEPTH_GEN_CAP"):
            monkeypatch.setenv(var, "abc")
        code, out, err = run(capsys, *command)
        assert code == EXIT_OK
        assert out and not err

    def test_nonpositive_budget_rejected(self, capsys):
        code, _, err = run(capsys, "sdepth", CI, "--time-limit", "0")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv",
        [["sdepth", CI, "--time-limit", "nan"], ["sdepth", CI, "--time-limit", "-1"],
         ["sdepth", CI, "--cell-cap", "0"], ["export", "poset", CI, "--cell-cap", "0"],
         ["export", "lattice", CI, "--cell-cap", "0"],
         ["sequence", CI, "2", "--depth", "--cell-cap", "0"]],
    )
    def test_budget_flag_that_is_not_positive_is_input_error(self, capsys, argv):
        # a NaN time limit would switch the deadline off, not set one
        code, out, err = run(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert "budgets must be positive" in err

    def test_nan_time_limit_from_env_is_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SDEPTH_TIME_LIMIT", "nan")
        code, out, err = run(capsys, "sdepth", CI)
        assert code == EXIT_INPUT
        assert out == ""
        assert "budgets must be positive" in err


class TestUsage:
    def test_bogus_flag_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "lemma_2_1", "--ideal", PAIR, "--bogus")
        assert code == EXIT_INPUT
        assert "unrecognized arguments" in err

    def test_flag_a_subcommand_does_not_read_is_input_error(self, capsys):
        code, _, _ = run(capsys, "sdepth", CI, "--gen-cap", "2")
        assert code == EXIT_INPUT

    def test_help_exits_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == EXIT_OK
        assert "--n-max" in out


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    return [
        line.split("#", 1)[0].strip()
        for block in blocks
        for line in block.splitlines()
        if line.startswith("sdepth ")
    ]


def test_readme_examples_parse():
    commands = readme_commands()
    assert commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {command}")


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(block, namespace)
    # the results the README states in its comments and the text below
    for claim in (
        "res.value == 2",
        "rep.depth_quotient == 0",
        "m.exps == ((0, 0, 1), (0, 1, 0), (1, 0, 0))",
    ):
        assert claim in text
        assert eval(claim, namespace), claim
