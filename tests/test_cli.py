import json
from pathlib import Path

import pytest

from seqcm.cli import main, parse_problem, render_document, run, verify_certificate
from seqcm.errors import ParseError
from seqcm.relcm import VariableBlock

CORPUS = Path(__file__).parent / "corpus"


def write_problem(tmp_path, text, name="problem.ring"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProblemParsing:
    def test_inline_statements(self):
        problem = parse_problem("ring m=2 n=2 field=QQ / ideal x1*y1 + x2*y2")
        assert problem.ring.m == 2 and problem.ring.n == 2
        assert len(problem.ideal.gens) == 1

    def test_ordinary_ring(self):
        problem = parse_problem("ring m=0 n=2 field=QQ\nideal y1*y2")
        assert problem.ring.m == 0

    def test_unknown_variable_is_semantic_error(self):
        with pytest.raises(ParseError) as err:
            parse_problem("ring m=2 n=2 field=QQ\nideal x3")
        assert err.value.line == 2

    def test_missing_ring(self):
        with pytest.raises(ParseError):
            parse_problem("ideal x1")

    def test_options_are_picked_up(self):
        problem = parse_problem(
            "ring m=2 n=2 field=QQ\nideal x1\noptions seed=5 block=P"
        )
        assert problem.seed == 5
        assert problem.block is VariableBlock.P

    def test_comments_and_blank_lines(self):
        problem = parse_problem(
            "# a comment\n\nring m=1 n=1 field=QQ\nideal x1*y1  # trailing\n"
        )
        assert len(problem.ideal.gens) == 1

    def test_prime_field_header(self):
        problem = parse_problem("ring m=1 n=1 field=GF(65537)\nideal 2*x1*y1")
        assert problem.ring.field.name == "GF(65537)"

    def test_fraction_coefficients_survive_the_separator(self):
        problem = parse_problem("ring m=1 n=1 field=QQ / ideal 1/2*x1*y1 + y1^2")
        (g,) = problem.ideal.gens
        assert str(g) == "1/2*x1*y1 + y1^2"


class TestExitCodes:
    def test_decided_false_is_zero(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1 + x2*y2\n")
        code, out, _ = run_cli(capsys, "seqcm", path, "--wrt", "Q")
        assert code == 0
        assert "decision: false" in out

    def test_unsupported_class_is_two(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1 + x2*y2, x1^2\n"
        )
        code, _, err = run_cli(capsys, "seqcm", path, "--wrt", "Q")
        assert code == 2
        assert "unsupported" in err

    def test_non_bigraded_relcm_is_two(self, tmp_path, capsys):
        for ideal in ("x1 - y1", "y1 - 1"):
            path = write_problem(tmp_path, f"ring m=1 n=1 field=QQ\nideal {ideal}\n")
            for command in ("relcm", "seqcm"):
                code, out, err = run_cli(capsys, command, path, "--wrt", "Q")
                assert code == 2
                assert "not graded" in err and out == ""

    def test_non_bigraded_cd_grade_depth_is_two(self, tmp_path, capsys):
        """cd would read 0 on x1 - y1 w.r.t. Q, and the grade search cannot
        end on y1 - 1, where y1 is a unit; depth needs a homogeneous ideal."""
        cases = [("x1 - y1", command, wrt) for command in ("cd", "grade") for wrt in "PQ"]
        cases += [("y1 - 1", command, wrt) for command in ("cd", "grade") for wrt in "PQm"]
        cases += [("y1 - 1", "depth", "Q")]
        for ideal, command, wrt in cases:
            path = write_problem(tmp_path, f"ring m=1 n=1 field=QQ\nideal {ideal}\n")
            code, out, err = run_cli(capsys, command, path, "--wrt", wrt)
            assert code == 2, (ideal, command, wrt)
            assert "not graded" in err and out == ""
        path = write_problem(tmp_path, "ring m=1 n=1 field=QQ\nideal x1 - y1\n")
        code, out, _ = run_cli(capsys, "depth", path, "--format", "json")
        assert code == 0 and json.loads(out)["invariants"]["depth"] == 1

    @pytest.mark.parametrize(
        "command,text,code,message",
        [
            ("cd", "ring m=1 n=1\nring m=1 n=1\nideal x1\n", 3,
             "parse error: duplicate ring statement (line 2, column 1)"),
            ("cd", "ring m=1 n=1\nideal x1\nideal y1\n", 3,
             "parse error: duplicate ideal statement (line 3, column 1)"),
            ("cd", "ring m=1 n=1\nfoo x\n", 3,
             "parse error: unknown statement 'foo' (line 2, column 1)"),
            ("cd", "", 3, "parse error: missing ring statement (line 1, column 1)"),
            ("cd", "ring m=1 n=1\n", 3,
             "parse error: missing ideal statement (line 1, column 1)"),
            ("cd", "ring m=1\nideal x1\n", 3, "parse error: ring needs n=... (line 1, column 1)"),
            ("cd", "ring m=1 n=0\nideal x1\n", 3,
             "parse error: need m >= 0, n >= 1 (line 1, column 6)"),
            ("cd", "ring m n=1\nideal x1\n", 3,
             "parse error: expected key=value, found 'm' (line 1, column 6)"),
            ("cd", "ring m=1 n=1\nideal x1^y1\n", 3,
             "parse error: exponent must be a nonnegative integer (line 2, column 10)"),
            ("cd", "ring m=1 n=1\nideal 1/x1\n", 3,
             "parse error: denominator must be a nonzero integer (line 2, column 9)"),
            ("cd", "ring m=1 n=1\nideal (x1\n", 3,
             "parse error: expected ')', found end of input (line 2, column 10)"),
            ("cd", "ring m=1 n=1\nideal x1 + *\n", 3,
             "parse error: expected a coefficient, variable, or '(', found '*' "
             "(line 2, column 12)"),
            ("cd", "ring m=1 n=1\nideal x1 +\n", 3,
             "parse error: expected a coefficient, variable, or '(', found end of input "
             "(line 2, column 11)"),
            ("hypersurface", "ring m=1 n=1\nideal x1*y1, y1\n", 2,
             "unsupported input: hypersurface command needs exactly one nonzero generator"),
            ("hypersurface", "ring m=1 n=1\nideal x1*y1 + 1\n", 2,
             "unsupported input: terms of distinct bidegrees (0, 0), (1, 1) in x1*y1 + 1"),
            ("tensorcheck", "ring m=1 n=1\nideal x1*y1\n", 2,
             "unsupported input: generator x1*y1 mixes x and y variables"),
        ],
        ids=(
            "duplicate_ring", "duplicate_ideal", "unknown_statement", "empty_file",
            "missing_ideal", "ring_without_n", "ring_n_zero", "bare_key", "exponent",
            "denominator", "unclosed_parenthesis", "operator_as_atom", "end_as_atom",
            "hypersurface_two_generators", "hypersurface_distinct_bidegrees",
            "tensorcheck_mixed_generator",
        ),
    )
    def test_problem_error_is_one_line(self, tmp_path, capsys, command, text, code, message):
        """Each refusal of a problem file or of its ideal class is one stderr
        line naming the file, at its line and column for a parse error; the
        end of the text is named as such."""
        path = write_problem(tmp_path, text)
        assert run_cli(capsys, command, path) == (code, "", f"{path}: {message}\n")

    def test_parse_error_is_three(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x3\n")
        code, _, err = run_cli(capsys, "seqcm", path)
        assert code == 3
        assert "parse error" in err

    @pytest.mark.parametrize("ideal", ["x1*y1^²", "²*x1*y1", "x¹*y1"])
    def test_non_ascii_digit_is_three(self, tmp_path, capsys, ideal):
        """str.isdigit accepts '²' and '¹', which int() rejects: the parser
        reads ASCII digits only, so each is an unexpected character."""
        path = write_problem(tmp_path, f"ring m=1 n=1 field=QQ\nideal {ideal}\n")
        code, out, err = run_cli(capsys, "seqcm", path)
        assert code == 3 and out == ""
        assert "unexpected character" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "header,message,column",
        [
            ("ring m=٢ n=1", "ring size must match [0-9]+, found '٢'", 6),
            ("ring m=1_0 n=1", "ring size must match [0-9]+, found '1_0'", 6),
            ("ring m=1 n=1 field=GF(١٣)", "unknown field 'GF(١٣)'", 14),
            ("ring m=1 n=1 field=GF(1_3)", "unknown field 'GF(1_3)'", 14),
            ("ring m=1 n=1 field=GF(+13)", "unknown field 'GF(+13)'", 14),
            ("ring m=1 n=1 feild=GF(2)", "unknown ring key 'feild'; expected m, n, field", 14),
            ("ring m=1 n=1 m=3", "repeated ring key 'm'", 14),
            ("ring m=1 n=1 / options sede=3",
             "unknown options key 'sede'; expected seed, block", 24),
            ("ring m=1 n=1 / options blok=P",
             "unknown options key 'blok'; expected seed, block", 24),
            ("ring m=1 n=1 / options seed=1 seed=2", "repeated options key 'seed'", 31),
            ("ring m=1 n=1 / options seed=+3", "seed must match -?[0-9]+, found '+3'", 24),
        ],
        ids=(
            "m_arabic_indic", "m_underscore", "p_arabic_indic", "p_underscore", "p_plus",
            "unknown_ring_key", "repeated_ring_key", "unknown_options_key_seed",
            "unknown_options_key_block", "repeated_options_key", "seed_plus",
        ),
    )
    def test_bad_header_assignment_is_three(self, tmp_path, capsys, header, message, column):
        """Each header key has one reader: m, n and seed are ASCII digits,
        which int() alone does not enforce, and a key that is unknown or
        repeated is refused rather than dropped."""
        path = write_problem(tmp_path, f"{header}\nideal x1*y1\n")
        code, out, err = run_cli(capsys, "cd", path)
        assert code == 3 and out == ""
        assert err == f"{path}: parse error: {message} (line 1, column {column})\n"

    def test_tab_after_keyword(self, tmp_path, capsys):
        """A keyword ends at the first whitespace, a tab as well as a space,
        and the columns after it count the tab as one character."""
        documents = []
        for sep in (" ", "\t"):
            text = f"ring{sep}m=2 n=2\nideal{sep}x1*y1 + x2*y1\noptions{sep}seed=3 block=P\n"
            path = write_problem(tmp_path, text)
            code, out, _ = run_cli(capsys, "hypersurface", path, "--format", "json", "--verify")
            assert code == 0
            doc = json.loads(out.split("\nverified: ")[0])
            documents.append({k: v for k, v in doc.items() if k not in ("input_sha256", "file")})
        assert documents[0] == documents[1]
        path = write_problem(tmp_path, "ring\tm=1\tfeild=GF(2)\nideal x1*y1\n")
        code, out, err = run_cli(capsys, "cd", path)
        assert code == 3 and out == ""
        assert err == (
            f"{path}: parse error: unknown ring key 'feild'; expected m, n, field "
            "(line 1, column 10)\n"
        )

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        """A file that starts with a UTF-8 byte-order mark gives the document
        of the same file without it, its input hash included."""
        documents = []
        for name, bom in (("plain.ring", b""), ("bom.ring", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(bom + b"ring m=1 n=1\nideal x1*y1\n")
            code, out, err = run_cli(capsys, "seqcm", str(path), "--format", "json", "--verify")
            assert code == 0 and err == ""
            doc = json.loads(out.split("\nverified: ")[0])
            documents.append({k: v for k, v in doc.items() if k != "file"})
        assert documents[0] == documents[1]

    def test_file_that_is_not_utf8_is_three(self, tmp_path, capsys):
        """A file that cannot be decoded cannot be read: one line naming it,
        and the batch stops there."""
        bad = tmp_path / "a.ring"
        bad.write_bytes(b"ring m=1 n=1\nideal x1*y1 \xff\n")
        good = write_problem(tmp_path, "ring m=1 n=1\nideal x1*y1\n", "b.ring")
        code, out, err = run_cli(capsys, "cd", good, str(bad))
        assert code == 3 and out == ""
        assert err.startswith(f"{bad}: cannot read: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["٣", "1_0", "abc"])
    def test_seed_flag_takes_ascii_digits(self, tmp_path, capsys, seed):
        path = write_problem(tmp_path, "ring m=1 n=1\nideal x1*y1\n")
        with pytest.raises(SystemExit) as exit_:
            main(["cd", path, "--seed", seed])
        assert exit_.value.code == 2
        assert f"argument --seed: invalid seed value: '{seed}'" in capsys.readouterr().err

    def test_denominator_zero_mod_p_is_three(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=1 n=1 field=GF(5)\nideal 1/5*x1*y1\n")
        code, out, err = run_cli(capsys, "seqcm", path)
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert "not invertible in GF(5) (line 2, column 9)" in err

    def test_deep_nesting_is_three(self, tmp_path, capsys):
        """300 nested parentheses are a parse error at the first '(' past
        the bound, not a RecursionError."""
        text = "ring m=1 n=1 field=QQ\nideal " + "(" * 300 + "x1" + ")" * 300 + "\n"
        path = write_problem(tmp_path, text)
        code, out, err = run_cli(capsys, "seqcm", path)
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert "nested deeper than 100 (line 2, column 107)" in err

    def test_prime_beyond_the_test_bound_is_three(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "ring m=1 n=1 field=GF(3317044064679887385961981)\nideal x1*y1\n"
        )
        code, out, err = run_cli(capsys, "seqcm", path)
        assert code == 3 and out == ""
        assert "needs p < 3317044064679887385961981" in err

    def test_primdec_requires_monomial(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1 + x2*y2\n")
        code, _, err = run_cli(capsys, "primdec", path)
        assert code == 2

    def test_dim_of_unit_ideal_reports_zero_module(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=1 n=1 field=QQ\nideal 1\n")
        code, out, _ = run_cli(capsys, "dim", path)
        assert code == 0
        assert "dim: -1" in out
        assert "zero module" in out

    def test_seqcm_on_unit_ideal_is_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=1 n=1 field=QQ\nideal 1\n")
        code, _, _ = run_cli(capsys, "seqcm", path)
        assert code == 2

    def test_options_block_used_without_flag(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1\noptions block=P\n"
        )
        _, out, _ = run_cli(capsys, "seqcm", path, "--format", "json")
        assert json.loads(out)["block"] == "P"


    @pytest.mark.parametrize("command", ["relcm", "seqcm", "grade"])
    @pytest.mark.parametrize(
        "text",
        [
            "ring m=1 n=2 field=GF(2)\nideal x1*y1*y2*(y1+y2)\n",
            "ring m=2 n=2 field=GF(2)\nideal x1*y1*y2*(y1+y2), x2*y1*y2*(y1+y2)\n",
        ],
        ids=("principal", "two_generators"),
    )
    def test_exhausted_search_is_five(self, tmp_path, capsys, text, command):
        """Over GF(2) every linear y-form divides y1*y2*(y1+y2), so the
        regular-form search runs out of its budget.  The second input is
        neither principal nor monomial, so no closed form answers it."""
        path = write_problem(tmp_path, text)
        code, out, err = run_cli(capsys, command, path, "--wrt", "Q")
        assert code == 5
        assert out == ""
        assert err.startswith(f"{path}: undecided: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,command",
        [
            ("ring m=1 n=1\nideal x1^1500*y1\n", "grade"),
            ("ring m=2 n=1\nideal x1^1500*y1 + x2^1500*y1\n", "seqcm"),
        ],
        ids=("grade", "seqcm"),
    )
    def test_high_power_substitution_is_zero(self, tmp_path, capsys, text, command):
        """Substituting for x1 in x1^1500 builds 1500 powers, which one
        recursion frame per power would not reach."""
        path = write_problem(tmp_path, text)
        code, out, err = run_cli(capsys, command, path, "--wrt", "P", "--verify")
        assert code == 0 and err == ""
        assert out.endswith("verified: certificate levels recomputed and agree\n")

    def test_failed_verify_is_four(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "seqcm.cli.verify_certificate", lambda doc, problem: ["level 1: forged"]
        )
        first = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1\n", "a.ring")
        second = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1\n", "b.ring")
        code, out, err = run_cli(capsys, "seqcm", second, first, "--verify")
        assert code == 4
        assert err == f"{first}: verify: level 1: forged\n"
        assert out.count("command: seqcm") == 1  # the batch stops at a.ring
        assert "verified" not in out


class TestTextFormat:
    @pytest.mark.parametrize(
        "one,other",
        [
            (
                [["x1*y1", "x1*y2"], ["x1"], ["1"]],
                [["x1*y1"], ["x1*y2"], ["x1"], ["1"]],
            ),
            ([["y1", "y2"]], [["y1"], ["y2"]]),
            ([{"cd": 1, "level": 1}], [{"cd": 1}, {"level": 1}]),
            ({"chain": []}, {"chain": {}}),
        ],
        ids=("chain", "radicals", "levels", "empty"),
    )
    def test_nestings_render_apart(self, one, other):
        """Two documents that differ only in how their values nest read
        differently in the text format."""
        assert render_document({"v": one}, "text") != render_document({"v": other}, "text")

    def test_filtration_chain_marks_its_levels(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=1 n=2 field=QQ\nideal x1*y1, x1*y2\n")
        code, out, _ = run_cli(capsys, "filtration", path, "--wrt", "Q")
        assert code == 0
        assert "\nchain:\n  - - x1*y1\n    - x1*y2\n  - - x1\n  - - 1\n" in out


class TestDeterminism:
    def test_byte_identical_output(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1\n")
        _, out1, _ = run_cli(capsys, "seqcm", path, "--format", "json", "--seed", "3")
        _, out2, _ = run_cli(capsys, "seqcm", path, "--format", "json", "--seed", "3")
        assert out1 == out2

    def test_decision_survives_seed_change(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1\n")
        docs = []
        for seed in ("0", "11"):
            _, out, _ = run_cli(capsys, "seqcm", path, "--format", "json", "--seed", seed)
            docs.append(json.loads(out))
        assert docs[0]["verdict"]["decision"] == docs[1]["verdict"]["decision"]
        assert docs[0]["invariants"] == docs[1]["invariants"]


class TestCommands:
    def test_gb(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1 + x2*y2, x1\n"
        )
        code, out, _ = run_cli(capsys, "gb", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["basis"]) == {"x1", "x2*y2"}

    def test_cd_grade_relcm(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1 + x2*y2\n")
        _, out, _ = run_cli(capsys, "cd", path, "--format", "json")
        assert json.loads(out)["invariants"]["cd"] == 2
        _, out, _ = run_cli(capsys, "grade", path, "--format", "json")
        assert json.loads(out)["invariants"]["grade"] == 1
        _, out, _ = run_cli(capsys, "relcm", path, "--format", "json")
        doc = json.loads(out)
        assert doc["invariants"]["relative_cm"] is False

    def test_primdec_and_filtration(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1\n")
        _, out, _ = run_cli(capsys, "primdec", path, "--format", "json")
        doc = json.loads(out)
        assert [c["radical"] for c in doc["components"]] == [["y1"], ["x1"]]
        _, out, _ = run_cli(capsys, "filtration", path, "--format", "json")
        doc = json.loads(out)
        assert doc["chain"] == [["x1*y1"], ["x1"], ["1"]]

    def test_tensorcheck(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=1 n=2 field=QQ\nideal x1^2, y1*y2\n")
        code, out, _ = run_cli(capsys, "tensorcheck", path, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["tensor"] == {"lhs": True, "rhs": True, "agree": True}

    def test_hypersurface_block_m_unsupported(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1*y1\n")
        code, _, _ = run_cli(capsys, "hypersurface", path, "--wrt", "m")
        assert code == 2

    def test_hypersurface_rejects_mixed_degrees(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=2 n=2 field=QQ\nideal x1 + y1\n")
        code, _, err = run_cli(capsys, "hypersurface", path)
        assert code == 2

    def test_hypersurface_computes_split_and_reports_once(
        self, tmp_path, capsys, monkeypatch
    ):
        """One split per document, and a grade search only for the levels
        the verdict records: S/fS alone when f does not split or is
        one-sided, the two levels of a mixed split."""
        import seqcm.hypersurface as hypersurface

        calls = []
        for name in ("rank_one_split", "is_relative_cm"):
            original = getattr(hypersurface, name)

            def counting(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(hypersurface, name, counting)
        searches = {"x1*y1 + x2*y2": 1, "y1^2 + y1*y2": 1, "x1*y1 + x2*y1": 2}
        for ideal, count in searches.items():
            path = write_problem(tmp_path, f"ring m=2 n=2 field=QQ\nideal {ideal}\n")
            for wrt in "PQ":
                calls.clear()
                code, _, _ = run_cli(capsys, "hypersurface", path, "--wrt", wrt)
                assert code == 0
                assert sorted(calls) == ["is_relative_cm"] * count + ["rank_one_split"]

    def test_grade_of_zero_module_is_two(self, tmp_path, capsys):
        path = write_problem(tmp_path, "ring m=1 n=1 field=QQ\nideal 1\n")
        code, _, _ = run_cli(capsys, "grade", path)
        assert code == 2


def verify_tampered(capsys, monkeypatch, path, tamper, *argv, command="seqcm"):
    """(exit code, stderr) of ``seqcm COMMAND PATH --verify`` with the
    document changed by ``tamper`` between the run and its check."""
    import seqcm.cli as cli

    def tampered_verify(doc, problem):
        tamper(doc)
        return verify_certificate(doc, problem)

    monkeypatch.setattr(cli, "verify_certificate", tampered_verify)
    code, _, err = run_cli(capsys, command, path, "--verify", *argv)
    return code, err


def first_level(doc):
    return doc["verdict"]["filtration"]["levels"][0]


def swap_first_two_cds(levels):
    levels[0]["cd"], levels[1]["cd"] = levels[1]["cd"], levels[0]["cd"]


def zero_torsion_level(only_level):
    """An H^0 level of two_planes' input ideal over itself, to go below the
    only level of its relative-CM certificate, whose quotient is that ideal."""
    base = only_level["verify"]["quotient"]
    return {
        "level": 1, "ideal": base, "cd": 0, "grade": 0, "relative_cm": True,
        "regular_sequence": [], "verify": {"kind": "h0", "of": base},
    }


class TestVerify:
    @pytest.mark.parametrize(
        "text,block",
        [
            ("ring m=2 n=2 field=QQ\nideal x1*y1\n", "Q"),
            ("ring m=2 n=2 field=QQ\nideal x1*x2, x1*y2, x2*y1, y1*y2\n", "Q"),
            ("ring m=2 n=1 field=QQ\nideal x1*y1\n", "Q"),
            ("ring m=2 n=2 field=QQ\nideal x1*y1 + x2*y1\n", "P"),
        ],
    )
    def test_certificates_reverify(self, tmp_path, capsys, text, block):
        path = write_problem(tmp_path, text)
        code, out, _ = run_cli(capsys, "seqcm", path, "--wrt", block, "--verify")
        assert code == 0
        assert "verified: certificate levels recomputed and agree" in out

    def test_tampered_document_is_caught(self):
        problem = parse_problem("ring m=2 n=2 field=QQ\nideal x1*y1\n")
        doc = run("seqcm", problem, VariableBlock.Q, 0)
        doc["verdict"]["filtration"]["levels"][0]["grade"] = 99
        problems = verify_certificate(doc, problem)
        assert problems

    @pytest.mark.parametrize(
        "tamper,message",
        [
            (
                lambda f: f.update(base=["x1"]),
                "filtration base is not the input ideal",
            ),
            (
                lambda f: f["levels"][-1].update(ideal=["x1"]),
                "last level ideal is not (1)",
            ),
        ],
        ids=("base", "last_level_ideal"),
    )
    def test_tampered_filtration_ends_are_four(
        self, capsys, monkeypatch, tamper, message
    ):
        """The two_planes certificate with its base or its last level ideal
        replaced by (x1): every level still rechecks, but the filtration no
        longer runs from the input ideal to (1)."""
        path = str(CORPUS / "two_planes.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: tamper(doc["verdict"]["filtration"])
        )
        assert code == 4
        assert err == f"{path}: verify: {message}\n"

    @pytest.mark.parametrize("block", ["P", "Q"])
    def test_tampered_pair_level_is_four(self, capsys, monkeypatch, block):
        """split_monomial's first pair level with ``a`` replaced by (1): the
        recomputed cd and grade still match, but a is no longer the level
        ideal + b.  The same change on the second level, whose a is (1) +
        (b) = (1) already, keeps the meaning and passes."""
        path = str(CORPUS / "split_monomial.ring")

        def on_level(index):
            return lambda doc: doc["verdict"]["filtration"]["levels"][index][
                "verify"
            ].update(a=["1"])

        code, err = verify_tampered(capsys, monkeypatch, path, on_level(0), "--wrt", block)
        assert code == 4
        assert err == f"{path}: verify: level 1: pair a is not the level ideal + b\n"
        code, err = verify_tampered(capsys, monkeypatch, path, on_level(1), "--wrt", block)
        assert code == 0 and err == ""

    @pytest.mark.parametrize("name", ["two_planes", "split_monomial", "quadric_rank2"])
    def test_forged_input_is_four(self, capsys, monkeypatch, name):
        """``generators`` and ``base`` both replaced by (x1): the document
        agrees with itself but not with the file it claims to certify."""

        def forge(doc):
            doc["generators"] = doc["verdict"]["filtration"]["base"] = ["x1"]

        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(capsys, monkeypatch, path, forge)
        assert code == 4
        assert err.startswith(f"{path}: verify: generators are not the input ideal\n")

    @pytest.mark.parametrize(
        "name,block,tamper,message",
        [
            (
                "split_binomial", "P",
                lambda levels: levels[0].update(ideal=["x1"]),
                "level 1: ideal·quotient is not the level below",
            ),
            (
                "split_binomial", "Q",
                lambda levels: levels[0].update(ideal=["x1"]),
                "level 1: ideal·quotient is not the level below",
            ),
            (
                "split_monomial", "Q",
                lambda levels: levels[0]["verify"].update(a=["x1", "y2"], b=["y2"]),
                "level 1: ideal ∩ b is not the level below",
            ),
            (
                "torsion_then_line", "Q",
                lambda levels: levels[0]["verify"].update(of=["x1*y1^2"]),
                "level 1: of is not the level below",
            ),
            (
                "torsion_then_line", "Q",
                lambda levels: levels[1]["verify"].update(quotient=["x2"]),
                "level 2: quotient is not the level below",
            ),
            (
                "two_planes", "Q",
                lambda levels: levels.insert(0, zero_torsion_level(levels[0])),
                "level 1: h0 quotient is zero: of is saturated",
            ),
            (
                "split_binomial", "Q",
                lambda levels: levels[0].update(ideal=["x1", "x2"]),
                "level 1: cyclic level ideal is neither (1) nor principal",
            ),
            (
                "torsion_then_line", "Q",
                lambda levels: levels[0].update(ideal=["x1", "y1"]),
                "level 1: stored ideal is not the saturation",
            ),
            (
                "split_monomial", "Q",
                swap_first_two_cds,
                "level cds [2, 1] not strictly increasing",
            ),
        ],
        ids=(
            "cyclic_ideal_P", "cyclic_ideal_Q", "pair_b", "h0_of", "cyclic_quotient",
            "zero_h0_level", "cyclic_ideal_not_principal", "h0_ideal", "cds_swapped",
        ),
    )
    def test_broken_chain_link_is_four(
        self, capsys, monkeypatch, name, block, tamper, message
    ):
        """One level's record changed so that it no longer presents the level
        over the one below, while the recomputed cd and grade still match,
        or a zero H^0 level inserted: each level's record must be
        D_i/D_{i-1}, with D_{i-1} ⊊ D_i.  A cyclic level ideal must be (1)
        or principal, an h0 level's ideal the saturation, and the level cds
        must increase."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path,
            lambda doc: tamper(doc["verdict"]["filtration"]["levels"]), "--wrt", block,
        )
        assert code == 4
        assert err.startswith(f"{path}: verify: {message}\n")

    @pytest.mark.parametrize("field", ["generators", "base"])
    def test_unparsable_input_ideal_is_four(self, capsys, monkeypatch, field):
        """``generators`` or the filtration ``base`` written in a variable the
        ring lacks is a disagreement, not an error of the check."""

        def tamper(doc):
            if field == "generators":
                doc["generators"] = ["x9"]
            else:
                doc["verdict"]["filtration"]["base"] = ["x9"]

        path = str(CORPUS / "two_planes.ring")
        code, err = verify_tampered(capsys, monkeypatch, path, tamper)
        assert code == 4
        name = "generators" if field == "generators" else "filtration base"
        assert err == (
            f"{path}: verify: cannot parse {name}: unknown variable 'x9' in ring "
            "with m=2, n=2 (line 1, column 1)\n"
        )

    def test_forged_ring_is_four(self, capsys, monkeypatch):
        """The levels are rechecked in the input's ring, so a document that
        names another field does not certify the file."""
        path = str(CORPUS / "two_planes.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc["ring"].update(field="GF(2)")
        )
        assert code == 4
        assert err == f"{path}: verify: ring is not the input ring\n"

    @pytest.mark.parametrize(
        "name,route",
        [
            ("two_planes", "cd-le-1"),
            ("two_planes", "hypersurface-rank1"),
            ("two_planes", "guess"),
            ("quadric_rank2", "monomial-filtration"),
            ("quadric_rank2", "relative-cm"),
            ("split_monomial", "unmixed-shortcut"),
        ],
    )
    def test_route_that_does_not_fit_is_four(self, capsys, monkeypatch, name, route):
        """A route whose decider could not have made the verdict: cd-le-1
        needs an h0 level then a cyclic one with cds (0, 1), the
        hypersurface route one generator, the monomial routes a monomial
        input, relative-cm a single relative CM level, and unmixed-shortcut
        a single level; no decider has the route 'guess'."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc["verdict"].update(route=route)
        )
        assert code == 4
        assert err == f"{path}: verify: route {route!r} does not fit the input and levels\n"

    @pytest.mark.parametrize(
        "name,tamper,message",
        [
            ("two_planes", {"cd": 99}, "invariants cd is not 1"),
            ("quadric_rank2", {"cd": 99}, "invariants cd is not 2"),
            ("split_binomial", {"cd": 99}, "invariants cd is not 2"),
            ("split_monomial", {"relative_cm": True}, "invariants relative_cm is not False"),
            ("quadric_rank2", {"grade": 0}, "invariants grade is not 1"),
        ],
        ids=("cd_one_level", "cd_hypersurface", "cd_two_levels", "relative_cm", "grade"),
    )
    def test_forged_input_invariant_is_four(
        self, capsys, monkeypatch, name, tamper, message
    ):
        """cd(S/I) is the largest level cd, the last level's; relative_cm is
        grade == cd; and the single cyclic level of quadric_rank2 is S/I
        itself, so it has S/I's grade.  split_monomial has two levels, so
        its grade is not read."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc["invariants"].update(tamper)
        )
        assert code == 4
        assert err.startswith(f"{path}: verify: {message}\n")

    @pytest.mark.parametrize(
        "name,offending,message",
        [
            ("quadric_rank2", 2, "offending_level is not 1"),
            ("quadric_rank2", None, "offending_level is not 1"),
            ("two_planes", 1, "offending_level is not None"),
        ],
        ids=("later", "none", "on_true"),
    )
    def test_changed_offending_level_is_four(
        self, capsys, monkeypatch, name, offending, message
    ):
        """offending_level is the first level that is not relative CM."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path,
            lambda doc: doc["verdict"].update(offending_level=offending),
        )
        assert code == 4
        assert err == f"{path}: verify: {message}\n"

    @pytest.mark.parametrize(
        "name,tamper,message",
        [
            ("split_binomial", {"a": 2}, "invariants a is not 1"),
            ("split_binomial", {"b": 0}, "invariants b is not 1"),
            ("split_binomial", {"cd_P": 1}, "invariants cd_P is not 2"),
            ("split_binomial", {"grade_P": 2}, "invariants grade_P is not 1"),
            ("quadric_rank2", {"cd_Q": 3}, "invariants cd_Q is not 2"),
            ("quadric_rank2", {"grade_Q": 0}, "invariants grade_Q is not 1"),
        ],
        ids=("a", "b", "cd_P", "grade_P", "cd_Q", "grade_Q"),
    )
    def test_forged_hypersurface_invariant_is_four(
        self, capsys, monkeypatch, name, tamper, message
    ):
        """Bidegree, cd and grade of S/fS are read off f in closed form."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc["invariants"].update(tamper),
            command="hypersurface",
        )
        assert code == 4
        assert err == f"{path}: verify: {message}\n"

    @pytest.mark.parametrize(
        "name,split,message",
        [
            ("split_binomial", {"h1": "y1", "h2": "x1 + x2"}, "split h1 is not in x only"),
            ("split_binomial", {"h1": "x1 + x2", "h2": "y2"}, "split h1·h2 is not the generator"),
            ("split_binomial", None, "split is not null exactly when decision is false"),
            ("quadric_rank2", {"h1": "x1", "h2": "y1"},
             "split is not null exactly when decision is false"),
            ("split_binomial", {"h1": "x9", "h2": "y1"}, "cannot parse split: unknown variable"),
        ],
        ids=("swapped", "product", "null", "set", "unparsable"),
    )
    def test_forged_split_is_four(self, capsys, monkeypatch, name, split, message):
        """A split is h1(x)·h2(y) = f, present exactly on a true decision."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc.update(split=split),
            command="hypersurface",
        )
        assert code == 4
        assert err.startswith(f"{path}: verify: {message}")

    @pytest.mark.parametrize(
        "name,command,tamper,message",
        [
            ("two_planes", "seqcm", lambda doc: doc["verdict"].pop("route"), "route"),
            ("two_planes", "seqcm", lambda doc: doc["verdict"].pop("decision"), "decision"),
            ("two_planes", "seqcm", lambda doc: doc.pop("invariants"), "invariants"),
            ("two_planes", "seqcm", lambda doc: doc.pop("seed"), "seed"),
            ("two_planes", "seqcm", lambda doc: doc.pop("block"), "block"),
            (
                "two_planes", "seqcm",
                lambda doc: doc["verdict"]["filtration"]["levels"][0].pop("verify"),
                "level 1: verify",
            ),
            ("quadric_rank2", "hypersurface", lambda doc: doc.pop("split"), "split"),
            ("two_planes", "cd", lambda doc: doc.pop("invariants"), "invariants"),
        ],
        ids=(
            "route", "decision", "invariants", "seed", "block", "level_verify", "split",
            "cd_invariants",
        ),
    )
    def test_missing_field_is_four(self, capsys, monkeypatch, name, command, tamper, message):
        """A missing field that the check reads is one disagreement naming
        it, not an error of the check, however many checks read it."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, tamper, "--wrt", "Q", command=command
        )
        assert code == 4
        assert err == f"{path}: verify: {message} is missing\n"

    @pytest.mark.parametrize(
        "name,command,tamper,message",
        [
            ("two_planes", "seqcm", lambda doc: doc.update(block=5),
             "block is not a JSON string"),
            ("two_planes", "seqcm", lambda doc: doc.update(block="Z"),
             "unknown block 'Z'; expected P, Q, or m"),
            ("two_planes", "seqcm", lambda doc: doc.update(generators=5),
             "cannot parse generators: 5 is not a list of polynomial strings"),
            ("two_planes", "seqcm", lambda doc: doc["verdict"]["filtration"].update(levels=5),
             "levels is not a JSON list of objects"),
            ("two_planes", "seqcm", lambda doc: doc["verdict"]["filtration"].update(levels=[5]),
             "levels is not a JSON list of objects"),
            ("two_planes", "seqcm",
             lambda doc: doc["verdict"]["filtration"]["levels"][0].update(cd="1"),
             "cd is not a JSON integer"),
            ("two_planes", "seqcm",
             lambda doc: doc["verdict"]["filtration"]["levels"][0].update(verify="x"),
             "level 1: verify is not a JSON object"),
            ("two_planes", "seqcm",
             lambda doc: doc["verdict"]["filtration"]["levels"][0]["verify"].update(kind=[]),
             "level 1: kind is not a JSON string"),
            ("two_planes", "seqcm",
             lambda doc: doc["verdict"]["filtration"]["levels"][0]["verify"].update(kind="foo"),
             "level 1: unknown verify kind 'foo'"),
            ("two_planes", "seqcm",
             lambda doc: doc["verdict"]["filtration"]["levels"][0]["verify"].update(
                 quotient=[5]),
             "level 1: recheck raised [5] is not a list of polynomial strings"),
            ("two_planes", "seqcm", lambda doc: doc.update(verdict=[]),
             "verdict is not a JSON object"),
            ("two_planes", "seqcm", lambda doc: doc.update(invariants=[]),
             "invariants is not a JSON object"),
            ("two_planes", "seqcm", lambda doc: doc.update(seed="0"),
             "seed is not a JSON integer"),
            ("two_planes", "cd", lambda doc: doc.update(seed="0"),
             "seed is not a JSON integer"),
            ("two_planes", "cd", lambda doc: doc.update(seed=False),
             "seed is not a JSON integer"),
            ("quadric_rank2", "hypersurface", lambda doc: doc.update(invariants=[]),
             "invariants is not a JSON object"),
            ("split_binomial", "hypersurface", lambda doc: doc.update(split="x"),
             "split is not a JSON object or null"),
            ("split_binomial", "hypersurface", lambda doc: doc["split"].update(h1=5),
             "h1 is not a JSON string"),
            ("two_planes", "seqcm", lambda doc: first_level(doc).update(grade=1.0),
             "level 1: grade is not a JSON integer"),
            ("two_planes", "seqcm", lambda doc: first_level(doc).update(relative_cm=1),
             "level 1: relative_cm is not a JSON boolean"),
            ("two_planes", "seqcm", lambda doc: doc["verdict"].update(decision=1),
             "decision is not a JSON boolean"),
            ("two_planes", "seqcm", lambda doc: doc["ring"].update(m=2.0),
             "ring is not the input ring"),
            ("two_planes", "seqcm", lambda doc: doc["invariants"].update(grade=True),
             "grade is not a JSON integer"),
            ("two_planes", "cd", lambda doc: doc["invariants"].update(cd=True),
             'invariants is not the recomputed {"cd": 1}'),
            ("two_planes", "relcm",
             lambda doc: doc["invariants"].update(cd=True, grade=True, relative_cm=1),
             'invariants is not the recomputed {"cd": 1, "grade": 1, "relative_cm": true}'),
            ("quadric_rank2", "hypersurface", lambda doc: doc["invariants"].update(a=1.0),
             "invariants a is not 1"),
            ("quadric_rank2", "hypersurface", lambda doc: doc["verdict"].update(decision=0),
             "decision is not a JSON boolean"),
        ],
        ids=(
            "block_number", "block_unknown", "generators", "levels", "level_list", "level_cd",
            "level_verify",
            "level_kind", "level_kind_unknown", "level_quotient", "verdict", "invariants", "seed_string",
            "seed_string_cd", "seed_boolean_cd", "invariants_hypersurface", "split",
            "split_h1", "level_grade_float", "level_relative_cm_integer",
            "decision_integer", "ring_float", "invariants_grade_boolean",
            "invariants_cd_boolean", "invariants_relcm_mixed", "hypersurface_a_float",
            "hypersurface_decision_integer",
        ),
    )
    def test_field_of_the_wrong_type_is_four(
        self, capsys, monkeypatch, name, command, tamper, message
    ):
        """A field that the check reads and that has the wrong JSON type is
        one disagreement naming it, as a missing field is, not an error of
        the check; a seed is an integer and not a boolean.  A value compared
        with a computed one must be it as JSON: true, 1 and 1.0 differ."""
        path = str(CORPUS / f"{name}.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, tamper, "--wrt", "Q", command=command
        )
        assert code == 4
        assert err == f"{path}: verify: {message}\n"

    def test_missing_field_does_not_stop_the_check(self, capsys, monkeypatch):
        def tamper(doc):
            del doc["verdict"]["route"]
            doc["verdict"]["offending_level"] = 1

        path = str(CORPUS / "two_planes.ring")
        code, err = verify_tampered(capsys, monkeypatch, path, tamper)
        assert code == 4
        assert err == (
            f"{path}: verify: offending_level is not None\n{path}: verify: route is missing\n"
        )

    @pytest.mark.parametrize(
        "command,text,tamper,message",
        [
            ("cd", "x1*y1", lambda doc: doc["invariants"].update(cd=99),
             'invariants is not the recomputed {"cd": 2}'),
            ("dim", "x1*y1", lambda doc: doc["invariants"].update(dim=99),
             'invariants is not the recomputed {"dim": 3}'),
            ("grade", "x1*y1", lambda doc: doc["invariants"].update(grade=99),
             'invariants is not the recomputed {"grade": 1}'),
            ("depth", "x1*y1", lambda doc: doc["invariants"].update(depth=99),
             'invariants is not the recomputed {"depth": 3}'),
            ("relcm", "x1*y1", lambda doc: doc["witness"].update(regular_sequence=[]),
             'witness is not the recomputed {"regular_sequence": ["-y2"]}'),
            ("gb", "x1*y1", lambda doc: doc.update(basis=["x1"]),
             'basis is not the recomputed ["x1*y1"]'),
            ("primdec", "x1*y1", lambda doc: doc["components"].pop(),
             "components is not the recomputed"),
            ("filtration", "x1*y1", lambda doc: doc.update(chain=[["x1*y1"], ["1"]]),
             'chain is not the recomputed [["x1*y1"], ["x1"], ["1"]]'),
            ("tensorcheck", "x1^2, y1*y2", lambda doc: doc["tensor"].update(agree=False),
             'tensor is not the recomputed {"agree": true, "lhs": true, "rhs": true}'),
        ],
        ids=("cd", "dim", "grade", "depth", "relcm", "gb", "primdec", "filtration", "tensorcheck"),
    )
    def test_tampered_recomputed_document_is_four(
        self, tmp_path, capsys, monkeypatch, command, text, tamper, message
    ):
        """A document without a verdict is written again by the command from
        its own generators, block and seed, and must be that document."""
        path = write_problem(tmp_path, f"ring m=2 n=2 field=QQ\nideal {text}\n")
        code, out, err = run_cli(capsys, command, path, "--verify")
        assert code == 0 and err == ""
        assert out.endswith("verified: certificate levels recomputed and agree\n")
        code, err = verify_tampered(capsys, monkeypatch, path, tamper, command=command)
        assert code == 4
        assert err.startswith(f"{path}: verify: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["cd", "seqcm"])
    def test_forged_input_hash_is_four(self, capsys, monkeypatch, command):
        """A document whose input hash is not the file's is not its
        certificate, whatever else it says."""
        path = str(CORPUS / "two_planes.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc.update(input_sha256="0" * 64),
            command=command,
        )
        assert code == 4
        assert err == f"{path}: verify: input_sha256 is not the hash of the input text\n"

    def test_reordered_generators_are_the_input(self, capsys, monkeypatch):
        """A document without a verdict is recomputed from the input, so
        writing its generators in another order keeps it verified."""
        path = str(CORPUS / "two_planes.ring")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc["generators"].reverse(),
            command="filtration",
        )
        assert code == 0 and err == ""

    def test_base_is_compared_as_an_ideal(self):
        """A base written with other generators of the same ideal passes."""
        problem = parse_problem((CORPUS / "two_planes.ring").read_text())
        doc = run("seqcm", problem, VariableBlock.Q, 0)
        filtration = doc["verdict"]["filtration"]
        filtration["base"] = filtration["base"][::-1] + ["x1*x2*y1"]
        assert verify_certificate(doc, problem) == []

    def test_block_the_input_is_not_graded_for_is_four(self, tmp_path, capsys, monkeypatch):
        """x1^2 + y1^2 is graded but not bigraded: its cd --wrt m document
        rechecked for the block Q reports the refusal of the recheck."""
        path = write_problem(tmp_path, "ring m=1 n=1\nideal x1^2 + y1^2\n")
        code, err = verify_tampered(
            capsys, monkeypatch, path, lambda doc: doc.update(block="Q"), "--wrt", "m",
            command="cd",
        )
        assert code == 4
        assert err == (
            f"{path}: verify: recheck raised the module is not graded for the block Q; "
            "cd and grade are decided for bigraded modules (graded ones for m)\n"
        )

    def test_hypersurface_document_of_another_input(self):
        """quadric_rank2's hypersurface document checked against a
        two-generator ideal: the route does not fit, and the invariants and
        split, which are read off the one generator, are not checked."""
        problem = parse_problem((CORPUS / "quadric_rank2.ring").read_text())
        doc = run("hypersurface", problem, VariableBlock.Q, 0)
        problems = verify_certificate(doc, parse_problem("ring m=2 n=2\nideal x1*y1, x2*y2"))
        assert problems[-1] == "route 'hypersurface-rank1' does not fit the input and levels"
        assert not any(line.startswith(("invariants", "split")) for line in problems)


class TestCorpus:
    def test_manifest_expectations(self, capsys):
        manifest = json.loads((CORPUS / "manifest.json").read_text())
        assert manifest
        for entry in manifest:
            argv = [entry["command"], str(CORPUS / entry["file"]), "--format", "json"]
            if "wrt" in entry:
                argv += ["--wrt", entry["wrt"]]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, f"{entry} failed: {err}"
            doc = json.loads(out)
            label = f"{entry['file']}::{entry['command']}"
            if "decision" in entry:
                assert doc["verdict"]["decision"] == entry["decision"], label
            if "route" in entry:
                assert doc["verdict"]["route"] == entry["route"], label
            if "level_cds" in entry:
                got = [l["cd"] for l in doc["verdict"]["filtration"]["levels"]]
                assert got == entry["level_cds"], label
            for key, value in entry.get("invariants", {}).items():
                assert doc["invariants"][key] == value, label
