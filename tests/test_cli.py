"""End-to-end command line coverage, run in process through ``main``."""

import importlib

import pytest

import ewb.braid
from ewb import closure, format_gauss_file, format_word_file, mirror_word, parse_word, word, sigma
from conftest import FIXTURES
from ewb.cli import main

L1 = "fixtures/l1.gd"


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


@pytest.fixture
def word_file(write):
    def _word_file(name, text, strands):
        return write(name, format_word_file(parse_word(text, strands)))

    return _word_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClose:
    def test_writes_gauss_data(self, capsys, word_file):
        code, out, err = run(capsys, "close", "--input", word_file("a.bw", "s1", 2))
        assert code == 0 and err == ""
        assert out == "crossing 1 +\narc 1.3 1.2 0\narc 1.4 1.1 0\nloops 0\n"

    def test_output_flag_writes_a_file(self, capsys, word_file, tmp_path):
        target = tmp_path / "out.gd"
        code, out, _ = run(
            capsys, "close", "--input", word_file("a.bw", "s1", 2), "--output", str(target)
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("crossing 1 +")

    def test_unwritable_output_is_an_error(self, capsys, word_file, tmp_path):
        target = tmp_path / "missing" / "out.gd"
        code, out, err = run(
            capsys, "close", "--input", word_file("a.bw", "s1", 2), "--output", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "No such file or directory" in err

    def test_unclosable_word_is_an_error(self, capsys, word_file):
        code, out, err = run(capsys, "close", "--input", word_file("t.bw", "t1", 1))
        assert code == 2 and out == ""
        assert "not closable: component 1 has odd wen parity" in err

    def test_parse_errors_name_the_line(self, capsys, write):
        bad = write("bad.bw", "strands 2\nbad\n")
        code, _, err = run(capsys, "close", "--input", bad)
        assert code == 2
        assert "line 2" in err and "bad letter token" in err

    def test_letter_index_of_any_length_is_an_error(self, capsys, write):
        big = write("big.bw", "strands 2\ns" + "1" * 5000 + "\n")
        code, out, err = run(capsys, "close", "--input", big)
        assert code == 2 and out == ""
        assert "line 2" in err and "out of range on 2 strands" in err
        assert len(err) < 200

    def test_strand_count_above_the_file_limit_is_an_error(self, capsys, write):
        big = write("big.bw", "strands 10000000\n")
        code, out, err = run(capsys, "close", "--input", big)
        assert code == 2 and out == ""
        assert "line 1" in err and "more than 100000 strands" in err


class TestBraid:
    def test_fixture_braids_to_frozen_word(self, capsys):
        code, out, _ = run(capsys, "braid", "--input", L1)
        assert code == 0
        assert out == "strands 6\ns1 s3 s5 r5 r4 r3 r2 r1 r4 r3 r2 r3 t3 t4\n"

    def test_invalid_data_is_an_error(self, capsys, write):
        bad = write("bad.gd", "crossing c +\nloops 0\n")
        code, _, err = run(capsys, "braid", "--input", bad)
        assert code == 2 and "dangling endpoint" in err

    def test_empty_diagram_is_an_error(self, capsys, write):
        empty = write("empty.gd", "loops 0\n")
        assert run(capsys, "gauss-validate", "--input", empty) == (0, "valid\n", "")
        code, out, err = run(capsys, "braid", "--input", empty)
        assert (code, out) == (2, "")
        assert err == f"error: {empty}: the empty diagram is the closure of no braid word\n"


class TestL800Fixture:
    """A seeded 8-strand word of 800 letters (a quarter each positive and
    negative crossings, wens and welded crossings), its closure and the
    braiding of that closure, reproduced byte for byte."""

    def test_close(self, capsys):
        code, out, err = run(capsys, "close", "--input", str(FIXTURES / "l800.bw"))
        assert (code, err) == (0, "")
        assert out == (FIXTURES / "l800.gd").read_text()

    def test_braid(self, capsys):
        code, out, err = run(capsys, "braid", "--input", str(FIXTURES / "l800.gd"))
        assert (code, err) == (0, "")
        assert out == (FIXTURES / "l800-braid.bw").read_text()


class TestGaussValidate:
    def test_valid(self, capsys):
        assert run(capsys, "gauss-validate", "--input", L1) == (0, "valid\n", "")

    def test_valid_machine(self, capsys):
        code, out, _ = run(capsys, "gauss-validate", "--input", L1, "--format", "machine")
        assert (code, out) == (0, "valid=true\n")

    def test_invalid(self, capsys, write):
        bad = write("bad.gd", "crossing c +\nloops 0\n")
        code, out, _ = run(capsys, "gauss-validate", "--input", bad, "--format", "machine")
        assert code == 1
        assert out.splitlines()[0] == "valid=false"


class TestEquality:
    def test_braid_relation_words_are_equal(self, capsys, word_file):
        a = word_file("a.bw", "s1 s2 s1", 3)
        b = word_file("b.bw", "s2 s1 s2", 3)
        code, out, _ = run(capsys, "eq-word", a, b)
        assert (code, out) == (0, "equal\n")

    def test_unequal_words(self, capsys, word_file):
        a = word_file("a.bw", "s1", 2)
        b = word_file("b.bw", "S1", 2)
        code, out, _ = run(capsys, "eq-word", a, b, "--format", "machine")
        assert (code, out) == (1, "equal=false\n")

    def test_degree_mismatch_is_just_unequal(self, capsys, word_file):
        a = word_file("a.bw", "s1", 2)
        b = word_file("b.bw", "s1", 3)
        code, out, _ = run(capsys, "eq-word", a, b)
        assert code == 1 and out == "not equal\n"

    def test_isomorphic_gauss_data(self, capsys, write):
        a = write("a.gd", format_gauss_file(closure(parse_word("s1 s2", 3))))
        b = write("b.gd", format_gauss_file(closure(parse_word("s2 s1", 3))))
        code, out, _ = run(capsys, "eq-gauss", a, b, "--format", "machine")
        assert (code, out) == (0, "isomorphic=true\npairs=1:2,2:1\n")

    def test_distinct_gauss_data(self, capsys, write):
        a = write("a.gd", format_gauss_file(closure(parse_word("s1", 2))))
        b = write("b.gd", format_gauss_file(closure(parse_word("S1", 2))))
        code, out, _ = run(capsys, "eq-gauss", a, b, "--format", "machine")
        assert (code, out) == (1, "isomorphic=false\n")


class TestSymmetries:
    def test_signrev_word(self, capsys, word_file, tmp_path):
        code, out, _ = run(capsys, "signrev-word", "--input", word_file("a.bw", "s1", 2))
        assert (code, out) == (0, "strands 2\nr1 S1 r1\n")

    def test_mirror(self, capsys, word_file):
        code, out, _ = run(
            capsys, "mirror", "--input", word_file("a.bw", "s1 r2 t1 S2", 3)
        )
        assert (code, out) == (0, "strands 3\nS2 r1 t3 s1\n")

    def test_mirrored_closure_is_the_sign_reversal(self, capsys, write, word_file):
        b = parse_word("s1 s1", 2)
        mirrored = write("m.gd", format_gauss_file(closure(mirror_word(b))))
        code, out, _ = run(
            capsys, "signrev-gauss", "--input", write("g.gd", format_gauss_file(closure(b)))
        )
        assert code == 0
        reversed_file = write("r.gd", out)
        code, out, _ = run(capsys, "eq-gauss", mirrored, reversed_file)
        assert code == 0
        assert out.startswith("isomorphic: ")


class TestRewriting:
    def test_eliminate_wens_reports_and_writes(self, capsys, tmp_path):
        out_path = tmp_path / "out.gd"
        code, out, _ = run(
            capsys,
            "eliminate-wens",
            "--input",
            L1,
            "--format",
            "machine",
            "--output",
            str(out_path),
        )
        assert code == 0
        assert out == "flipped=c1\nslides=2\n"
        produced = out_path.read_text()
        assert "arc" in produced and " 1\n" not in produced  # bar-free

    def test_eliminate_wens_artifact_on_stdout(self, capsys):
        code, out, _ = run(capsys, "eliminate-wens", "--input", L1)
        assert code == 0
        assert out.startswith("crossing c1 -")
        assert "flipped" not in out

    def test_reduce_kinks(self, capsys, write, word_file):
        g = write("g.gd", format_gauss_file(closure(parse_word("s1 s2", 3))))
        code, out, _ = run(capsys, "reduce-kinks", "--input", g)
        assert (code, out) == (0, "loops 1\n")


class TestInvariants:
    def test_fixture_machine_lines(self, capsys):
        code, out, _ = run(capsys, "invariants", "--input", L1, "--format", "machine")
        assert code == 0
        assert out.splitlines() == [
            "components=2",
            "loops=0",
            "crossings=3",
            "signs=-1,-1,1",
            "linking=0,-1;0,0",
        ]

    def test_word_input_is_closed_first(self, capsys, word_file):
        code, out, _ = run(
            capsys, "invariants", "--input", word_file("a.bw", "s1", 2)
        )
        assert code == 0
        assert "components: 1" in out and "crossings: 1" in out

    def test_one_wen_elimination_per_run(self, capsys, monkeypatch):
        # One passage index validates the file on load and one serves the
        # wen walk of both invariants.
        from ewb import gauss

        builds = []

        class Counting(gauss._Index):
            def __init__(self, g):
                builds.append(g)
                super().__init__(g)

        monkeypatch.setattr(gauss, "_Index", Counting)
        for fmt in ("text", "machine"):
            builds.clear()
            code, _, _ = run(capsys, "invariants", "--input", L1, "--format", fmt)
            assert code == 0 and len(builds) == 2


class TestMarkovVerbs:
    def test_search_then_replay(self, capsys, word_file, tmp_path):
        a = word_file("a.bw", "s1", 2)
        b = word_file("b.bw", "r1 S1 r1", 2)
        witness = tmp_path / "w.txt"
        code, out, _ = run(capsys, "markov", a, b, "--output", str(witness))
        assert (code, out) == (0, "found witness of 4 moves\n")
        assert witness.read_text() == "m2d\nm2-\nm0 S1 r1 r1\nm1 2\n"
        code, out, _ = run(capsys, "replay", a, str(witness), "--target", b)
        assert (code, out) == (0, "replay matches target\n")

    def test_machine_report_carries_the_witness(self, capsys, word_file):
        a = word_file("a.bw", "s1", 2)
        b = word_file("b.bw", "r1 S1 r1", 2)
        code, out, _ = run(capsys, "markov", a, b, "--format", "machine")
        assert code == 0
        assert out == (
            "found=true\nmoves=4\nwitness=m2d;m2-;m0 S1 r1 r1;m1 2\nstop=found\nnodes=36\n"
        )

    def test_machine_report_with_output_file(self, capsys, word_file, tmp_path):
        a = word_file("a.bw", "s1", 2)
        b = word_file("b.bw", "r1 S1 r1", 2)
        witness = tmp_path / "w.txt"
        code, out, _ = run(capsys, "markov", a, b, "--output", str(witness), "--format", "machine")
        assert (code, out) == (0, "found=true\nmoves=4\nstop=found\nnodes=36\n")
        assert witness.read_text() == "m2d\nm2-\nm0 S1 r1 r1\nm1 2\n"

    def test_replay_without_target_prints_the_result(self, capsys, word_file, write):
        a = word_file("a.bw", "s1", 2)
        w = write("w.txt", "m1 1\n")
        code, out, _ = run(capsys, "replay", a, w)
        assert (code, out) == (0, "strands 2\ns1\n")

    def test_replay_folds_each_word_once(self, capsys, monkeypatch, word_file, write):
        # the m0 move folds its two words, and the target check two more
        folds = []
        fold = ewb.braid._fold
        monkeypatch.setattr(ewb.braid, "_fold", lambda b: folds.append(b) or fold(b))
        planted = "s1 S2 t1 t1 s1 S2 s1"
        code, out, _ = run(
            capsys, "replay", word_file("a.bw", "s1 S2 s1 S2 s1", 3),
            write("w.txt", f"m0 {planted}\n"), "--target", word_file("b.bw", planted, 3),
            "--format", "machine",
        )
        assert (code, out) == (0, f"equal=true\nresult={planted}\n")
        assert len(folds) == 4

    def test_replay_mismatch(self, capsys, word_file, write):
        a = word_file("a.bw", "s1", 2)
        w = write("w.txt", "m2w\n")
        code, out, _ = run(
            capsys, "replay", a, w, "--target", word_file("b.bw", "S1 r2", 3),
            "--format", "machine",
        )
        assert code == 1
        assert out == "equal=false\nresult=s1 r2\n"

    def test_bad_witness_line_is_an_error(self, capsys, word_file, write):
        a = word_file("a.bw", "s1", 2)
        w = write("w.txt", "m1 1\nflip\n")
        code, _, err = run(capsys, "replay", a, w)
        assert code == 2 and "line 2" in err

    def test_m0_letter_index_of_any_length_is_an_error(self, capsys, word_file, write):
        a = word_file("a.bw", "s1", 2)
        w = write("w.txt", "m1 0\nm0 s" + "1" * 5000 + "\n")
        code, out, err = run(capsys, "replay", a, w)
        assert code == 2 and out == ""
        assert "line 2" in err and "out of range on 2 strands" in err
        assert len(err) < 200

    def test_inconclusive_search(self, capsys, word_file):
        a = word_file("a.bw", "s1", 2)
        b = word_file("b.bw", "S1", 2)
        code, out, _ = run(capsys, "markov", a, b, "--budget", "1", "--format", "machine")
        assert code == 1
        assert out == "found=false\nstop=budget\nnodes=2\n"

    def test_exhausted_search(self, capsys, word_file):
        # The Hopf link and the unknot on at most 2 strands: five words in all
        a = word_file("a.bw", "s1 s1", 2)
        b = word_file("b.bw", "s1", 2)
        code, out, _ = run(capsys, "markov", a, b, "--max-degree", "2", "--format", "machine")
        assert code == 1
        assert out == "found=false\nstop=exhausted\nnodes=5\n"
        code, out, _ = run(capsys, "markov", a, b, "--max-degree", "2")
        assert (code, out) == (1, "inconclusive: no witness within the given limits\n")

    def test_unwritable_witness_is_an_error(self, capsys, word_file, tmp_path):
        a = word_file("a.bw", "s1", 2)
        b = word_file("b.bw", "r1 S1 r1", 2)
        target = tmp_path / "missing" / "w.txt"
        code, out, err = run(capsys, "markov", a, b, "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "No such file or directory" in err


class TestImageCap:
    """Words whose free-group images outgrow the fold's cap end with one
    line and exit 2, which no verdict uses, instead of running out of memory."""

    BLOW_UP = " ".join(["s1 S2"] * 10)  # 43,783 image letters

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(ewb.braid, "_MAX_HALF_LETTERS", 1000)

    def test_eq_word(self, capsys, word_file):
        a = word_file("a.bw", self.BLOW_UP, 3)
        b = word_file("b.bw", self.BLOW_UP[:-5] + "S1 s2", 3)
        code, out, err = run(capsys, "eq-word", a, b)
        assert (code, out) == (2, "")
        assert err == "error: a word's free-group images exceed the cap of 1000 letters\n"

    def test_replay_through_m0(self, capsys, word_file, write):
        a = word_file("a.bw", self.BLOW_UP, 3)
        w = write("w.txt", f"m0 {self.BLOW_UP}\n")
        code, out, err = run(capsys, "replay", a, w)
        assert (code, out) == (2, "")
        assert err == "error: a word's free-group images exceed the cap of 1000 letters\n"


class TestBraidedWordCap:
    def test_braid(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("ewb.closure"), "_MAX_BRAID_LETTERS", 13)
        code, out, err = run(capsys, "braid", "--input", L1)
        assert (code, out) == (2, "")
        assert err == "error: the braided word exceeds the cap of 13 letters\n"


class TestRelationsVerb:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "verify-relations", "--n", "4")
        assert (code, out) == (0, "all relation instances verified (70 instances, n <= 4)\n")

    def test_machine_report(self, capsys):
        code, out, _ = run(capsys, "verify-relations", "--n", "3", "--format", "machine")
        assert (code, out) == (0, "checked=28\nfailures=0\n")

    @pytest.mark.parametrize("n", ["0", "-1", "33", "1" + "0" * 29])
    def test_n_out_of_range_is_an_error(self, capsys, n):
        code, out, err = run(capsys, "verify-relations", "--n", n)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--n" in err


class TestTopLevelErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "close", "--input", "/nonexistent.bw")
        assert code == 2 and err != ""

    @pytest.mark.parametrize(
        "verb, files, extra, message",
        [
            ("eq-gauss", ("bad.gd", L1), (), "bad.gd: dangling endpoint"),
            ("eq-gauss", (L1, "bad.gd"), (), "bad.gd: dangling endpoint"),
            ("eliminate-wens", ("--input", "bad.gd"), (), "bad.gd: dangling endpoint"),
            ("reduce-kinks", ("--input", "bad.gd"), (), "bad.gd: dangling endpoint"),
            ("markov", ("a.bw", "a.bw"), ("--budget", "0"), "budget must be at least 1"),
            ("markov", ("a.bw", "a.bw"), ("--max-degree", "1"), "degree cap is below"),
            ("invariants", ("--input", "seven.gd"), (), "at most 6 components"),
            ("close", ("--input", "binary.bw"), (), "binary.bw: 'utf-8' codec"),
            ("markov", ("a.bw", "a.bw"), ("--budget", "2000001"), "--budget must be at most 2000000"),
            ("markov", ("a.bw", "a.bw"), ("--budget", "1" + "0" * 29), "--budget must be at most"),
            ("mirror", ("--input", "bad.gd"), (), "bad.gd: line 1: expected 'strands <n>'"),
            ("signrev-word", ("--input", "bad.gd"), (), "bad.gd: line 1: expected 'strands <n>'"),
            ("signrev-gauss", ("--input", "a.bw"), (), "a.bw: line 1: unknown declaration 'strands'"),
            ("braid", ("--input", "empty.gd"), (), "empty.gd: the empty diagram is the closure"),
        ],
    )
    def test_inputs_are_checked_where_they_enter(self, capsys, tmp_path, verb, files, extra, message):
        (tmp_path / "bad.gd").write_text("crossing c +\nloops 0\n")
        (tmp_path / "a.bw").write_text("strands 2\ns1\n")
        (tmp_path / "seven.gd").write_text("loops 7\n")
        (tmp_path / "empty.gd").write_text("")
        (tmp_path / "binary.bw").write_bytes(b"\xff\xfe\n")
        argv = [f if f.startswith("-") or f == L1 else str(tmp_path / f) for f in files]
        code, out, err = run(capsys, verb, *argv, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_a_library_fault_is_not_bad_input(self, monkeypatch, write):
        from ewb import cli

        def broken(b):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "closure", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["close", "--input", write("a.bw", "strands 2\ns1\n")])

    def test_unknown_verb(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2
