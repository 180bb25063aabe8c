import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from posetfano import cli
from posetfano.cli import main
from posetfano.enumeration import TableRow, read_table
from oracles import cached_classes


@pytest.fixture
def v_file(tmp_path):
    f = tmp_path / "v.poset"
    f.write_text("3\n1 2\n1 3\n")
    return str(f)


@pytest.fixture
def example_file(tmp_path):
    f = tmp_path / "ex.poset"
    f.write_text("# two-chain plus a point\n3\n1 2\n")
    return str(f)


class TestClassifyCommand:
    def test_v_poset_json(self, v_file, capsys):
        assert main(["classify", "--json", v_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {
            "d": 3,
            "fano": True,
            "terminal": True,
            "gorenstein": True,
            "q_factorial": False,
            "smooth": False,
            "method": "combinatorial",
            "witness": {"kind": "cycle", "elements": [1, 2, 4, 3],
                        "steps": [1, 1, -1, -1]},
        }

    def test_human_readable(self, v_file, capsys):
        assert main(["classify", v_file]) == 0
        out = capsys.readouterr().out
        assert "smooth: no" in out
        assert "witness cycle: 1 2 4 3" in out

    def test_verify(self, v_file, capsys):
        assert main(["classify", "--json", "--verify", v_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verified"] is True

    def test_verify_disagreement(self, v_file, capsys, monkeypatch):
        import posetfano.crosscheck as crosscheck
        facets_and_flags = crosscheck.facets_and_flags
        monkeypatch.setattr(crosscheck, "facets_and_flags",
                            lambda points: (facets_and_flags(points)[0], False, True))
        assert main(["classify", "--verify", v_file]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "disagrees with the oracle" in err

    def test_all_witnesses_text(self, v_file, capsys):
        assert main(["classify", "--all-witnesses", v_file]) == 0
        assert "blocking cycle: 1 2 4 3\n" in capsys.readouterr().out

    def test_all_witnesses(self, v_file, capsys):
        assert main(["classify", "--json", "--all-witnesses", v_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["witnesses"] == [
            {"kind": "cycle", "elements": [1, 2, 4, 3], "steps": [1, 1, -1, -1]}
        ]

    def test_all_witnesses_bytes(self, v_file, example_file, capsys):
        assert main(["classify", "--json", "--all-witnesses", v_file]) == 0
        walk = '{"kind": "cycle", "elements": [1, 2, 4, 3], "steps": [1, 1, -1, -1]}'
        assert capsys.readouterr().out == (
            '{"d": 3, "fano": true, "terminal": true, "gorenstein": true, '
            '"q_factorial": false, "smooth": false, "method": "combinatorial", '
            f'"witness": {walk}, "witnesses": [{walk}]}}\n')
        assert main(["classify", "--json", "--all-witnesses", example_file]) == 0
        assert capsys.readouterr().out.endswith(
            '"method": "combinatorial", "witness": null, "witnesses": []}\n')

    def test_all_witnesses_budget(self, v_file, capsys, monkeypatch):
        # v.poset has one blocking walk: a budget of 0 refuses it, 1 lists it
        monkeypatch.setattr(cli, "MAX_LISTED_WITNESSES", 0)
        assert main(["classify", "--json", "--all-witnesses", v_file]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "more than 0 blocking walks" in err
        monkeypatch.setattr(cli, "MAX_LISTED_WITNESSES", 1)
        assert main(["classify", "--json", "--all-witnesses", v_file]) == 0
        assert len(json.loads(capsys.readouterr().out)["witnesses"]) == 1

    @pytest.mark.parametrize("name,text", [
        ("v.poset", "3\n1 2\n1 3\n"),
        ("v.json", '{"d": 3, "relations": [[1, 2], [1, 3]]}'),
    ], ids=["text", "json"])
    def test_byte_order_mark(self, name, text, tmp_path, capsys):
        # some editors save UTF-8 with a leading byte-order mark
        f = tmp_path / name
        f.write_text(text, encoding="utf-8-sig")
        assert main(["classify", str(f)]) == 0
        assert "witness cycle: 1 2 4 3" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path / "nope.poset")]) == 1

    def test_directory_input(self, tmp_path, capsys):
        assert main(["classify", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_file(self, tmp_path, capsys):
        f = tmp_path / "bad.poset"
        f.write_text("3\n1 nope\n")
        assert main(["classify", str(f)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_text_count_not_an_integer(self, tmp_path, capsys):
        f = tmp_path / "bad.poset"
        f.write_text("--3\n")
        assert main(["classify", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: line 1")

    def test_text_token_beyond_ascii_digits(self, tmp_path, capsys):
        # int() reads "1_0" as 10; the text format takes only ASCII digits
        f = tmp_path / "bad.poset"
        f.write_text("3\n1_0 2\n")
        assert main(["classify", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: line 2")

    def test_json_relations_not_a_list(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"d": 3, "relations": null}')
        assert main(["classify", str(f)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestVerticesCommand:
    def test_example_fixture(self, example_file, capsys):
        assert main(["vertices", example_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert set(lines) == {"-1,0,0", "0,0,-1", "1,-1,0", "0,1,0", "0,0,1"}

    def test_json(self, example_file, capsys):
        assert main(["vertices", "--json", example_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["d"] == 3
        by_edge = {tuple(v["edge"]): tuple(v["coords"]) for v in out["vertices"]}
        assert by_edge[(0, 1)] == (-1, 0, 0)
        assert by_edge[(1, 2)] == (1, -1, 0)
        assert by_edge[(3, 4)] == (0, 0, 1)


class TestOracleCommand:
    def test_v_poset(self, v_file, capsys):
        assert main(["oracle", v_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fano"] and out["terminal"] and out["gorenstein"]
        assert not out["simplicial"] and not out["smooth"]
        assert all(f["offset"] == 1 for f in out["facets"])
        assert max(len(f["vertices"]) for f in out["facets"]) == 4

    def test_box_beyond_the_scan_budget(self, tmp_path, capsys):
        # a d = 20 chain spans the {-1, 0, 1}^20 box, 3^20 points
        f = tmp_path / "chain20.poset"
        f.write_text("20\n" + "".join(f"{i} {i + 1}\n" for i in range(1, 20)))
        start = time.perf_counter()
        assert main(["oracle", str(f)]) == 1
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "3^16" in captured.err
        assert "Traceback" not in captured.err


class TestCrossCheckCommand:
    def test_d3_clean(self, capsys):
        assert main(["cross-check", "--d", "3"]) == 0
        assert "5 classes, 0 disagreements" in capsys.readouterr().out

    def test_d4_json(self, capsys):
        assert main(["cross-check", "--d", "4", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"d": 4, "classes": 16, "disagreements": []}

    def test_parallel_workers(self, capsys):
        assert main(["cross-check", "--d", "4", "--jobs", "2"]) == 0
        assert "16 classes, 0 disagreements" in capsys.readouterr().out

    def test_disagreement_exits_nonzero(self, capsys, monkeypatch):
        import posetfano.cli as cli
        monkeypatch.setattr(
            cli, "find_disagreement", lambda p: {"smooth": (True, False)}
        )
        assert main(["cross-check", "--d", "2", "--jobs", "1"]) == 1
        out = capsys.readouterr().out
        assert "2 disagreements" in out
        assert main(["cross-check", "--d", "2", "--jobs", "1", "--json"]) == 1
        records = json.loads(capsys.readouterr().out)["disagreements"]
        assert sorted(r["covers"] for r in records) == [[], [[1, 2]]]
        assert all(r["mismatch"] == {"smooth": {"classifier": True, "oracle": False}}
                   for r in records)


class TestCrossCheckSample:
    def test_count(self, capsys):
        assert main(["cross-check", "--d", "4", "--sample", "5", "--seed", "3",
                     "--jobs", "1", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"d": 4, "classes": 5, "sample": {"of": 16, "seed": 3},
                       "disagreements": []}

    def test_text(self, capsys):
        assert main(["cross-check", "--d", "4", "--sample", "5", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "d=4: 5 classes, 0 disagreements (sample of 16, seed 0)" in out

    def test_same_seed_same_classes(self, capsys, monkeypatch):
        import posetfano.cli as cli
        checked = []
        monkeypatch.setattr(
            cli, "find_disagreement", lambda p: checked.append(p.covers)
        )

        def draw(seed):
            checked.clear()
            assert main(["cross-check", "--d", "5", "--sample", "7",
                         "--seed", seed, "--jobs", "1"]) == 0
            return list(checked)

        first = draw("11")
        expected = random.Random(11).sample(cached_classes(5), 7)
        assert first == [p.covers for p in expected]
        assert len(set(first)) == 7
        assert draw("11") == first
        assert draw("12") != first

    def test_sample_at_least_all_checks_every_class(self, capsys):
        assert main(["cross-check", "--d", "4", "--sample", "16", "--jobs", "1",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "d": 4, "classes": 16, "disagreements": []
        }
        assert main(["cross-check", "--d", "3", "--sample", "99", "--jobs", "1"]) == 0
        assert "d=3: 5 classes, 0 disagreements\n" == capsys.readouterr().out

    @pytest.mark.parametrize("n", ["0", "-3", "two"])
    def test_bad_sample_is_usage_error(self, n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cross-check", "--d", "4", "--sample", n])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--sample" in err
        assert f"expected a positive integer, got {n!r}" in err
        assert "_positive_int" not in err


class TestTableCommand:
    def test_max_d4(self, capsys):
        assert main(["table", "--max-d", "4", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.strip().splitlines()[1:]]
        assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == [
            (1, 1, 1), (2, 2, 2), (3, 4, 3), (4, 12, 6)
        ]

    def test_census_to_d8_pinned(self, capsys):
        # the whole census from empty levels, over a 2-worker pool
        assert main(["table", "--max-d", "8", "--json", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)[-1] == {"d": 8, "posets": 8746, "smooth": 302}
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "15186b526ccc1e040dce113a648c5ee55430b1acbd84a8f3006b4cd1794aca99"
        )

    def test_json_and_csv(self, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        assert main(["table", "--max-d", "3", "--jobs", "1", "--json",
                     "--out", str(out_file)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows == [
            {"d": 1, "posets": 1, "smooth": 1},
            {"d": 2, "posets": 2, "smooth": 2},
            {"d": 3, "posets": 4, "smooth": 3},
        ]
        assert out_file.read_text().splitlines()[0] == "d,posets,smooth"

    @pytest.mark.parametrize("text,line", [
        ("n,classes,smooth\n1,1,1\n", "line 1"),  # wrong header
        ("d,posets,smooth\n1,1,1\n2,2\n", "line 3"),  # truncated row
        ("d,posets,smooth\n1,one,1\n", "line 2"),  # non-integer field
    ])
    def test_resume_from_malformed_csv(self, text, line, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        out_file.write_text(text)
        assert main(["table", "--max-d", "3", "--jobs", "1",
                     "--out", str(out_file), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(out_file) in err and line in err
        assert out_file.read_text() == text

    def test_resume_without_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--max-d", "2", "--jobs", "1", "--resume"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--out" in captured.err and captured.out == ""

    def test_resume_into_an_empty_csv_writes_the_header(self, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        out_file.write_text("")
        assert main(["table", "--max-d", "2", "--jobs", "1",
                     "--out", str(out_file), "--resume"]) == 0
        assert out_file.read_text().splitlines() == ["d,posets,smooth", "1,1,1", "2,2,2"]


    @pytest.mark.parametrize("text", ["d,posets,smooth\n1,1,1\n", ""],
                             ids=["rows", "empty"])
    def test_resume_from_csv_with_byte_order_mark(self, text, tmp_path, capsys):
        # some editors save UTF-8 with a leading byte-order mark
        out_file = tmp_path / "b.csv"
        out_file.write_text(text, encoding="utf-8-sig")
        assert main(["table", "--max-d", "2", "--jobs", "1",
                     "--out", str(out_file), "--resume"]) == 0
        assert read_table(str(out_file)) == [TableRow(1, 1, 1), TableRow(2, 2, 2)]

    def test_resume_after_a_row_without_line_break(self, tmp_path, capsys):
        # each appended row starts on its own line
        out_file = tmp_path / "t.csv"
        out_file.write_text("d,posets,smooth\n1,1,1\n2,2,2")
        assert main(["table", "--max-d", "4", "--jobs", "1",
                     "--out", str(out_file), "--resume"]) == 0
        assert read_table(str(out_file)) == [
            TableRow(1, 1, 1), TableRow(2, 2, 2), TableRow(3, 4, 3), TableRow(4, 12, 6)]

    @pytest.mark.parametrize("rows,line", [
        ("1,1,1\n2,2,99\n", "line 3"),  # more smooth than posets
        ("1,1,1\n2,2,2\n4,12,6\n", "line 4"),  # d = 3 missing
        ("1,1,1\n1,1,1\n", "line 3"),  # d = 1 twice
        ("2,2,2\n", "line 2"),  # does not start at d = 1
        ("1,-1,0\n", "line 2"),  # negative posets
    ], ids=["smooth_above_posets", "gap", "repeat", "late_start", "negative"])
    def test_resume_rejects_inconsistent_rows(self, rows, line, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        text = "d,posets,smooth\n" + rows
        out_file.write_text(text)
        assert main(["table", "--max-d", "3", "--jobs", "1",
                     "--out", str(out_file), "--resume"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(out_file) in err and line in err
        assert out_file.read_text() == text

    def test_resume_keeps_rows_past_max_d(self, tmp_path, capsys):
        out_file = tmp_path / "t.csv"
        rows = [TableRow(1, 1, 1), TableRow(2, 2, 2), TableRow(3, 4, 3), TableRow(4, 12, 6)]
        out_file.write_text("d,posets,smooth\n1,1,1\n2,2,2\n3,4,3\n4,12,6\n")
        assert main(["table", "--max-d", "2", "--jobs", "1", "--json",
                     "--out", str(out_file), "--resume"]) == 0
        assert json.loads(capsys.readouterr().out) == [
            {"d": 1, "posets": 1, "smooth": 1}, {"d": 2, "posets": 2, "smooth": 2}]
        assert read_table(str(out_file)) == rows

    @pytest.mark.parametrize("resume", [["--resume"], []], ids=["resume", "overwrite"])
    def test_failed_rewrite_leaves_the_file(self, resume, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        out_file = tmp_path / "t.csv"
        text = "d,posets,smooth\n1,1,1\n"
        out_file.write_text(text)
        monkeypatch.setattr("os.replace", refuse)
        assert main(["table", "--max-d", "2", "--jobs", "1",
                     "--out", str(out_file), *resume]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "replace refused" in err
        assert out_file.read_text() == text

    @pytest.mark.parametrize("fail", ["write", "replace"])
    def test_failed_rewrite_removes_the_tmp_file(self, fail, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise OSError(f"{fail} refused")

        out_file = tmp_path / "t.csv"
        out_file.write_text("d,posets,smooth\n1,1,1\n")
        monkeypatch.setattr("csv.writer" if fail == "write" else "os.replace", refuse)
        assert main(["table", "--max-d", "2", "--jobs", "1",
                     "--out", str(out_file), "--resume"]) == 1
        assert f"{fail} refused" in capsys.readouterr().err
        assert [f.name for f in tmp_path.iterdir()] == ["t.csv"]


class TestJobs:
    @pytest.mark.parametrize("command", [
        ["table", "--max-d", "3"],
        ["cross-check", "--d", "3"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_non_positive_jobs_is_usage_error(self, command, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--jobs", jobs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--jobs" in err
        assert f"expected a positive integer, got {jobs!r}" in err
        assert "_positive_int" not in err

    def test_table_help_names_every_parallel_layer(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "enumeration and classification" in help_text


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["posetfano", "posetfano.cli"])
    def test_module_help_exits_zero(self, module):
        # -m puts the working directory first on the path, so the source
        # tree is what runs
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", module, "--help"], cwd=src,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "cross-check" in proc.stdout


class TestEnumerateCommand:
    def test_emit(self, tmp_path, capsys):
        target = tmp_path / "out"
        assert main(["enumerate", "--d", "3", "--emit", str(target)]) == 0
        assert "5 isomorphism classes" in capsys.readouterr().out
        files = sorted(target.glob("*.poset"))
        assert len(files) == 5
        from posetfano import load_poset
        keys = {load_poset(f).canonical_key().hex() for f in files}
        assert keys == {f.stem for f in files}

    def test_up_to_duality(self, capsys):
        assert main(["enumerate", "--d", "3", "--up-to-duality"]) == 0
        assert "4 duality classes" in capsys.readouterr().out

    def test_up_to_duality_emits_the_quotient_d6(self, tmp_path, capsys):
        from posetfano import quotient_by_duality
        target = tmp_path / "out"
        assert main(["enumerate", "--d", "6", "--up-to-duality",
                     "--emit", str(target)]) == 0
        assert "184 duality classes" in capsys.readouterr().out
        names = {f.name for f in target.glob("*.poset")}
        assert names == {p.canonical_key().hex() + ".poset"
                         for p in quotient_by_duality(cached_classes(6))}


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["table"])
        assert exc.value.code == 2
