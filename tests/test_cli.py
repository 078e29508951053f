"""Command-line surface: formats, exit codes, determinism."""

import csv
import hashlib
import io
import json

import pytest

from aglstab.cli import (EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_q2_text(capsys):
    code, out, _ = run(capsys, "table", "--p", "2", "--alpha", "1")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "k=1 d=1 odp=1 i=1 j=0 beta=0 N=2" in lines
    assert all(line.startswith("k=") for line in lines)


def test_table_csv_header_and_rows(capsys):
    code, out, _ = run(capsys, "table", "--p", "5", "--alpha", "1",
                       "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "d", "odp", "i", "j", "beta", "N"]
    assert ["2", "2", "1", "1", "0", "0", "2"] in rows


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--q", "4", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(out)
    assert {"k": 0, "d": 3, "odp": 2, "i": 1, "j": 1, "beta": 2, "N": 1} in rows


def test_table_rejects_non_prime_power(capsys):
    code, _, err = run(capsys, "table", "--p", "4", "--alpha", "1")
    assert code == EXIT_INPUT
    assert "prime" in err
    code, _, err = run(capsys, "table", "--q", "12")
    assert code == EXIT_INPUT


def test_workers_only_on_verify(capsys):
    for argv in (["table", "--q", "9"],
                 ["count", "--p", "7", "--k", "3", "--d", "3", "--i", "1",
                  "--j", "0"],
                 ["design", "--q", "7", "--k", "3", "--d", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "2"])
        assert exc.value.code == EXIT_INPUT, argv
        assert "--workers" in capsys.readouterr().err
    code, serial, _ = run(capsys, "verify", "--q", "5", "--format", "csv")
    code, parallel, _ = run(capsys, "verify", "--q", "5", "--format", "csv",
                            "--workers", "2")
    assert code == EXIT_OK
    assert serial == parallel


# SHA-256 of `aglstab table --q Q --format csv` stdout, recorded from the
# per-(k, class) double-sum implementation that the term tuples replaced
TABLE_CSV_SHA256 = {
    64: "118d1c66930ebc573560cd046ca239b90dbbdad06e435654c4c8db9b460e4f12",
    81: "e77b78c13ace61d06602c0ae7e610b9c9792a3bd8de98a38e97702bfde7c7077",
    97: "5612dbca88cdf1bd96f5f62f31228a6087e8dcfd37d3ed5009e92924f70af992",
    125: "deb9969ff3e15604a59a1ee5e51e4940bdb5711f9ddea0c5654ab7bd1003ce9d",
    243: "f4e2ab8843a5f546be0922a10940d7850a59265dc2c7c27ac7d796992a35b04d",
}


@pytest.mark.parametrize("q", sorted(TABLE_CSV_SHA256))
def test_table_csv_golden_digest(capsys, q):
    code, out, _ = run(capsys, "table", "--q", str(q), "--format", "csv")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_CSV_SHA256[q]


def test_count_examples(capsys):
    code, out, _ = run(capsys, "count", "--p", "7", "--k", "3", "--d", "3",
                       "--i", "1", "--j", "0")
    assert code == EXIT_OK
    assert out.strip() == "k=3 d=3 odp=1 i=1 j=0 beta=0 N=2"
    code, out, _ = run(capsys, "count", "--p", "7", "--k", "3", "--d", "1",
                       "--i", "1", "--j", "0")
    assert code == EXIT_OK
    assert out.strip().endswith("N=0")


def test_count_congruence_gate(capsys):
    code, _, err = run(capsys, "count", "--p", "7", "--k", "5", "--d", "3",
                       "--i", "1", "--j", "0")
    assert code == EXIT_INPUT
    assert "mod" in err


def test_count_invalid_tuple_names_condition(capsys):
    code, _, err = run(capsys, "count", "--p", "7", "--k", "3", "--d", "4",
                       "--i", "1", "--j", "0")
    assert code == EXIT_INPUT
    assert "divide" in err


def test_verify_q7(capsys):
    code, out, _ = run(capsys, "verify", "--q", "7")
    assert code == EXIT_OK
    assert "PASS" in out
    # includes the (7,3,1) zero among the agreeing entries
    assert "FAIL" not in out


def test_verify_q8_max_k(capsys):
    code, out, _ = run(capsys, "verify", "--q", "8", "--max-k", "4")
    assert code == EXIT_OK
    assert "5 subset sizes" in out


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--q", "5", "--format", "csv")
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["d", "i", "j", "k", "closed", "lattice", "brute", "ok"]
    assert all(row[-1] == "True" for row in rows[1:])


def test_verify_budget_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--q", "1024")
    assert code == EXIT_BUDGET
    assert "budget" in err.lower() or "closure" in err.lower()


def test_design_q7_text(capsys):
    code, out, _ = run(capsys, "design", "--q", "7", "--k", "3", "--d", "3")
    assert code == EXIT_OK
    assert "design v=7 b=14 r=6 k=3 lambda=2" in out
    assert "code n=14 d=8 w=6 size=7" in out
    assert "johnson equality: 56/8 = 7: PASS" in out
    assert "A2(14,8,6) = 7" in out


def test_design_explicit_subset_matches_class_search(capsys):
    code, by_class, _ = run(capsys, "design", "--q", "7", "--k", "3",
                            "--d", "3")
    assert code == EXIT_OK
    code, by_subset, _ = run(capsys, "design", "--q", "7",
                             "--subset", "1,2,4")
    assert code == EXIT_OK
    assert by_subset == by_class


def test_design_zero_class_is_an_error(capsys):
    code, _, err = run(capsys, "design", "--q", "7", "--k", "3", "--d", "6")
    assert code == EXIT_INPUT
    assert "0" in err


def test_design_json(capsys):
    code, out, _ = run(capsys, "design", "--q", "7", "--k", "3", "--d", "3",
                       "--format", "json")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["params"] == {"v": 7, "b": 14, "r": 6, "k": 3, "lambda": 2}
    assert record["johnson_equality"] is True
    assert record["a2"] == {"n": 14, "d": 8, "w": 6, "value": 7}
    assert len(record["codewords"]) == 7


def test_design_csv_is_plain_block_list(capsys):
    code, out, _ = run(capsys, "design", "--q", "7", "--k", "3", "--d", "3",
                       "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 14
    assert all(len(line.split(",")) == 3 for line in lines)


def test_design_needs_subset_or_class(capsys):
    code, _, err = run(capsys, "design", "--q", "7")
    assert code == EXIT_INPUT


def test_byte_identical_reruns(capsys):
    for argv in (["table", "--q", "8", "--format", "csv"],
                 ["verify", "--q", "5", "--format", "json"],
                 ["design", "--q", "7", "--k", "3", "--d", "3",
                  "--format", "json"]):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


def test_conflicting_field_flags(capsys):
    code, _, err = run(capsys, "table", "--q", "8", "--p", "2")
    assert code == EXIT_INPUT
    assert "not both" in err
