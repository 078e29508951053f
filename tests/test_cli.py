"""Command-line surface: formats, exit codes, determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from aglstab import agl, cli, counting, designs, ffield, numtheory, oracle
from aglstab.cli import (EXIT_BUDGET, EXIT_CLOSED_PIPE, EXIT_INPUT, EXIT_OK,
                         VERIFY_COLUMNS, _emit_rows, _resolve_field,
                         _verify_class, build_parser, main)
from aglstab.counting import CSV_COLUMNS
from aglstab.numtheory import FACTOR_LIMIT, MAX_FACTORED_Q
from aglstab.ffield import Field, mask_elements, subset_mask
from reference import (build_table, csv_writer_rows, json_rows, prime_powers,
                       reference_design_json, run_python, text_rows)


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


def run_process(*argv, timeout=60):
    """The CLI under ``run_python``: the process and its wall seconds."""
    return run_python("-m", "aglstab.cli", *argv, timeout=timeout)


def digest(text):
    """The SHA-256 of a command's stdout, in hex."""
    return hashlib.sha256(text.encode()).hexdigest()


def argv_id(command):
    """A test id for a command line: an argument of more than 32
    characters is cut to its first 16 and its length."""
    return " ".join(arg if len(arg) <= 32 else f"{arg[:16]}...({len(arg)})"
                    for arg in command.split())


@pytest.mark.parametrize("q,field", [(7, (7, 1)), (64, (2, 6)),
                                     (2 ** 64, (2, 64)), (3 ** 40, (3, 40)),
                                     (1021 ** 2, (1021, 2))])
def test_q_resolves_to_its_prime_and_exponent(q, field):
    assert _resolve_field(build_parser().parse_args(
        ["table", "--q", str(q)])) == field


def q_refusal(q):
    return f"aglstab: error: q must be a prime power, got {q}\n"


@pytest.mark.parametrize("q", [36, 216, 1000, 2 ** 64 - 1])
def test_q_that_is_no_prime_power_exits_1(capsys, q):
    assert run(capsys, "table", "--q", str(q)) == (EXIT_INPUT, "",
                                                  q_refusal(q))


#: commands whose every number plain ints decide
SYMPY_FREE = [
    ("count", "--q", "1009", "--k", "2", "--d", "1", "--i", "1", "--j", "0"),
    ("table", "--q", "64", "--format", "csv"),
    ("table", "--q", "1024", "--format", "csv"),
    ("verify", "--q", "16", "--format", "csv"),
    ("design", "--q", "64", "--k", "21", "--d", "21", "--format", "json"),
    ("design", "--q", "64", "--subset", "0,1,2,3,5,7,8,11,13,21,34,55",
     "--format", "json"),
]


def test_commands_run_with_sympy_blocked(capsys):
    # the library imports sympy only in the fallbacks past plain ints; a
    # None in sys.modules makes any import of it raise ImportError
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['sympy'] = None\n"
        "from aglstab.cli import main\n"
        "runs = []\n"
        f"for argv in {SYMPY_FREE!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        runs.append([main(list(argv)), out.getvalue()])\n"
        "loaded = [m for m in sys.modules if m.startswith('sympy.')]\n"
        "json.dump({'runs': runs, 'loaded': loaded}, sys.stdout)\n")
    proc, _ = run_python("-c", script)
    assert proc.stderr == ""
    blocked = json.loads(proc.stdout)
    assert blocked["loaded"] == []
    assert blocked["runs"] == [[EXIT_OK, run(capsys, *argv)[1]]
                               for argv in SYMPY_FREE]


def test_bounded_table_of_a_bignum_field_prints_its_rows(capsys):
    code, out, err = run(capsys, "table", "--q", str(2 ** 64), "--max-k",
                         "10", "--format", "csv")
    assert (code, err) == (EXIT_OK, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "d", "odp", "i", "j", "beta", "N"]
    assert len(rows) - 1 == len(counting.enumerate_params(2, 64, 10))
    assert {int(row[0]) for row in rows[1:]} == set(range(11))
    assert all(0 <= int(row[-1]) <= math.comb(2 ** 64, int(row[0]))
               for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["table", "--q", "64"],
    ["count", "--q", "64", "--k", "4", "--d", "3", "--i", "1", "--j", "1"],
    ["verify", "--q", "5"],
    ["design", "--q", "7", "--k", "3", "--d", "3"],
], ids=" ".join)
def test_the_cli_admits_the_field_before_any_library_work(capsys,
                                                          monkeypatch, argv):
    calls = []

    def record(module, name):
        real = getattr(module, name)

        def recorded(*args):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, recorded)

    record(numtheory, "check_factored")
    for name in ("classes", "class_counts"):
        record(counting, name)
    record(cli, "ClassParams")
    assert run(capsys, *argv)[0] == EXIT_OK
    assert calls[0] == "check_factored"
    assert {"classes", "class_counts", "ClassParams"} & set(calls)


def _refusal(power):
    return (f"aglstab: budget exceeded: q = {power} is refused: q must be at "
            f"most 2^2048, and q - 1 must factor completely within "
            f"factorint's limit of {FACTOR_LIMIT}\n")


@pytest.mark.parametrize("argv,power", [
    (("--p", "2", "--alpha", "2049"), "2^2049"),
    (("--q", str(3 ** 1293)), "3^1293"),              # just past 2^2048
    # sympy's bounded factorint raises ValueError on this q - 1
    (("--p", "3", "--alpha", "1292"), "3^1292"),
])
def test_field_past_the_factoring_cap_exits_3(capsys, argv, power):
    assert 3 ** 1292 < MAX_FACTORED_Q == 2 ** 2048 < 3 ** 1293
    code, out, err = run(capsys, "table", *argv, "--max-k", "1")
    assert (code, out, err) == (EXIT_BUDGET, "", _refusal(power))


@pytest.mark.parametrize("p,alpha", [(2, 64), (3, 30), (5, 20), (2, 48),
                                     (2, 128)])
def test_q_minus_1_of_a_bignum_field_factors_within_the_limit(p, alpha):
    args = build_parser().parse_args(
        ["table", "--p", str(p), "--alpha", str(alpha)])
    assert _resolve_field(args) == (p, alpha)


def test_workers_rejected_by_every_subcommand(capsys):
    for argv in (["table", "--q", "9"],
                 ["count", "--p", "7", "--k", "3", "--d", "3", "--i", "1",
                  "--j", "0"],
                 ["verify", "--q", "5"],
                 ["design", "--q", "7", "--k", "3", "--d", "3"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--workers", "2"])
        assert exc.value.code == EXIT_INPUT, argv
        assert "--workers" in capsys.readouterr().err


#: every x in F_128 but 1, 2, 4, ..., 64 and 127: |S| = 1 and b = 16,256,
#: the largest design under MAX_DESIGN_BITS and the only one here whose
#: points have 3-digit labels
LARGEST_DESIGN = "--q 128 --subset " + ",".join(
    str(x) for x in range(128) if x not in (1, 2, 4, 8, 16, 32, 64, 127))

# SHA-256 of the stdout of `aglstab COMMAND`, keyed by the command line, its
# format included; each group names the implementation it was recorded from
GOLDEN_SHA256 = {
    # recorded from the per-(k, class) double-sum implementation that the
    # term tuples replaced
    "table --q 64 --format csv":
        "118d1c66930ebc573560cd046ca239b90dbbdad06e435654c4c8db9b460e4f12",
    "table --q 81 --format csv":
        "e77b78c13ace61d06602c0ae7e610b9c9792a3bd8de98a38e97702bfde7c7077",
    "table --q 97 --format csv":
        "5612dbca88cdf1bd96f5f62f31228a6087e8dcfd37d3ed5009e92924f70af992",
    "table --q 125 --format csv":
        "deb9969ff3e15604a59a1ee5e51e4940bdb5711f9ddea0c5654ab7bd1003ce9d",
    "table --q 243 --format csv":
        "f4e2ab8843a5f546be0922a10940d7850a59265dc2c7c27ac7d796992a35b04d",
    # larger fields, and one table that runs past q/2 to k = q, recorded
    # from the per-row term evaluation that the shared binomial columns
    # replaced
    "table --q 729 --format csv":
        "eb53a9787059ff21e67fedd7e7b6ea187b9e9cfa4078b5a44a5eceb261f8904e",
    "table --q 1021 --format csv":
        "9275dc79f5de0dcc9eecd975854feff405831433e448ea424a3b4896380e91ae",
    "table --q 1024 --format csv":
        "b8d25cbe6cfab58ecb4cba5ea369f11ce580345e651dca78fad5c87795b960cb",
    "table --p 3 --alpha 2 --max-k 9 --format csv":
        "69693956cf0b246bc6dbd0e96dff6f583efcc106dcbbb4ab0f9daa15a09b3e4b",
    # a q - 1 with few divisors prints its rows: recorded before the table
    # bounded its rows by the divisors of q - 1
    f"table --q {2 ** 64} --max-k 10 --format csv":
        "a41c66c88e52638f4ea0a7936d2dcdcb1234aac843d84d971c4a95ae6f5f3883",
    # the text form for larger fields and for a bignum field, recorded from
    # the row writer (one 7-tuple per row through ``_emit_rows``) that the
    # per-class line rendering replaced
    "table --q 729":
        "1378b9de8e980fe891af699c949186e923dd4a8ba4dc86dddb907f3359d78ef7",
    "table --q 1021":
        "aafc817b3f7e3e6e0a5df06b31aaa6802b1e95d1ff558cb64f153d11079481f9",
    "table --q 1024":
        "e6c171409ff036688247d6c8bd98cbf0eef220e285c02be96b6fb7e47da62494",
    f"table --q {2 ** 64} --max-k 10":
        "5e6a76d46ffb52cef480990fba938fb1ca3ddc10e371a39b154b1ed55bc0e31f",
    # recorded from the implementation that kept each row as a frozen
    # record
    "table --q 64 --format json":
        "c310d9fd1825ef6ae8ba300e8d002812ef6907a6c3e2cc62713b5185eb26aeb7",
    "table --q 64 --format text":
        "c7eeeb5b6430e1915738a36fc1d0c5d98877ef116ae2209fe52d60deb6a67769",
    "table --q 81 --format json":
        "73731d92de1d9ea1cb959caa06ff59735150031d302a1645a99e5a0c6af2c316",
    "table --q 81 --format text":
        "c61b61a4267afbdfd40de009960703b736a375909c30da9c95c7786ee80e8eb3",
    # recorded from the writer that renders every format class by class
    # from one row layout
    "table --q 1024 --format json":
        "a82e6886aeab51039456fa4c496810b1a0fd7277fa744b9e9d73cd97cd501da3",
    # recorded from the frozen-record implementation; the second tuple
    # has d = 1
    "count --p 7 --k 3 --d 3 --i 1 --j 0 --format csv":
        "76e144b2aabe4241126a6ae5b8fb389117c0b9929f165e34c48fa16d45649b76",
    "count --p 7 --k 3 --d 3 --i 1 --j 0 --format json":
        "c1a30cc4e0138890100812bd5c9e82f46e67a07713fdb1d830523148d35cbd37",
    "count --p 7 --k 3 --d 3 --i 1 --j 0 --format text":
        "cb92b4d6c32f9e2fcb252d2e291711a1cc02284b0e33cf5008c04e9707251c0d",
    "count --q 64 --k 16 --d 1 --i 2 --j 1 --format csv":
        "15cdf36540849f34f3d49cb65891ed21e6de943531334bcb24549973468e325c",
    "count --q 64 --k 16 --d 1 --i 2 --j 1 --format json":
        "9044cd7cbe439862b83755b76d8c93bc303e25dff0c07406644f4f0ff4f2f5c0",
    "count --q 64 --k 16 --d 1 --i 2 --j 1 --format text":
        "caaf576819cb175d74df7efc3d545c2aa381028933e4d40d0e741273d4cf1bcd",
    # recorded from the implementation that held incidence rows as per-bit
    # tuples
    "design --q 7 --k 3 --d 3 --format json":
        "95b18f327c1ac257f0ce7f9c99490969db68b1e48b99f31727af9bee680db8cd",
    "design --q 7 --k 3 --d 3 --format text":
        "3568f77ca93ac3811cb8a5315c2647c5b9f91270d7f20efb2bad09b304a5e42c",
    "design --q 7 --k 3 --d 3 --format csv":
        "71c4ef632939aa824705239a7b15f241075d8c647b4cf8cab9d2191b692d6117",
    "design --q 49 --k 8 --d 8 --format json":
        "5c0bbc2d748223b7afdfff898c31a32ad5eaa7966ec13848ef65f1cdc10164a8",
    "design --q 49 --k 8 --d 8 --format text":
        "216fe2a0fac2e668f3446e8b6162fd9cfe5e105fe22e0c62778563b9b7a97270",
    "design --q 49 --k 8 --d 8 --format csv":
        "e26c957ebe53eaa2f16d9fe082c7238c966ae8c3eeb87993108dfff30e8998b5",
    "design --q 16 --subset 0,1,2,4,8 --format json":
        "c9327d6bbb5afc640a5464d6be26752fcd94f546754b7e4e68046b0fefe93622",
    "design --q 16 --subset 0,1,2,4,8 --format text":
        "810d87f1e94111e0bebe83acafa20c25809e32643031c57bd43036d5c59b43b9",
    "design --q 16 --subset 0,1,2,4,8 --format csv":
        "b80c137a00ae3ea02739f13fef333806928a7f236dd11e739cee22c60477ff9a",
    "design --q 27 --subset 0,1,3,4,9,10,12 --format json":
        "0314286d20a913eb9c56d56cd4dd8a2c45e2114366ead9742b5078d2aed61192",
    "design --q 27 --subset 0,1,3,4,9,10,12 --format text":
        "13cee3941ad9307521b2edd0e07a4119c990fb15a51002fd0a5a6a3badcdfd2e",
    "design --q 27 --subset 0,1,3,4,9,10,12 --format csv":
        "94245b54d949106b4b612bbdca2f899f16ac24218975af0064271ac2e6ed3f27",
    "design --q 64 --subset 0,1,2,3,5,7,8,11,13,21,34,55 --format json":
        "816b2ba3d6f5bc28f6213c2c8944a40171ff030b3e63036114d5a92dcda126aa",
    "design --q 64 --subset 0,1,2,3,5,7,8,11,13,21,34,55 --format text":
        "2a3d9b684147d1ffce2cc307e1f4e134fd2bf8e45db7856293431ee98899f153",
    "design --q 64 --subset 0,1,2,3,5,7,8,11,13,21,34,55 --format csv":
        "edfd8e3ecd02c9a4e1c44d0b8b7ca77196e317df060b8e39254e3d23104e75d7",
    # v = 1024: a block spans 128 byte tables, past the 256 points of the
    # other designs; recorded from the writer that picked each block's
    # pieces by its bit string
    "design --q 1024 --k 1023 --d 1023 --format json":
        "918415818195f3337195fb31f8dfdf64f4a4b6d2edcd0abf29a81274b6fa2155",
    "design --q 1024 --k 1023 --d 1023 --format text":
        "18ec437774c971e8e1a654d0e83190be31066a94daff6234b61bf3870ddcd0fe",
    "design --q 1024 --k 1023 --d 1023 --format csv":
        "f5c0538610d013303c1fc16379dfb43b53254078c8a44d0c1665dbc9c43c73df",
    # recorded from the implementation that wrote the json through
    # json.dump (22,059,748 bytes of json)
    f"design {LARGEST_DESIGN} --format json":
        "e9cf58c2fe58c5efde0d1a5eba1eb18689c32fa4166e43b5a36581ba8b37257c",
    f"design {LARGEST_DESIGN} --format text":
        "8b5e4d6476241d826e9dd6a3c71903b782d2566c6293f4b5ccec3826e245b560",
    f"design {LARGEST_DESIGN} --format csv":
        "2c0ad1c49f43a20d791c3fca983f5a824adb34d2af93c82a923f8b8ff950b4a4",
    # a class witness, recorded from the writer that renders each design
    # from its block ints
    "design --q 64 --k 21 --d 21 --format json":
        "4cf4e0d6c6fdf46f4fce6c59d618424ae277dba8167b502a2d054e52ee309a89",
    # recorded from the map-by-map stabilizer scan that the bit-parallel
    # scan replaced (q <= 16) and from the per-candidate orbit-union scan
    # that the bit-sliced table replaced (q = 19 and 23, where that scan
    # took 11 s and 180 s on a 2-vCPU host)
    "verify --q 11 --format csv":
        "ad9bc77867c60405816a0276f698266d48f39e05cd7d2cf6d9efb693e88c0eef",
    "verify --q 13 --format csv":
        "7c0e767eca9448174990868c6facba6fd88b5523a2935aec8ce286f8036349e0",
    "verify --q 16 --format csv":
        "a480329a45583d08302b858edf6517a5bee4d5c27141bb13a10ef0857f2aaaaa",
    "verify --q 19 --format csv":
        "9498f28522050a0673b54880ab7837ba2c69b222f6e86322445201e50e8225fd",
    "verify --q 23 --format csv":
        "a007c3a5c95818075639d3f4382fed099d2c9a9e0e2fe913faa05d2e6e291547",
    # recorded from the implementation whose verify kept its own row writer
    "verify --q 11 --format json":
        "8e6d4f1d36b043c1158146b642026ba53d4cf43f27ee8297d315165ebe5c43d7",
    "verify --q 11 --format text":
        "b483f00fa9f30cb06a4db163eb0db23aa34f24a97a29b6221286542e1c0f6a02",
    "verify --q 16 --format json":
        "44df255cf1ccbcd87f4ad2adec085f7e2a1b6b401cb3c7f0f013544b3f15536c",
    "verify --q 16 --format text":
        "30deb51629d46a32477fd52e63edd1328b452dfb6e5fdc64b1219133d6f4bb03",
    # recorded while the brute-force budget still counted orbit unions off
    # the orbits.  A class whose 2**m orbit unions exceed the budget (the
    # trivial group here) scans its size-k ones one by one, a path that the
    # rows above do not reach
    "verify --q 25 --max-k 4 --format csv":
        "afb7aa31efb1d9076b84587314158f7a3c02d0d138812ccec1902874efdba1fb",
    "verify --q 27 --max-k 4 --format csv":
        "e2370acc21843f1e203c8f69e1c2fa58c9617bc89244bd968cc4512fd973d61f",
    # recorded from the supergroup join fold that the overgroup census
    # replaced; the brute force takes the trivial group's size-k unions one
    # by one here
    "verify --q 81 --max-k 2 --format csv":
        "6e3e78c7bc1d1187661cd57c0973c14ebaef7fa6024c47d7b5aafee974218a75",
}


@pytest.mark.parametrize("command", GOLDEN_SHA256, ids=argv_id)
def test_golden_digest(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (EXIT_OK, "")
    assert digest(out) == GOLDEN_SHA256[command]


def test_outputs_do_not_depend_on_the_hash_seed(monkeypatch):
    # each process draws its own str hash seed unless PYTHONHASHSEED fixes
    # it, so a set's order that reached stdout would differ between them
    for seed in ("0", "1"):
        monkeypatch.setenv("PYTHONHASHSEED", seed)
        for command in (
                "table --q 64 --format csv",
                "design --q 64 --subset 0,1,2,3,5,7,8,11,13,21,34,55 "
                "--format json",
                "verify --q 13 --format csv"):
            proc, _ = run_process(*command.split())
            assert (proc.returncode, proc.stderr) == (EXIT_OK, ""), command
            assert digest(proc.stdout) == GOLDEN_SHA256[command], command


def written_rows(p, alpha, k_max, fmt):
    """``build_table``'s rows through the row writer ``_emit_rows``."""
    out = io.StringIO()
    _emit_rows(CSV_COLUMNS, build_table(p, alpha, k_max), fmt, out)
    return out.getvalue()


@pytest.mark.parametrize("p,alpha", prime_powers(2, 256))
def test_table_lines_match_the_row_writer(capsys, p, alpha):
    # cmd_table renders every format class by class from the row layout
    # that the row writer uses
    q = p ** alpha
    for k_max in (None, 0, 1, q):
        bound = () if k_max is None else ("--max-k", str(k_max))
        for fmt in ("csv", "text", "json"):
            code, out, err = run(capsys, "table", "--q", str(q), *bound,
                                 "--format", fmt)
            assert (code, err) == (EXIT_OK, "")
            assert out == written_rows(p, alpha, k_max, fmt), (k_max, fmt)


@pytest.mark.parametrize("argv,field,k_max", [
    (("--q", str(2 ** 64), "--max-k", "10"), (2, 64), 10),
    (("--p", "3", "--alpha", "30", "--max-k", "5"), (3, 30), 5),
], ids=["2^64", "3^30"])
def test_bignum_table_lines_match_the_row_writer(capsys, argv, field, k_max):
    for fmt in ("csv", "text", "json"):
        code, out, err = run(capsys, "table", *argv, "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert out == written_rows(*field, k_max, fmt), fmt


def expected_design_json(F, S, mask):
    """``design --format json`` of the masked subset with stabilizer S, as
    ``json.dumps`` writes the reference record and the cli's extra keys."""
    params, matrix = designs.orbit_design(S, mask)
    code, words = designs.design_to_code(matrix)
    a2 = designs.a2_determinations(S, params.k)
    return reference_design_json(
        params, matrix, code, words, q=F.q, subset=list(mask_elements(mask)),
        stabilizer_order=S.order,
        johnson_equality=designs.johnson_check(code),
        a2={"n": a2.n, "d": a2.d, "w": a2.w, "value": a2.size}) + "\n"


@pytest.mark.parametrize("q", [7, 8, 9, 16, 25, 27, 32])
def test_design_json_equals_json_dumps_of_the_reference_record(capsys, q):
    p, alpha = numtheory.prime_power(q)
    F = Field(p, alpha)
    rng = random.Random(q)
    for k in sorted({2, max(3, q // 4), q // 2, q - 2}):
        mask = subset_mask(rng.sample(range(q), k))
        code, out, _ = run(capsys, "design", "--q", str(q), "--subset",
                           ",".join(map(str, mask_elements(mask))),
                           "--format", "json")
        assert code == EXIT_OK
        assert out == expected_design_json(F, oracle.stabilizer(F, mask),
                                           mask), mask
    # every class witness of every size with a positive count
    for d, i, j in counting.class_shapes(p, alpha):
        S = agl.class_representative(F, d, i, j)
        for k in range(2, q):
            if not counting.count_N(counting.ClassParams(p, alpha, k, d, i,
                                                         j)):
                continue
            code, out, _ = run(capsys, "design", "--q", str(q), "--k",
                               str(k), "--d", str(d), "--i", str(i), "--j",
                               str(j), "--format", "json")
            assert code == EXIT_OK
            mask = next(oracle.exact_orbit_unions(S, k))
            assert out == expected_design_json(F, S, mask), (d, i, j, k)


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
    code, out, err = run(capsys, "count", "--p", "2", "--alpha", "4",
                         "--k", "0", "--d", "1", "--i", "1", "--j", "4")
    assert code == EXIT_INPUT
    assert (out, err) == ("", "aglstab: error: j must satisfy 0 < j < 4 "
                              "when i < alpha/o_d(p), got 4\n")


# each input breaks two rules; the first rule checked names the error
@pytest.mark.parametrize("argv,message", [
    (("count", "--q", "11", "--k", "99", "--d", "3", "--i", "1", "--j", "0"),
     "k must lie in [0, 11], got 99"),
    (("design", "--q", "16", "--k", "40", "--d", "3"),
     "k must lie in [0, 16], got 40"),
    (("design", "--q", "16", "--k", "40", "--d", "4"),
     "no stabilizer class with d = 4"),
    (("design", "--q", "16", "--k", "40", "--d", "3", "--i", "9"),
     "no stabilizer class with d = 3 passes the --i/--j filter; its (i, j) "
     "are (1, 1), (2, 0), (2, 1)"),
    # past the map-scan cap too, which design checks after its input
    (("design", "--q", "65537", "--subset", "1,65537"),
     "subset elements must lie in [0, 65537)"),
    (("design", "--q", "8192", "--k", "2", "--d", "3"),
     "no stabilizer class with d = 3"),
    # on fields whose subset mask would not fit in memory
    *[(("design", "--q", str(q), "--subset", subset), message)
      for q in (2 ** 64, 3 ** 40)
      for subset, message in (
          ("5,5", "--subset lists 5 more than once"),
          (str(2 ** 64), f"subset elements must lie in [0, {q})"))],
])
def test_doubly_bad_input_reports_the_first_rule_checked(capsys, argv,
                                                         message):
    assert run(capsys, *argv) == (EXIT_INPUT, "",
                                  f"aglstab: error: {message}\n")


def test_verify_q7(capsys):
    code, out, _ = run(capsys, "verify", "--q", "7")
    assert code == EXIT_OK
    assert "PASS" in out
    # includes the (7,3,1) zero among the agreeing entries
    assert "FAIL" not in out


def test_verify_asks_each_route_through_its_entry(capsys, monkeypatch):
    calls = {"closed": [], "lattice": [], "brute": []}

    def counted(route, fn, key):
        def wrapper(*args, **kwargs):
            calls[route].append(key(*args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(counting.StabilizerClass, "count", counted(
        "closed", counting.StabilizerClass.count,
        lambda c, k: (c.d, c.i, c.j, k)))
    for route, name in (("lattice", "count_N_via_lattice"),
                        ("brute", "count_N_bruteforce")):
        monkeypatch.setattr(oracle, name, counted(
            route, getattr(oracle, name), lambda S, k: (*S.shape(), k)))
    code, out, _ = run(capsys, "verify", "--q", "7")
    assert code == EXIT_OK and "PASS" in out
    expected = [(c.d, c.i, c.j, k) for c in counting.classes(7, 1)
                for k in range(8)]
    assert calls == {route: expected for route in calls}


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


def test_verify_brute_force_past_q16(capsys):
    code, out, _ = run(capsys, "verify", "--q", "17")
    assert code == EXIT_OK
    assert "PASS" in out and "FAIL" not in out


def test_verify_budget_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--q", "1024")
    assert code == EXIT_BUDGET
    assert "budget" in err.lower() or "closure" in err.lower()


@pytest.mark.parametrize("q,unions", [(32, 10518300), (27, 13037895)])
def test_verify_checks_every_budget_before_its_first_scan(capsys, monkeypatch,
                                                          q, unions):
    # the first (class, k) over the budget, in scan order, refuses the
    # run before any representative is built or any count is scanned
    def forbidden(*args, **kwargs):
        raise AssertionError("verify scanned before checking its budget")

    monkeypatch.setattr(oracle, "count_N_bruteforce", forbidden)
    monkeypatch.setattr(agl, "class_representative", forbidden)
    assert run(capsys, "verify", "--q", str(q)) == (
        EXIT_BUDGET, "", f"aglstab: budget exceeded: {unions} orbit unions "
                         "exceed the budget of 10000000\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "8192", "--max-k", "-1"],
    ["verify", "--q", "8", "--max-k", "9"],
    ["table", "--q", "64", "--max-k", "65"],
    ["table", "--q", "64", "--max-k", "-1"],
], ids=" ".join)
def test_max_k_out_of_range_is_an_input_error(capsys, argv):
    # checked before the q cap of verify, so q = 8192 still exits 1
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == ""
    assert f"--max-k must lie in [0, {argv[2]}], got {argv[4]}" in err


def map_scan_refusal(q):
    return ("aglstab: budget exceeded: map scan needs q <= 4096, "
            f"got q = {q}\n")


def test_verify_past_the_q_cap_exits_3(capsys):
    code, out, err = run(capsys, "verify", "--q", "8192")
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == map_scan_refusal(8192)


def forbid_field_work(monkeypatch):
    def forbidden(*args):
        raise AssertionError("field work ran past the map-scan cap")

    monkeypatch.setattr(cli, "_field", forbidden)
    monkeypatch.setattr(agl, "class_representative", forbidden)


def test_verify_cap_fires_before_any_field_work(capsys, monkeypatch):
    forbid_field_work(monkeypatch)
    assert run(capsys, "verify", "--q", "8192") == (
        EXIT_BUDGET, "", map_scan_refusal(8192))


# 65536 would build its 2**16-element field first; 65537 has no field
# tables and exited 1 with the table cap's message
@pytest.mark.parametrize("q", [8192, 65536, 65537])
@pytest.mark.parametrize("flags", [("--k", "2", "--d", "1"),
                                   ("--subset", "1,2,3")], ids=" ".join)
def test_design_cap_fires_before_any_field_work(capsys, monkeypatch, q,
                                                flags):
    forbid_field_work(monkeypatch)
    assert run(capsys, "design", "--q", str(q), *flags) == (
        EXIT_BUDGET, "", map_scan_refusal(q))


# a mask holding q - 1 takes q bits, so the cap must come before it:
# building it first raised MemoryError on these fields
@pytest.mark.parametrize("q", [2 ** 64, 3 ** 40])
@pytest.mark.parametrize("subset", ["{top}", "3,{top}"],
                         ids=["top", "3,top"])
def test_bignum_subset_exits_3_before_its_mask(capsys, monkeypatch, q,
                                               subset):
    forbid_field_work(monkeypatch)
    assert run(capsys, "design", "--q", str(q), "--subset",
               subset.format(top=q - 1)) == (
        EXIT_BUDGET, "", map_scan_refusal(q))



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


def test_design_class_filter_error_names_the_filter(capsys):
    # d = 2 exists at q = 9, but no class with d = 2 has i = 7
    code, _, err = run(capsys, "design", "--q", "9", "--k", "3", "--d", "2",
                       "--i", "7")
    assert code == EXIT_INPUT
    assert "--i/--j filter" in err
    assert "(1, 1), (2, 0), (2, 1)" in err


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


@pytest.mark.parametrize("flags,named", [
    (["--k", "3"], "--k"),
    (["--d", "3"], "--d"),
    (["--i", "1"], "--i"),
    (["--j", "0"], "--j"),
    (["--k", "3", "--d", "3", "--i", "1", "--j", "0"],
     "--k, --d, --i, --j"),
    # no witness is searched, so a budget would be ignored
    (["--oracle-budget", "1"], "--oracle-budget")])
def test_design_subset_with_class_flags_is_an_input_error(capsys, flags,
                                                          named):
    code, out, err = run(capsys, "design", "--q", "7", "--subset", "1,2",
                         *flags)
    assert code == EXIT_INPUT
    assert out == ""
    assert f"--subset cannot be combined with {named}" in err


def test_design_refuses_a_repeated_subset_element(capsys):
    assert run(capsys, "design", "--q", "9", "--subset", "0,0,1") == (
        EXIT_INPUT, "", "aglstab: error: --subset lists 0 more than once\n")
    assert run(capsys, "design", "--q", "9", "--subset", "3,1,2,1,3")[2] == (
        "aglstab: error: --subset lists 1 more than once\n")
    # the order of the elements is not a repeat
    assert (run(capsys, "design", "--q", "9", "--subset", "1,0")
            == run(capsys, "design", "--q", "9", "--subset", "0,1"))


def test_byte_identical_reruns(capsys):
    for argv in (["table", "--q", "8", "--format", "csv"],
                 ["verify", "--q", "5", "--format", "json"],
                 ["design", "--q", "7", "--k", "3", "--d", "3",
                  "--format", "json"]):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


@pytest.mark.parametrize("argv", [
    ["verify", "--q", "5", "--oracle-budget", "-5"],
    ["design", "--q", "7", "--k", "3", "--d", "3", "--oracle-budget", "0"],
    ["verify", "--q", "5", "--oracle-budget", "many"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_oracle_budget_below_1_is_an_input_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("argument --oracle-budget: must be an integer of at least 1, "
            f"got {argv[-1]!r}") in captured.err


def test_conflicting_field_flags(capsys):
    code, _, err = run(capsys, "table", "--q", "8", "--p", "2")
    assert code == EXIT_INPUT
    assert "not both" in err


BAD_FIELDS = [(["--p", "4"], "p must be prime, got 4"),
              (["--p", "7", "--alpha", "0"], "alpha must be >= 1, got 0")]
SUBCOMMANDS = [["table"], ["count", "--k", "0", "--d", "1", "--i", "1",
                           "--j", "0"],
               ["verify"], ["design", "--k", "2", "--d", "1"]]


@pytest.mark.parametrize("flags,message", BAD_FIELDS)
@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda a: a[0])
def test_bad_field_exits_1_with_the_shared_message(capsys, argv, flags,
                                                   message):
    code, out, err = run(capsys, *argv, *flags)
    assert code == EXIT_INPUT
    assert (out, err) == ("", f"aglstab: error: {message}\n")


def test_design_witness_past_the_orbit_union_count_budget(capsys):
    # 348330136 orbit unions exceed the default budget, but the witness is
    # the second one scanned
    code, out, err = run(capsys, "design", "--q", "37", "--k", "10",
                         "--d", "1", "--i", "1", "--j", "0")
    assert (code, err) == (EXIT_OK, "")
    assert "johnson equality: 359640/9720 = 37: PASS" in out


def test_design_witness_scan_stops_at_the_budget(capsys):
    # the first orbit union {0, 1, 2} is fixed by x -> 2 - x, the second
    # is a witness
    argv = ["design", "--q", "11", "--k", "3", "--d", "1", "--i", "1",
            "--j", "0", "--oracle-budget"]
    code, out, err = run(capsys, *argv, "1")
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == ("aglstab: budget exceeded: no witness among the first 1 "
                   "orbit unions, the budget of 1\n")
    code, out, err = run(capsys, *argv, "2")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("q=11 subset=0,1,3 stabilizer order=1\n")


def test_design_scan_without_a_witness_is_an_internal_error(monkeypatch):
    # both orbit unions fit in the budget: a positive count without a
    # witness means the routes disagree
    monkeypatch.setattr(oracle, "is_exact_stabilizer", lambda S, mask: False)
    with pytest.raises(RuntimeError, match="a witness subset must exist"):
        main(["design", "--q", "7", "--k", "3", "--d", "3"])


def design_size_refusal(b, q):
    return (f"aglstab: budget exceeded: the design has {b} blocks of {q} "
            f"points, {b * q} codeword bits, over the limit of "
            f"{designs.MAX_DESIGN_BITS}\n")


def test_design_size_budget_follows_the_stabilizer_scan(capsys):
    # 62 MB of json in 9.3 s before the budget: |S| = 1, so b = q(q - 1)
    code, out, err = run(capsys, "design", "--q", "256", "--subset",
                         ",".join(map(str, range(1, 65))))
    assert (code, out, err) == (EXIT_BUDGET, "",
                                design_size_refusal(256 * 255, 256))


@pytest.mark.parametrize("flags", [("--k", "3", "--d", "3"),
                                   ("--subset", "1,2,4")], ids=" ".join)
def test_design_size_budget_is_checked_before_the_design(capsys, monkeypatch,
                                                         flags):
    # both give the 14 blocks of the order-3 class: 98 bits at q = 7
    monkeypatch.setattr(designs, "MAX_DESIGN_BITS", 98)
    code, out, _ = run(capsys, "design", "--q", "7", *flags)
    assert code == EXIT_OK and "design v=7 b=14" in out

    def forbidden(*args):
        raise AssertionError("the design was built past its budget")

    monkeypatch.setattr(designs, "MAX_DESIGN_BITS", 97)
    if flags[0] == "--k":
        monkeypatch.setattr(designs, "orbit_design", forbidden)
        monkeypatch.setattr(agl, "class_representative", forbidden)
    else:
        # orbit_design runs the check itself, before it builds any block
        monkeypatch.setattr(designs, "translate_masks", forbidden)
    assert run(capsys, "design", "--q", "7", *flags) == (
        EXIT_BUDGET, "", design_size_refusal(14, 7))


@pytest.mark.parametrize("k,message", [
    (0, "orbit designs need at least 2 points in the base subset"),
    (9, "the full point set gives a degenerate single-block orbit")],
    ids=["k=0", "k=q"])
def test_degenerate_k_is_refused_before_the_witness_scan(capsys, monkeypatch,
                                                         k, message):
    def forbidden(*args):
        raise AssertionError("a degenerate design reached the witness scan")

    monkeypatch.setattr(agl, "class_representative", forbidden)
    monkeypatch.setattr(oracle, "exact_orbit_unions", forbidden)
    assert run(capsys, "design", "--q", "9", "--k", str(k), "--d", "8") == (
        EXIT_INPUT, "", f"aglstab: error: {message}\n")


FULL_SET_REFUSAL = ("aglstab: error: the full point set gives a degenerate "
                    "single-block orbit\n")


@pytest.mark.parametrize("q", [9, 64])
def test_full_subset_is_refused_before_the_stabilizer_scan(capsys,
                                                            monkeypatch, q):
    # the scan runs over the empty complement, so it ANDs nothing: an AND
    # would read the empty list of translates and raise IndexError
    seen = []

    def translate_masks(field, mask):
        seen.append(mask)
        return []

    monkeypatch.setattr(ffield, "translate_masks", translate_masks)
    subset = ",".join(map(str, reversed(range(q))))
    assert run(capsys, "design", "--q", str(q), "--subset", subset) == (
        EXIT_INPUT, "", FULL_SET_REFUSAL)
    assert seen == [0]


DIVISOR_REFUSAL = (f"aglstab: budget exceeded: q = {2 ** 180} has at least "
                   "12582912 stabilizer classes, two for each divisor of "
                   "q - 1, over the limit of 10000000\n")


#: (10**29 + 319) * (3 * 10**30 + 91), a product of two primes
SEMIPRIME = (10 ** 29 + 319) * (3 * 10 ** 30 + 91)

# (command, exit code, exact stderr, wall seconds) of each refusal that
# must come at once in a process of its own, with nothing on stdout
REFUSALS = [
    (f"table --q {SEMIPRIME}", EXIT_INPUT, q_refusal(SEMIPRIME), 10),
    # 17 divides 10**3000 + 1, so it is a prime power only as a power of 17
    (f"table --q {10 ** 3000 + 1}", EXIT_INPUT, q_refusal(10 ** 3000 + 1),
     5),
    # the default --max-k of q // 2 = 2**63 on q = 2**64
    (f"table --q {2 ** 64}", EXIT_BUDGET,
     f"aglstab: budget exceeded: the table of q = {2 ** 64} up to "
     f"k = {2 ** 63} has 37985558454274872956 rows, over the limit of "
     "10000000\n", 10),
    # sympy's unbounded factorint ran past 15 s on both q - 1
    ("table --p 2 --alpha 1000 --max-k 2", EXIT_BUDGET, _refusal("2^1000"),
     5),
    ("count --p 3 --alpha 500 --k 0 --d 1 --i 500 --j 0", EXIT_BUDGET,
     _refusal("3^500"), 5),
    # 2^180 - 1 has 6,291,456 divisors; listing them and their orders ran
    # for minutes when the table counted its rows only after the classes
    ("table --p 2 --alpha 180 --max-k 1", EXIT_BUDGET, DIVISOR_REFUSAL, 5),
    # design --k/--d lists the classes to find --d; it ran past a minute
    # when only the table held the divisor bound
    ("design --p 2 --alpha 180 --k 2 --d 1", EXIT_BUDGET, DIVISOR_REFUSAL,
     5),
    # the admission holds the divisor bound, so a single count is refused
    # too; its k = 0 walk of 2^21 enlargements ran past 10 s
    ("count --p 2 --alpha 180 --k 0 --d 1 --i 180 --j 0", EXIT_BUDGET,
     DIVISOR_REFUSAL, 5),
    # every (class, k) is checked against the orbit-union budget before
    # the first scan
    ("verify --q 32", EXIT_BUDGET, "aglstab: budget exceeded: 10518300 "
     "orbit unions exceed the budget of 10000000\n", 10),
    # the witness scan over the maps is capped in q
    ("design --q 8192 --k 4 --d 1", EXIT_BUDGET, map_scan_refusal(8192), 5),
    # past the cap the subset's mask (here 2**64 bits) is never built
    (f"design --q {2 ** 64} --subset {2 ** 64 - 1}", EXIT_BUDGET,
     map_scan_refusal(2 ** 64), 5),
    # the class of order 2 was still running after 3.5 min at 681 MB RSS
    ("design --q 4096 --k 2 --d 1", EXIT_BUDGET,
     design_size_refusal(4096 * 4095 // 2, 4096), 5),
    # the witness scan over the 16.7 million maps ran 13.2 s before it
    ("design --q 4096 --k 0 --d 4095", EXIT_INPUT, "aglstab: error: orbit "
     "designs need at least 2 points in the base subset\n", 5),
    ("design --q 4096 --k 4096 --d 4095", EXIT_INPUT, FULL_SET_REFUSAL, 5),
    # the scan kept every one of the q(q - 1) maps: 54 s and 2,075 MiB
    # before the refusal
    ("design --q 4096 --subset " + ",".join(map(str, range(4096))),
     EXIT_INPUT, FULL_SET_REFUSAL, 5),
    # a smaller subset still meets the size budget after its scan
    ("design --q 4096 --subset 0", EXIT_BUDGET,
     design_size_refusal(4096, 4096), 5),
    # and so does its complement, whose scan runs over {0}: that of the
    # 4,095 points ANDed 16.7 million masks for 4.1 s before the refusal
    ("design --q 4096 --subset " + ",".join(map(str, range(1, 4096))),
     EXIT_BUDGET, design_size_refusal(4096, 4096), 2),
]


@pytest.mark.parametrize("command,code,stderr,bound", REFUSALS,
                         ids=[argv_id(row[0]) for row in REFUSALS])
def test_refusal_exits_at_once(command, code, stderr, bound):
    proc, seconds = run_process(*command.split(), timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr)
    assert seconds < bound


@contextlib.contextmanager
def any_int_digits():
    """Lift the digit limit of int <-> str (Python >= 3.10.7) for a block."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_count_of_more_than_4300_digits(capsys):
    code, out, err = run(capsys, "count", "--q", str(2 ** 64), "--k", "1000",
                         "--d", "1", "--i", "64", "--j", "0", "--format",
                         "csv")
    assert (code, err) == (EXIT_OK, "")
    header, row = out.splitlines()
    *head, digits = row.split(",")
    assert head == ["1000", "1", "1", "64", "0", "0"] and len(digits) == 16699
    with any_int_digits():
        assert int(digits) == counting.count_N(
            counting.ClassParams(2, 64, 1000, 1, 64, 0))


def test_table_with_counts_past_4300_digits():
    proc, _ = run_process("table", "--q", "14641", "--format", "csv")
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    # recorded from the csv.writer form of the row writer
    assert len(proc.stdout) == 49_314_018
    assert digest(proc.stdout) == (
        "e931a18aa34cee7d92ebe3cae1f70db891a0fcf9a64952b84dd589ec2f1d5dbd")
    rows = proc.stdout.splitlines()
    last = [int(x) for x in rows[-1].split(",")]
    k, d, _, i, j, _, n = last
    assert n == counting.count_N(counting.ClassParams(11, 4, k, d, i, j))
    widest = max(rows[1:], key=len).split(",")
    assert len(widest[-1]) == 4406
    k, d, _, i, j, _ = map(int, widest[:-1])
    with any_int_digits():
        assert int(widest[-1]) == counting.count_N(
            counting.ClassParams(11, 4, k, d, i, j))


def writer_rows(name):
    """(columns, rows) of one row set that ``_emit_rows`` writes."""
    kind, q = name.split("-")
    if kind == "count":
        cp = counting.ClassParams(2, 64, 1000, 1, 64, 0)
        return CSV_COLUMNS, [(cp.k, cp.d, cp.odp, cp.i, cp.j, cp.beta,
                              counting.count_N(cp))]
    p, alpha = numtheory.prime_power(int(q))
    if kind == "table":
        return CSV_COLUMNS, build_table(p, alpha)
    # as cmd_verify builds them, with the bool ok column last
    return VERIFY_COLUMNS, [
        (c.d, c.i, c.j, k, closed, lattice, brute, closed == lattice == brute)
        for c in counting.classes(p, alpha)
        for k, closed, lattice, brute in _verify_class(
            c, int(q), oracle.DEFAULT_SUBSET_BUDGET)]


@pytest.mark.parametrize("name", ["table-64", "table-729", "table-1024",
                                  "verify-7", "count-2^64"])
def test_row_writer_matches_csv_writer_and_joined_text(name):
    columns, rows = writer_rows(name)
    with any_int_digits():
        if name == "verify-7":
            assert {type(row[-1]) for row in rows} == {bool}
        if name == "count-2^64":
            assert len(str(rows[0][-1])) == 16699
        for fmt, reference in (("csv", csv_writer_rows), ("text", text_rows),
                               ("json", json_rows)):
            out = io.StringIO()
            _emit_rows(columns, rows, fmt, out)
            assert out.getvalue() == reference(columns, rows), fmt


def test_main_reuses_one_parser_without_leaking_defaults(capsys,
                                                         monkeypatch):
    assert build_parser() is build_parser()
    # usage lines wrap at the terminal width: pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    codes = []
    for argv in (["table", "--q", "12"],
                 ["table", "--q", "9", "--max-k", "3"],
                 ["table", "--q", "9"],
                 ["table", "--q", "9", "--unknown"],
                 ["table", "--q", "9", "--max-k", "3"]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        proc, _ = run_process(*argv)
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr), argv
        codes.append(code)
    assert codes == [EXIT_INPUT, EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_OK]


@pytest.mark.parametrize("argv", [
    ("table", "--q", "1024", "--format", "csv"),
    ("table", "--q", "1024"),
], ids=["csv", "text"])
def test_a_closed_stdout_ends_the_command_quietly(argv):
    # the reader takes one line and closes the pipe while the table, over
    # 200 kB, is still being written: more than a pipe buffers
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    # unbuffered, one large write into a pipe whose reader closes is cut
    # short without an error; keep the default buffered stream
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "aglstab.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first.startswith((b"k,", b"k=0 "))
    assert (proc.returncode, err) == (EXIT_CLOSED_PIPE, b"")


def test_main_into_a_string_buffer_writes_as_before():
    # perfbench runs main in-process with stdout redirected to a string
    # buffer, which main now flushes before it returns
    for fmt in ("csv", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["table", "--q", "64", "--format", fmt]) == EXIT_OK
        assert out.getvalue() == written_rows(2, 6, None, fmt)
    assert (digest(out.getvalue())
            == GOLDEN_SHA256["table --q 64 --format text"])


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [
    ["count", "--q", str(2 ** 64), "--k", "1000", "--d", "1", "--i", "64",
     "--j", "0"],
    ["count", "--q", "12", "--k", "0", "--d", "1", "--i", "1", "--j", "0"],
    ["table", "--q", str(2 ** 64)],
], ids=["ok", "input-error", "budget"])
def test_main_restores_the_int_digit_limit(capsys, argv):
    limit = sys.get_int_max_str_digits()
    main(argv)
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == limit


def test_design_scans_the_stabilizer_at_most_once(capsys, monkeypatch):
    calls = []
    scan = oracle.stabilizer

    def counted(field, mask):
        calls.append(mask)
        return scan(field, mask)

    monkeypatch.setattr(oracle, "stabilizer", counted)
    code, out, _ = run(capsys, "design", "--q", "7", "--subset", "1,2,4")
    assert code == EXIT_OK and "stabilizer order=3" in out
    assert calls == [0b10110]
    # a class witness is proven exact against S: no scan at all
    code, out, _ = run(capsys, "design", "--q", "7", "--k", "3", "--d", "3")
    assert code == EXIT_OK and "stabilizer order=3" in out
    assert calls == [0b10110]
