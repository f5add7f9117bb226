import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multishelf
from multishelf import cli, compose, make_table, right_trivial
from multishelf.cli import main
from multishelf.fixtures import BERMAN_SIGMA, BERMAN_TAU
from multishelf.formats import load_table, save_table, set_document, write_document
from multishelf.shelves import DistributiveSet


@pytest.fixture
def berman_dir(tmp_path):
    assert main(["fixtures", "berman-d6", "--out", str(tmp_path)]) == 0
    return tmp_path


def _python_m(*args):
    """Run ``python [args] -m multishelf ...`` in a fresh interpreter on this source tree."""
    src = str(Path(multishelf.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_python_m_multishelf():
    run = _python_m("-m", "multishelf", "fixtures", "list")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("berman-d6  sha256=")


def _imported(run) -> set[str]:
    """The modules a ``-X importtime`` run imported, from its stderr."""
    return {line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines() if line.startswith("import time:")}


def test_openssl_loaded_by_no_search_or_fixture_run(tmp_path):
    # hashlib loads OpenSSL (_hashlib). A search computes no checksum, so it
    # must import neither; fixture pins come from CPython's built-in SHA-256
    # module, so a run that checks them must not load OpenSSL either, and the
    # fixture listing must still print the pins. The records are
    # typing.NamedTuple classes, so the search imports neither dataclasses
    # nor the inspect module it pulls in.
    run = _python_m("-X", "importtime", "-m", "multishelf", "search", "--n", "3")
    assert run.returncode == 0, run.stderr
    imported = _imported(run)
    assert "multishelf.search" in imported
    assert "_hashlib" not in imported and "hashlib" not in imported
    assert "dataclasses" not in imported and "inspect" not in imported
    run = _python_m("-m", "multishelf", "fixtures", "list")
    assert run.returncode == 0, run.stderr
    assert "berman-d6  sha256=a8c6c94ea76f17d0775b460c36b712d3ce18821e7ae023971da1c897bc9f9cee" in run.stdout
    if not any(map(importlib.util.find_spec, ["_sha2", "_sha256"])):
        pytest.skip("this interpreter has no built-in SHA-256 module (_sha2 or _sha256), so pins need hashlib")
    for args in (
        ["-m", "multishelf", "fixtures", "list"],
        ["-m", "multishelf", "fixtures", "berman-d6", "--out", str(tmp_path)],
        ["-c", "from multishelf.fixtures import get_fixture; get_fixture('berman-d6')"],
    ):
        run = _python_m("-X", "importtime", *args)
        assert run.returncode == 0, run.stderr
        imported = _imported(run)
        assert "multishelf.fixtures" in imported
        assert "_hashlib" not in imported, args
    assert (tmp_path / "berman-d6.json").is_file()


# Each command with its required arguments, which parse without reading a file.
COMMAND_ARGS = {
    "fixtures": ["list"],
    "validate": ["--set", "s.json"],
    "compose": ["--ops", "a.json", "b.json"],
    "embed-regular": ["--group", "cyclic:3", "--out", "out"],
    "alpha": ["--op", "a.json"],
    "check-conjugation": ["--ops", "a.json", "b.json"],
    "search": ["--n", "3"],
    "homology": ["--set", "s.json", "--weights", "1,-1"],
}


def _parsed(parse, argv, capsys):
    """(stdout, stderr, exit code) of a parse that exits, as for help or a usage error."""
    with pytest.raises(SystemExit) as exit_:
        parse(argv)
    return (*capsys.readouterr(), exit_.value.code)


class TestOneCommandParser:
    # main builds only the parser of the command it runs; every usage
    # line, help text, error and exit code must be the full parser's.
    full = staticmethod(lambda argv: cli.build_parser(tuple(cli.COMMANDS)).parse_args(argv))

    def test_command_table_in_usage_order(self):
        assert list(COMMAND_ARGS) == list(cli.COMMANDS)

    @pytest.mark.parametrize("name", list(COMMAND_ARGS))
    def test_main_builds_one_command(self, monkeypatch, name):
        built, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda commands: built.append(commands) or build(commands))
        with pytest.raises(SystemExit):
            main([name, "--help"])
        assert built == [(name,)]
        assert list(build((name,))._subparsers._group_actions[0].choices) == [name]

    @pytest.mark.parametrize("name", list(COMMAND_ARGS))
    @pytest.mark.parametrize("case", ["help", "missing", "unrecognized"])
    def test_same_output_as_the_full_parser(self, capsys, name, case):
        required = COMMAND_ARGS[name]
        argv = {
            "help": [name, "--help"],
            "missing": [name, *required[2:]],  # the first required argument left out
            "unrecognized": [name, *required, "--bogus"],
        }[case]
        got, want = _parsed(main, argv, capsys), _parsed(self.full, argv, capsys)
        assert got == want
        out, err, code = want
        assert code == (0 if case == "help" else 2)
        assert (out.startswith(f"usage: multishelf {name} ") and not err) if case == "help" else (err and not out)
        if case == "missing":
            assert f"multishelf {name}: error: the following arguments are required: " in err
        if case == "unrecognized":  # reported by the top-level parser, with its usage line
            assert "{fixtures,validate,compose,embed-regular,alpha,check-conjugation,search,homology}" in err
            assert err.endswith("multishelf: error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("name", list(COMMAND_ARGS))
    def test_same_namespace_as_the_full_parser(self, name):
        argv = [name, *COMMAND_ARGS[name]]
        assert cli.build_parser((name,)).parse_args(argv) == self.full(argv)

    def test_top_level_runs_the_full_parser(self, capsys):
        out, err, code = _parsed(main, ["--help"], capsys)
        assert (err, code) == ("", 0) and all(f"    {name}" in out for name in COMMAND_ARGS)
        out, err, code = _parsed(main, [], capsys)
        assert (out, code) == ("", 2)
        assert err.endswith("multishelf: error: the following arguments are required: command\n")
        out, err, code = _parsed(main, ["nosuch"], capsys)
        assert (out, code) == ("", 2)
        assert "multishelf: error: argument command: invalid choice: 'nosuch'" in err
        for argv in (["--help"], [], ["nosuch"], ["-h", "search"]):
            assert _parsed(main, argv, capsys) == _parsed(self.full, argv, capsys)


class TestFixturesCommand:
    def test_writes_exact_tables(self, berman_dir):
        assert load_table(berman_dir / "tau.json") == BERMAN_TAU
        assert load_table(berman_dir / "sigma.json") == BERMAN_SIGMA
        doc = json.loads((berman_dir / "berman-d6.json").read_text())
        assert doc["n"] == 6 and len(doc["ops"]) == 2

    def test_list(self, capsys):
        assert main(["fixtures", "list"]) == 0
        out = capsys.readouterr().out
        assert "berman-d6" in out and "sha256=" in out

    def test_stdout_mode(self, capsys):
        assert main(["fixtures", "xor"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ops"] == [[[0, 1], [1, 0]]]

    def test_unknown(self, capsys):
        assert main(["fixtures", "nope"]) == 1
        err = capsys.readouterr().err
        assert err == "error: unknown fixture 'nope', have ['berman-d6', 'xor']\n"


class TestValidateCommand:
    def test_berman_valid(self, berman_dir, capsys):
        assert main(["validate", "--set", str(berman_dir / "berman-d6.json")]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_xor_invalid_with_witness(self, tmp_path, capsys):
        assert main(["fixtures", "xor", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["validate", "--set", str(tmp_path / "xor.json")]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"valid": False, "pair": [0, 0], "witness": [0, 0, 1]}

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text, message in (
            ("{", "invalid JSON"),
            ('{"n": -3, "ops": []}', "field 'n': carrier size must be >= 1, got -3"),
        ):
            bad.write_text(text)
            assert main(["validate", "--set", str(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["validate", "--set", "missing.json"]) == 1
        assert capsys.readouterr().err == "error: missing.json: No such file or directory\n"


class TestComposeCommand:
    def test_tau_tau_identity(self, berman_dir, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(
            [
                "compose",
                "--ops",
                str(berman_dir / "tau.json"),
                str(berman_dir / "tau.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert load_table(out) == right_trivial(6)

    def test_carrier_mismatch_names_files(self, berman_dir, capsys):
        assert main(["fixtures", "xor", "--out", str(berman_dir)]) == 0
        capsys.readouterr()
        xor, tau = str(berman_dir / "op0.json"), str(berman_dir / "tau.json")
        assert main(["compose", "--ops", xor, tau]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --ops {xor} {tau}: carrier mismatch: 2 vs 6\n"


class TestEmbedRegularCommand:
    def test_cyclic_3(self, tmp_path, capsys):
        out = tmp_path / "embed"
        assert main(["embed-regular", "--group", "cyclic:3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verification"] == {"distributive": True, "inverse_images": True}
        tables = [load_table(out / f) for f in manifest["images"]]
        assert tables[0] == right_trivial(3)
        assert len(tables) == 3

    def test_bad_group_spec_names_argument(self, tmp_path, capsys):
        assert main(["embed-regular", "--group", "cyclic:x", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --group cyclic:x: invalid literal for int()")

    def test_missing_group_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["embed-regular", "--group", "cyclic3", "--out", "out"]) == 1
        assert capsys.readouterr().err == "error: cyclic3: No such file or directory\n"

    def test_symmetric_3(self, tmp_path, capsys):
        out = tmp_path / "s3"
        assert main(["embed-regular", "--group", "symmetric:3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["images"]) == 6


class TestAlphaCommand:
    def test_prints_columns(self, berman_dir, capsys):
        assert main(["alpha", "--op", str(berman_dir / "tau.json")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "1 0 3 2 5 4"
        assert len(lines) == 6

    def test_noninvertible(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        save_table(make_table(2, [[0, 0], [0, 1]]), path)
        assert main(["alpha", "--op", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --op {path}: alpha requires an invertible table: column 0 is not a permutation\n"
        )


class TestCheckConjugationCommand:
    def test_berman_pair_holds(self, berman_dir, capsys):
        code = main(
            [
                "check-conjugation",
                "--ops",
                str(berman_dir / "tau.json"),
                str(berman_dir / "sigma.json"),
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_xor_fails(self, tmp_path, capsys):
        assert main(["fixtures", "xor", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        xor = str(tmp_path / "op0.json")
        assert main(["check-conjugation", "--ops", xor, xor]) == 1
        assert json.loads(capsys.readouterr().out)["holds"] is False

    def test_size_mismatch_names_files(self, berman_dir, capsys):
        assert main(["fixtures", "xor", "--out", str(berman_dir)]) == 0
        capsys.readouterr()
        xor, tau = str(berman_dir / "op0.json"), str(berman_dir / "tau.json")
        assert main(["check-conjugation", "--ops", xor, tau]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --ops {xor} {tau}: size mismatch: 2 vs 6\n"

    def test_noninvertible_names_files(self, berman_dir, capsys):
        tau, proj = str(berman_dir / "tau.json"), str(berman_dir / "proj.json")
        save_table(make_table(2, [[0, 0], [0, 1]]), proj)
        assert main(["check-conjugation", "--ops", tau, proj]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --ops {proj}: alpha requires an invertible table: column 0 is not a permutation\n"
        )


class TestSearchCommand:
    def test_n3_certificate(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["search", "--n", "3", "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["conclusion"] == "commutative-only"

    def test_n6_seeded(self, berman_dir, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            [
                "search",
                "--n",
                "6",
                "--seed-pair",
                str(berman_dir / "tau.json"),
                str(berman_dir / "sigma.json"),
                "--report",
                str(report),
            ]
        )
        assert code == 1
        doc = json.loads(report.read_text())
        assert doc["conclusion"] == "nonabelian-found"
        assert doc["nonabelian_groups"][0]["closure_order"] == 6

    def test_budget_partial(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["search", "--n", "3", "--budget", "0", "--report", str(report)]) == 2
        assert json.loads(report.read_text())["conclusion"] == "partial"

    def test_budget_holds_at_n6(self, tmp_path):
        # an unseeded n = 6 search takes about 0.4 s; the budget stops it long before
        report = tmp_path / "r.json"
        start = time.monotonic()
        code = main(["search", "--n", "6", "--budget", "0.05", "--report", str(report)])
        assert time.monotonic() - start < 1.0
        assert code == 2
        assert json.loads(report.read_text())["conclusion"] == "partial"

    def test_nan_budget_rejected(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["search", "--n", "3", "--budget", "nan", "--report", str(report)]) == 1
        assert not report.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --budget nan: budget=nan ")

    def test_negative_budget_rejected(self, tmp_path, capsys):
        # before, --budget -1 ran and reported "partial" with exit 2
        report = tmp_path / "r.json"
        assert main(["search", "--n", "3", "--budget", "-1", "--report", str(report)]) == 1
        assert not report.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --budget -1.0: budget=-1.0 ")

    @pytest.mark.parametrize("n", ["0", "-2", "7"])
    def test_size_out_of_range(self, n, capsys):
        assert main(["search", "--n", n]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --n {n}: n={n} outside [1, 6]\n"

    def test_seed_pair_carrier_mismatch(self, tmp_path, capsys):
        path = tmp_path / "rt3.json"
        save_table(right_trivial(3), path)
        assert main(["search", "--n", "6", "--seed-pair", str(path), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed-pair {path}: seed pair table has carrier 3, but n=6\n"

    def test_seed_pair_not_a_rack(self, tmp_path, capsys):
        path = tmp_path / "const.json"
        save_table(make_table(2, [[0, 0], [0, 0]]), path)
        rt = tmp_path / "rt2.json"
        save_table(right_trivial(2), rt)
        assert main(["search", "--n", "2", "--seed-pair", str(rt), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --seed-pair {path}: seed pair table 1 is not invertible: column 0 is not a permutation\n"
        )

    def test_report_byte_identical(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["search", "--n", "3", "--report", str(r1)])
        main(["search", "--n", "3", "--report", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()


class TestHomologyCommand:
    def test_right_trivial(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        write_document(set_document(DistributiveSet(2, (right_trivial(2),))), path)
        assert main(["homology", "--set", str(path), "--weights", "1", "--max-degree", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["groups"][0] == {"degree": 0, "free_rank": 1, "torsion": []}
        assert "convention" in doc and "basis_order" in doc

    def test_berman(self, berman_dir, tmp_path):
        out = tmp_path / "h.json"
        code = main(
            [
                "homology",
                "--set",
                str(berman_dir / "berman-d6.json"),
                "--weights",
                "1,-1",
                "--max-degree",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["groups"]) == 2

    def test_out_does_not_carry_over(self, berman_dir, tmp_path, capsys):
        # main reuses one parser per process: an --out given to one call is
        # not a default of the next
        out = tmp_path / "h.json"
        args = ["homology", "--set", str(berman_dir / "berman-d6.json"), "--weights", "1,-1", "--max-degree", "2"]
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        written = out.read_text()
        out.unlink()
        assert main(args) == 0
        assert capsys.readouterr().out == written
        assert not out.exists()

    @pytest.mark.parametrize(
        "weights, digest",
        [
            ("1,-1", "fb4390e5d59dceec6706663b8b194d6023d26a6a05752a94dc6666cb4d29cda4"),
            ("1,1", "91c5b72d877c5b81d08f0ee070c59daf9fdd086b7ec0566938ca52a89e7bfd58"),
            ("2,5", "6bc4149b6f2dd9f1a4614e2383794af496b9b4a9fe698f3c5c0416a135bcd898"),
        ],
    )
    def test_berman_document_bytes_pinned(self, berman_dir, tmp_path, weights, digest):
        # sha256 of the written file: a faster homology kernel must leave
        # every byte of the document as it is
        out = tmp_path / "h.json"
        berman = str(berman_dir / "berman-d6.json")
        assert main(["homology", "--set", berman, "--weights", weights, "--max-degree", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_bad_weights_names_argument(self, berman_dir, capsys):
        code = main(
            ["homology", "--set", str(berman_dir / "berman-d6.json"), "--weights", "1,x"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --weights 1,x: invalid literal for int()")

    def test_weight_count_names_argument(self, berman_dir, capsys):
        code = main(
            ["homology", "--set", str(berman_dir / "berman-d6.json"), "--weights", "1,1,1"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --weights 1,1,1: 3 weights for 2 operations\n"

    def test_negative_max_degree_names_argument(self, berman_dir, capsys):
        code = main(
            [
                "homology",
                "--set",
                str(berman_dir / "berman-d6.json"),
                "--weights",
                "1,-1",
                "--max-degree",
                "-1",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --max-degree -1: max_degree must be >= 0\n"

    def test_dim_budget_names_arguments(self, berman_dir, capsys):
        berman = str(berman_dir / "berman-d6.json")
        code = main(
            ["homology", "--set", berman, "--weights", "1,-1", "--max-degree", "3", "--dim-budget", "100"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --max-degree 3 --dim-budget 100: chain dimension 1296 exceeds budget 100\n"
        )
