import hashlib
import importlib
import json
import os
import subprocess
import sys
import time

import pytest

from coxnorm import cli


# the subprocess imports the coxnorm package this test imported
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def run(*args, timeout=120):
    # a command that overruns raises subprocess.TimeoutExpired, failing the test
    proc = subprocess.run([sys.executable, "-m", "coxnorm.cli", *args],
                          capture_output=True, text=True, timeout=timeout, env=ENV)
    return proc.returncode, proc.stdout, proc.stderr


# sha256 of stdout, and the exit code, of commands on the Galois, section-8
# and oracle paths, which no golden table covers; recorded before the
# orthogonality table and the closure chains replaced the per-reflection
# complements, whose output these commands must keep byte for byte; the
# A7 and E7 suite pins were recorded before the antitone law moved to
# covering pairs and the commutation oracle to one table per suite call
PINNED_STDOUT = [
    ("verify F4 --suite galois", 0, "51d12af7263754ba544946bc076abb418495d1b1a7f12db31a4aa7626662a20e"),
    ("verify F4 --suite section8", 0, "3d69dad46ec034af6c322c720ca222d3d0895990a23f1e1235af40a3e61d8c8b"),
    ("verify F4 --suite oracle", 0, "7c4df8a3af9cc19cb119eaf7eafd4677bffe57f4b5ecfadee966c6ec8846efb9"),
    ("verify B6 --suite galois", 0, "dc1f87eb1ef00e7c90b9fe7e16c0c37028404f711eae898ae1bcda6e629bef09"),
    ("verify B6 --suite section8", 0, "f8e6c7061472c8162ff51bb280e5bcda6796b2dbb9e10f932bd8ae508a35fc23"),
    ("verify B6 --suite oracle", 0, "d9ff1cadb0c468cb16173a60e6e6a6e08ab45ec2648df4318d2e723b2cc9ded0"),
    ("concepts E7", 0, "b86066069e284e0a262fd27075d6f1bcbf30724abdadfcd7b746f4b153c81d2c"),
    ("graph E7", 0, "381b21ca22ae32c3e94f9b1f045c808c421f66a2c4ff02d43f590c8754d8063b"),
    ("involutions E7", 0, "b7ee9036434125614c8ca31e7a55c7af9ae7d717db1064e3649df30b46cc396a"),
    ("verify A7 --suite galois", 0, "fda05dbc9ca5b92e8e1402aa4e631f02b368b3b82e2b831cc9c3060cb9adb9e7"),
    ("verify E7 --suite galois", 0, "721909c4945ff723870d4a939023cb9e2a93f7b16c1265ff139d1cdcadc24a6d"),
    ("verify E7 --suite section8", 0, "6065862be93d4aeb033dc1ecf1a0793783a98835c4003292e9c54938f37cc90d"),
]


@pytest.mark.parametrize("command, code, digest", PINNED_STDOUT)
def test_lattice_commands_keep_their_stdout_bytes(command, code, digest):
    proc = subprocess.run([sys.executable, "-m", "coxnorm.cli", *command.split()],
                          capture_output=True, timeout=120, env=ENV)
    assert proc.returncode == code
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# sha256 of the stdout of `shapes G`, recorded while the standard root sets
# were still closed under reflections and the bonds read off permutation
# products; every catalog label now comes from the support rule and the
# bond table, and must keep these bytes
PINNED_SHAPES = [
    ("E8", "8a6ae1c3c78ab6d711faf16b14e74ccbbd6c0e42bf3ab283e826d14f74b52083"),
    ("A10", "9a373a53d305f141045bafd5e05160b4628c5949f3cf2f4027ec57073922d2ac"),
    ("B10", "357e951baf1b9cb6ac1a2695eac956eb86a342e6f6c31bf9b4b27967554d9e20"),
    ("D10", "0ce546ccc6deb73a1427b30b5b09078fa786be432a08efce94e8f856f284a5cf"),
    ("H4", "183d947b2a47fd3b1a5dbca1db0d4da63e7ceb54350c63ecc1caed0607f2cbd0"),
    ("I2(11)", "c3fed6341ce649e443d20188e94c7a8299528acb9a3db6366aeea31ccdf9daff"),
]


@pytest.mark.parametrize("group, digest", PINNED_SHAPES)
def test_shape_catalogs_keep_their_stdout_bytes(group, digest):
    proc = subprocess.run([sys.executable, "-m", "coxnorm.cli", "shapes", group],
                          capture_output=True, timeout=120, env=ENV)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_shapes_and_determinism():
    code1, out1, _ = run("shapes", "H4")
    code2, out2, _ = run("shapes", "H4")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical output for identical invocations
    assert "H2" in out1


def test_decompose_text_and_json():
    code, out, _ = run("decompose", "H3", "∅")
    assert code == 0 and "shape 6" in out and "|D|              1" in out
    code, out, _ = run("decompose", "E6", "A5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["Q_shape"] == 2 and data["D_order"] == 1
    assert list(data) == ["group", "shape_index", "P", "Q_shape", "D_order",
                          "A_type", "B_type", "C_order", "closure_shape",
                          "pq_closure_shape", "actions",
                          "involution_centralizer"]


def test_decompose_partition_selector():
    code, out, _ = run("decompose", "A7", "[2222]", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["D_order"] == 24 and data["A_type"] == "A3"


def test_decompose_repeated_simple_index_selects_it_once():
    single = run("decompose", "B3", "s2")
    assert single[0] == 0
    assert run("decompose", "B3", "s2,s2") == single
    assert run("decompose", "B3", "s1,s1,s1") == run("decompose", "B3", "s1")


def test_unknown_selector_exits_2_and_lists_catalog():
    code, out, err = run("decompose", "H3", "B9")
    assert code == 2
    assert "known shapes" in err and "H2" in err


def test_unknown_group_exits_2():
    code, _, err = run("shapes", "Q5")
    assert code == 2 and "label" in err


def test_e8_full_table_refused_without_flag():
    code, _, err = run("table", "E8")
    assert code == 3 and "--allow-long" in err
    code, _, err = run("verify", "E8", "--suite", "fixtures")
    assert code == 3 and "--allow-long" in err


@pytest.mark.parametrize("suite", ["goursat", "howlett", "oracle"])
def test_enumerating_suites_refused_above_the_brute_limit(suite):
    # E7 has order 2,903,040 > 10**6: refused before anything is enumerated
    start = time.perf_counter()
    code, out, err = run("verify", "E7", "--suite", suite, "--allow-long", timeout=10)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1000000" in err
    assert time.perf_counter() - start < 10


def test_table_f4_csv():
    code, out, _ = run("table", "F4", "--format", "csv")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 13  # header + 12 rows
    assert lines[-1].startswith("12,*,F4")


def test_concepts_h4():
    code, out, _ = run("concepts", "H4")
    assert code == 0
    rows = [l for l in out.strip().splitlines()[2:] if l]
    assert len(rows) == 5


def test_graph_dot():
    code, out, _ = run("graph", "A1", "--format", "dot")
    assert code == 0
    assert "shape=box" in out and "kind=closure" not in out  # rank 1: all closed
    code, out, _ = run("graph", "A2", "--format", "dot")
    assert out.count("kind=closure") == 1  # the A1 shape closes up to A2


def test_verify_fixtures_exit_codes():
    code, out, _ = run("verify", "H3", "--suite", "fixtures")
    assert code == 0
    code, _, err = run("verify", "H3", "--suite", "nosuch")
    assert code == 2


def test_missing_fixture_exits_2_with_one_line():
    # I2(31) has no golden table: a user error found before any work, not a
    # verification failure (exit 1) or a traceback
    code, out, err = run("verify", "I2(31)", "--suite", "fixtures")
    assert code == 2 and out == ""
    assert err == "error: no golden fixture for I2(31)\n"


def test_involutions_command():
    code, out, _ = run("involutions", "B3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert all(rec["centralizer_order"] * 1 for rec in data)


@pytest.mark.parametrize("command, module, function, error", [
    (["decompose", "B3", "1"], "coxnorm.normalizer", "decompose", RuntimeError),
    (["concepts", "B3"], "coxnorm.galois", "parabolic_concepts", ValueError),
])
def test_internal_error_exits_4_with_one_line(monkeypatch, capsys, command, module,
                                              function, error):
    def broken(*args, **kwargs):
        raise error("broken invariant")
    monkeypatch.setattr(importlib.import_module(module), function, broken)
    assert cli.main(command) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "internal error: broken invariant\n"
