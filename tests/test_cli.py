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
# covering pairs and the commutation oracle to one table per suite call; the
# decompose records, whose action cells reach every classification the
# golden tables produce (diagram automorphism, trivial, -1 and reflection;
# C of order 2 in E8), were recorded before each cell was read off D's image
# summary on its space; the Goursat suite, the one command that reads a
# decomposition's echelon subspaces, was recorded while decompose still
# restricted D on them; the A8, B7, D7 and D8 tables, rows outside the golden
# fixtures, were recorded while each space and each image named its lines on
# its own; the E8 concept, graph, involution and section-8 records and the H4
# section-8 record, the largest Galois stacks, were recorded while each shape's
# complement and closure were looked up one shape at a time, each closure at
# an eliminated fixed space; the A9, A10, B8 and B9 tables, rows outside the
# golden fixtures where D reflects on X_perp by transpositions of simple
# roots, were recorded while D was still restricted to X_perp and Y_perp by
# pair products and every Galois row still summed orbits; the A17 and B16
# decompose records, whose line tables are 16 and 17 dimensional, were
# recorded while each table still searched a functional sum v_i t^i, trying
# one t at a time; the A15 2^8 decompose record, |D| = 40,320, was recorded
# while D was still restricted to X n Y by a pair product of every element
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
    ("verify H4 --suite galois", 0, "dec5fb2ac3b8b61879e3127998b8f4ddaabd51425b7c53a7a0a11091e816f27e"),
    ("verify E6 --suite galois", 0, "a327420a7542bdaa6bee5649a3d86755dd1678ecf413ae901f026fb9ef91d828"),
    ("verify D6 --suite galois", 0, "094152741d2380d0e4f50baebd311ba13981c044dc83232a2b9f118f1768db76"),
    ("verify A7 --suite galois", 0, "fda05dbc9ca5b92e8e1402aa4e631f02b368b3b82e2b831cc9c3060cb9adb9e7"),
    ("verify E7 --suite galois", 0, "721909c4945ff723870d4a939023cb9e2a93f7b16c1265ff139d1cdcadc24a6d"),
    ("verify E7 --suite section8", 0, "6065862be93d4aeb033dc1ecf1a0793783a98835c4003292e9c54938f37cc90d"),
    ("decompose A7 [3311] --format json", 0, "ebb3a10525dc00afa0c029ff87e207549c8a40c769ee24f8871596817b846b2c"),
    ("decompose A7 [2222] --format json", 0, "97462ce11ef7e90ef991b3e6727af9df020ef64fe2c754d28c6d8ecaeb30622d"),
    ("decompose D6 [321] --format json", 0, "a86ae563d3409096debce0bd0aab5e50850b03486d024d9b518fa7383a79bea8"),
    ("decompose E8 A4A1 --format json", 0, "85beeac354320c67f2a7f9061273acadfbb3f176585338e8f03c436c6c8e035a"),
    ("verify B5 --suite goursat", 0, "50514c3c02445808918e7d6d2855a6a2858e42415483027448287ae112c381ad"),
    ("table A8 --format json --allow-long", 0, "4f1db5da67b7c38efb84c683d9ef776788448402b6f099dcde990c119b753100"),
    ("table B7 --format json --allow-long", 0, "a7d211ad69800f0930b72bdadbab1267e650a3da62a54682824e667eaf2f4640"),
    ("table D7 --format json --allow-long", 0, "0746a08f5e21d429cd274a3543b5b90c05cd270eaf6a822fc20c4ae5bec7a77d"),
    ("table D8 --format json --allow-long", 0, "69e90bd1041e873e5f323d9a276081c251a15d03a566fea2239efae0c8f9c76e"),
    ("concepts E8", 0, "715fb164fdde0f495a83b056c7f85bc3893a3cd80125457b820403aafc4cdd3d"),
    ("graph E8", 0, "056fbe0968505950aca56ee6a1aa305f88445fa17683b94ec8f41fed18f32b8b"),
    ("involutions E8", 0, "7dd77dc2764a05ce019b10cd5a48aef4a6f438d1ff5c0a5cc70f1d389c5dbeaf"),
    ("verify E8 --suite section8", 0, "eb73cb6024dc7644cb88b80cbb508588de530e2a592c805ad1d0b3ce82cc90eb"),
    ("verify H4 --suite section8", 0, "122122cf2f951e31c026b62ee2540bd1cae92e26ac1deba422b5d962df7920b2"),
    ("table A9 --format json --allow-long", 0, "5d440126146477b476b56ac5721dddbe2ada831cf693830f0a715254bb2250d1"),
    ("table A10 --format json --allow-long", 0, "2e701df498cbcd25f934cc262df2c65013d5f0f9052cd68ef24c2ee3edc6f1a8"),
    ("table B8 --format json --allow-long", 0, "6a982cf49b2d571223d6a7df0539c48f46a3c5192565e3fa0cc6f73f6a59ae90"),
    ("table B9 --format json --allow-long", 0, "a028bd94e4db4e2ca63095a65cc790ba33569f32ab44411abd927761b9af2341"),
    ("decompose A17 s1,s3", 0, "be40be1a063c00ff1b37d66d39792ec7852361ee46a6107132e8221e38d83f38"),
    ("decompose B16 s2,s4,s6", 0, "c15ae9f8e0b62ff5b2731f41b8abc109603ae19f29c030fd6615908b087e4c48"),
    ("decompose A15 s1,s3,s5,s7,s9,s11,s13,s15 --format json", 0,
     "3e3fbad50b38f6ed8fa0436eaa4ffbafd0dd91a2480f516a2563d2b002f7d26f"),
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
# bond table, and must keep these bytes; A12 and D11 (with B10, the ranks at
# which the subset groupoid is most of a catalog) were recorded while the
# groupoid still kept w0 of every subset and a group element on every edge
PINNED_SHAPES = [
    ("E8", "8a6ae1c3c78ab6d711faf16b14e74ccbbd6c0e42bf3ab283e826d14f74b52083"),
    ("A10", "9a373a53d305f141045bafd5e05160b4628c5949f3cf2f4027ec57073922d2ac"),
    ("A12", "92428c788a3623bc6f8e4b037a20ff01a3ff45e1dc409809dd13eff6ee95ac38"),
    ("B10", "357e951baf1b9cb6ac1a2695eac956eb86a342e6f6c31bf9b4b27967554d9e20"),
    ("D10", "0ce546ccc6deb73a1427b30b5b09078fa786be432a08efce94e8f856f284a5cf"),
    ("D11", "84ba825069e65cebb92a06cb05f37fb96ddfc73354886188c32567621323bf1d"),
    ("H4", "183d947b2a47fd3b1a5dbca1db0d4da63e7ceb54350c63ecc1caed0607f2cbd0"),
    ("I2(11)", "c3fed6341ce649e443d20188e94c7a8299528acb9a3db6366aeea31ccdf9daff"),
]


@pytest.mark.parametrize("group, digest", PINNED_SHAPES)
def test_shape_catalogs_keep_their_stdout_bytes(group, digest):
    proc = subprocess.run([sys.executable, "-m", "coxnorm.cli", "shapes", group],
                          capture_output=True, timeout=120, env=ENV)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("alias, label", [("G2", "I2(6)"), ("H2", "I2(5)")])
def test_rank2_diagram_names_are_group_labels(alias, label):
    # G2 and H2 name the groups I2(6) and I2(5), and print as them
    assert run("shapes", alias) == run("shapes", label)
    code, out, err = run("decompose", alias, "1")
    assert (code, err) == (0, "") and out.startswith(f"group            {label}\n")


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


def test_ambiguous_selector_names_its_matches():
    code, out, err = run("decompose", "D4", "[22]")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0] == ("error: ambiguous selector '[22]': "
                        "matches (A1^2)+ [2 2], (A1^2)- [2 2]")
    assert lines[1] == "known shapes:"
    assert any(line.endswith("  (A1^2)+ [2 2]") for line in lines[2:])


def test_unknown_abstract_name_is_an_internal_error():
    # the A factor of D9 [5 3 1] acts by no reflection and has order 4,
    # which no abstract name covers yet
    assert run("decompose", "D9", "[531]") == (
        4, "", "internal error: no abstract type rule for order 4\n")


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


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader closes the pipe after one line; a one-page pipe leaves most of
    # the 7 KB catalog unwritten, so the command must meet the closed pipe
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "coxnorm.cli", "shapes", "A11"],
                            stdout=w, stderr=subprocess.PIPE, env=ENV)
    os.close(w)
    line = b""
    while not line.endswith(b"\n"):
        line += os.read(r, 1)
    os.close(r)
    err = proc.communicate(timeout=120)[1]
    assert line.startswith(b"index")
    assert proc.returncode == 141 and err == b""
