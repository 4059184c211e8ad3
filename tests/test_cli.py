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
