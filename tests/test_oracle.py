import pytest

from coxnorm import parabolic, rootsys
from coxnorm.diagrams import close_roots
from coxnorm.galois import orthogonal_complement
from coxnorm.normalizer import compute_table, normalizer
from coxnorm.oracle import (brute_normalizer, brute_orthogonal_complement,
                            commutation_table, diff_fixture, load_fixture,
                            parse_fixture)
from coxnorm.parabolic import (ReflectionSubgroup, shape_catalog,
                               standard_parabolic)
from coxnorm.rootsys import build_root_system
from coxnorm.verify import verify_galois, verify_oracle


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_fixture("# c\n1|*|0|-|1\n", "X")
    with pytest.raises(ValueError, match="duplicate index"):
        parse_fixture("1|*|0|-|1|1|W||||||\n1|*|A1|-|1|1|W||||||\n", "X")
    with pytest.raises(ValueError, match="line 1"):
        parse_fixture("1|*|0|[2x]|1|1|W||||||\n", "X")


def test_corrupted_cell_yields_single_diff():
    rs = build_root_system("H3")
    import importlib.resources as resources
    text = resources.files("coxnorm.fixtures").joinpath("h3.txt").read_text()
    bad = text.replace("4||A2|-|1|2|(4)|A1|||G2|A1|",
                       "4||A2|-|1|2|(4)|A1|||B2|A1|")
    assert bad != text
    fixture = parse_fixture(bad, "H3")
    result = diff_fixture(fixture, compute_table(rs), shape_catalog(rs))
    assert not result["ok"]
    assert result["mismatches"] == [
        {"row": 4, "column": "x_perp", "fixture": "B2", "computed": "G2"}]


def test_brute_normalizer_agreement():
    for name in ["B4", "D4"]:
        rs = build_root_system(name)
        from coxnorm.groups import generate
        W = generate(rs.simple_reflections())
        for shape in shape_catalog(rs):
            P = standard_parabolic(rs, shape.rep_subset)
            brute = {w.key for w in brute_normalizer(P, W)}
            fast = {w.key for w in normalizer(P)}
            assert brute == fast, shape.label


def test_brute_normalizer_agreement_on_non_standard_conjugates():
    from coxnorm.groups import generate
    from coxnorm.parabolic import standard_subset
    for name in ["B4", "D4"]:
        rs = build_root_system(name)
        W = list(generate(rs.simple_reflections()))
        tested = 0
        for shape in shape_catalog(rs):
            conjugates = (ReflectionSubgroup(rs, frozenset(int(w.img[i]) for i in shape.roots))
                          for w in W)
            P = next((P for P in conjugates if standard_subset(P) is None), None)
            if P is None:
                continue   # the trivial parabolic and W itself are normal
            brute = {x.key for x in brute_normalizer(P, W)}
            assert {x.key for x in normalizer(P)} == brute, shape.label
            tested += 1
        assert tested >= len(shape_catalog(rs)) - 2


def _commuting_reflections(U):
    """Reference: the positive roots t outside U whose reflection commutes
    with every reflection of U, one product of group elements at a time."""
    rs = U.rs
    refl = [rs.reflection(s) for s in U.pos]
    return [t for t in range(rs.npos) if t not in U.pos
            and all((rs.reflection(t) * r).key == (r * rs.reflection(t)).key for r in refl)]


def test_brute_orthogonal_complement_agreement():
    for name in ("B4", "F4", "H3", "I2(7)"):
        rs = build_root_system(name)
        table = commutation_table(rs)
        for mask in range(1 << rs.n):
            subset = tuple(i for i in range(rs.n) if mask >> i & 1)
            U = standard_parabolic(rs, subset)
            brute = brute_orthogonal_complement(U).roots
            assert brute == brute_orthogonal_complement(U, commute=table).roots
            assert brute == orthogonal_complement(U).roots
            assert brute == close_roots(rs, _commuting_reflections(U))


def test_commutation_oracle_ignores_the_orthogonality_table(monkeypatch):
    # on a fresh B4, mark root 1 orthogonal to simple root 0 in the table:
    # the fast complement of <s_0> goes wrong, the commutation oracle must not
    for module, cache in ((rootsys, "_CACHE"), (parabolic, "_catalogs"),
                          (parabolic, "_groupoids")):
        monkeypatch.setattr(module, cache, {})
    rs = build_root_system("B4")
    U = standard_parabolic(rs, (0,))
    want = brute_orthogonal_complement(U).roots
    assert not rs.orthogonal(0, 1)
    rs.orthogonality[0, 1] = True
    assert orthogonal_complement(U).roots != want
    assert brute_orthogonal_complement(U).roots == want
    route = verify_galois(rs)["checks"]["commutation_route_agrees"]
    check = verify_oracle(rs)["checks"]["orthogonal_complement"]
    assert route == check == {"ok": False, "witness": (0,)}


def test_brute_guard():
    rs = build_root_system("E7")
    P = standard_parabolic(rs, (0,))
    with pytest.raises(RuntimeError, match="too large"):
        brute_normalizer(P)


def test_fixture_loading_round_trip():
    fx = load_fixture("H4")
    assert len(fx.rows) == 10
    assert fx.rows[0].label == "0" and fx.rows[0].q_index == 10
