"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
Tolerances are pinned here: golden table diffs allow zero mismatched cells;
the fast tier must finish under 60 s, the E7 table under 600 s and the E8
table under 30 s; concept lists and property suites are exact.
"""

import time

from coxnorm.galois import parabolic_concepts
from coxnorm.groups import generate, identity
from coxnorm.involutions import negated_roots
from coxnorm.normalizer import decompose, verify_theorem13
from coxnorm.parabolic import shape_catalog
from coxnorm.rootsys import build_root_system
from coxnorm.verify import (verify_fixtures, verify_galois, verify_goursat,
                            verify_howlett, verify_oracle, verify_section8)

from oracles import classical_complement_generators, close_roots


FAST_TABLES = ["A7", "B5", "B6", "D5", "D6", "E6", "F4", "H3", "H4",
               "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(9)", "I2(10)",
               "I2(11)", "I2(12)"]

RANK_LE_5 = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
             "D4", "D5", "F4", "H3", "H4",
             "I2(5)", "I2(6)", "I2(7)", "I2(8)", "I2(9)", "I2(10)",
             "I2(11)", "I2(12)"]

RANK_LE_6_PLUS = RANK_LE_5 + ["A6", "B6", "D6", "E6", "E7"]


def report(line, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {line}" + (f"  ({detail})" if detail else ""))
    return ok


def test_criterion_1_golden_tables_fast_tier():
    t0 = time.time()
    ok = True
    for name in FAST_TABLES:
        rep = verify_fixtures(build_root_system(name))
        if not rep["ok"]:
            ok = report(f"criterion 1: {name} golden diff", False,
                        str(rep["mismatches"][:4]))
    elapsed = time.time() - t0
    ok &= elapsed < 60
    assert report("criterion 1: golden table reproduction, fast tier "
                  f"({len(FAST_TABLES)} tables)", ok, f"{elapsed:.1f}s < 60s")


def test_criterion_2_e7_table():
    t0 = time.time()
    rep = verify_fixtures(build_root_system("E7"))
    elapsed = time.time() - t0
    ok = rep["ok"] and elapsed < 600
    assert report("criterion 2: E7 golden table (32 rows)", ok,
                  f"{elapsed:.1f}s < 600s"
                  + ("" if rep["ok"] else f"; {rep['mismatches'][:4]}"))


def test_criterion_3_e8_required_subset():
    rs = build_root_system("E8")
    catalog = shape_catalog(rs)
    ok = len(catalog) == 41
    shape = catalog.by_selector("A4A1")
    dec = decompose(rs, shape)
    ok &= dec.d_order == 2 and len(dec.C) == 2
    ok &= catalog[dec.q_index].type_label == "A2"
    ok &= dec.pq_closure_is_pq and not dec.pq_closure_is_w
    assert report("criterion 3: E8 catalog has 41 shapes and the A4A1 row "
                  "has |D| = 2 with C of order 2", ok)


def test_criterion_3_e8_golden_table():
    t0 = time.time()
    rep = verify_fixtures(build_root_system("E8"))
    elapsed = time.time() - t0
    ok = rep["ok"] and elapsed < 30
    assert report("criterion 3: E8 golden table (41 rows)", ok,
                  f"{elapsed:.1f}s < 30s"
                  + ("" if rep["ok"] else f"; {rep['mismatches'][:4]}"))


def _concepts_as_structured(rs):
    """Concepts as (stripped left type, stripped right type, same class)."""
    from coxnorm.oracle import _strip_decoration
    cat = shape_catalog(rs)
    out = []
    for i, j in parabolic_concepts(rs):
        li = _strip_decoration(cat[i].type_label)
        lj = _strip_decoration(cat[j].type_label)
        pi, pj = cat[i].partition, cat[j].partition
        out.append((tuple(sorted([(li, pi), (lj, pj)])), i == j))
    return sorted(out)


def _expected_a(n):
    # <W|0> and <A_m|A_l> with n = m + l + 1
    pts = n + 1

    def lam(m):
        return (m + 1,) + (1,) * (pts - m - 1) if m else (1,) * pts
    out = [(tuple(sorted([(f"A{n}", (pts,)), ("∅", (1,) * pts)])), False)]
    for m in range(1, n):
        l = n - m - 1
        if l < 1:
            continue
        left = (f"A{m}", lam(m))
        right = (f"A{l}", lam(l))
        pair = tuple(sorted([left, right]))
        item = (pair, m == l)
        if item not in out:
            out.append(item)
    return sorted(out)


def _block_label(fam, m, k):
    parts = []
    if m > 0:
        parts.append(f"{fam}{m}")
    if k > 0:
        parts.append("A1" + (f"^{k}" if k > 1 else ""))
    return "".join(parts) if parts else "∅"


def _expected_bd(fam, n):
    out = []
    ms = range(0, n + 1) if fam == "B" else [m for m in range(0, n + 1) if m != 1]
    for k in range(0, n // 2 + 1):
        for m in ms:
            l = n - m - 2 * k
            if l < 0 or l not in ms or m > l:
                continue
            if fam == "D" and m == 0 and l == 0:
                continue  # the n = 2k partitions carry signs, handled below
            left = (_block_label(fam, m, k), (2,) * k + (1,) * l)
            right = (_block_label(fam, l, k), (2,) * k + (1,) * m)
            out.append((tuple(sorted([left, right])), left == right))
    if fam == "D" and n % 2 == 0:
        k = n // 2
        lam = (2,) * k
        name = "A1" + (f"^{k}" if k > 1 else "")
        if k % 2 == 0:
            out.append((((name, lam), (name, lam)), True))
            out.append((((name, lam), (name, lam)), True))
        else:
            out.append((((name, lam), (name, lam)), False))
    if fam == "D" and n % 2 == 1:
        k = (n - 1) // 2
        lam = (2,) * k + (1,)
        name = "A1" + (f"^{k}" if k > 1 else "")
        out.append((((name, lam), (name, lam)), True))
    return sorted(out)


def _expected_exceptional(name):
    tables = {
        "E6": [("E6", "∅", False), ("A5", "A1", False), ("A2^2", "A2", False),
               ("A3", "A1^2", False)],
        "E7": [("E7", "∅", False), ("D6", "A1", False), ("A5", "A2", False),
               ("D4A1", "A1^2", False), ("A3A1", "A3", False),
               ("D4", "A1^3", False), ("A1^4", "A1^3", False)],
        "F4": [("F4", "∅", False), ("B3", "A1", False), ("B3", "A1", False),
               ("A2", "A2", False), ("A1^2", "A1^2", True), ("B2", "B2", True)],
        "H3": [("H3", "∅", False), ("A1^2", "A1", False)],
        "H4": [("H4", "∅", False), ("H3", "A1", False), ("A1^2", "A1^2", True),
               ("A2", "A2", True), ("H2", "H2", True)],
    }
    return sorted((tuple(sorted([a, b])), same) for a, b, same in tables[name])


def test_criterion_4_concepts():
    ok = True
    for n in range(1, 8):
        got = _concepts_as_structured(build_root_system(f"A{n}"))
        if got != _expected_a(n):
            ok = report(f"criterion 4: A{n} concepts", False, f"{got}")
    for fam, ns in [("B", range(2, 7)), ("D", range(4, 7))]:
        for n in ns:
            rs = build_root_system(f"{fam}{n}")
            got = _concepts_as_structured(rs)
            want = _expected_bd(fam, n)
            if got != want:
                ok = report(f"criterion 4: {fam}{n} concepts", False,
                            f"got {got} want {want}")
    for m in range(5, 13):
        rs = build_root_system(f"I2({m})")
        got = parabolic_concepts(rs)
        if m % 2 == 1:
            want = [(1, 3)]
        elif m % 4 == 0:
            want = [(1, 4), (2, 2), (3, 3)]
        else:
            want = [(1, 4), (2, 3)]
        if got != want:
            ok = report(f"criterion 4: I2({m}) concepts", False, str(got))
    for name in ["E6", "E7", "F4", "H3", "H4"]:
        rs = build_root_system(name)
        got = sorted((tuple(x[0] for x in pair), same)
                     for pair, same in _concepts_as_structured(rs))
        want = sorted((pair, same) for pair, same in _expected_exceptional(name))
        if got != want:
            ok = report(f"criterion 4: {name} concepts", False,
                        f"got {got}\nwant {want}")
    assert report("criterion 4: parabolic concepts exact for A(n<=7), "
                  "B(n<=6), D(n<=6), I2(5..12), E6, E7, F4, H3, H4", ok)


def test_criterion_5_shape_counts():
    partitions = [1, 1, 2, 3, 5, 7, 11, 15, 22]  # p(0..8)
    ok = True
    for n in range(1, 8):
        got = len(shape_catalog(build_root_system(f"A{n}")))
        ok &= got == partitions[n + 1]
    for n in range(2, 7):
        got = len(shape_catalog(build_root_system(f"B{n}")))
        ok &= got == sum(partitions[: n + 1])
    ok &= len(shape_catalog(build_root_system("D5"))) == 14
    ok &= len(shape_catalog(build_root_system("D6"))) == 26
    assert report("criterion 5: shape counts match the partition formulas", ok)


def test_criterion_6_howlett_suite():
    ok = True
    for name in RANK_LE_5:
        rep = verify_howlett(build_root_system(name))
        if not rep["ok"]:
            ok = report(f"criterion 6 (howlett): {name}", False, str(rep))
    assert report("criterion 6: Howlett complement laws, every standard "
                  "parabolic at rank <= 5 plus F4/H3/H4", ok)


def test_criterion_6_galois_suite():
    ok = True
    for name in RANK_LE_5:
        rep = verify_galois(build_root_system(name))
        if not rep["ok"]:
            ok = report(f"criterion 6 (galois): {name}", False, str(rep))
    assert report("criterion 6: Galois laws (antitone, extensive, "
                  "triple-perp, idempotent), rank <= 5 plus F4/H3/H4", ok)


def test_criterion_6_goursat_suite():
    ok = True
    for name in RANK_LE_5:
        rep = verify_goursat(build_root_system(name))
        if not rep["ok"]:
            ok = report(f"criterion 6 (goursat): {name}", False, str(rep))
    assert report("criterion 6: Goursat sections (G2 = P, H2 = Q, theta0 "
                  "well-defined), every shape at rank <= 5", ok)


def _order_product_and_normality(name):
    """|N| = |P||Q||A||B||C| and Theorem 13 on every shape of the group,
    reporting each failure."""
    ok = True
    rs = build_root_system(name)
    for shape in shape_catalog(rs):
        dec = decompose(rs, shape)
        if dec.n_order != (dec.p_order * dec.q_order * len(dec.A)
                           * len(dec.B) * len(dec.C)):
            ok = report(f"criterion 6 (orders): {name}/{shape.label}", False)
        rep = verify_theorem13(dec)
        if not rep["ok"]:
            ok = report(f"criterion 6 (normality): {name}/{shape.label}",
                        False, str(rep["witness"]))
    return ok


def test_criterion_6_order_product_and_normality():
    ok = all([_order_product_and_normality(name) for name in RANK_LE_6_PLUS])
    assert report("criterion 6: |N| = |P||Q||A||B||C| and PQAB normal of "
                  "index <= 2, every shape at rank <= 6 plus E6/E7/F4/H3/H4", ok)


def test_criterion_6_e8_order_product_and_normality():
    ok = len(shape_catalog(build_root_system("E8"))) == 41
    ok &= _order_product_and_normality("E8")
    assert report("criterion 6: |N| = |P||Q||A||B||C| and PQAB normal of "
                  "index <= 2, all 41 E8 shapes", ok)


def test_criterion_6_section8_suites():
    ok = True
    for name in RANK_LE_6_PLUS:
        rep = verify_section8(build_root_system(name))
        if not rep["checks"]["pq_closure_orthogonal_closure_is_w"]["ok"]:
            ok = report(f"criterion 6 (8.1): {name}", False)
        if not rep["checks"]["at_most_one_per_closure_group"]["ok"]:
            ok = report(f"criterion 6 (8.4 at-most-one): {name}", False)
        if not rep["checks"]["longest_element_conjugate_to_closure"]["ok"]:
            ok = report(f"criterion 6 (8.4 longest): {name}", False)
    for name in ["B4", "B5", "B6", "D4", "D6", "F4", "H3", "H4", "E7"]:
        rep = verify_section8(build_root_system(name))
        if not (rep["minus_one_central"] and rep["ok"]):
            ok = report(f"criterion 6 (8.4 -1-central): {name}", False, str(rep))
    assert report("criterion 6: closure-of-PQ-closure law and the "
                  "involution-centralizer observations", ok)


def test_criterion_6_oracle_equivalence():
    ok = True
    for name in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3",
                 "H4", "I2(5)", "I2(6)", "I2(7)", "I2(8)", "B5", "D5"]:
        rep = verify_oracle(build_root_system(name))
        if not rep["ok"]:
            ok = report(f"criterion 6 (oracle): {name}", False, str(rep))
    assert report("criterion 6: brute-force oracles agree with the fast "
                  "paths (rank <= 4 exhaustive, all shapes of B5/D5)", ok)


def _check_classical_shape(rs, shape):
    dec = decompose(rs, shape)
    gens = classical_complement_generators(rs, shape)
    roots = set()
    for g in gens.embedded("q"):
        roots |= negated_roots(g)
    q_roots = close_roots(rs, roots) if roots else frozenset()
    if q_roots != dec.Q.roots:
        return "Q"
    for name, want in (("a", dec.A), ("b", dec.B), ("c", dec.C)):
        g = gens.embedded(name)
        got = {identity(rs).key} if not g else {w.key for w in generate(g)}
        if got != {w.key for w in want}:
            return name.upper()
    return None


def test_criterion_7_classical_generators():
    ok = True
    groups = [f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 7)] \
        + ["D4", "D5", "D6"]
    for name in groups:
        rs = build_root_system(name)
        for shape in shape_catalog(rs):
            bad = _check_classical_shape(rs, shape)
            if bad:
                ok = report(f"criterion 7: {name}/{shape.label}", False, bad)
    assert report("criterion 7: explicit classical generators produce "
                  "exactly Q, A, B, C for every label of A(n<=7), B(n<=6), "
                  "D(n<=6)", ok)
