"""Verification suites: executable checks behind `verify` and the test suite.

Each function returns a report dict with an "ok" flag and per-check details;
they are exhaustive over the stated objects, never sampled.
"""

from __future__ import annotations

import itertools

import numpy as np

from .galois import orthogonal_closure, orthogonal_complement
from .groups import BRUTE_LIMIT, generate, relative_length
from .involutions import pq_closures, section8_checks
from .normalizer import (compute_table, decompose, goursat_sections,
                         normalizer, normalizer_order, verify_theorem13)
from .oracle import (brute_orthogonal_complement, commutation_table,
                     diff_fixture, load_fixture, normalizing, positive_images)
from .parabolic import ReflectionSubgroup, shape_catalog, standard_parabolic


def _standard_subsets(rs):
    n = rs.n
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def verify_galois(rs) -> dict:
    """Galois laws for the orthogonality connection, over standard parabolics.

    Each subset's chain u, perp u, perp^2 u, perp^3 u, perp^4 u is computed
    once, and the laws on it are checked as it is made; a law's witness is
    its first failing subset in ``_standard_subsets`` order.  Antitony holds
    on all pairs iff it holds on the covering pairs J < J + {i}, so only
    those are checked; when one fails, the pairs are walked in
    ``itertools.combinations`` order for the first failing pair.  The
    commutation oracle reads one commutation table, built per call.
    """
    report = {"group": str(rs.label), "checks": {}}
    subs = {s: standard_parabolic(rs, s) for s in _standard_subsets(rs)}
    perp = {}
    first = dict.fromkeys(("extensive", "triple_perp", "closure_idempotent"))
    for s, u in subs.items():
        chain = [u.roots]   # chain[k] is the root set of perp^k u
        Q = u
        for _ in range(4):
            Q = orthogonal_complement(Q)
            chain.append(Q.roots)
        perp[s] = chain[1]
        holds = {"extensive": chain[0] <= chain[2], "triple_perp": chain[3] == chain[1],
                 "closure_idempotent": chain[2] == chain[4]}
        for law, ok in holds.items():
            if not ok and first[law] is None:
                first[law] = s

    def record(law, bad):
        report["checks"][law] = {"ok": bad is None, "witness": bad}

    record("extensive", first["extensive"])
    subsets = list(subs)   # subsets[mask] has the members of mask
    bad = None
    if not all(perp[subsets[mask | 1 << i]] <= perp[s]
               for mask, s in enumerate(subsets) for i in range(rs.n) if not mask >> i & 1):
        for s1, s2 in itertools.combinations(subsets, 2):
            small, big = (s1, s2) if set(s1) <= set(s2) else (s2, s1)
            if set(small) <= set(big) and not perp[big] <= perp[small]:
                bad = (small, big)
                break
    record("antitone", bad)
    record("triple_perp", first["triple_perp"])
    record("closure_idempotent", first["closure_idempotent"])

    if rs.group_order <= BRUTE_LIMIT:
        commute = commutation_table(rs)
        record("commutation_route_agrees", next(
            (s for s, u in subs.items()
             if brute_orthogonal_complement(u, commute).roots != perp[s]), None))

    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def verify_howlett(rs) -> dict:
    """Howlett complements for every standard parabolic: N = P x| H exactly."""
    report = {"group": str(rs.label), "checks": {}}
    W = list(generate(rs.simple_reflections()))
    images = positive_images(W)
    bad = None
    for subset in _standard_subsets(rs):
        P = standard_parabolic(rs, subset)
        N = [W[i] for i in np.flatnonzero(normalizing(P, images))]
        H = [w for w in N if relative_length(w, P.pos) == 0]
        P_group = list(generate(P.simple_reflections(), rs=rs))
        P_keys = {w.key for w in P_group}
        H_keys = {w.key for w in H}
        inter = P_keys & H_keys
        prod = {(p * h).key for p in P_group for h in H}
        ok = (len(inter) == 1
              and len(prod) == len(N)
              and len(P_keys) * len(H_keys) == len(N))
        if ok:
            pos = P.pos
            npos = rs.npos
            for h in H:
                if any(int(h.img[i]) >= npos for i in pos):
                    ok = False
                    break
            if ok:
                for h in H:
                    hinv = h.inverse()
                    for p in P_group:
                        if relative_length((hinv * p) * h, pos) != relative_length(p, pos):
                            ok = False
                            break
                    if not ok:
                        break
        if not ok:
            bad = subset
            break
    report["checks"]["complement"] = {"ok": bad is None, "witness": bad}
    report["ok"] = bad is None
    return report


def verify_goursat(rs) -> dict:
    """Goursat sections of N inside O(X_perp) x O(X), for every shape."""
    report = {"group": str(rs.label), "checks": {}}
    catalog = shape_catalog(rs)
    bad_sections = None
    bad_order = None
    bad_normal = None
    for shape in catalog:
        dec = decompose(rs, shape)
        if dec.n_order != dec.p_order * dec.q_order * len(dec.A) * len(dec.B) * len(dec.C):
            bad_order = shape.label
            break
        rep = verify_theorem13(dec)
        if not rep["ok"]:
            bad_normal = (shape.label, rep["witness"])
            break
        if not rs.is_vector:  # the sections compare coordinate restriction matrices
            continue
        N = normalizer(dec.P)
        xperp, mid, yperp = dec.spaces
        X = dec.P.witness
        sec = goursat_sections(N, xperp, X, complement=dec.D)
        g2 = {w.key for w in sec.kernels[0]}
        h2 = {w.key for w in sec.kernels[1]}
        p_keys = {w.key for w in generate(dec.P.simple_reflections(), rs=rs)}
        q_keys = {w.key for w in generate(dec.Q.simple_reflections(), rs=rs)}
        theta = {}
        ok = g2 == p_keys and h2 == q_keys
        if ok and sec.complements:
            for m1, m2 in zip(*sec.complements):
                if m1 in theta and theta[m1] != m2:
                    ok = False
                    break
                theta[m1] = m2
            if ok and len(theta) != len(set(theta.values())):
                ok = False
            if ok and len(theta) != len(dec.D):
                ok = False
        if not ok:
            bad_sections = shape.label
            break
    report["checks"]["order_product"] = {"ok": bad_order is None, "witness": bad_order}
    report["checks"]["pqab_normal_index2"] = {"ok": bad_normal is None, "witness": bad_normal}
    report["checks"]["sections"] = {"ok": bad_sections is None, "witness": bad_sections}
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def verify_section8(rs) -> dict:
    """Observation suite plus the closure-of-PQ-closure law.

    The parabolic closure of PQ is computed once per shape and read by both.
    """
    pq_closure = pq_closures(rs)
    report = section8_checks(rs, pq_closure)
    bad = next((shape.label for shape in shape_catalog(rs)
                if len(orthogonal_closure(pq_closure[shape.index]).roots) != rs.nroots),
               None)
    report["checks"]["pq_closure_orthogonal_closure_is_w"] = {
        "ok": bad is None, "witness": bad}
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


def verify_fixtures(rs) -> dict:
    """Golden table diff: zero mismatched cells required."""
    fixture = load_fixture(str(rs.label))
    rows = compute_table(rs)
    catalog = shape_catalog(rs)
    result = diff_fixture(fixture, rows, catalog)
    return {"group": str(rs.label), "ok": result["ok"],
            "mismatches": result["mismatches"]}


def verify_oracle(rs) -> dict:
    """Fast paths against brute force: normalizer and orthogonal complement."""
    report = {"group": str(rs.label), "checks": {}}
    W = list(generate(rs.simple_reflections()))
    images = positive_images(W)
    catalog = shape_catalog(rs)
    bad = None
    for shape in catalog:
        P = ReflectionSubgroup(rs, shape.roots, shape.components)
        brute = [W[i] for i in np.flatnonzero(normalizing(P, images))]
        if len(brute) != normalizer_order(P):
            bad = shape.label
            break
        N = normalizer(P)
        if {w.key for w in brute} != {w.key for w in N}:
            bad = shape.label
            break
    report["checks"]["normalizer"] = {"ok": bad is None, "witness": bad}
    commute = commutation_table(rs)
    bad = None
    for subset in _standard_subsets(rs):
        U = standard_parabolic(rs, subset)
        if brute_orthogonal_complement(U, commute).roots != orthogonal_complement(U).roots:
            bad = subset
            break
    report["checks"]["orthogonal_complement"] = {"ok": bad is None, "witness": bad}
    report["ok"] = all(c["ok"] for c in report["checks"].values())
    return report


SUITES = {
    "galois": verify_galois,
    "howlett": verify_howlett,
    "goursat": verify_goursat,
    "section8": verify_section8,
    "fixtures": verify_fixtures,
    "oracle": verify_oracle,
}
