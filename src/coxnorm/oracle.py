"""Independent brute-force oracles and golden-table fixtures.

The oracles recompute normalizers and orthogonal complements from first
principles (full enumeration, literal commutation test) and are compared
against the fast paths at small rank.  The fixtures are hand-transcribed
golden tables stored as pipe-separated text; the diff matches fixture rows to
computed rows by label (searching over the assignments of primed and signed
duplicate labels, which the golden data only pins relationally) and reports
every mismatched cell.

Fixture format, one row per line, '#' comments allowed:

    index|*|P|lambda|Q|D|closure|A|B|C|x_perp|x_cap_y|y_perp

with '0' for the trivial type, partitions like [2211] (no spaces), closure
'W' / '(k)' / 'k', markers as ':HEART', ':DIAMOND', ':CLUB', ':SPADE'.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .groups import BRUTE_LIMIT, generate
from .parabolic import ReflectionSubgroup


def positive_images(elements) -> np.ndarray:
    """The positive-root images of a list of elements, stacked: (len, npos) int16."""
    return np.array([w.img[: w.rs.npos] for w in elements], dtype=np.int16)


def normalizing(P: ReflectionSubgroup, images) -> np.ndarray:
    """Mask of the rows of ``positive_images`` whose element maps P's roots into P's."""
    in_p = np.zeros(P.rs.nroots, dtype=bool)
    in_p[list(P.roots)] = True
    return in_p[images[:, list(P.pos)]].all(axis=1)


def brute_normalizer(P: ReflectionSubgroup, W=None):
    """Normalizer by filtering a full enumeration (guarded), in W's order."""
    rs = P.rs
    if rs.group_order > BRUTE_LIMIT:
        raise RuntimeError(f"group too large for the brute oracle ({rs.group_order})")
    W = list(generate(rs.simple_reflections()) if W is None else W)
    return [W[i] for i in np.flatnonzero(normalizing(P, positive_images(W)))]


def commutation_table(rs, rows=None) -> np.ndarray:
    """C[k, t]: the reflections in the positive roots rows[k] and t != rows[k] commute.

    ``rows`` defaults to every positive root.  With R the stacked reflection
    permutations, r_s r_t = r_t r_s iff perm_s[R[t]] == R[t][perm_s] on every
    root; one row is compared at a time, so memory stays (npos, nroots).
    The root system's orthogonality table is not read.
    """
    R = np.array([rs.reflection_perm(t) for t in range(rs.npos)])
    rows = range(rs.npos) if rows is None else rows
    table = np.empty((len(rows), rs.npos), dtype=bool)
    for k, s in enumerate(rows):
        table[k] = (R[s][R] == R[:, R[s]]).all(axis=1)
        table[k, s] = False
    return table


def brute_orthogonal_complement(U: ReflectionSubgroup, commute=None):
    """Literal commutation definition: reflections commuting with all of U.

    ``commute`` is ``commutation_table(rs)``, for a caller that checks many
    subgroups; without it, only the rows of U's positive roots are computed.
    """
    rs = U.rs
    if rs.group_order > BRUTE_LIMIT:
        raise RuntimeError(f"group too large for the brute oracle ({rs.group_order})")
    pos = list(U.pos)
    rows = commutation_table(rs, pos) if commute is None else commute[pos]
    return ReflectionSubgroup.generated_by(rs, np.flatnonzero(rows.all(axis=0)).tolist())


# ---------------------------------------------------------------------------
# Fixtures


@dataclass
class FixtureRow:
    index: int
    asterisk: bool
    label: str
    partition: tuple | None
    q_index: int
    d_order: int
    closure: str
    a: str
    b: str
    c: str
    x_perp: str
    x_cap_y: str
    y_perp: str


@dataclass
class TableFixture:
    group: str
    rows: list


def parse_fixture(text: str, group: str) -> TableFixture:
    rows = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) != 13:
            raise ValueError(f"{group} fixture line {lineno}: expected 13 cells, "
                             f"got {len(parts)}")
        try:
            idx = int(parts[0])
            lam = None
            if parts[3] not in ("", "-"):
                m = re.fullmatch(r"\[(\d*)\]", parts[3])
                if not m:
                    raise ValueError("bad partition")
                lam = tuple(int(ch) for ch in m.group(1))
            row = FixtureRow(
                index=idx,
                asterisk=parts[1] == "*",
                label=parts[2],
                partition=lam,
                q_index=int(parts[4]),
                d_order=int(parts[5]),
                closure=parts[6],
                a=parts[7], b=parts[8], c=parts[9],
                x_perp=parts[10], x_cap_y=parts[11], y_perp=parts[12],
            )
        except ValueError as exc:
            raise ValueError(f"{group} fixture line {lineno}: {exc}") from None
        if idx in seen:
            raise ValueError(f"{group} fixture line {lineno}: duplicate index {idx}")
        seen.add(idx)
        rows.append(row)
    return TableFixture(group, rows)


def fixture_file(group: str):
    name = group.lower().replace("(", "_").replace(")", "")
    return resources.files("coxnorm.fixtures").joinpath(f"{name}.txt")


def load_fixture(group: str) -> TableFixture:
    return parse_fixture(fixture_file(group).read_text(), group)


def _strip_decoration(label: str) -> str:
    if label == "0":  # ASCII token for the trivial type in fixture files
        return "∅"
    s = label.replace("(", "").replace(")", "")
    return s.rstrip("'+-")


_COMPARED = ("asterisk", "q_index", "d_order", "closure",
             "a", "b", "c", "x_perp", "x_cap_y", "y_perp")


def diff_fixture(fixture: TableFixture, rows, catalog) -> dict:
    """Structured diff between a golden fixture and computed rows.

    ``rows`` are computed row dicts in catalog order.  Fixture rows are bound
    to computed rows by type label and partition; groups of rows whose labels
    differ only by primes or signs are matched by trying every assignment and
    keeping the one with the fewest mismatched cells (the golden tables pin
    such labels only through their cross-references).
    """
    computed = {r["index"]: r for r in rows}

    def shape_key(label, partition):
        return (_strip_decoration(label), partition)

    fix_groups = {}
    for frow in fixture.rows:
        fix_groups.setdefault(shape_key(frow.label, frow.partition), []).append(frow)
    mine_groups = {}
    for s in catalog:
        mine_groups.setdefault(shape_key(s.type_label, s.partition), []).append(s.index)

    if sorted(fix_groups) != sorted(mine_groups):
        missing = sorted(set(fix_groups) - set(mine_groups))
        extra = sorted(set(mine_groups) - set(fix_groups))
        return {"ok": False, "mismatches": [
            {"row": None, "column": "shapes",
             "fixture": f"missing={missing}", "computed": f"extra={extra}"}]}

    ambiguous = []
    base_map = {}
    for key, frows in sorted(fix_groups.items(), key=repr):
        mine = mine_groups[key]
        if len(frows) != len(mine):
            return {"ok": False, "mismatches": [
                {"row": frows[0].index, "column": "class-count",
                 "fixture": len(frows), "computed": len(mine)}]}
        if len(frows) == 1:
            base_map[frows[0].index] = mine[0]
        else:
            ambiguous.append((frows, mine))

    def evaluate(mapping):
        inverse = {v: k for k, v in mapping.items()}
        mism = []
        for frow in fixture.rows:
            crow = computed[mapping[frow.index]]
            translated = dict(crow)
            translated["q_index"] = inverse[crow["q_index"]]
            m = re.fullmatch(r"(\()?(\d+)(\))?", crow["closure"])
            if m:
                k = inverse[int(m.group(2))]
                translated["closure"] = f"({k})" if m.group(1) else str(k)
            fvals = {"asterisk": frow.asterisk, "q_index": frow.q_index,
                     "d_order": frow.d_order, "closure": frow.closure,
                     "a": frow.a, "b": frow.b, "c": frow.c,
                     "x_perp": frow.x_perp, "x_cap_y": frow.x_cap_y,
                     "y_perp": frow.y_perp}
            for col in _COMPARED:
                fval = fvals[col]
                cval = translated[col] if col != "asterisk" else crow["asterisk"]
                if fval != cval:
                    mism.append({"row": frow.index, "column": col,
                                 "fixture": fval, "computed": cval})
        return mism

    best = None
    perms_per_group = [list(itertools.permutations(mine)) for _, mine in ambiguous]
    for combo in itertools.product(*perms_per_group) if ambiguous else [()]:
        mapping = dict(base_map)
        for (frows, _), perm in zip(ambiguous, combo):
            for frow, my_idx in zip(frows, perm):
                mapping[frow.index] = my_idx
        mism = evaluate(mapping)
        if best is None or len(mism) < len(best[1]):
            best = (mapping, mism)
        if not mism:
            break
    mapping, mism = best
    return {"ok": not mism, "mismatches": mism, "index_map": mapping}
