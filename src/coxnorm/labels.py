"""Coxeter type labels: parsing, printing, classification bounds, group orders.

Label grammar (shared by the CLI and the JSON output): ``<FAMILY><RANK>`` or
``I2(<m>)``, case-insensitive, no whitespace; the rank-2 diagram names G2
and H2 are read as I2(6) and I2(5), which is how they print.  Rank bounds
follow the classification of irreducible finite Coxeter groups:

    A: n >= 1   B: n >= 2   D: n >= 4   E: n in {6,7,8}
    F: n = 4    H: n in {3,4}           I: rank 2, m >= 3

Non-canonical names such as D3 or B1 are rejected with a message naming the
convention (those groups exist only as abstract identifications A3 and A1).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache

_EXCEPTIONAL_ORDERS = {
    ("E", 6): 51840,
    ("E", 7): 2903040,
    ("E", 8): 696729600,
    ("F", 4): 1152,
    ("H", 3): 120,
    ("H", 4): 14400,
}

_LABEL_RE = re.compile(r"^([ABDEFH])(\d+)$|^I2\((\d+)\)$", re.IGNORECASE)


@dataclass(frozen=True)
class CoxeterLabel:
    family: str
    rank: int
    m: int | None = None

    def __post_init__(self):
        fam, rank = self.family, self.rank
        ok = (
            (fam == "A" and rank >= 1)
            or (fam == "B" and rank >= 2)
            or (fam == "D" and rank >= 4)
            or (fam == "E" and rank in (6, 7, 8))
            or (fam == "F" and rank == 4)
            or (fam == "H" and rank in (3, 4))
            or (fam == "I" and rank == 2 and self.m is not None and self.m >= 3)
        )
        if not ok:
            raise ValueError(
                f"invalid Coxeter label {fam}{rank}"
                + (f"({self.m})" if self.m is not None else "")
                + "; allowed: A n>=1, B n>=2, D n>=4 (D2/D3 exist only as the"
                " abstract identifications A1xA1/A3), E6-E8, F4, H3, H4, I2(m>=3)"
            )

    def __str__(self):
        if self.family == "I":
            return f"I2({self.m})"
        return f"{self.family}{self.rank}"

    @property
    def order(self) -> int:
        """Order of the Coxeter group of this type."""
        fam, n = self.family, self.rank
        if fam == "A":
            return math.factorial(n + 1)
        if fam == "B":
            return (2 ** n) * math.factorial(n)
        if fam == "D":
            return (2 ** (n - 1)) * math.factorial(n)
        if fam == "I":
            return 2 * self.m
        return _EXCEPTIONAL_ORDERS[(fam, n)]

    @property
    def n_positive_roots(self) -> int:
        fam, n = self.family, self.rank
        if fam == "A":
            return n * (n + 1) // 2
        if fam == "B":
            return n * n
        if fam == "D":
            return n * (n - 1)
        if fam == "I":
            return self.m
        return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "H3": 15, "H4": 60}[str(self)]


def parse_label(text: str) -> CoxeterLabel:
    text = text.strip()
    m = _LABEL_RE.match(_RANK2_ALIASES.get(text.upper(), text))
    if not m:
        raise ValueError(f"cannot parse Coxeter label {text!r}; expected e.g. E7 or I2(7)")
    if m.group(3) is not None:
        return CoxeterLabel("I", 2, int(m.group(3)))
    return CoxeterLabel(m.group(1).upper(), int(m.group(2)))


_RANK2_ALIASES = {"G2": "I2(6)", "H2": "I2(5)"}


@cache
def component_order(name: str) -> int:
    """Order of the irreducible component named by a diagram label.

    Diagram names are labels (A5, B3, D4, E7, F4, H3, H4, I2(m), and the
    rank-2 names G2 and H2 for bonds 6 and 5).
    """
    return parse_label(name).order


def rank2_name(m: int) -> str:
    """Canonical printed name of the rank-2 type with bond order m."""
    return {3: "A2", 4: "B2", 5: "H2", 6: "G2"}.get(m, f"I2({m})")
