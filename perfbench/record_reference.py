"""Record the pinned outputs that the ``lattice`` workload is checked against.

    python3 perfbench/record_reference.py        (from the root of a checkout)

Writes ``perfbench/reference/lattice.json``: for each lattice group, the
concept list in the structured form the acceptance tests pin (stripped type
labels, partitions, same-class flag), the shape closure graph, the involution
class representatives (shape index, degree, centralizer order and a hash of
the element) and the section-8 and Galois suite reports.  Re-record only when
a change to the library is meant to change one of these outputs.
"""

from __future__ import annotations

import json
import os
import sys


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    out = {}
    for g in workloads.LATTICE_GROUPS:
        rs = workloads.rootsys.build_root_system(g)
        out[g] = {suite: workloads.LATTICE_CALLS[suite](rs)
                  for suite in workloads.LATTICE_SUITES}
        for suite in ("section8", "galois"):
            if not out[g][suite]["ok"]:
                raise SystemExit(f"{g} {suite} suite fails; not recording it")
    os.makedirs(os.path.dirname(workloads.REFERENCE), exist_ok=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, ensure_ascii=False, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
