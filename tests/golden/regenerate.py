"""Regenerate the committed golden op-stream, schedule and metric digests.

Run after an *intentional* routing, scheduling or evaluation change (and
say so in the commit message)::

    PYTHONPATH=src python tests/golden/regenerate.py

The script overwrites ``tests/golden/golden_digests.json`` with freshly
computed digests for every case in :mod:`golden_cases`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for entry in (str(_HERE), str(_HERE.parent.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from golden_cases import DIGEST_PATH, SCHEMA, case_key, compute_all  # noqa: E402


def main() -> int:
    entries = compute_all()
    DIGEST_PATH.write_text(json.dumps(
        {"schema": SCHEMA, "cases": entries}, indent=2) + "\n")
    for entry in entries:
        print(f"{case_key(entry):40s} sha256={entry['sha256'][:16]}... "
              f"ops={entry['num_operations']} swaps={entry['num_swaps']} "
              f"moves={entry['num_moves']} "
              f"schedules={entry['schedule_sha256'][:16]}... "
              f"dCZ={entry['delta_cz']} dT={entry['delta_t_us']!r} "
              f"dF={entry['delta_fidelity']!r}")
    print(f"wrote {DIGEST_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
