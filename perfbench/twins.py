"""Offline twins of served jobs, run in a fresh interpreter.

Reads a JSON list of ``[strategy, seed]`` plans on standard input, runs each
as the seeded bert search a ``served-mix`` job ran, and prints one JSON line
per plan: the canonical outcome and the re-evaluation check's error, if any.
``perfbench.served`` starts two of these and waits for both.

    PYTHONPATH=src python3 perfbench/twins.py < plans.json
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.served import twin_bytes  # noqa: E402

for plan in json.load(sys.stdin):
    data, error = twin_bytes(tuple(plan))
    print(json.dumps({"outcome": data.decode(), "error": error}), flush=True)
