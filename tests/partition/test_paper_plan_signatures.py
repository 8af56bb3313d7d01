"""A paper-scale plan stays bit-identical.

``tests/data/paper_plan_signatures.json`` pins the ``tofu`` plan of every
end-to-end benchmark model; CI checks them all with
``tools/check_plan_signatures.py``.  This test searches the cheapest one,
WResNet-50-4 at batch 128 on 8 workers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_plan_signatures  # noqa: E402


def test_wresnet_50_4_plan_is_pinned():
    pins = json.loads(check_plan_signatures.PINS.read_text(encoding="utf-8"))
    (pin,) = [p for p in pins["plans"] if p["config"] == "WResNet-50-4@128"]
    assert check_plan_signatures.search_signature(pin) == pin["signature"]
