"""The example scripts under ``scripts/`` still run and print what they printed."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# ``ability_recovery.py --sessions 5``: five sessions at each ability on fresh
# 200-item banks, seeded, so every figure is fixed.
RECOVERY_TABLE = """\
 theta*  coverage     MAE  items p25/p50/p75
  -2.00     0.800   0.342      23/23/34
  -1.00     1.000   0.209      18/22/24
   0.00     0.800   0.176      18/19/22
   1.00     1.000   0.184      20/21/24
   2.00     1.000   0.297      22/23/28

overall coverage 0.920, MAE 0.242
"""


def test_ability_recovery_table_is_pinned():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ability_recovery.py"), "--sessions", "5"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == RECOVERY_TABLE
