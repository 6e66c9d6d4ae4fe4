"""tools/fill_bits.py: the uint64 comparison of two checkouts' fill distances."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fill_bits.py"
_spec = importlib.util.spec_from_file_location("fill_bits", TOOL)
fill_bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fill_bits)


def test_checkout_against_itself_differs_nowhere():
    # the kd-tree path (d = 3) and the pruned scan (d = 6), one trial each
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), "--seed", "5",
                           "--trials", "1", "--d", "3,6", "--n", "50"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "0 of 4 values differ\n"


def test_differences_name_the_unit_and_both_values():
    parent = {(6, 50, 0): (10, 20), (6, 50, 1): (30, 40)}
    change = {(6, 50, 0): (10, 21), (6, 50, 1): (30, 40), (6, 50, 2): (50, 60)}
    assert fill_bits.differences(parent, change) == [
        (6, 50, 0, "sorted", 20, 21), (6, 50, 2, "plain", None, 50),
        (6, 50, 2, "sorted", None, 60)]


def test_a_failing_child_exits_2(capsys):
    # d = 0 fails the experiment's config check in both children
    args = [str(ROOT), str(ROOT), "--seed", "5", "--trials", "1", "--d", "0", "--n", "50"]
    assert fill_bits.main(args) == 2
    assert "child exited" in capsys.readouterr().err
