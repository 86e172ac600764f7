import subprocess
import sys
from pathlib import Path


def _parity(workload: str) -> str:
    script = Path(__file__).resolve().parent / "parity.py"
    return subprocess.run([sys.executable, str(script), workload], capture_output=True,
                          text=True, check=True).stdout


def test_parity_script_on_binpack():
    # runs the script as a script; the pinned digest moves with any binpack
    # verdict, witness or bound_used
    assert _parity("binpack") == "binpack 93fcfd6c78755088 22 14\n"


def test_parity_script_on_planted():
    # 1,101 sat witnesses, among them oracle squares and standardize transports
    assert _parity("planted") == "planted e67d141343bad88e 1501 1101\n"
