import subprocess
import sys
from pathlib import Path


def test_parity_script_on_binpack():
    # runs the script as a script; the pinned digest moves with any binpack
    # verdict, witness or bound_used
    script = Path(__file__).resolve().parent / "parity.py"
    out = subprocess.run([sys.executable, str(script), "binpack"], capture_output=True,
                         text=True, check=True).stdout
    assert out == "binpack 93fcfd6c78755088 22 14\n"
