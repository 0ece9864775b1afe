import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).parent.parent / "scripts"


@pytest.mark.parametrize("script", ["tour.py", "residual_chain.py", "code_lines.py",
                                    "union_universality_demo.py"])
def test_script_exits_cleanly(script):
    out = subprocess.run([sys.executable, str(SCRIPTS / script)],
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout
