"""scripts/line_trace.py on a small selection: it runs pytest in its own process and lists the lines of
src/skewdrift/*.py that the selected tests did not run."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_lists_the_lines_a_selection_leaves_unrun():
    selection = [f"tests/test_symbolic.py::TestStationary::{name}"
                 for name in ("test_symmetric_chain", "test_reducible_support_rejected")]
    done = subprocess.run([sys.executable, "scripts/line_trace.py", "-q", "-p", "no:cacheprovider", *selection],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "Exception ignored" not in done.stderr  # the hook still runs at interpreter shutdown
    *report, summary = done.stdout.splitlines()
    listed = [line for line in report if line.startswith("src/skewdrift/")]
    assert all(re.fullmatch(r"src/skewdrift/\w+\.py:\d+: .+", line) for line in listed)
    missed = {line.split(": ", 1)[1] for line in listed if line.startswith("src/skewdrift/symbolic.py:")}
    # run by the selection: the solve and the refusal of a reducible chain; not run: the residual refusal
    assert "pi = np.linalg.solve(A, b)" not in missed
    assert 'raise NotErgodicError("stochastic support pattern is reducible")' not in missed
    assert 'raise NotErgodicError(f"stationary residual {residual:.3e} exceeds 1e-10")' in missed
    count, total = map(int, re.fullmatch(r"(\d+) of (\d+) executable lines in src/skewdrift/\*\.py ran in no test",
                                          summary).groups())
    assert count == len(listed) < total
