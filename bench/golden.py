"""Golden tables and the check of a pass's tables against them.

The golden tables are the `.dat` files every op writes at seed
`GOLDEN_SEED`, stored under golden/<workload>/<op id>/. A table passes when
its header matches (the version and seed annotations aside), it has the
same shape, its closed-form and axis columns stay within a tight relative
tolerance, and, for `simulate`, its estimate stays within a few combined
standard errors of the golden estimate, at any seed.
"""

from __future__ import annotations

import math
import shutil
from dataclasses import dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Closed-form columns may move by rounding only (a reordered sum, say).
REL_TOL = 1e-9
ABS_TOL = 1e-12
# Simulated estimates: allowed gap in combined standard errors. The
# combination includes one sample's weight, 1/n, so an estimate of exactly
# 0 or 1 (standard error 0) still has the estimator's resolution.
SIM_SIGMAS = 5.0

_IGNORED_HEADER = ("## pinchpas ", "## seed = ")


@dataclass
class OpCheck:
    ok: bool
    tables: int = 0
    identical: int = 0
    rows: int = 0
    max_rel_dev: float = 0.0
    reason: str = ""


def _parse(text: str) -> tuple[list[str], list[list[float]]]:
    header, rows = [], []
    for line in text.splitlines():
        if line.startswith("#"):
            header.append(line)
        elif line.strip():
            rows.append([float(token) for token in line.split()])
    return header, rows


def _n_samples(header: list[str]) -> int:
    for line in header:
        if line.startswith("## n_samples = "):
            return int(line.split("=", 1)[1])
    raise ValueError("simulate table has no n_samples annotation")


def _compare_table(got_text: str, want_text: str, check: OpCheck) -> str:
    """Fold one table into `check`; returns why it fails, or ''."""
    got_header, got_rows = _parse(got_text)
    want_header, want_rows = _parse(want_text)
    check.rows += len(got_rows)
    keep = [line for line in want_header if not line.startswith(_IGNORED_HEADER)]
    if [line for line in got_header if not line.startswith(_IGNORED_HEADER)] != keep:
        return "header differs"
    if len(got_rows) != len(want_rows) or any(
        len(a) != len(b) for a, b in zip(got_rows, want_rows)
    ):
        return "table shape differs"
    simulated = any(line.startswith("## n_samples = ") for line in want_header)
    tight = 1 if simulated else None
    for got, want in zip(got_rows, want_rows):
        for a, b in zip(got[:tight], want[:tight]):
            scale = max(abs(a), abs(b))
            if scale > 0.0:
                check.max_rel_dev = max(check.max_rel_dev, abs(a - b) / scale)
            if abs(a - b) > REL_TOL * abs(b) + ABS_TOL:
                return f"value {a!r} differs from golden {b!r}"
        if simulated:
            n = _n_samples(want_header)
            (est, se), (g_est, g_se) = got[1:3], want[1:3]
            band = SIM_SIGMAS * math.sqrt(se * se + g_se * g_se + 1.0 / (n * n))
            if not se >= 0.0 or abs(est - g_est) > band:
                return f"estimate {est!r} +- {se!r} is off golden {g_est!r} +- {g_se!r}"
    return ""


def check_op(workload: str, op_id: str, out_dir: Path) -> OpCheck:
    """Compare every table one op wrote against its golden tables."""
    golden = GOLDEN_DIR / workload / op_id
    want = sorted(p.name for p in golden.glob("*.dat"))
    got = sorted(p.name for p in out_dir.glob("*.dat"))
    check = OpCheck(ok=True, tables=len(want))
    if not want:
        return OpCheck(ok=False, reason=f"no golden tables in {golden}")
    if got != want:
        return OpCheck(ok=False, tables=len(want), reason=f"wrote {got}, expected {want}")
    for name in want:
        got_text = (out_dir / name).read_text(encoding="utf-8")
        want_text = (golden / name).read_text(encoding="utf-8")
        if got_text == want_text:
            check.identical += 1
        reason = _compare_table(got_text, want_text, check)
        if reason and check.ok:
            check.ok, check.reason = False, f"{name}: {reason}"
    return check


def store(workload: str, op_id: str, out_dir: Path) -> None:
    """Make the tables in `out_dir` the golden tables of one op."""
    golden = GOLDEN_DIR / workload / op_id
    if golden.exists():
        shutil.rmtree(golden)
    golden.mkdir(parents=True)
    for table in sorted(out_dir.glob("*.dat")):
        shutil.copyfile(table, golden / table.name)
