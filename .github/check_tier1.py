"""Pass the tier-1 CI step only when acceptance criterion 02 is its one failure.

Usage: python .github/check_tier1.py JUNIT_XML PYTEST_EXIT_STATUS

Criterion 02 is a stated target the maths cannot meet, so it fails by design
(see README, Tests), and pytest's own status is 1 on every healthy run. This
check exits 1 instead when any other test fails or errors, when a module
fails to collect, when criterion 02 passes, is skipped or did not run, or
when pytest stopped with a status other than 1.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = ("tests.test_acceptance", "test_criterion_02_asymptotic_limit_at_t_gamma_50")


def problems(junit_path: str, status: int) -> list[str]:
    found = []
    if status != 1:
        found.append(f"pytest exited with status {status}; a healthy run exits 1")
    try:
        root = ET.parse(junit_path).getroot()
    except (OSError, ET.ParseError) as exc:
        return found + [f"cannot read {junit_path}: {exc}"]
    expected_outcome = None
    for case in root.iter("testcase"):
        key = (case.get("classname", ""), case.get("name", ""))
        outcome = [child.tag for child in case if child.tag in ("failure", "error", "skipped")]
        if key == EXPECTED_FAILURE:
            expected_outcome = outcome
        elif "failure" in outcome or "error" in outcome:
            # A module that fails to collect is reported as an error case.
            found.append(f"{key[0]}::{key[1]}: {', '.join(outcome)}")
    if expected_outcome != ["failure"]:
        seen = "did not run" if expected_outcome is None else ", ".join(expected_outcome) or "passed"
        found.append(f"{'::'.join(EXPECTED_FAILURE)} must fail by design; it {seen}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    found = problems(argv[1], int(argv[2]))
    for line in found:
        print(f"tier-1: {line}", file=sys.stderr)
    if not found:
        print("tier-1: ok (only criterion 02 failed, as documented)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
