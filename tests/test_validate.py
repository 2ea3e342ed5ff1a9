"""Each `warpski validate` check as its own pytest item.

The checks are the one home of the numeric invariants; running each one
here means a broken invariant fails under the check's name, with the
assertion's traceback, and `pytest -k <name>` reruns just that check.
AC10 still runs the whole suite through `run_validation` and bounds its
wall time.
"""

import pytest

from warpski import validate


@pytest.mark.parametrize("check", [fn for _, fn in validate._CHECKS],
                         ids=validate.check_names())
def test_validate_check(check):
    check()
