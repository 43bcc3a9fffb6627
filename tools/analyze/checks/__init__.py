"""Bundled checks. Importing this package registers every check.

To add a check: create a module here with a function decorated by
``registry.register("name", "description")`` and import it below. Keys in
tools/lint_allowlist.txt use the registered name.
"""

from analyze.checks import (  # noqa: F401
    abs_squared,
    alloc_in_parallel,
    counter_discipline,
    discarded_status,
    float_eq,
    lock_outside_api,
    missing_guard,
    narrowing_index,
    one_sided_index,
    raw_chrono,
    raw_data_access,
)
