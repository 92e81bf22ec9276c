"""Shared pytest set-up for both test paths (`tests` and `bench`).

Hypothesis imports `hypothesis.extra._patching` while it reports a failing
example, inside pytest's report hook.  That import raises a
DeprecationWarning (`mypy_extensions.TypedDict`), which
`filterwarnings = ["error"]` turns into an error in the hook, so the run
would end as INTERNALERROR instead of printing the falsifying example.
Importing the module once here, with that warning ignored, keeps the filter
as strict for the code under test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
