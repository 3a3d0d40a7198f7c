import pytest

# hypothesis's pytest plugin reads mypy_extensions.TypedDict, deprecated in
# mypy_extensions 1.1, when it reports a failing example; under -W error that
# stops pytest with INTERNALERROR and loses every later test.  A mark outranks
# -W error, where an ini filterwarnings entry does not.
_TYPEDDICT_DEPRECATION = pytest.mark.filterwarnings(
    r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning"
)


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(_TYPEDDICT_DEPRECATION)
