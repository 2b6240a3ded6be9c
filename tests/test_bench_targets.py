"""Every name the benchmark tracer wraps must still be defined where the
tracer looks for it, so that renaming or moving a traced function or method
fails here instead of breaking ``bench/run.py --trace 1``."""

import pytest

from bench import tracing

TARGETS = [(owner, attr) for owner, attr, _name, _after in tracing.Tracer(0)._targets()]


@pytest.mark.parametrize("owner, attr", TARGETS,
                         ids=[f"{owner.__name__}.{attr}" for owner, attr in TARGETS])
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner)
