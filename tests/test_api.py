import pytest

import loopsynth
import loopsynth.groebner


@pytest.mark.parametrize("module", [loopsynth, loopsynth.groebner],
                         ids=lambda m: m.__name__)
def test_every_export_resolves_once(module):
    names = module.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(module, n)]
    assert missing == []
