"""Every basis of the golden corpus is byte-identical to the committed one.

The digests in ``golden/bases.json`` cover the member sets, the cycle
weights to the last bit and the ``control_log`` of algorithms 1-5 plus the
baseline (see ``make_golden.py``), so any change to candidate generation,
candidate order or selection shows up here with the model it hit.
"""

import json

import make_golden


def test_golden_bases():
    with open(make_golden.GOLDEN) as fh:
        expected = json.load(fh)["models"]
    actual = {name: make_golden.digest(graph) for name, graph in make_golden.corpus()}
    assert sorted(actual) == sorted(expected), "the corpus differs from the golden file"
    differing = [name for name in actual if actual[name] != expected[name]]
    assert not differing, f"{len(differing)} models differ: {', '.join(differing[:20])}"
