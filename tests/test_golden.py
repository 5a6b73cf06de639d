"""Every basis and every CLI report of the golden corpus is byte-identical
to the committed one.

The digests in ``golden/bases.json`` cover the member sets, the cycle
weights to the last bit and the ``control_log`` of algorithms 1-5 plus the
baseline (see ``make_golden.py``), so any change to candidate generation,
candidate order or selection shows up here with the model it hit.  The
digests in ``golden/reports.json`` cover the ``compare``, ``condition``,
``force`` and block-sparsity ``render`` outputs of every planar grid, so a
change to the force layer or the metrics that moves a printed digit shows
up the same way.
"""

import json

import make_golden


def _differing(path, actual):
    with open(path) as fh:
        expected = json.load(fh)["models"]
    assert sorted(actual) == sorted(expected), "the corpus differs from the golden file"
    return [name for name in actual if actual[name] != expected[name]]


def test_golden_bases():
    actual = {name: make_golden.digest(graph) for name, graph in make_golden.corpus()}
    differing = _differing(make_golden.GOLDEN, actual)
    assert not differing, f"{len(differing)} models differ: {', '.join(differing[:20])}"


def test_golden_reports():
    differing = _differing(make_golden.GOLDEN_REPORTS, make_golden.report_digests())
    assert not differing, f"{len(differing)} models differ: {', '.join(differing[:20])}"


def test_golden_cli():
    differing = _differing(make_golden.GOLDEN_CLI, make_golden.cli_digests())
    assert not differing, f"{len(differing)} runs differ: {', '.join(differing[:20])}"
