"""The golden corpus: grid-gfv's outputs on the bundled cases as
tests/golden/regen.py last wrote them.

Every output is written again through cli.main.  Where this environment is
the one in tests/golden/manifest.json the outputs must be the corpus's
bytes; anywhere else each number must lie within regen.RTOL of its column's
largest magnitude and each integer follow regen's count rule.  The run says
which of the two it compared.
"""

import json

import pytest

from golden import regen

MANIFEST = json.loads(regen.MANIFEST.read_text())
ENVIRONMENT = regen.environment()
SAME_ENVIRONMENT = MANIFEST["environment"] == ENVIRONMENT
MODE = ("bytes (the environment is the manifest's)" if SAME_ENVIRONMENT else
        f"numbers within {regen.RTOL:g} of each column's largest magnitude "
        f"(this environment {ENVIRONMENT}, the manifest's {MANIFEST['environment']})")


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    dest = tmp_path_factory.mktemp("golden")
    regen.generate(dest)
    return dest


def test_the_corpus_holds_every_output_and_only_those(regenerated, capsys):
    with capsys.disabled():
        print(f"\ngolden corpus: comparing {MODE}")
    assert regen.files(regenerated) == MANIFEST["files"] == regen.files(regen.CORPUS)


@pytest.mark.parametrize("name", MANIFEST["files"])
def test_an_output_matches_the_corpus(regenerated, name):
    old = (regen.CORPUS / name).read_text()
    new = (regenerated / name).read_text()
    if SAME_ENVIRONMENT:
        assert new == old, f"{name}: bytes moved; compared {MODE}"
    else:
        largest, faults = regen.compare(old, new)
        assert not faults and largest <= regen.RTOL, (
            f"{name}: largest relative change {largest:.3g}, {faults}; compared {MODE}")
