"""Byte identity: every corpus case prints exactly what its committed digest records."""

import json

from corpus import DIGESTS, digests


def test_every_corpus_case_keeps_its_bytes():
    want = json.loads(DIGESTS.read_text(encoding="ascii"))
    got = digests()
    assert sorted(got) == sorted(want), "the case list changed; regenerate with tests/corpus.py"
    changed = [name for name in got if got[name] != want[name]]
    assert not changed, f"{len(changed)} corpus cases changed bytes: {changed[:20]}"
