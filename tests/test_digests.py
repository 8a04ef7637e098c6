"""``numtext.sha256`` is the interpreter's own SHA-256 (``_sha256``, or ``hashlib``
where that is absent), and every digest numtext records is ``hashlib``'s: derived
seeds, the config hash and the vocabulary hash. The golden digests pin the
bytes; these tests name the invariant."""

import hashlib
import json

import pytest

import numtext
from numtext import seeding
from numtext.cli import _meta, run


@pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 1 << 20])
def test_sha256_is_hashlibs_at_every_padding_boundary(size):
    data = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    assert numtext.sha256(data).digest() == hashlib.sha256(data).digest()


@pytest.mark.parametrize(
    "seed, labels",
    [
        (0, ()),
        (7, ("num", 0)),
        (12, ("txt", 2999)),
        (2**70, ("mix", "select")),
        (-3, ("mix", "shuffle", "DROP-class")),
        (5, ("mix", "shuffle", "número ½ 数")),
        (5, ("mix", "shuffle", "")),
    ],
)
def test_derive_seed_is_the_head_of_hashlibs_digest(seed, labels):
    text = ":".join([str(seed), *map(str, labels)])
    expected = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")
    assert seeding.derive_seed(seed, *labels) == expected


def test_config_sha256_is_hashlibs_also_over_a_lone_surrogate():
    config = {"input": "g\udcff.json", "names": ["ä", "b"], "temperature": 10.0}
    canonical = json.dumps(config, sort_keys=True, ensure_ascii=False).encode("utf-8", "surrogatepass")
    assert _meta(config)["config_sha256"] == hashlib.sha256(canonical).hexdigest()[:16]


def test_vocab_sha256_is_hashlibs_over_the_vocabulary_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    vocab = {
        "containers": ["Zoë", "Bo"],
        "entities": ["figues", "noix"],
        "sentence_templates": {verb: ["{container} a {qty} {entity}."] for verb in ("observe", "gain", "lose")},
        "question_templates": {kind: ["Combien de {entity} ?"] for kind in ("how_many", "how_many_more", "total")},
    }
    vocab["sentence_templates"]["transfer"] = ["{container} donne {qty} {entity} à {target}."]
    data = json.dumps(vocab, ensure_ascii=False, indent=1).encode("utf-8")
    (tmp_path / "v.json").write_bytes(data)
    argv = ["gen-txt", "--count", "2", "--vocab", "v.json", "--out", "a.jsonl", "--dump-config", "a.cfg"]
    assert run(argv) == 0
    assert json.loads((tmp_path / "a.cfg").read_text(encoding="utf-8"))["vocab_sha256"] == hashlib.sha256(data).hexdigest()
