import hashlib
import importlib.util
import json
import sys

import pytest

from multishelf import cyclic, make_distributive_set, make_table, right_trivial
from multishelf.fixtures import (
    BERMAN_SIGMA,
    BERMAN_TAU,
    document_checksum,
    fixture,
    fixture_names,
    get_fixture,
)
from multishelf.formats import (
    SchemaError,
    group_document,
    load_group,
    load_set,
    load_table,
    save_table,
    set_document,
    write_document,
)
from multishelf.shelves import DistributivityError


class TestTableRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.json"
        save_table(right_trivial(3), path)
        assert load_table(path) == right_trivial(3)

    def test_byte_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_table(BERMAN_TAU, p1)
        save_table(load_table(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_ragged_table_schema_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 6, "table": [[0] * 5] * 6}))
        with pytest.raises(SchemaError, match="table"):
            load_table(path)

    def test_empty_carrier_names_n(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 0, "table": []}))
        with pytest.raises(SchemaError, match="field 'n': carrier size must be >= 1, got 0"):
            load_table(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"table": [[0]]}))
        with pytest.raises(SchemaError, match="'n': missing"):
            load_table(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_table(path)

    @pytest.mark.parametrize("load", [load_table, load_set, load_group])
    def test_not_utf8_names_the_file(self, tmp_path, load):
        # JSON text is UTF-8: a stray 0xff byte is a fault of the document,
        # reported with its path like any other malformed file.
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 1, "table": [[0]], "note": "\xff"}')
        with pytest.raises(SchemaError) as caught:
            load(path)
        assert (caught.value.path, caught.value.field) == (str(path), "<document>")
        assert str(caught.value).startswith(f"{path}: field '<document>': invalid JSON: 'utf-8' codec can't decode")


class TestSetRoundTrip:
    def test_round_trip_validates(self, tmp_path):
        path = tmp_path / "s.json"
        S = make_distributive_set([BERMAN_TAU, BERMAN_SIGMA])
        write_document(set_document(S), path)
        assert load_set(path).ops == S.ops

    def test_invalid_set_raises_witness(self, tmp_path):
        path = tmp_path / "xor.json"
        path.write_text(json.dumps({"n": 2, "ops": [[[0, 1], [1, 0]]]}))
        with pytest.raises(DistributivityError):
            load_set(path)


class TestGroupRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        write_document(group_document(cyclic(4)), path)
        assert load_group(path) == cyclic(4)

    def test_invalid_group(self, tmp_path):
        path = tmp_path / "g.json"
        for mul in ([[0, 1], [1, 1]], [[0, 1], [1]], [[0, 1], [1, 0.2]], [[0, 1], [1, 2]]):
            path.write_text(json.dumps({"m": 2, "mul": mul, "identity": 0}))
            with pytest.raises(SchemaError, match="field 'mul'"):
                load_group(path)
        for identity, message in (
            (5, "identity index 5 out of range"),
            (1, "1 is not a two-sided identity"),
        ):
            path.write_text(json.dumps({"m": 2, "mul": [[0, 1], [1, 0]], "identity": identity}))
            with pytest.raises(SchemaError, match=f"field 'identity': {message}"):
                load_group(path)
        path.write_text(json.dumps({"m": 0, "mul": [], "identity": 0}))
        with pytest.raises(SchemaError, match="field 'm': carrier size must be >= 1"):
            load_group(path)


class TestFixtures:
    def test_names(self):
        assert fixture_names() == ["berman-d6", "xor"]

    def test_berman_revalidates(self):
        S = get_fixture("berman-d6")
        assert S.ops == (BERMAN_TAU, BERMAN_SIGMA)

    def test_xor_fixture_fails_validation(self):
        with pytest.raises(DistributivityError):
            get_fixture("xor")

    def test_checksums_stable(self):
        assert fixture("berman-d6")[2] == fixture("berman-d6")[2]
        assert fixture("berman-d6")[2] != fixture("xor")[2]

    def test_checksums_pinned(self):
        assert fixture("berman-d6")[2] == (
            "a8c6c94ea76f17d0775b460c36b712d3ce18821e7ae023971da1c897bc9f9cee"
        )
        assert fixture("xor")[2] == (
            "81ecf75270c6a7168fc96cf138c145f0a48ef7cf5785338bd7bcd1d719fb7610"
        )

    @pytest.mark.parametrize("fallback", [False, True], ids=["built-in", "hashlib"])
    def test_checksum_is_sha256_of_sorted_json(self, monkeypatch, fallback):
        # CPython's built-in SHA-256 and the hashlib fallback give one digest
        docs = [fixture(name)[1] for name in fixture_names()] + [
            set_document(make_distributive_set([right_trivial(n)])) for n in (1, 3)
        ] + [group_document(cyclic(5)), {"b": [1, None, "\u00e9"], "a": {"z": 0.5, "y": True}}]
        want = [hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() for doc in docs]
        builtin = not fallback and any(map(importlib.util.find_spec, ["_sha2", "_sha256"]))
        sha256, hashed = hashlib.sha256, []
        monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or sha256(data))
        if fallback:
            monkeypatch.setitem(sys.modules, "_sha2", None)
            monkeypatch.setitem(sys.modules, "_sha256", None)
        assert [document_checksum(doc) for doc in docs] == want
        assert len(hashed) == (0 if builtin else len(docs))  # hashlib only without a built-in module

    def test_tampered_table_raises(self, monkeypatch):
        import multishelf.fixtures as fx

        tampered = (make_table(2, [[1, 0], [0, 1]]),)
        monkeypatch.setitem(fx._FIXTURE_OPS, "xor", tampered)
        with pytest.raises(ValueError, match="pinned"):
            fixture("xor")
        with pytest.raises(ValueError, match="pinned"):
            get_fixture("xor")

    def test_unknown_fixture(self):
        with pytest.raises(KeyError):
            fixture("nope")
