import json

import pytest
from hypothesis import given, strategies as st

from rainbow_lab.certificates import (
    Certificate,
    certificate_to_json,
    make_certificate,
    parse_certificate,
    read_certificate,
    write_certificate,
)
from rainbow_lab.coloring import Coloring, canonicalize
from rainbow_lab.errors import CertificateError


class TestMakeCertificate:
    def test_canonicalizes_labels(self):
        cert = make_certificate(Coloring(4, (7, 2, 2, 7)), 1)
        assert cert.colors == (0, 1, 1, 0)
        assert cert.k == 1

    def test_reduces_k(self):
        assert make_certificate(Coloring(4, (0, 1, 1, 0)), 9).k == 1

    def test_default_meta_is_not_shared(self):
        first, second = Certificate(2, 1, (0, 1)), Certificate(2, 1, (0, 1))
        assert first.meta == {} and first.meta is not second.meta

    def test_meta_is_copied(self):
        meta = {"construction": "x"}
        cert = make_certificate(Coloring(2, (0, 1)), 1, meta=meta)
        meta["construction"] = "y"
        assert cert.meta == {"construction": "x"}


class TestSerialization:
    def test_json_is_stable_and_sorted(self):
        cert = Certificate(2, 1, (0, 1), {"a": 1})
        text = certificate_to_json(cert)
        assert text == certificate_to_json(cert)
        assert json.loads(text) == {"n": 2, "k": 1, "colors": [0, 1], "meta": {"a": 1}}

    def test_meta_omitted_when_empty(self):
        assert "meta" not in json.loads(certificate_to_json(Certificate(2, 1, (0, 1))))

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "c.json"
        cert = make_certificate(Coloring(5, (0, 1, 2, 2, 1)), 1, meta={"src": "test"})
        write_certificate(path, cert)
        assert read_certificate(path) == cert

    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=10))
    def test_round_trip_any_coloring(self, colors):
        cert = make_certificate(Coloring(len(colors), tuple(colors)), 1)
        assert parse_certificate(certificate_to_json(cert)) == cert


class TestParseValidation:
    def test_rejects_invalid_json(self):
        with pytest.raises(CertificateError, match="not valid JSON"):
            parse_certificate('{"n": 2,')

    def test_rejects_non_object(self):
        with pytest.raises(CertificateError):
            parse_certificate("[1, 2]")

    @pytest.mark.parametrize("missing", ("n", "k", "colors"))
    def test_rejects_missing_field(self, missing):
        doc = {"n": 2, "k": 1, "colors": [0, 1]}
        del doc[missing]
        with pytest.raises(CertificateError, match=missing):
            parse_certificate(json.dumps(doc))

    def test_rejects_bad_n(self):
        with pytest.raises(CertificateError):
            parse_certificate('{"n": 0, "k": 1, "colors": []}')

    def test_rejects_wrong_length(self):
        with pytest.raises(CertificateError):
            parse_certificate('{"n": 3, "k": 1, "colors": [0, 1]}')

    def test_rejects_boolean_colors(self):
        with pytest.raises(CertificateError):
            parse_certificate('{"n": 2, "k": 1, "colors": [false, true]}')

    @pytest.mark.parametrize(
        "doc",
        (
            '{"n": true, "k": 1, "colors": [0]}',
            '{"n": 1, "k": false, "colors": [0]}',
            '{"n": true, "k": false, "colors": [0]}',
        ),
    )
    def test_rejects_boolean_n_and_k(self, doc):
        with pytest.raises(CertificateError):
            parse_certificate(doc)

    def test_rejects_non_dict_meta(self):
        with pytest.raises(CertificateError):
            parse_certificate('{"n": 2, "k": 1, "colors": [0, 1], "meta": 3}')

    def test_non_canonical_rejected_with_hint(self):
        doc = '{"n": 3, "k": 1, "colors": [1, 0, 0]}'
        with pytest.raises(CertificateError) as exc_info:
            parse_certificate(doc)
        assert exc_info.value.hint == f"equivalent canonical form: {[0, 1, 1]}"

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(CertificateError, match="cannot read"):
            read_certificate(tmp_path / "absent.json")


def test_canonicalize_hint_matches_canonicalize():
    assert canonicalize((1, 0, 0)) == (0, 1, 1)
