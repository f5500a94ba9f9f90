"""Dataset file format, alphabets, ingestion and the bundled toys."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bflow import data
from bflow import discrete as dd
from bflow.schedule import DiscreteQuadratic, FlowConfig


def _text(rows):
    """Lines of 27-class index rows, decoded as ``bflow sample`` decodes them."""
    rows = np.atleast_2d(rows)
    return [line[:-1] for line in dd.render(FlowConfig(DiscreteQuadratic(1.0), rows.shape[1], 27), rows, None)]


class TestDatasetFile:
    def test_round_trip_discrete(self, tmp_path):
        ds = data.Dataset(modality="discrete", D=3, K=5, items=np.array([[1, 5, 2], [4, 3, 3]]))
        p = tmp_path / "d.ds"
        data.save_dataset(p, ds)
        back = data.load_dataset(p)
        assert back.modality == "discrete" and back.D == 3 and back.K == 5
        np.testing.assert_array_equal(back.items, ds.items)

    def test_round_trip_continuous_bits(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = data.Dataset(modality="continuous", D=4, K=0, items=rng.uniform(-1, 1, size=(7, 4)))
        p1 = tmp_path / "a.ds"
        p2 = tmp_path / "b.ds"
        data.save_dataset(p1, ds)
        data.save_dataset(p2, data.load_dataset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            data.Dataset(modality="continuous", D=2, K=0, items=np.array([[0.5, 1.5]]))
        with pytest.raises(ValueError):
            data.Dataset(modality="discrete", D=2, K=3, items=np.array([[0, 1]]))
        with pytest.raises(ValueError):
            data.Dataset(modality="discrete", D=2, K=3, items=np.array([[1, 4]]))

    @pytest.mark.parametrize("tail, actual", [(-5, 19), (12, 36)])
    def test_wrong_payload_length_names_byte_counts(self, tmp_path, tail, actual):
        # 2 items of D=3 uint32 indices: a 24-byte payload, cut short or extended
        ds = data.Dataset(modality="discrete", D=3, K=5, items=np.array([[1, 5, 2], [4, 3, 3]]))
        p = tmp_path / "d.ds"
        data.save_dataset(p, ds)
        raw = p.read_bytes()
        p.write_bytes(raw[:tail] if tail < 0 else raw + b"\1" * tail)
        with pytest.raises(ValueError, match=f"payload is {actual} bytes, expected 24"):
            data.load_dataset(p)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ds"
        p.write_bytes(b"not a dataset at all........." + b"\0" * 16)
        with pytest.raises(ValueError):
            data.load_dataset(p)


class TestDamagedFiles:
    """A truncated, extended or bit-flipped dataset file either loads or
    raises ValueError; no other exception escapes the loader."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("ds")
        out = {}
        for ds in (
            data.Dataset(modality="discrete", D=3, K=5, items=np.array([[1, 5, 2], [4, 3, 3]])),
            data.Dataset(modality="continuous", D=2, K=0, items=np.array([[0.5, -0.25], [1.0, 0.0]])),
        ):
            p = d / f"{ds.modality}.ds"
            data.save_dataset(p, ds)
            out[ds.modality] = p.read_bytes()
        return d / "damaged.ds", out

    @pytest.mark.parametrize("modality", ["discrete", "continuous"])
    @given(draw=st.data())
    @settings(max_examples=300, deadline=None)
    def test_loads_or_raises_value_error(self, files, damaged, modality, draw):
        path, raw = files
        path.write_bytes(draw.draw(damaged(raw[modality])))
        try:
            data.load_dataset(path)
        except ValueError:
            pass

    def test_nan_value_rejected(self, tmp_path):
        ds = data.Dataset(modality="continuous", D=2, K=0, items=np.array([[0.5, -0.25]]))
        p = tmp_path / "n.ds"
        data.save_dataset(p, ds)
        raw = bytearray(p.read_bytes())
        raw[-8:] = np.array([np.nan]).astype("<f8").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="outside"):
            data.load_dataset(p)


class TestAlphabet:
    def test_round_trip_with_space(self, tmp_path):
        p = tmp_path / "alpha.txt"
        data.save_alphabet(p, data.ALPHABET_27)
        back = data.load_alphabet(p)
        assert back == data.ALPHABET_27
        assert back[26] == " "

    def test_encode_order(self):
        idx = data.encode_text("abc ", data.ALPHABET_27)
        np.testing.assert_array_equal(idx, [1, 2, 3, 27])

    def test_unknown_symbol_names_offset(self):
        with pytest.raises(ValueError, match="offset 2"):
            data.encode_text("ab!c", data.ALPHABET_27)

    def test_decode_inverse(self):
        s = "hello world"
        assert _text(data.encode_text(s, data.ALPHABET_27)) == [s]

    def test_duplicate_rejected(self, tmp_path):
        p = tmp_path / "alpha.txt"
        p.write_text("a\nb\na\n")
        with pytest.raises(ValueError):
            data.load_alphabet(p)


class TestTextIngest:
    def test_line_structured(self):
        ds = data.ingest_text("abc\ncba\naaa", data.ALPHABET_27)
        assert ds.D == 3 and ds.items.shape == (3, 3)

    def test_unequal_lines_rejected(self):
        with pytest.raises(ValueError):
            data.ingest_text("abc\nab", data.ALPHABET_27)

    def test_text_of_only_newlines_rejected(self):
        # the length check once ran on no lines: "lines have unequal lengths []"
        with pytest.raises(ValueError, match="^the text holds no lines$"):
            data.ingest_text("\n\n", data.ALPHABET_27)

    def test_chunked_stream(self):
        ds = data.ingest_text("abcdefgh", data.ALPHABET_27, seq_len=3)
        assert ds.items.shape == (2, 3)  # incomplete tail dropped

    def test_round_trip_export(self):
        text = "the cat\nsat mat\none two"
        ds = data.ingest_text(text, data.ALPHABET_27)
        assert "\n".join(_text(ds.items)) == text


class TestByteIngest:
    def test_discretised_256_stores_byte_plus_one(self):
        ds = data.ingest_bytes(bytes([110, 0, 255, 1]), 4, "discretised", K=256)
        np.testing.assert_array_equal(ds.items[0], [111, 1, 256, 2])
        from bflow.discretised import BinGeometry

        assert BinGeometry(256).center(110) == -0.14453125

    def test_discretised_256_every_byte_round_trips(self):
        # ingest -> stored bins -> bytes, and ingest -> model bin centres
        # -> sample-file grey levels
        from bflow import discretised
        from bflow.schedule import ContinuousSigma, FlowConfig

        raw = bytes(range(256))
        ds = data.ingest_bytes(raw, 256, "discretised", K=256)
        assert (ds.items - 1).astype(np.uint8).tobytes() == raw
        cfg = FlowConfig(ContinuousSigma(0.02), D=256, K=256)
        assert discretised.render(cfg, data.model_items(ds), None).tobytes() == raw

    def test_discretised_16_quantises(self):
        ds = data.ingest_bytes(bytes([0, 255, 128]), 3, "discretised", K=16)
        assert ds.items[0, 0] == 1 and ds.items[0, 1] == 16

    def test_continuous_scaling(self):
        ds = data.ingest_bytes(bytes([0, 255]), 2, "continuous")
        np.testing.assert_allclose(ds.items[0], [-1.0, 1.0])

    def test_discrete_codes_round_trip(self):
        raw = bytes([0, 1, 1, 0, 1, 0])
        ds = data.ingest_bytes(raw, 3, "discrete", K=2)
        assert (ds.items - 1).astype(np.uint8).tobytes() == raw

    def test_byte_above_k_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            data.ingest_bytes(bytes([0, 1, 2]), 3, "discrete", K=2)

    def test_payload_size_mismatch(self):
        with pytest.raises(ValueError):
            data.ingest_bytes(bytes([1, 2, 3]), 2, "continuous")


class TestToys:
    def test_glyphs_shape(self):
        ds = data.toy_glyphs()
        assert ds.items.shape == (16, 64)
        assert set(np.unique(ds.items)) == {1, 2}
        # all sixteen patterns distinct
        assert len({tuple(r) for r in ds.items}) == 16

    def test_strings_content(self):
        ds = data.toy_strings()
        assert ds.items.shape == (4, 16)
        texts = _text(ds.items)
        assert texts == data.TOY_STRINGS

    def test_mixture_deterministic(self):
        a = data.toy_mixture()
        b = data.toy_mixture()
        np.testing.assert_array_equal(a.items, b.items)
        assert a.items.shape == (256, 2)
        assert np.all(np.abs(a.items) <= 1.0)

    def test_write_toys(self, tmp_path):
        paths = data.write_toys(tmp_path / "toys")
        back = data.load_dataset(paths["strings"])
        np.testing.assert_array_equal(back.items, data.toy_strings().items)
        assert data.load_alphabet(paths["alphabet"]) == data.ALPHABET_27
