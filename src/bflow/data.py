"""Dataset container format, text/byte ingestion and the bundled toys.

File layout (little endian):

    magic   4 bytes  b"BFDS"
    version u32      currently 2 (version 1 stored K=256 bytes 0 and 1
                     both as bin 1)
    modality u8      0 = continuous, 1 = discretised, 2 = discrete
    D       u32      values per item
    K       u32      class/bin count (0 for continuous)
    count   u64      item count
    payload          continuous: count*D float64 in [-1, 1]
                     discretised/discrete: count*D uint32, 1-based, <= K

Text corpora are ingested against an alphabet file with one symbol per
line (a line holding a single space is the space symbol); indices are
1-based in alphabet order.  Newline-separated text maps one line to one
item (all lines must share one length); text without newlines is chunked.

8-bit byte data ingested at K=256 stores byte b as bin b + 1, so all 256
levels round-trip; other bin counts scale bytes to [-1, 1] and quantise to
the nearest centre.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .discrete import ALPHABET_27
from .discretised import BinGeometry, quantise
from .numerics import Rng

MAGIC = b"BFDS"
VERSION = 2
MODALITY_CODES = {"continuous": 0, "discretised": 1, "discrete": 2}
MODALITY_NAMES = {v: k for k, v in MODALITY_CODES.items()}
_HEADER = struct.Struct("<4sIBIIQ")


@dataclass
class Dataset:
    modality: str
    D: int
    K: int
    items: np.ndarray  # (count, D) float64 or int64

    def __post_init__(self):
        self.items = np.asarray(self.items)
        if self.items.ndim != 2 or self.items.shape[1] != self.D:
            raise ValueError("items must have shape (count, D)")
        if self.modality == "continuous":
            if not np.all(np.abs(self.items) <= 1.0):  # NaN fails too
                raise ValueError("continuous values outside [-1, 1]")
        else:
            if self.K < 2:
                raise ValueError("need K >= 2")
            if np.any(self.items < 1) or np.any(self.items > self.K):
                raise ValueError(f"indices outside 1..{self.K}")


def save_dataset(path, ds):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(
            MAGIC, VERSION, MODALITY_CODES[ds.modality],
            ds.D, ds.K, ds.items.shape[0],
        ))
        if ds.modality == "continuous":
            fh.write(np.ascontiguousarray(ds.items, dtype="<f8").tobytes())
        else:
            fh.write(np.ascontiguousarray(ds.items, dtype="<u4").tobytes())


def load_dataset(path):
    """Read a dataset file; a payload of the wrong length raises ValueError."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ValueError(f"dataset header is {len(head)} bytes, expected {_HEADER.size}")
        magic, version, mod_code, D, K, count = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ValueError(f"not a dataset file (magic {magic!r})")
        if version != VERSION:
            raise ValueError(f"unsupported dataset version {version}")
        blob = fh.read()
    if mod_code not in MODALITY_NAMES:
        raise ValueError(f"unknown modality code {mod_code}")
    modality = MODALITY_NAMES[mod_code]
    dtype = "<f8" if modality == "continuous" else "<u4"
    expected = count * D * np.dtype(dtype).itemsize
    if len(blob) != expected:
        raise ValueError(
            f"dataset payload is {len(blob)} bytes, expected {expected} "
            f"for {count} items of D={D}"
        )
    items = np.frombuffer(blob, dtype=dtype).reshape(count, D)
    if modality == "continuous":
        items = items.copy()
    else:
        items = items.astype(np.int64)
    return Dataset(modality=modality, D=D, K=K, items=items)


def model_items(ds):
    """Dataset items as training and the loss ops take them: discretised
    files store 1-based bin indices, and the model sees bin centres."""
    if ds.modality == "discretised":
        return BinGeometry(ds.K).centers[ds.items - 1]
    return ds.items


# ---------------------------------------------------------------------------
# Alphabets and text
# ---------------------------------------------------------------------------


def load_alphabet(path):
    """One symbol per line; only the trailing newline is stripped."""
    symbols = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            symbols.append(line[:-1] if line.endswith("\n") else line)
    symbols = [s for s in symbols if s != ""]
    if len(set(symbols)) != len(symbols):
        raise ValueError("alphabet contains duplicate symbols")
    if any(len(s) != 1 for s in symbols):
        raise ValueError("alphabet symbols must be single characters")
    return symbols


def save_alphabet(path, symbols):
    with open(path, "w", encoding="utf-8") as fh:
        for s in symbols:
            fh.write(s + "\n")


def encode_text(text, alphabet):
    """1-based indices for each character; names the offending offset."""
    lookup = {s: i + 1 for i, s in enumerate(alphabet)}
    out = np.empty(len(text), dtype=np.int64)
    for pos, ch in enumerate(text):
        try:
            out[pos] = lookup[ch]
        except KeyError:
            raise ValueError(f"symbol {ch!r} at offset {pos} is not in the alphabet") from None
    return out


def ingest_text(text, alphabet, seq_len=None):
    """Dataset from UTF-8 text.

    With newlines present each line becomes one item and all lines must
    have equal length; otherwise the stream is split into seq_len chunks
    and an incomplete tail is dropped.
    """
    if "\n" in text:
        lines = [ln for ln in text.split("\n") if ln != ""]
        if not lines:
            raise ValueError("the text holds no lines")
        lengths = {len(ln) for ln in lines}
        if len(lengths) != 1:
            raise ValueError(f"lines have unequal lengths {sorted(lengths)}")
        items = np.stack([encode_text(ln, alphabet) for ln in lines])
    else:
        if not seq_len:
            raise ValueError("seq_len is required for unstructured text")
        n = len(text) // seq_len
        if n == 0:
            raise ValueError("text shorter than one sequence")
        items = encode_text(text[: n * seq_len], alphabet).reshape(n, seq_len)
    return Dataset(modality="discrete", D=items.shape[1], K=len(alphabet), items=items)


# ---------------------------------------------------------------------------
# Byte (image) ingestion
# ---------------------------------------------------------------------------


def ingest_bytes(raw, D, modality, K=0):
    """Dataset from raw 8-bit samples, D values per item.

    continuous: value/255 scaled to [-1, 1].
    discretised, K=256: byte b stored as bin b + 1.
    discretised, other K: scaled then quantised to the nearest centre.
    discrete: byte values are class codes 0..K-1, stored 1-based.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    if buf.size == 0 or buf.size % D != 0:
        raise ValueError(f"payload of {buf.size} bytes is not a multiple of D={D}")
    vals = buf.reshape(-1, D)
    if modality == "continuous":
        items = vals.astype(np.float64) * (2.0 / 255.0) - 1.0
        return Dataset(modality="continuous", D=D, K=0, items=items)
    if modality == "discretised":
        if K == 256:
            items = vals.astype(np.int64) + 1
        else:
            scaled = vals.astype(np.float64) * (2.0 / 255.0) - 1.0
            items = quantise(scaled, K)
        return Dataset(modality="discretised", D=D, K=K, items=items)
    if modality == "discrete":
        if np.any(vals >= K):
            bad = int(np.argmax(vals.ravel() >= K))
            raise ValueError(f"byte {int(vals.ravel()[bad])} at offset {bad} is not below K={K}")
        return Dataset(modality="discrete", D=D, K=K, items=vals.astype(np.int64) + 1)
    raise ValueError(f"unknown modality {modality!r}")


# ---------------------------------------------------------------------------
# Bundled toys (all deterministic)
# ---------------------------------------------------------------------------

TOY_STRINGS = [
    "the rain in maui",
    "a stitch in time",
    "wind on the hill",
    "cold soup at ten",
]

_GLYPH_ROWS = [
    "11111111 10000001 10000001 10000001 10000001 10000001 10000001 11111111",
    "00011000 00011000 00011000 11111111 11111111 00011000 00011000 00011000",
    "10101010 01010101 10101010 01010101 10101010 01010101 10101010 01010101",
    "11110000 11110000 11110000 11110000 00001111 00001111 00001111 00001111",
    "11111111 11111111 00000000 00000000 00000000 00000000 11111111 11111111",
    "11000011 11000011 11000011 11111111 11111111 11000011 11000011 11000011",
    "10000000 01000000 00100000 00010000 00001000 00000100 00000010 00000001",
    "00000001 00000010 00000100 00001000 00010000 00100000 01000000 10000000",
    "00111100 01111110 11111111 11111111 11111111 11111111 01111110 00111100",
    "11111111 10000001 10111101 10100101 10100101 10111101 10000001 11111111",
    "00000000 00111100 00100100 00100100 00100100 00100100 00111100 00000000",
    "11001100 11001100 00110011 00110011 11001100 11001100 00110011 00110011",
    "00010000 00111000 01111100 11111110 01111100 00111000 00010000 00000000",
    "11111111 00000000 11111111 00000000 11111111 00000000 11111111 00000000",
    "10011001 10011001 01100110 01100110 10011001 10011001 01100110 01100110",
    "00000000 01100110 01100110 00000000 10000001 01000010 00111100 00000000",
]


def toy_glyphs():
    """16 8x8 binary bitmaps as class indices 1 (off) / 2 (on)."""
    items = np.empty((16, 64), dtype=np.int64)
    for i, row in enumerate(_GLYPH_ROWS):
        bits = row.replace(" ", "")
        items[i] = np.array([1 + int(b) for b in bits], dtype=np.int64)
    return Dataset(modality="discrete", D=64, K=2, items=items)


def toy_strings():
    """4 fixed 16-character strings over the 27-symbol alphabet."""
    items = np.stack([encode_text(s, ALPHABET_27) for s in TOY_STRINGS])
    return Dataset(modality="discrete", D=16, K=27, items=items)


def toy_mixture(count=256, seed=2024):
    """2-D draws from a 4-mode Gaussian mixture, clipped to [-1, 1]."""
    rng = Rng(seed, _path=(0x707,))
    modes = np.array([[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]])
    which = rng.integers(0, 4, size=count)
    pts = modes[which] + 0.05 * rng.standard_normal((count, 2))
    return Dataset(modality="continuous", D=2, K=0, items=np.clip(pts, -1.0, 1.0))


def write_toys(outdir):
    """Materialise the bundled toys (datasets + alphabet) into a directory."""
    import os

    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, ds in (
        ("glyphs", toy_glyphs()),
        ("strings", toy_strings()),
        ("mixture", toy_mixture()),
    ):
        p = os.path.join(outdir, f"toy_{name}.ds")
        save_dataset(p, ds)
        paths[name] = p
    alpha_path = os.path.join(outdir, "alphabet27.txt")
    save_alphabet(alpha_path, ALPHABET_27)
    paths["alphabet"] = alpha_path
    return paths
