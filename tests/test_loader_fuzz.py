"""Property tests of the file loaders: every input either loads or raises ParseError."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modradon.errors import ParseError
from modradon.experiments import ingest_raw_csv
from modradon.forward import load_sinogram

FUZZ = settings(max_examples=60, deadline=None)

# header fields: small valid values mixed with the ones a loader must reject
_counts = st.one_of(st.integers(0, 3), st.just(2**32 - 1))
_reals = st.one_of(st.sampled_from([20.0, 0.05, 0.5]), st.floats(width=64))
_payload = st.one_of(
    st.binary(max_size=64),
    st.lists(st.floats(width=64), max_size=12).map(lambda v: struct.pack(f"<{len(v)}d", *v)),
)
_mrts = st.one_of(
    st.binary(max_size=80),
    st.builds(
        lambda magic, version, M, K, Kp, omega, T, lam, payload: (
            magic + struct.pack("<IIII", version, M, K, Kp)
            + struct.pack("<ddd", omega, T, lam) + payload),
        st.sampled_from([b"MRTS", b"MRTX"]), st.sampled_from([1, 2]),
        _counts, _counts, _counts, _reals, _reals, _reals, _payload,
    ),
)
_cell = st.one_of(st.floats(width=64).map(repr), st.text(max_size=6))
_lines = st.lists(
    st.one_of(st.text(max_size=30),
              st.lists(_cell, min_size=1, max_size=5).map(",".join)),
    max_size=6,
).map("\n".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def loads_or_parse_error(load, *args, **kwargs):
    try:
        load(*args, **kwargs)
    except ParseError:
        pass


@FUZZ
@given(blob=_mrts)
def test_mrts_bytes(scratch, blob):
    path = scratch / "s.mrts"
    path.write_bytes(blob)
    loads_or_parse_error(load_sinogram, path)


@FUZZ
@given(omega=_reals.map(repr), T=_reals.map(repr), lam=_reals.map(repr),
       M=st.integers(-1, 3), K=st.integers(-1, 2), Kp=st.integers(-1, 3), body=_lines)
def test_csv_sinogram_text(scratch, omega, T, lam, M, K, Kp, body):
    path = scratch / "s.csv"
    path.write_text(f"# modradon-sinogram omega={omega} T={T} lambda={lam}"
                    f" M={M} K={K} K_prime={Kp}\n{body}", encoding="utf-8")
    loads_or_parse_error(load_sinogram, path)


@FUZZ
@given(body=_lines, normalize=st.booleans())
def test_ingest_csv_text(scratch, body, normalize):
    path = scratch / "raw.csv"
    path.write_text(body, encoding="utf-8")
    loads_or_parse_error(ingest_raw_csv, path, omega=20.0, T=0.05, M=2, K=1, lam=0.1,
                         normalize=normalize)
