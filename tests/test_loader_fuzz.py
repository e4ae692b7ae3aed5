"""Property tests of the file loaders: every input either loads or raises ParseError,
and the CSV row reader agrees bit for bit with the per-cell oracle."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modradon import forward
from modradon.errors import ParseError
from modradon.experiments import ingest_raw_csv
from modradon.forward import load_sinogram, read_csv_rows
from oracles import read_csv_rows_oracle

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


# mostly M rows of ``width`` finite numbers, so that the C reader accepts a fair
# share of the files, mixed with lines either reader must skip or reject
_number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str))
_padded = st.tuples(st.sampled_from(["", "", " ", "\t", "\u3000"]), _number,
                    st.sampled_from(["", "", " ", "\u00a0"])).map("".join)
_tricky_cell = st.one_of(
    st.sampled_from(["1_0", "\u0661", "\uff11", "nan", "-inf", "1e309", "-0.0", "", " ",
                     "1 2", "0x10", "+.5", "1.", "Infinity", "1e5_0"]),
    _cell)
_other_line = st.one_of(st.sampled_from(["", "  ", "# note", " # x,y", "1,2 # c"]),
                        st.text(max_size=12))


@st.composite
def _csv_case(draw):
    """(body, M, width): M rows of ``width`` cells, give or take a row, with a
    few other lines in between."""
    M, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cell = st.one_of(_padded, _tricky_cell)
    row = st.lists(cell, min_size=width, max_size=width).map(",".join)
    lines = draw(st.lists(row, min_size=M + draw(st.sampled_from([-1, 0, 0, 0, 1])),
                          max_size=M + 1))
    for line in draw(st.lists(_other_line, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), M, width


def read_both(path, M, width):
    """(outcome of read_csv_rows, outcome of the oracle) on the file at ``path``:
    ``("rows", shape, uint64 bits)`` or ``("error", message)``."""
    outcomes = []
    for reader in (read_csv_rows, read_csv_rows_oracle):
        with open(path, errors="replace") as f:
            try:
                rows = reader(f, path, M, width, 1)
            except ParseError as exc:
                outcomes.append(("error", str(exc)))
            else:
                assert rows.dtype == np.float64
                outcomes.append(("rows", rows.shape, rows.view(np.uint64).tolist()))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(_csv_case(), st.tuples(_lines, st.integers(1, 3), st.integers(1, 3))))
def test_csv_rows_match_per_cell_oracle(scratch, case):
    body, M, width = case
    path = scratch / "rows.csv"
    path.write_text(body, encoding="utf-8", newline="")
    new, old = read_both(path, M, width)
    assert new == old


@pytest.mark.parametrize("body, M, width", [
    (b"1_0,2\n3,4\n", 2, 2),
    ("\u0661,2\n3,4\n".encode(), 2, 2),          # Arabic-Indic digit one
    ("\uff11,2\n3,4\n".encode(), 2, 2),          # fullwidth digit one
    (b"1,nan\n3,4\n", 2, 2),
    (b"1,2\n-inf,4\n", 2, 2),
    (b"1,2\n3,1e309\n", 2, 2),
    (b"-0.0,0.0\n3,4\n", 2, 2),
    (b" 1.5 ,2\n3, 4.25\n", 2, 2),
    (b"1,2\n \t \n3,4\n", 2, 2),
    (b"1,2\n# a note\n3,4\n", 2, 2),
    (b"1,2 # c\n3,4\n", 2, 2),
    (b"1,2\r\n3,4\r\n", 2, 2),
    (b"1,2\n3,4\n5,6\n", 2, 2),
    (b"1,2\n3,4\n", 3, 2),
    (b"1,2\n3,\xff\xfe\n", 2, 2),
    (b"", 1, 1),
    (b"1,2,3\n4,5,6\n", 2, 2),
    (b"1\n2\n", 2, 1),
    (b"0.1,0.2\n\n\n", 1, 2),
], ids=["underscore", "arabic-digit", "fullwidth-digit", "nan", "-inf", "overflow",
        "signed-zero", "padded", "whitespace-line", "comment-line", "inline-comment", "crlf",
        "extra-row", "missing-row", "not-utf8", "empty", "wide-rows", "one-column",
        "trailing-blanks"])
def test_csv_rows_fixed_cases_match_per_cell_oracle(scratch, body, M, width):
    path = scratch / "fixed.csv"
    path.write_bytes(body)
    new, old = read_both(path, M, width)
    assert new == old


@pytest.mark.parametrize("body, cell_calls", [
    (b"# head\n1.5,2\n\n-3,4e-3\n", False),
    (b"1.5,2\n-3,x\n", True),
    (b"1.5,2\n-3,4\n5,6\n", True),    # the extra row is reported by its line
    (b"1.5,2\n-3,inf\n", True),
])
def test_csv_rows_parse_cells_only_when_the_c_reader_rejects(scratch, monkeypatch, body,
                                                            cell_calls):
    calls = []
    parse = forward.parse_csv_row

    def counting(*args):
        calls.append(args[3])
        return parse(*args)

    monkeypatch.setattr(forward, "parse_csv_row", counting)
    path = scratch / "spy.csv"
    path.write_bytes(body)
    new, old = read_both(path, 2, 2)
    assert new == old
    assert bool(calls) == cell_calls
