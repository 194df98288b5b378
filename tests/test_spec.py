"""The sum spec reader against a reference line loop.

_read_sum_spec reads a spec once, in steps of _SPEC_CHUNK characters, and
takes each step in bulk or hands it to its line-by-line body.  On every
input it must give what _reference, a plain line loop over the whole
file, gives: bitwise the same arrays and independence flag, or the same
_UsageError text.
"""

from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subgauss.cli as cli_module

BOM = "\ufeff"
CHUNK = cli_module._SPEC_CHUNK


def _reference(path: str) -> tuple[bytes, bytes, bool]:
    """The spec grammar, one line of the file at a time, with its messages."""
    independent = True
    coeffs = array("d")
    probs = array("d")
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.lower().startswith("independent:"):
                flag = line.split(":", 1)[1].strip().lower()
                if flag not in ("true", "false"):
                    raise cli_module._UsageError(
                        f"{path}:{lineno}: independent must be true or false, got {flag!r}"
                    )
                independent = flag == "true"
                continue
            parts = line.split()
            if len(parts) != 2:
                raise cli_module._UsageError(
                    f"{path}:{lineno}: expected 'coefficient probability', got {line!r}"
                )
            try:
                coeffs.append(float(parts[0]))
                probs.append(float(parts[1]))
            except ValueError:
                raise cli_module._UsageError(f"{path}:{lineno}: not numeric: {line!r}") from None
    if not coeffs:
        raise cli_module._UsageError(f"{path}: no terms found")
    return coeffs.tobytes(), probs.tobytes(), independent


def _terms(coeffs, probs, independent):
    # stands in for WeightedIndicatorSum, which would reject NaN or inf terms
    return coeffs.tobytes(), probs.tobytes(), independent


def _outcome(read, path: str):
    try:
        return read(path)
    except cli_module._UsageError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("specs") / "sum.txt"


def _same(path, text: str, chunk: int = CHUNK):
    """The reader's terms or error text on text, asserted to be the reference's."""
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(cli_module, "WeightedIndicatorSum", _terms), \
            mock.patch.object(cli_module, "_SPEC_CHUNK", chunk):
        got = _outcome(cli_module._read_sum_spec, str(path))
    assert got == _outcome(_reference, str(path))
    return got


def _steps(path, text: str) -> list[str]:
    """text cut as the reader cuts it: CHUNK characters, then to the line end."""
    path.write_bytes(text.encode("utf-8"))
    steps = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        while step := fh.read(CHUNK):
            steps.append(step + fh.readline())
    return steps


# (spec text, whether it is plain: ASCII, terms, no comment, no header after
# the first non-blank line; every plain spec reads)
EDGE_CASES = [
    ("1_0 0.5\n", True),
    (" inf  0.5 \n", True),
    ("nan 0.5\n", True),
    ("Infinity -Infinity\n", True),
    ("+1e5 .5\n", True),
    ("5. 1e400\n", True),
    ("-0.0 -0\n", True),
    ("0x10 0.5\n", False),
    ("1\t0.5\n", True),
    ("1\x0b0.5\n", True),
    ("1\x0c0.5\n", True),
    ("1\x1c0.5\n2\x1d0.25\n3\x1e0.75\n4\x1f0.125\n", True),
    ("1\xa00.5\n", False),
    ("\u0661 0.5\n", False),
    ("1 0.5\x85\n", False),
    ("1 0.5\r\n2 0.25\r\n", True),
    ("1 0.5\r2 0.25\r", True),
    ("1 0.5\r\n2 0.25\r3 0.125\n", True),
    ("\n\n  \n1 0.5\n\n\t\n2 0.25\n\n", True),
    ("1 0.5", True),
    ("independent: false\n1 0.5\n", True),
    ("  \n\x0c\n INDEPENDENT:FALSE \n1 0.5", True),
    ("independent:\ttrue\r\n1 0.5\r\n", True),
    ("independent: maybe\n1 0.5\n", False),
    ("independent: true false\n1 0.5\n", False),
    ("1 0.5\nindependent: false\n", False),
    ("independent: false\nindependent: true\n1 0.5\n", False),
    ("independent:false\n2 0.5\nindependent:true\n", False),
    ("# c p\n1 0.5\n", False),
    ("1 0.5 # note\n", False),
    ("1\n", False),
    ("1 0.5 7\n", False),
    ("1 0.5\n2\n3 0.5 4\n", False),
    ("1 x\n", False),
    ("", False),
    ("\n \n", False),
    ("independent: false\n", False),
    ("independent: true\n\n", False),
]


@pytest.mark.parametrize("text,plain", EDGE_CASES)
def test_fast_path_is_the_loop_or_hands_over(spec_path, text, plain):
    # every chunk size from one character up cuts the spec somewhere else
    for chunk in (1, 2, 3, 5, CHUNK):
        got = _same(spec_path, text, chunk)
        assert isinstance(got, tuple) or not plain


@pytest.mark.parametrize("text,plain", EDGE_CASES)
def test_bom_is_skipped(spec_path, text, plain):
    got = _same(spec_path, BOM + text)
    assert isinstance(got, tuple) or not plain
    assert got == _same(spec_path, text)


@pytest.mark.parametrize("header", ["", "independent: false\n", "independent: true\n"])
def test_bom_spec_file_reads_like_the_plain_file(tmp_path, header):
    text = header + "0.25 0.1\n-3 1e-300\n1e16 0.5\n"
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(BOM.encode("utf-8") + text.encode("utf-8"))
    # a comment sends the step line by line
    commented = tmp_path / "commented.txt"
    commented.write_bytes((BOM + "# terms\n" + text).encode("utf-8"))
    want = cli_module._read_sum_spec(str(plain))
    for path in (bom, commented):
        got = cli_module._read_sum_spec(str(path))
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.p_values.tobytes() == want.p_values.tobytes()
        assert got.independent == want.independent == (header != "independent: false\n")


_TOKENS = st.sampled_from([
    "1", "-2.5", "0.5", "1_0", "inf", "-inf", "nan", "Infinity", "+1e5", ".5",
    "5.", "1e-300", "5e-324", "-0.0", "0x1", "1__0", "x", "", "#", "# c",
    "independent:", "independent:true", "INDEPENDENT:", "true", "false",
    "\u0661", "1\xa0", "\ufeff1",
])
_SPACES = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                           "\x1f", "\xa0", " \t "])
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
# small chunks put step boundaries everywhere in a short spec
_CHUNKS = st.sampled_from([1, 2, 3, 4, 7, 16, CHUNK])


@st.composite
def _spec_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["pair", "pair", "pair", "tokens", "header", "blank"]))
        if kind == "pair":
            tokens = [draw(st.sampled_from(["1", "-2.5", "0.5", "1_0", "1e-300", ".5"])),
                      draw(st.sampled_from(["0.5", "0.25", "1", "0", "5e-324", "-0.0"]))]
        elif kind == "header":
            tokens = ["independent:", draw(st.sampled_from(["true", "false", "FALSE"]))]
        elif kind == "blank":
            tokens = []
        else:
            tokens = draw(st.lists(_TOKENS, max_size=4))
        sep = draw(_SPACES)
        line = draw(_SPACES) * draw(st.integers(0, 1)) + sep.join(tokens)
        lines.append(line + draw(_ENDS))
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return BOM + text if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(_spec_texts(), _CHUNKS)
def test_fast_path_matches_the_loop_on_generated_specs(spec_path, text, chunk):
    _same(spec_path, text, chunk)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(list("0123456789.-+eEinfatrudp_:# \t\n\r\x0b\x0c\x1c")
                                + ["inf", "nan", "independent:", "true", "\xa0",
                                   "\u0661", "\ufeff"]),
                max_size=40).map("".join), _CHUNKS)
def test_fast_path_matches_the_loop_on_arbitrary_text(spec_path, text, chunk):
    _same(spec_path, text, chunk)


def _long_spec(n: int, header: str = "independent: false\n", end: str = "\n") -> str:
    rng = np.random.default_rng(5)
    seps = [" ", "\t", "  ", "\x0c"]
    lines = [f"{c!r}{seps[k % 4]}{p!r}{end}" for k, (c, p) in
             enumerate(zip(rng.uniform(-2, 2, n).tolist(), rng.uniform(0, 1, n).tolist()))]
    return header + "".join(lines)


def _lines_with(text: str, at: int, extra: str) -> str:
    lines = text.split("\n")
    return "\n".join(lines[:at] + [extra] + lines[at:])


def test_spec_longer_than_one_chunk(spec_path):
    text = _long_spec(8000)
    assert len(_steps(spec_path, text)) > 3
    got = _same(spec_path, text)
    assert len(got[0]) == 8 * 8000 and not got[2]
    # a bad line, a comment or a header after the first two steps
    cut = text.rindex("\n", 0, 2 * CHUNK) + 1
    for extra in ["1 2 3\n", "# late\n", "independent: true\n", "1 x\n"]:
        _same(spec_path, text[:cut] + extra + text[cut:])
    # a header or a comment that opens a later step
    step = "1" + " " * (CHUNK - 5) + "0.5\n"
    assert len(step) == CHUNK
    for opener in ["independent: true\n", "# late\n", "independent: no\n"]:
        text2 = step + "2 0.25\n" + opener + "3 0.125\n" + "4 0.5\n" * 5000
        assert _steps(spec_path, text2)[1].startswith(opener)
        _same(spec_path, text2)
    # the header may follow more than a step of blank lines
    blank = " \n" * CHUNK
    got = _same(spec_path, blank + text)
    assert isinstance(got, tuple) and not got[2]


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_cr_and_crlf_specs_longer_than_one_step(spec_path, end):
    text = _long_spec(8000, header="independent: false" + end, end=end)
    assert len(_steps(spec_path, text)) > 3
    got = _same(spec_path, text)
    assert got == _same(spec_path, text.replace(end, "\n"))
    lines = text.split(end)
    _same(spec_path, end.join(lines[:6000] + ["1.0 0.5 7.0"] + lines[6000:]))


# one line for each of the three line errors, and a spec with no terms
_FAULTS = ["independent: maybe", "1.0 0.5 7.0", "1.0 x", "# no terms"]


@pytest.mark.parametrize("fault", _FAULTS)
def test_fault_in_the_first_and_in_the_last_step(spec_path, fault):
    if fault.startswith("#"):
        # blank lines, comments and a header over several steps, no term
        text = ("\n" + fault + "\n   \nindependent: false\n") * (CHUNK // 8)
        assert len(_steps(spec_path, text)) > 2
        assert _same(spec_path, text).endswith(": no terms found")
        return
    text = _long_spec(8000, header="")
    assert _same(spec_path, fault + "\n" + text).startswith(f"{spec_path}:1: ")
    last = _lines_with(text, 7990, fault)
    steps = _steps(spec_path, last)
    assert len(steps) > 2 and fault in steps[-1]
    assert _same(spec_path, last).startswith(f"{spec_path}:7991: ")


def _recorder():
    """An array("d") that counts its append calls, the line-by-line ones."""
    class Recorder(array):
        appends = 0

        def append(self, x):
            type(self).appends += 1
            super().append(x)
    return Recorder


def test_plain_steps_go_in_bulk(spec_path):
    text = _long_spec(8000, header="")
    recorder = _recorder()
    with mock.patch.object(cli_module, "array", recorder):
        # no step goes line by line
        _same(spec_path, text)
        assert recorder.appends == 0
        # a header sends its own step, the first, line by line
        headed = "independent: false\n" + text
        _same(spec_path, headed)
        assert recorder.appends == 2 * (_steps(spec_path, headed)[0].count("\n") - 1)
        # so does a token float() rejects, in the last step, up to that line
        recorder.appends = 0
        bad = _lines_with(text, 7990, "0x1 0.5")
        assert _same(spec_path, bad).startswith(f"{spec_path}:7991: not numeric")
        last = _steps(spec_path, bad)[-1]
        assert recorder.appends == 2 * last.split("\n").index("0x1 0.5")


def test_each_token_is_converted_once(spec_path):
    # a header or comment keeps its step from a bulk pass that would fail
    # on that line after converting the lines before it
    text = _long_spec(8000, header="")
    lines = text.split("\n")
    text = "\n".join(lines[:300] + ["independent: false"] + lines[300:4000]
                     + ["#c p"] + lines[4000:])
    calls = []

    def counted(token):
        calls.append(token)
        return float(token)

    with mock.patch.object(cli_module, "float", counted, create=True):
        got = _same(spec_path, text)
    assert len(calls) == 2 * 8000 and not got[2]


def test_late_bad_line_names_its_line(tmp_path, capsys):
    text = _long_spec(8000)
    lines = text.split("\n")
    lines.insert(6000, "1.0 0.5 7.0")
    spec = tmp_path / "sum.txt"
    spec.write_text("\n".join(lines))
    assert cli_module.main(["bound", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", f"error: {spec}:6001: expected 'coefficient probability', got '1.0 0.5 7.0'\n")


@pytest.mark.parametrize("seed", [7, 11])
def test_bench_shaped_specs_parse_like_the_loop(spec_path, seed):
    # the spec format of the benchmark: a header, then repr floats
    rng = np.random.default_rng([seed, 3])
    n = 20_000
    for coeffs, probs, independent in [
        (rng.integers(1, 4, 200).tolist(), rng.uniform(0.05, 0.95, 200).tolist(), True),
        ([1.0] * n, rng.uniform(0.05, 0.95, n).tolist(), True),
        (rng.uniform(-2, 2, n).tolist(), rng.uniform(0.05, 0.95, n).tolist(), False),
    ]:
        lines = [f"independent: {'true' if independent else 'false'}"]
        lines += [f"{float(c)!r} {float(p)!r}" for c, p in zip(coeffs, probs)]
        got = _same(spec_path, "\n".join(lines) + "\n")
        assert got[2] == independent
        assert np.frombuffer(got[0]).tolist() == [float(c) for c in coeffs]


def test_invalid_utf8_is_still_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "sum.txt"
    spec.write_bytes(b"1 0.5\n2 0.\xff5\n")
    assert cli_module.main(["bound", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("bom", [b"", BOM.encode("utf-8")])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_invalid_utf8_names_its_line_and_file_offset(tmp_path, capsys, bom, end):
    # the codec's own position is into a decode chunk; the file offset of a
    # byte past the third step locates it, with the BOM's 3 bytes counted
    body = _long_spec(8000, end=end).encode("utf-8")
    assert len(body) > 3 * CHUNK
    data = bom + body + b"1 0.\xff5" + end.encode()
    spec = tmp_path / "sum.txt"
    spec.write_bytes(data)
    assert cli_module.main(["bound", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert data.index(b"\xff") == len(bom) + len(body) + 4
    assert (out, err) == ("", (
        f"error: 'utf-8' codec can't decode byte 0xff at {spec}:8002 "
        f"(file offset {len(bom) + len(body) + 4}): invalid start byte\n"))


@pytest.mark.parametrize("bom", [b"", BOM.encode("utf-8")])
def test_invalid_utf8_on_the_first_line(tmp_path, capsys, bom):
    spec = tmp_path / "sum.txt"
    spec.write_bytes(bom + b"1 0.\xff5\n2 0.3\n")
    assert cli_module.main(["bound", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", (
        f"error: 'utf-8' codec can't decode byte 0xff at {spec}:1 "
        f"(file offset {len(bom) + 4}): invalid start byte\n"))


def test_valid_spec_is_opened_once(spec_path):
    opened = []

    def counted(*args, **kwargs):
        opened.append(args)
        return open(*args, **kwargs)

    with mock.patch.object(cli_module, "open", counted, create=True):
        _same(spec_path, BOM + _long_spec(8000))
    assert opened == [(str(spec_path), "r")]
