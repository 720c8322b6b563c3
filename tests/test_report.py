import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import CHAIN_A_F, CHAIN_A_G, CHAIN_A_KERNEL
from ergostop.cli import run
from ergostop import report
from ergostop.report import CHUNK_ROWS, emit_report, write_table, write_json
from oracles import row_csv_text, table_rows

SPECIAL_FLOATS = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 2.5e-310,
                  1 / 3 + 1e-16, 1e300, -1.7976931348623157e308]


def _random_columns(rng, n):
    floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    special = rng.random(n) < 0.4
    floats[special] = rng.choice(SPECIAL_FLOATS, int(special.sum()))
    names = np.empty(n, dtype=object)
    for i in range(n):
        kind = rng.integers(3)
        names[i] = (f"s{i}", int(rng.integers(-10**6, 10**6)), float(rng.normal()))[kind]
    return (
        names,
        floats,
        rng.random(n) < 0.5,
        rng.integers(-10**15, 10**15, n),
        np.arange(n, dtype=np.uint32),
        tuple(names),
    )


HEADER = ("state", "x", "flag", "k", "u", "name")


def test_column_writer_matches_row_writer_csv(tmp_path):
    rng = np.random.default_rng(4)
    for n in (0, 1, 2, 17, 300):
        columns = _random_columns(rng, n)
        path = tmp_path / f"t{n}.csv"
        write_table(str(path), HEADER, columns)
        assert path.read_text() == row_csv_text(HEADER, table_rows(columns))
        (emitted,) = emit_report({"t": (HEADER, columns)}, str(tmp_path / "e"), "csv")
        assert Path(emitted).read_text() == path.read_text()


def test_column_writer_matches_row_writer_json(tmp_path):
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 17, 300):
        columns = _random_columns(rng, n)
        reference = tmp_path / f"ref{n}.json"
        write_json(str(reference), [dict(zip(HEADER, row)) for row in table_rows(columns)])
        (emitted,) = emit_report({"t": (HEADER, columns)}, str(tmp_path / f"e{n}"), "json")
        assert Path(emitted).read_bytes() == reference.read_bytes()


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 5])
def test_chunked_writer_matches_row_writer_at_chunk_boundaries(tmp_path, monkeypatch, n):
    rng = np.random.default_rng(n)
    # state names repeated over a grid, as plain str (passed through as they
    # are) and as numpy's str_ (written by format_value)
    str_names = tuple(f"p{i % 7}" for i in range(n))
    np_names = np.array([f"n{i}" for i in range(n)])
    columns = _random_columns(rng, n) + (str_names, np_names)
    header = (*HEADER, "plain", "np_str")
    formatted = []
    format_value = report.format_value
    monkeypatch.setattr(report, "format_value",
                        lambda v: formatted.append(v) or format_value(v))
    path = tmp_path / "t.csv"
    write_table(str(path), header, columns)
    assert path.read_text() == row_csv_text(header, table_rows(columns))
    assert not set(str_names) & {v for v in formatted if type(v) is str}
    assert set(np_names) <= {v for v in formatted if type(v) is np.str_}


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 5])
def test_json_table_matches_record_encoder_at_chunk_boundaries(tmp_path, n):
    # a key with quotes and % signs must pass through the record template
    rng = np.random.default_rng(n)
    columns = _random_columns(rng, n) + (np.array([f"n{i}" for i in range(n)]),)
    header = (*HEADER, 'a "%d" 100%')
    reference = tmp_path / "ref.json"
    write_json(str(reference), [dict(zip(header, row)) for row in table_rows(columns)])
    path = tmp_path / "t.json"
    write_table(str(path), header, columns, "json")
    assert path.read_bytes() == reference.read_bytes()


def test_ragged_table_is_rejected_before_any_file_is_written(tmp_path):
    columns = (np.arange(CHUNK_ROWS + 3), np.zeros(CHUNK_ROWS + 2), ("a",) * (CHUNK_ROWS + 3))
    for fmt in ("csv", "json"):
        path = tmp_path / f"t.{fmt}"
        with pytest.raises(ValueError):
            write_table(str(path), ("k", "w", "state"), columns, fmt)
        assert not path.exists()


def _write_peak(path, n):
    """tracemalloc peak of writing an n-row numeric table (int k, float w,
    bool flag); the columns are built before tracing starts. k starts past
    CPython's cached small ints, so every chunk lists new int objects at
    either size."""
    rng = np.random.default_rng(0)
    columns = (1000 + np.arange(n) // 400, rng.normal(size=n), rng.random(n) < 0.5)
    tracemalloc.start()
    try:
        write_table(str(path), ("k", "w_k", "stop_flag"), columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_peak_memory_does_not_grow_with_the_row_count(tmp_path):
    # rows are formatted a chunk at a time; no column is listed whole
    assert _write_peak(tmp_path / "big.csv", 400_000) <= 1.25 * _write_peak(
        tmp_path / "small.csv", 50_000)


def test_float_column_roundtrips_every_bit(tmp_path):
    values = np.array([1 / 3 + 1e-16, -0.0, 5e-324, np.nextafter(1.0, 2.0)])
    path = tmp_path / "f.csv"
    write_table(str(path), ("v",), (values,))
    back = np.array([float(v) for v in path.read_text().splitlines()[1:]])
    assert back.tobytes() == values.tobytes()


def test_columns_of_unequal_length_are_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_table(str(tmp_path / "t.csv"), ("a", "b"), (np.zeros(2), np.zeros(3)))


# Every table command on chain A under four kinds of state names, in both
# formats. Each digest covers one command's output files except manifest.json
# (name, NUL, bytes, in name order); the values were recorded from the
# row-by-row report writer that the column writer replaced.
GOLDEN_COMMANDS = {
    "solve": ["solve", "--horizon", "3"],
    "solve-truncate": ["solve", "--horizon", "3", "--truncate", "2"],
    "solve-infinite": ["solve-infinite", "--eps", "6.0"],
    "poisson": ["diagnose", "--check", "poisson"],
    "tv": ["diagnose", "--check", "tv", "--max-time", "10"],
    "simulate": ["simulate", "--region", "1", "--start", "0", "--horizons", "0,4,8",
                 "--paths", "300", "--seed", "5"],
    "compactify": ["compactify"],
}
GOLDEN_NAMES = {
    "str": ["a", "b"],
    "int": [10, 20],
    "float": [0.1, 2.5],
    "mixed": [0.1, "b"],
}
GOLDEN_DIGESTS = {
    "str-csv": {
        "solve": "0020e1d3f8723414bdc846443988f85313445744c1b48ef217b115280c3cf514",
        "solve-truncate": "9176465bcd75183752b2fd435b6b5657c74d1800702aba1dbb59bcbf051d7947",
        "solve-infinite": "68b3e3ca6351ca8de875bc0f88ebcc7d0031db706e60373bcad8a36f3aa69f9d",
        "poisson": "c8d14f0dbc6da737a3a714d83fbb7e9e4cfadca92193c8f065b311757cea2e2b",
        "tv": "14d7129e21c2550b1468f38bc6460081dc865cd07e567c050eb6cfe15c6ee1b2",
        "simulate": "140e209c409a2ff6259cd6ef0e7316b1613cfd6806cec68d1f9586f1dda591e6",
        "compactify": "5970a7ad50a3b415d724f9c715310c4425a286eedb2b9dce635b646fe0e8160e",
    },
    "str-json": {
        "solve": "5d0d6f939a89e75d95f77da7d94dee0289f923d6eaa1c68c39a363431e6caef2",
        "solve-truncate": "036aa0da99b27d58a5b9bb5abbf7479872106afea69a2ec73a0402eb9b8b3aa3",
        "solve-infinite": "a81aa6ee471c349c59756fe91a63097b12afcb8e43994e60ba4521af7e9ca8e7",
        "poisson": "10488789d68317c677f69f2bd17029f7855ef630898b39afb90609f87e0a78f6",
        "tv": "31fd30ad7e49848652de6ecbaf579b9faba65442ddbeb7f68397895c4b309d8f",
        "simulate": "26aa49d2a458255a83e69ead49f928117820347aa7150cd40e327a3a8509b89e",
        "compactify": "175b3fa61a556cc76dd0724b4b0430d672640c0e0d7ccfdefb5061defaf620fe",
    },
    "int-csv": {
        "solve": "3648d54ba4de6e417bd83ef553324e8069a109a0ea3cd2c2d6dadd79f7448f76",
        "solve-truncate": "09922bbca71983c59a1cce2bfb562c7e6d412aca86e7e0c23db017dd9fd49134",
        "solve-infinite": "f88039d7a027e77f6cddebea01ff87916d3b08189176a4cfbe5300ed0b5efdd2",
        "poisson": "cc470bad56d17011bb832a415e5c4bec47c1a5971c1e44eaba9813c9e7a8c225",
        "tv": "acebba6904c2ec301fcaee41dd3d9b7395bac3d8ea973f21e5ad356823ff74d7",
        "simulate": "140e209c409a2ff6259cd6ef0e7316b1613cfd6806cec68d1f9586f1dda591e6",
        "compactify": "939e851482dc2f4ab68a4b64018ea2ae50037289f2253448d8e7877e32ab6723",
    },
    "int-json": {
        "solve": "0eb6152968e5fccc82dd03518e887817587556eb224ca8b64f2ca900a0017fe8",
        "solve-truncate": "048dec276d4803d896ddfb22b9059f76a31cf679e978bf3852958292a84217d2",
        "solve-infinite": "8dfee8d64f5e047eb3dca7f51edb5f9086f201ef095148b628fdfcaab8ad8b97",
        "poisson": "9b7c3df919f3ba3d459ca0f14ee0a483e9ed08d40b9a0d1b86a0bab67751cf5a",
        "tv": "ede3380d16e7d23b79c2a828254c570acb2ee7f4c1bb47e49cb892283678cb35",
        "simulate": "26aa49d2a458255a83e69ead49f928117820347aa7150cd40e327a3a8509b89e",
        "compactify": "b992afefc56ef5fb17902d179181699fb9bf6f882267b30ec010cb8cd1960816",
    },
    "float-csv": {
        "solve": "3b39df482e194fd8e8dcdbdf5f81257025271f10981989b41f6870d6b11c1aba",
        "solve-truncate": "0167a012c03f84d908deb3ce53c59377184fd979cc7caf4ae517550a1fa6f3b0",
        "solve-infinite": "5814521eee75fcaab3489684ccdf20a18cf67643cd063aa51920880c489804e1",
        "poisson": "9852b8d9dfc9e5fd915da5b131a43d9bf07c7e45b3384913e0dc05c496d9d7df",
        "tv": "c439a1d691e618100ec5866445d23eb59a0addaec899378fc2c00338538d0eaa",
        "simulate": "140e209c409a2ff6259cd6ef0e7316b1613cfd6806cec68d1f9586f1dda591e6",
        "compactify": "29a1d950ad581065adc7f624a0ec1fb5497e811187145226fcdcf6edb5e6a5dc",
    },
    "float-json": {
        "solve": "abf089660b060e202965f0839f8ed565af1d212eac98784a45fbde00789aa63e",
        "solve-truncate": "771c14bca52756dae9eb20916a6a9d1a6cfd0b9d70b01f925ac8bd978e9d97dc",
        "solve-infinite": "b7a04066ea09d5a56de4c72f19743da148089acca206cd94adf212989067bada",
        "poisson": "b7066bf21b41446ad52a9799d20f98cc5d8099a8695eee22dcd75b805e3537d2",
        "tv": "94039babaa6581b5a5f4a8c48cc115d0011cd1fac337d692efe30b9df64eab6a",
        "simulate": "26aa49d2a458255a83e69ead49f928117820347aa7150cd40e327a3a8509b89e",
        "compactify": "26c85ec934dc3e7614e920861053205ebb9934a990e63004e44ecd464c37e0e8",
    },
    "mixed-csv": {
        "solve": "ecd1e9436de17519018bbd8a2ef77842bc20d008103652bd5eff65e3ce4a77a3",
        "solve-truncate": "a07a52982c029f23702e642b162ac194526bafbbd6b82c7568ba9414f3bcbb32",
        "solve-infinite": "b4a7bf667836f8a34efd238b7c9a1a4afd5839a8c86187da54aaf6ab3a4b6dbb",
        "poisson": "dfc5d68b4c264823f51c212067348f073d3df17ef026228ced2c77063bbc560e",
        "tv": "44b0272ebc46748defcb410c51bd5b324795183e3061c2903fc7ba2602eeb310",
        "simulate": "140e209c409a2ff6259cd6ef0e7316b1613cfd6806cec68d1f9586f1dda591e6",
        "compactify": "10be6721a99e4d855795cf307a3158c384b3617406a9e60553fd352ed9ec9092",
    },
    "mixed-json": {
        "solve": "082c58c0d033d08a412407a60bd40b796982ac6c2de9683a1a95c456af4f4d8e",
        "solve-truncate": "175c133895b2715ee66fec2d96072988ac62f90d81694f226170a9db497388cf",
        "solve-infinite": "6fa4d1d6a09229550b46d7cbdcd1e8cbc2b26613862bdc5a0c2ada53fa5f90dd",
        "poisson": "57dc396667dcaefe5c30f774a061563c576ff08f70d18bec39b15568833725ee",
        "tv": "a1c5ff13e86497a25793ab1bd640a3f541128cf16c4ad79f694e79b0287dc119",
        "simulate": "26aa49d2a458255a83e69ead49f928117820347aa7150cd40e327a3a8509b89e",
        "compactify": "3de9f88451731e7a51ba42a4bf582027e947bc109ef7e9ee0d5132eca4cab47e",
    },
}


def _outputs_digest(out):
    h = hashlib.sha256()
    for path in sorted(Path(out).iterdir()):
        if path.name != "manifest.json":
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("names", list(GOLDEN_NAMES))
def test_table_commands_golden_digests(tmp_path, names, fmt):
    model = tmp_path / "chain_a.json"
    model.write_text(json.dumps({
        "states": GOLDEN_NAMES[names], "kernel": CHAIN_A_KERNEL, "dt": 1.0,
        "coords": [[0.0], [1.0]], "f": list(CHAIN_A_F), "g": list(CHAIN_A_G),
    }))
    digests = {}
    for command, argv in GOLDEN_COMMANDS.items():
        out = tmp_path / command
        argv = [*argv, "--model", str(model), "--format", fmt, "--out", str(out)]
        assert run(argv) == 0
        digests[command] = _outputs_digest(out)
    assert digests == GOLDEN_DIGESTS[f"{names}-{fmt}"]
