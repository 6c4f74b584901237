"""load_csv's cache of parsed files: hits equal cold parses, and only an
unchanged file under the same request and loader ever hits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvskew
from mvskew import DataError, data, load_csv
from mvskew.cli import main

SRC = Path(mvskew.__file__).resolve().parents[1]


@pytest.fixture
def cache_all(monkeypatch, cache_home) -> Path:
    """Cache every file, however small; returns the cache directory."""
    monkeypatch.setattr(data, "CACHE_BYTES", 0)
    return cache_home / "mvskew"


def entries(cache: Path) -> list[Path]:
    return sorted(cache.glob("*.npy")) if cache.is_dir() else []


def refuse_parse(monkeypatch):
    """Make any parse fail the test: the next load must be a hit."""
    def parse(*args):
        raise AssertionError("parsed a cached file")
    monkeypatch.setattr(data, "parse_columns", parse)


def bits(matrix) -> bytes:
    return np.ascontiguousarray(matrix.values).tobytes()


@pytest.mark.parametrize("text, columns", [
    ("a,b,kind\n1.5,-2e3,x\n0.1,7,y\n3,4,x\n", None),
    ('"a","b"\n"1.25","2"\n"3","-0.5"\n"9","1e-300"\n', None),
    ("\ufeffa,b\n1,2\n3,5\n8,13\n", None),
    ("0.3,1\n2,0.7\n5,4\n", None),
    ("a,b,kind\n1.5,-2e3,x\n0.1,7,y\n3,4,x\n", ["b", "a"]),
    ("a,b,kind\n1.5,-2e3,x\n0.1,7,y\n3,4,x\n", [2, 1]),
    ("a,b,kind\n1.5,-2e3,x\n0.1,7,y\n3,4,x\n", "b"),
], ids=["labelled", "quoted", "bom", "headerless", "by-label", "by-index", "bare-str"])
def test_hit_is_bit_identical_to_a_cold_parse(tmp_path, cache_all, monkeypatch, text,
                                              columns):
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    cold = load_csv(path, columns=columns)
    assert len(entries(cache_all)) == 1
    refuse_parse(monkeypatch)
    hit = load_csv(path, columns=columns)
    assert hit.names == cold.names
    assert bits(hit) == bits(cold)


def test_request_and_header_are_part_of_the_key(tmp_path, cache_all):
    path = tmp_path / "in.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    assert load_csv(path).names == ("x1", "x2")
    assert load_csv(path, columns=[2]).values[:, 0].tolist() == [2, 4, 6]
    assert load_csv(path, header=True).names == ("1", "2")
    assert len(entries(cache_all)) == 3


def test_same_size_rewrite_with_its_mtime_restored_misses(tmp_path, cache_all):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    status = path.stat()
    assert load_csv(path).values[1].tolist() == [3, 4]
    path.write_text("a,b\n1,2\n3,5\n")
    os.utime(path, ns=(status.st_atime_ns, status.st_mtime_ns))
    assert path.stat().st_size == status.st_size
    assert load_csv(path).values[1].tolist() == [3, 5]


@pytest.mark.parametrize("text, message", [
    ("a,b\n1,2\n3\n5,6\n", r"row 3 has 1 cells, expected 2$"),
    ("a,b,c\n1,2,3\n4,NA,6\n7,8,9\n", r"non-numeric cell 'NA' at row 3, column 2$"),
])
def test_failed_parses_are_never_stored(tmp_path, cache_all, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    for _ in range(2):
        with pytest.raises(DataError, match=message):
            load_csv(path)
    assert entries(cache_all) == []


def test_file_changed_during_the_parse_is_not_stored(tmp_path, cache_all, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    parse = data.parse_columns

    def parse_then_append(*args):
        values = parse(*args)
        with open(path, "a") as handle:
            handle.write("5,6\n")
        return values

    monkeypatch.setattr(data, "parse_columns", parse_then_append)
    assert load_csv(path).n == 2
    assert entries(cache_all) == []


def test_bad_columns_exit_2_when_a_hit_exists(tmp_path, cache_all, capsys):
    path = tmp_path / "in.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,7\n7,8,8\n9,1,2\n")
    assert main(["skew", str(path), "--columns", "1-3",
                 "--output-dir", str(tmp_path / "out")]) == 0
    assert len(entries(cache_all)) == 1
    for bad in ("1-4", "d", "0"):
        assert main(["skew", str(path), "--columns", bad,
                     "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("mvskew: column must be from 1 to 3, got 4\n"
                                       "mvskew: no column named 'd'\n"
                                       "mvskew: column must be from 1 to 3, got 0\n")


def claim_rows(entry: Path, rows: int) -> None:
    """Rewrite a 3 x 2 entry's header to claim ``rows`` rows, at the same
    header length."""
    raw = entry.read_bytes()
    claim = f"({rows}, 2)".encode()
    padding = b" " * (len(claim) - len(b"(3, 2)")) + b"\n"
    entry.write_bytes(raw.replace(b"(3, 2)", claim).replace(padding, b"\n", 1))
    with open(entry, "rb") as handle:
        np.lib.format.read_magic(handle)
        assert np.lib.format.read_array_header_1_0(handle)[0] == (rows, 2)


@pytest.mark.parametrize("damage", [
    lambda entry: entry.write_bytes(b""),
    lambda entry: entry.write_bytes(entry.read_bytes()[:-9]),
    lambda entry: entry.write_bytes(b"not an array at all"),
    lambda entry: np.save(entry, np.array([[1, 2]] * 3)),
    lambda entry: np.save(entry, np.full((3, 2), np.nan)),
    lambda entry: np.save(entry, np.ones((3, 3))),
    lambda entry: np.save(entry, np.array(["1", "2"], dtype=object), allow_pickle=True),
    lambda entry: claim_rows(entry, 10**11),
], ids=["empty", "truncated", "garbage", "integer", "nan", "wrong-width", "pickle",
        "huge-shape"])
def test_corrupt_entry_is_a_miss_and_is_rewritten(tmp_path, cache_all, damage):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1.5,2\n3,4.25\n-1,0\n")
    cold = load_csv(path)
    [entry] = entries(cache_all)
    damage(entry)
    assert bits(load_csv(path)) == bits(cold)
    assert np.load(entry, allow_pickle=False).tobytes() == bits(cold)


def test_unusable_cache_directory_still_loads(tmp_path, cache_all, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    # the cache home is a file: no directory can be made under it
    cache_all.parent.write_text("")
    assert load_csv(path).n == 2
    # a relative XDG_CACHE_HOME is ignored, as the XDG specification says
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative")
    assert load_csv(path).n == 2
    assert len(entries(tmp_path / "home" / ".cache" / "mvskew")) == 1


def test_read_only_cache_directory_still_loads(tmp_path, cache_all, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    cold = load_csv(path)
    other = tmp_path / "other.csv"
    other.write_text("a,b\n5,6\n7,9\n")

    def refuse(*args, **kwargs):
        raise PermissionError("read-only")

    # root passes every permission test, so the writes are refused here
    for module, name in ((os, "utime"), (os, "replace"), (data.tempfile, "mkstemp")):
        monkeypatch.setattr(module, name, refuse)
    assert load_csv(other).values.tolist() == [[5, 6], [7, 9]]
    refuse_parse(monkeypatch)
    assert bits(load_csv(path)) == bits(cold)
    assert len(entries(cache_all)) == 1


def _loader(tmp_path, cache: Path):
    def load(k: int, rows: int = 2) -> set[Path]:
        """Load a 2-column file of ``rows`` rows, k in its cells; returns
        the entries this adds."""
        path = tmp_path / f"in{k}.csv"
        path.write_text("a,b\n" + "".join(f"{k},{i}\n" for i in range(rows)))
        before = set(entries(cache))
        load_csv(path)
        return set(entries(cache)) - before
    return load


def test_entry_bound_evicts_the_least_recently_used(tmp_path, cache_all, monkeypatch):
    load = _loader(tmp_path, cache_all)
    stored = []
    for k in range(4):
        [entry] = load(k)
        os.utime(entry, ns=(k * 10**9, k * 10**9))  # distinct, old mtimes
        stored.append(entry)
    # room for the four entries and not a byte more
    monkeypatch.setattr(data, "CACHE_CAPACITY", sum(e.stat().st_size for e in stored))
    assert load(0) == set()  # a hit, which refreshes its mtime
    assert load(4)
    assert len(entries(cache_all)) == 4
    assert not stored[1].exists()
    assert stored[0].exists()
    # an entry larger than the others evicts as many of the oldest as it
    # needs room for: two here
    [large] = load(5, rows=6)
    assert [e.exists() for e in stored] == [True, False, False, False]
    assert large.exists()
    assert sum(e.stat().st_size for e in entries(cache_all)) <= data.CACHE_CAPACITY
    assert list(cache_all.glob("*.tmp")) == []


def test_a_parse_larger_than_the_bound_is_not_kept(tmp_path, cache_all, monkeypatch):
    load = _loader(tmp_path, cache_all)
    [small] = load(0)
    os.utime(small, ns=(10**9, 10**9))
    # the values of 3 rows of 2 columns take 48 bytes
    monkeypatch.setattr(data, "CACHE_CAPACITY", 47)
    assert load(1, rows=3) == set()
    assert entries(cache_all) == [small]  # and nothing was evicted for it
    # the values fit, the entry with its header does not fit beside small
    monkeypatch.setattr(data, "CACHE_CAPACITY", 48 + small.stat().st_size)
    [kept] = load(2, rows=3)
    assert entries(cache_all) == [kept]


def test_unreadable_file_has_no_cache_entry(tmp_path, monkeypatch):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    monkeypatch.setattr(data, "CACHE_BYTES", 0)

    def refuse(*args, **kwargs):
        raise PermissionError("unreadable")

    monkeypatch.setattr(data, "open", refuse, raising=False)
    assert data._cache_entry(path, "auto") is None


def test_small_file_never_imports_hashlib(iris_path):
    assert iris_path.stat().st_size < data.CACHE_BYTES
    code = ("import sys; from mvskew import load_csv; "
            f"load_csv({str(iris_path)!r}); "
            "sys.exit('hashlib' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert result.returncode == 0, result.stderr
