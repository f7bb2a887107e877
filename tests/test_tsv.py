import subprocess
import sys
import textwrap

import pytest

from wikialumni.alumni import AlumniRecord, read_dataset, write_dataset
from wikialumni.cli import EVIDENCE_NAME, run_audit
from wikialumni.config import load_config
from wikialumni.errors import RegistryError
from wikialumni.tsv import atomic_writer, read_tsv, write_tsv

from conftest import child_env
from mini_corpus import build_mini_project


def test_no_header_no_rows_is_zero_bytes(tmp_path):
    path = write_tsv(tmp_path / "redirects.tsv", [], [])
    assert path.read_bytes() == b""


def test_header_only_is_one_line(tmp_path):
    path = write_tsv(tmp_path / "t.tsv", ["a", "b"], [])
    assert path.read_bytes() == b"a\tb\n"


def test_comments_come_before_header(tmp_path):
    path = write_tsv(tmp_path / "t.tsv", ["a", "b"], [("1", "x")], comments=["# k: v", "# z"])
    assert path.read_bytes() == b"# k: v\n# z\na\tb\n1\tx\n"


def test_atomic_writer_renames_on_success_and_removes_on_error(tmp_path):
    path = tmp_path / "t.tsv"
    with atomic_writer(path) as fh:
        fh.write("a\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.tsv.tmp"]
    assert path.read_text(encoding="utf-8") == "a\n"
    with pytest.raises(RuntimeError, match="midway"):
        with atomic_writer(path) as fh:
            fh.write("b\n")
            raise RuntimeError("midway")
    assert path.read_text(encoding="utf-8") == "a\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_read_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# provenance\na\tb\n\n1\tx\n# note\n2\ty\n", encoding="utf-8")
    assert read_tsv(path, headers=[["a", "b"]]) == (["a", "b"], [["1", "x"], ["2", "y"]])


def test_read_returns_the_matching_header(tmp_path):
    path = write_tsv(tmp_path / "t.tsv", ["name", "score"], [("A", "3")])
    header, rows = read_tsv(path, headers=[["name", "rank"], ["name", "score"]])
    assert header == ["name", "score"]
    assert rows == [["A", "3"]]


def test_read_rejects_wrong_column_count_with_line_number(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n1\tx\n2\n", encoding="utf-8")
    with pytest.raises(RegistryError, match=r"t\.tsv:3: expected 2 columns, got 1"):
        read_tsv(path, headers=[["a", "b"]], error=RegistryError)
    with pytest.raises(ValueError, match=r"t\.tsv:3: expected 2 columns, got 1"):
        read_tsv(path, n_cols=2)


def test_read_rejects_wrong_or_missing_header(tmp_path):
    path = write_tsv(tmp_path / "t.tsv", ["a", "c"], [("1", "x")])
    with pytest.raises(ValueError, match=r"t\.tsv:1: expected a header"):
        read_tsv(path, headers=[["a", "b"]])
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="no header row"):
        read_tsv(path, headers=[["a", "b"]])


def test_zero_byte_dataset_is_rejected(tmp_path):
    # only a truncated write can leave a dataset without its header
    path = tmp_path / "dataset.tsv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="no header row"):
        read_dataset(path)


def test_wrong_evidence_header_is_rejected(tmp_path):
    config = load_config(build_mini_project(tmp_path / "proj"))
    config.output_dir.mkdir(parents=True)
    (config.output_dir / EVIDENCE_NAME).write_text(
        "person_link\tuniversity_name\ttrigger\tsentence\n"
        "Alice\tHarvard University\tgraduated\tShe graduated.\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="expected a header"):
        run_audit(config, echo=lambda *a, **k: None)


_WRITE_UNDER_FILE_SIZE_LIMIT = textwrap.dedent(
    """
    import resource, signal, sys
    from wikialumni.alumni import AlumniRecord, write_dataset

    records = [AlumniRecord(i, "University", f"Person {i}", 1950, "en") for i in range(2000)]
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    _soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))
    try:
        write_dataset(records, sys.argv[1])
    except OSError as exc:
        print("OSError", exc.errno)
    """
)


def test_write_killed_by_file_size_limit_keeps_old_dataset(tmp_path):
    # The child cannot grow any file past 4096 bytes, so the write fails
    # midway, as a run killed mid-write would.
    path = tmp_path / "dataset.tsv"
    old = write_dataset([AlumniRecord(1, "University", "Old", 1900, "en")], path).read_bytes()
    result = subprocess.run(
        [sys.executable, "-c", _WRITE_UNDER_FILE_SIZE_LIMIT, str(path)],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("OSError"), result.stdout
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == [path]
