"""Atomic writes: directories, replacement, failures and file modes."""

import os
import stat

import pytest

from mixlap import fileio
from mixlap.fileio import atomic_write


def names(directory):
    return sorted(p.name for p in directory.iterdir())


class TestAtomicWrite:
    def test_write_into_a_missing_directory_creates_it(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.csv"
        atomic_write(str(path), "radius,value\n")
        assert path.read_text() == "radius,value\n"
        assert names(path.parent) == ["out.csv"]

    @pytest.mark.parametrize("data", ["new text", b"new bytes", bytearray(b"new buffer")])
    def test_existing_file_is_replaced(self, tmp_path, data):
        path = tmp_path / "out.dat"
        path.write_bytes(b"an old and longer content")
        atomic_write(str(path), data)
        expected = data.encode() if isinstance(data, str) else bytes(data)
        assert path.read_bytes() == expected
        assert names(tmp_path) == ["out.dat"]

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("old")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(fileio.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(str(path), "new")
        assert path.read_text() == "old"
        assert names(tmp_path) == ["out.json"]

    def test_data_that_cannot_be_written_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        with pytest.raises(TypeError):
            atomic_write(str(path), 12345)  # neither str nor bytes-like
        assert path.read_text() == "old"
        assert names(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_new_file_mode_is_0666_less_the_umask(self, tmp_path, umask):
        path = tmp_path / "out.txt"
        old = os.umask(umask)
        try:
            atomic_write(str(path), "x")
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
