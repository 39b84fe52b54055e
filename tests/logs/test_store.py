"""The reference record archive and the shared log-directory walk.

:class:`~tests.logs.record_reference.LogArchive` is the record-object
reader and writer the columnar path is checked against, so its own
directory round trips are pinned here, together with
:func:`repro.logs.columnar.directory_log_files`, which both readers use.
"""

import gzip

from repro.core.records import EndRecord, ErrorRecord, StartRecord
from repro.logs.columnar import directory_log_files

from .record_reference import LogArchive


def make_archive():
    archive = LogArchive()
    archive.extend(
        [
            StartRecord(0.0, "01-02", 3072, None),
            ErrorRecord(1.0, "01-02", 0x30, 0x80, 0xFFFFFFFF, 0xFFFFFFFE, None, 5),
            EndRecord(2.0, "01-02", None),
            ErrorRecord(0.5, "02-04", 0x40, 0x81, 0x0, 0x1, 33.0, 1),
        ]
    )
    return archive


class TestArchive:
    def test_nodes_sorted(self):
        assert make_archive().nodes == ["01-02", "02-04"]

    def test_counts(self):
        archive = make_archive()
        assert archive.n_records() == 4
        assert archive.n_raw_error_lines() == 6  # repeat 5 + repeat 1

    def test_error_records_filter(self):
        archive = make_archive()
        assert len(list(archive.error_records())) == 2
        assert len(list(archive.error_records("01-02"))) == 1

    def test_sort(self):
        archive = LogArchive()
        archive.append(ErrorRecord(5.0, "01-02", 0, 0, 0, 1))
        archive.append(ErrorRecord(1.0, "01-02", 0, 0, 0, 1))
        archive.sort()
        times = [r.timestamp_hours for r in archive.records("01-02")]
        assert times == [1.0, 5.0]

    def test_directory_roundtrip(self, tmp_path):
        archive = make_archive()
        archive.write_directory(tmp_path / "logs")
        loaded = LogArchive.read_directory(tmp_path / "logs")
        assert loaded.nodes == archive.nodes
        for node in archive.nodes:
            assert loaded.records(node) == archive.records(node)

    def test_one_file_per_node(self, tmp_path):
        make_archive().write_directory(tmp_path)
        names = sorted(p.name for p in tmp_path.glob("*.log"))
        assert names == ["01-02.log", "02-04.log"]

    def test_gzip_roundtrip(self, tmp_path):
        archive = make_archive()
        archive.write_directory(tmp_path, compress=True)
        names = sorted(p.name for p in tmp_path.glob("*.gz"))
        assert names == ["01-02.log.gz", "02-04.log.gz"]
        loaded = LogArchive.read_directory(tmp_path)
        assert loaded.n_records() == archive.n_records()
        for node in archive.nodes:
            assert loaded.records(node) == archive.records(node)

    def test_mixed_compression_not_double_read(self, tmp_path):
        """Regression: node.log + node.log.gz must ingest the node once.

        The old reader globbed ``*.log`` and ``*.log.gz`` separately, so
        a directory holding both (e.g. mid-way through compressing an
        archive) counted every record of that node twice.
        """
        archive = make_archive()
        archive.write_directory(tmp_path)
        archive.write_directory(tmp_path, compress=True)
        loaded = LogArchive.read_directory(tmp_path)
        assert loaded.nodes == archive.nodes
        assert loaded.n_records() == archive.n_records()
        for node in archive.nodes:
            assert loaded.records(node) == archive.records(node)

    def test_mixed_compression_deterministic_order(self, tmp_path):
        """Regression: .log/.log.gz files interleave in node-stem order.

        Sorting the two globs separately put every gzipped node after
        every plain one, breaking deterministic node order for any
        consumer that walks files (columnar ingest interns node codes in
        file order).
        """
        for node, compress in [("01-01", True), ("01-02", False), ("02-01", True)]:
            single = LogArchive()
            single.append(ErrorRecord(1.0, node, 0x30, 0x80, 0x0, 0x1))
            single.write_directory(tmp_path, compress=compress)
        files = directory_log_files(tmp_path)
        assert [f.name for f in files] == ["01-01.log.gz", "01-02.log", "02-01.log.gz"]

    def test_uncompressed_preferred_when_both_exist(self, tmp_path):
        # The .log and .log.gz copies may diverge (e.g. the .gz is a
        # stale snapshot); the reader must pick one deterministically.
        archive = make_archive()
        archive.write_directory(tmp_path)
        with gzip.open(tmp_path / "01-02.log.gz", "wt", encoding="ascii") as fh:
            fh.write("ERROR|t=9.0|node=01-02|va=0x99|pp=0x99|exp=0x00000000|act=0x00000001|temp=na|rep=1\n")
        files = directory_log_files(tmp_path)
        assert [f.name for f in files] == ["01-02.log", "02-04.log"]
        loaded = LogArchive.read_directory(tmp_path)
        assert loaded.records("01-02") == archive.records("01-02")

    def test_gzip_smaller_for_repetitive_logs(self, tmp_path):
        archive = LogArchive()
        for i in range(2000):
            archive.append(
                ErrorRecord(float(i), "01-02", 0x30, 0x80, 0xFFFFFFFF, 0xFFFFFFFE)
            )
        archive.write_directory(tmp_path / "plain")
        archive.write_directory(tmp_path / "gz", compress=True)
        plain = (tmp_path / "plain" / "01-02.log").stat().st_size
        gz = (tmp_path / "gz" / "01-02.log.gz").stat().st_size
        assert gz < plain / 5
