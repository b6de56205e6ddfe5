"""Profiler-off digest regression.

The profiler is an optional observer: detached, every golden trace and
every stats digest recorded before this subsystem existed must stay
byte-identical.  (Warm-pool hygiene for every observer kind, the
profiler included, lives in ``tests/test_device.py``.)
"""

from repro.oracle.golden import (default_golden_root, golden_filename,
                                 load_manifest, record_golden)


class TestGoldenDigestsWithProfilerDetached:
    def test_rerecorded_goldens_byte_identical_to_committed(
            self, tmp_path):
        """Re-record the whole corpus on this tree (no profiler
        anywhere near it) and require the content hashes — and the
        bytes — to match the committed files."""
        manifest = record_golden(root=tmp_path)
        committed = load_manifest()
        assert manifest["subjects"].keys() == committed["subjects"].keys()
        root = default_golden_root()
        for subject, entry in committed["subjects"].items():
            fresh = manifest["subjects"][subject]
            assert fresh["content_hash"] == entry["content_hash"], subject
            name = golden_filename(subject)
            assert ((tmp_path / name).read_bytes()
                    == (root / name).read_bytes()), subject
