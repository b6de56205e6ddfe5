"""The golden-trace corpus: canonical recordings pinned in the repo.

``tests/data/golden/`` holds one JSONL file per golden subject — a
schema-versioned, content-hashed stage-level trace recorded under the
reference (slow) engine — plus a ``manifest.json`` indexing them.  CI
and the tier-1 suite replay every subject under both engines and
require the streams to match the recording field for field.

Regeneration policy: goldens are only re-recorded when an intentional
behavioural change lands (a new stage, a timing-model fix, a schema
bump) — run ``python -m repro oracle record`` and commit the diff
alongside the change that explains it.  A golden that changes without
an explanation is a regression, not an update.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.trace import TRACE_SCHEMA_VERSION, event_from_wire
from repro.oracle.capture import CapturedTrace, capture
from repro.oracle.diff import DiffResult, diff_captures

#: The pinned corpus: every template subject (distinct access shapes —
#: affine streams, halo stencils, indirect gather/scatter, tree
#: reduction) plus fuzz seeds whose drawn cases include an attack (so
#: blocked events and violation records are part of the corpus).
GOLDEN_SUBJECTS: Tuple[str, ...] = (
    "tpl:streaming",
    "tpl:stencil",
    "tpl:gather",
    "tpl:scatter",
    "tpl:reduction",
    "fuzz:101",
    "fuzz:202",
    "fuzz:303",
)

#: Goldens are recorded under the reference engine; the fast engine
#: must reproduce them bit-for-bit (the engine contract).
GOLDEN_ENGINE = "slow"

MANIFEST_NAME = "manifest.json"


class CorruptGoldenError(RuntimeError):
    """A golden file's content hash no longer matches its events."""


def default_golden_root() -> Path:
    """``tests/data/golden`` next to this checkout's test suite."""
    return Path(__file__).resolve().parents[3] / "tests" / "data" / "golden"


def golden_filename(subject: str) -> str:
    return subject.replace(":", "__").replace("@", "_at_") + ".jsonl"


def write_golden(cap: CapturedTrace, path: Path) -> Dict[str, object]:
    """Serialise one capture as a golden file; returns its header."""
    header = cap.header()
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for wire in cap.wire_events():
            fh.write(json.dumps(wire, sort_keys=True) + "\n")
    return header


def load_golden(path: Path) -> CapturedTrace:
    """Parse and hash-verify one golden file back into a capture."""
    with Path(path).open() as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise CorruptGoldenError(f"golden file {path} is empty")
    header = json.loads(lines[0])
    events = [event_from_wire(json.loads(line)) for line in lines[1:]]
    cap = CapturedTrace(
        subject=header["subject"],
        engine=header["engine"],
        seed=int(header["seed"]),
        stage_level=bool(header["stage_level"]),
        schema_version=int(header["schema_version"]),
        fingerprint=header["fingerprint"],
        line_size=int(header["line_size"]),
        cycles=int(header["cycles"]),
        aborted=bool(header["aborted"]),
        events=events,
        violations=list(header["violations"]),
        stats=dict(header["stats"]))
    if cap.content_hash() != header["content_hash"]:
        raise CorruptGoldenError(
            f"golden file {path} failed content-hash verification "
            f"(recorded {header['content_hash'][:12]}..., recomputed "
            f"{cap.content_hash()[:12]}...) — the file was edited or "
            f"truncated; re-record it")
    return cap


def record_golden(root: Optional[Path] = None,
                  subjects: Sequence[str] = GOLDEN_SUBJECTS,
                  engine: str = GOLDEN_ENGINE) -> Dict[str, object]:
    """(Re)record the corpus; returns the written manifest."""
    root = Path(root) if root is not None else default_golden_root()
    manifest: Dict[str, object] = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "engine": engine,
        "subjects": {},
    }
    for subject in subjects:
        cap = capture(subject, engine=engine, stage_level=True)
        filename = golden_filename(subject)
        header = write_golden(cap, root / filename)
        manifest["subjects"][subject] = {
            "file": filename,
            "content_hash": header["content_hash"],
            "events": len(cap.events),
            "fingerprint": cap.fingerprint,
        }
    with (root / MANIFEST_NAME).open("w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_manifest(root: Optional[Path] = None) -> Dict[str, object]:
    root = Path(root) if root is not None else default_golden_root()
    with (root / MANIFEST_NAME).open() as fh:
        return json.load(fh)


def verify_golden(subject: str, root: Optional[Path] = None,
                  engine: str = "") -> Tuple[DiffResult, CapturedTrace]:
    """Capture ``subject`` on the current tree and diff it against the
    pinned golden recording; returns the diff and the fresh capture
    (for the invariant checker).  ``engine`` defaults to the process
    engine, so both engines can be held to the same (slow-recorded)
    golden."""
    root = Path(root) if root is not None else default_golden_root()
    golden = load_golden(root / golden_filename(subject))
    current = capture(subject, engine=engine,
                      stage_level=golden.stage_level)
    result = diff_captures(golden, current)
    return DiffResult(
        subject=subject,
        a_label=f"golden({golden.engine})",
        b_label=f"tree({current.engine})",
        events=result.events,
        cycles=result.cycles,
        divergence=result.divergence,
        stats_diff=result.stats_diff,
        violations_equal=result.violations_equal), current
