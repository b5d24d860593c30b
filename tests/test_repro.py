"""The reproduction manifest: every check of the paper's numbers passes,
each check of the manifest runs once, in manifest order, and the whole
report is byte-identical to the pinned one."""

import hashlib
import json

from koszulkit.repro import load_manifest, run_manifest

# sha256 prefix of json.dumps(run_manifest(), sort_keys=True); a change that
# means to alter the report updates it and says why in CHANGES.md
MANIFEST_SHA256 = "08748e8ef614"


def test_every_manifest_check_passes():
    report = run_manifest()
    failed = [r["name"] for r in report["checks"] if not r["ok"]]
    assert report["ok"] and not failed, failed
    assert [r["name"] for r in report["checks"]] == [c["name"] for c in load_manifest()["checks"]]
    assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest().startswith(MANIFEST_SHA256)
