"""The reproduction manifest: every check of the paper's numbers passes,
and each check of the manifest runs once, in manifest order."""

from koszulkit.repro import load_manifest, run_manifest


def test_every_manifest_check_passes():
    report = run_manifest()
    failed = [r["name"] for r in report["checks"] if not r["ok"]]
    assert report["ok"] and not failed, failed
    assert [r["name"] for r in report["checks"]] == [c["name"] for c in load_manifest()["checks"]]
