"""Smoke test of tools/output_digest.py on one named config."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_config_digest_repeats(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    config = ROOT / "configs" / "criterion1_algebra_su2.json"
    first = digest.config_digest(config, tmp_path / "a")
    # the JSON summary's generated_at is left out, so a rerun digests alike
    assert first == digest.config_digest(config, tmp_path / "b")
    assert first[0] == "criterion1_algebra_su2.json exit 0"
    assert [line.split()[1] for line in first[1:]] == ["algebra_report.csv",
                                                       "algebra_report.json"]
