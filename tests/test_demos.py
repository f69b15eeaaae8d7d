"""The CSVs under demos/output/ are goldens: each demo regenerates its files byte for byte.

Every demo writes into its module-level ``OUT`` directory; the tests point
that at a temporary directory, run the demo and compare with the committed
files.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
GOLDEN = DEMOS / "output"

#: demo script -> glob of the committed CSVs it writes
WRITERS = {
    "function_gallery": "gallery_*.csv",  # sample --grid 10, seven schemes
    "qv_convergence": "qv8_*.csv",  # level-8 qv profiles, five schemes
    "covariation_blowup": "counterexample_*.csv",  # counterexample --levels 16 --t 1
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_demo_regenerates_goldens(name, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.run()
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in GOLDEN.glob(WRITERS[name]))
    for fname in written:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname


def test_every_golden_has_a_writer():
    covered = {path for pattern in WRITERS.values() for path in GOLDEN.glob(pattern)}
    assert covered == set(GOLDEN.iterdir())
    assert len(covered) == 13
