"""The CSVs under demos/output/ are goldens: each demo regenerates its files byte for byte.

Every demo writes into its module-level ``OUT`` directory; the tests point
that at a temporary directory, run the demo and compare with the committed
files.  The print-only demos and the README's library tour are run too.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
GOLDEN = DEMOS / "output"

#: demo script -> glob of the committed CSVs it writes
WRITERS = {
    "function_gallery": "gallery_*.csv",  # sample --grid 10, seven schemes
    "qv_convergence": "qv8_*.csv",  # level-8 qv profiles, five schemes
    "covariation_blowup": "counterexample_*.csv",  # counterexample --levels 16 --t 1
}


#: demo script -> a line its printout must hold
PRINTERS = {
    "ito_residuals": "scheme bernoulli:1/2:42:",
    "modulus_envelope": "witness rows (ratio -> 1 and -> sqrt2):",
}


def load(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_demo_regenerates_goldens(name, tmp_path, monkeypatch, capsys):
    demo = load(name)
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


@pytest.mark.parametrize("name", sorted(PRINTERS))
def test_print_only_demo_runs(name, capsys):
    load(name).run()
    assert PRINTERS[name] in capsys.readouterr().out.splitlines()


def test_readme_library_tour_runs():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Library tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    *body, last = tree.body
    scope: dict = {}
    exec(compile(ast.Module(body, []), "README.md", "exec"), scope)
    ratio = eval(compile(ast.Expression(last.value), "README.md", "eval"), scope)
    # the all-plus increments at h = 2**-12 stay below the envelope
    assert 0 < float(ratio) <= 1 and len(ratio.split(".")[1]) == 8
