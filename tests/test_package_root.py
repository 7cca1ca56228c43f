"""The package root's names, and the README's library examples run as written."""

import re
import types
from pathlib import Path

import derivfit

README = Path(__file__).resolve().parents[1] / "README.md"

ROOT_NAMES = {
    "BasisSpec", "Family", "Sample", "Strategy", "DerivativeFit", "fit_derivative",
    "evaluate_fit", "Selection", "gl_select", "reuse_select", "oracle_select",
    "ExperimentConfig", "run_experiment", "calibrate_kappa", "generate_sample",
    "TEST_FUNCTIONS", "DerivfitError", "DataFormatError", "SingularGramError",
    "EmptyCollectionError"}


def test_the_package_root_exports_exactly_its_names():
    """Submodules become attributes of the package once imported, so they
    are not counted; every other public name is."""
    public = {name for name, value in vars(derivfit).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES


def test_the_readme_library_examples_run(capsys):
    """The fenced python blocks of "Library use", in order, in one namespace."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["fit"].strategy is derivfit.Strategy.DERIV_OF_PROJECTION
    assert capsys.readouterr().out
