import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_interpolation_convergence_script_passes_on_a_short_ladder(capsys):
    script = load_script("interpolation_convergence")
    assert script.main(["--n", "2", "--n", "4"]) == 0
    assert "pure quartic" in capsys.readouterr().out
