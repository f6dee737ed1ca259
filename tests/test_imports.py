"""What importing the package and running each command loads.

``import grcodes`` and ``import grcodes.cli`` load no layer module, no
numpy and no ``dataclasses`` (which brings ``inspect``, ``ast``, ``dis`` and
``tokenize``); a command loads only the layers it uses.  The load checks run in a
fresh interpreter, because this one has every module loaded already.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grcodes
from grcodes import cli, verify

# every public name of grcodes, by the submodule that defines it
EXPORTS = {
    "cyclotomic": "CyclotomicInteger cyclotomic_polynomial",
    "characters": "CharacterSystem field_quotient_characters gauss_sum_field "
                  "ring_quotient_characters",
    "codes": "BoundsReport CodeContext SubgroupSpec TableReport TildeCode WeightTable "
             "build_code canonical_subspace_basis dual_subspace echelon_basis span_subspace",
    "errors": "GRCodesError IncompatibleTowerError InvalidSubgroupError InvalidTowerError "
              "NegativeCountError NonPrimitiveInputError NotAUnitError NotRationalError "
              "OrderMismatchError PreconditionViolatedError ScaleGuardError",
    "gray": "GrayImageReport first_order_rm_code gray_image_analyze gray_map gray_map_vec "
            "hom_weight hom_weight_vec theorem44_hom_weight theorem45_table",
    "rings": "FiniteField GaloisRing GaloisRingElement RingTower find_primitive_poly "
             "format_element format_field_element hensel_lift_basic_primitive parse_element "
             "parse_field_element",
    "verify": "SUITES CheckRecord VerificationReport",
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names.split()]


def _fresh(script: str) -> dict:
    """Run script in a new interpreter on this tree; it prints one JSON object."""
    src = str(Path(grcodes.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = (
    "def loaded():\n"
    "    return sorted(m for m in sys.modules\n"
    "                  if m.split('.')[0] in ('grcodes', 'numpy', 'dataclasses'))\n"
)

_RUN_MAIN = (
    "import contextlib, io, json, sys\n" + _LOADED +
    "from grcodes.cli import main\n"
    "out, err = io.StringIO(), io.StringIO()\n"
    "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
    "    status = main(ARGV)\n"
    "print(json.dumps({'status': status, 'out': out.getvalue(), 'err': err.getvalue(),\n"
    "                  'loaded': loaded()}))\n"
)


def _run_main(argv: list[str]) -> dict:
    return _fresh(_RUN_MAIN.replace("ARGV", repr(argv)))


def test_importing_the_package_and_the_cli_loads_no_layer_and_no_numpy():
    result = _fresh(
        "import json, sys\n" + _LOADED +
        "import grcodes\n"
        "package = loaded()\n"
        "import grcodes.cli\n"
        "print(json.dumps({'package': package, 'cli': loaded()}))\n"
    )
    assert result == {"package": ["grcodes"], "cli": ["grcodes", "grcodes.cli", "grcodes.errors"]}


def test_help_loads_no_numpy():
    result = _run_main(["code", "verify", "--help"])
    assert result["status"] == 0 and result["err"] == ""
    assert result["out"].startswith("usage: grcodes code verify [-h]")
    assert "[--theorem {2.1,3.1,3.3,3.4,4.4,4.5,4.6}]" in result["out"]
    assert result["loaded"] == ["grcodes", "grcodes.cli", "grcodes.errors"]


def test_a_usage_error_loads_no_numpy():
    result = _run_main(["code", "verify", "--theorem", "9.9", "--p", "2", "--r", "2"])
    assert result["status"] == 2 and result["out"] == ""
    assert result["err"].startswith("usage: grcodes code verify [-h]")
    assert result["err"].endswith(
        "grcodes code verify: error: argument --theorem: invalid choice: '9.9' "
        "(choose from '2.1', '3.1', '3.3', '3.4', '4.4', '4.5', '4.6')\n"
    )
    assert result["loaded"] == ["grcodes", "grcodes.cli", "grcodes.errors"]


@pytest.mark.parametrize("argv", [
    ["gauss", "--sweep", "--p", "2", "--r", "2"],
    ["code", "verify", "--theorem", "2.1", "--p", "2", "--r", "2"],
])
def test_gauss_sum_commands_load_neither_codes_nor_gray(argv):
    result = _run_main(argv)
    assert result["status"] == 0, result["err"]
    assert "grcodes.characters" in result["loaded"]
    assert "grcodes.codes" not in result["loaded"] and "grcodes.gray" not in result["loaded"]


def test_theorem_choices_are_the_suites():
    assert cli.THEOREMS == tuple(sorted(verify.SUITES))


def test_every_public_name_is_its_submodules_object():
    for module, name in NAMES:
        assert getattr(grcodes, name) is getattr(importlib.import_module("grcodes." + module), name)


def test_the_export_list_is_unchanged():
    assert len(NAMES) == 50
    assert grcodes.__all__ == [name for _, name in NAMES]
    assert set(grcodes.__all__) <= set(dir(grcodes))
    assert grcodes.__version__ == "0.1.0"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from grcodes import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module("grcodes." + module), name)


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'grcodes' has no attribute 'no_such'$"):
        grcodes.no_such  # noqa: B018
    assert not hasattr(grcodes, "no_such")
