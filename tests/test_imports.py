"""The package imports only what a process asks for: its `__init__`
re-exports nothing, so each caller compiles the modules it imports."""

import json

from test_matrixgame import _fresh_interpreter

LOADED = """
import json, sys
{imports}
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "stogame"),
                  "numpy" in sys.modules]))
"""


def test_generators_and_minmax_load_only_their_own_imports():
    # The benchmark's set-up imports exactly these two modules.
    loaded, _ = json.loads(_fresh_interpreter(
        LOADED.format(imports="import stogame.generators, stogame.minmax")))
    assert loaded == ["stogame", "stogame._util", "stogame.chains", "stogame.game",
                      "stogame.generators", "stogame.matrixgame", "stogame.minmax"]


def test_bare_package_import_loads_no_submodule_and_no_numpy():
    loaded, numpy_loaded = json.loads(_fresh_interpreter(LOADED.format(imports="import stogame")))
    assert loaded == ["stogame"]
    assert not numpy_loaded
