"""The package's public surface: the README's library example, ``__all__`` and
the module names that the benchmark's tracer wraps."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import asianpde

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PUBLIC_NAMES = {
    "InstrumentSpec",
    "SolverOptions",
    "grid_from_price_domain",
    "integrate",
    "readout",
    "mc_asian_price",
    "geometric_asian_price",
    "McConfig",
    "ConfigurationError",
    "StabilityError",
    "__version__",
}


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_gives_the_stated_values():
    example = library_example()
    for stated in ("# ~4.74", "# ~4.49 +- 0.02", "# 4.384... (call)"):
        assert stated in example
    namespace: dict = {}
    exec(example, namespace)
    assert round(namespace["price"], 2) == 4.74
    assert namespace["mc"].price == pytest.approx(4.49, abs=0.01)
    assert str(namespace["lower_bound"]).startswith("4.384")


def test_all_holds_exactly_the_public_names():
    assert set(asianpde.__all__) == PUBLIC_NAMES
    assert len(asianpde.__all__) == len(PUBLIC_NAMES)
    for name in asianpde.__all__:
        assert getattr(asianpde, name) is not None


def test_benchmark_patch_sites_resolve():
    # perfbench's own tests are not collected here, so without this test a
    # renamed or deleted name would surface only in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"asianpde.{module}.{attribute}"
        for module, attribute, _ in tracing.PATCH_SITES
        if not callable(getattr(importlib.import_module(f"asianpde.{module}"), attribute, None))
    ]
    assert tracing.PATCH_SITES and not missing
