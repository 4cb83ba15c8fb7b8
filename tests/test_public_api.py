"""Public-API quality gates: exports resolve, everything is documented.

These tests are what keeps the "documented public API" deliverable true
over time: every name in an ``__all__`` must resolve and carry a
docstring, and the experiment index in the docs must match the benchmark
modules that actually exist.
"""

import importlib
import inspect
import pathlib
import re

import pytest

PACKAGES = [
    "repro",
    "repro.mpc",
    "repro.strings",
    "repro.ulam",
    "repro.editdistance",
    "repro.baselines",
    "repro.workloads",
    "repro.analysis",
    "repro.service",
]

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestExports:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_all_exports_resolve(self, name):
        mod = importlib.import_module(name)
        assert hasattr(mod, "__all__"), name
        for symbol in mod.__all__:
            assert hasattr(mod, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", PACKAGES)
    def test_module_docstrings(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__ and mod.__doc__.strip(), name

    @pytest.mark.parametrize("name", PACKAGES)
    def test_public_callables_documented(self, name):
        mod = importlib.import_module(name)
        undocumented = []
        for symbol in mod.__all__:
            obj = getattr(mod, symbol)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(symbol)
        assert not undocumented, f"{name}: {undocumented}"

    def test_version_string(self):
        import repro
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


class TestDocsConsistency:
    def test_every_bench_module_listed_in_design(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        bench_dir = REPO_ROOT / "benchmarks"
        missing = [p.name for p in bench_dir.glob("bench_*.py")
                   if p.name not in design]
        assert not missing, f"DESIGN.md experiment index missing {missing}"

    def test_every_experiment_id_in_experiments_md(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        design = (REPO_ROOT / "DESIGN.md").read_text()
        ids = set(re.findall(r"\bE\d+\b", design))
        missing = [e for e in sorted(ids, key=lambda x: int(x[1:]))
                   if f"## {e} " not in experiments
                   and f"{e} —" not in experiments]
        assert not missing, f"EXPERIMENTS.md missing sections: {missing}"

    def test_examples_exist_and_have_mains(self):
        examples = sorted((REPO_ROOT / "examples").glob("*.py"))
        assert len(examples) >= 4
        for ex in examples:
            text = ex.read_text()
            assert '__main__' in text, ex.name
            assert text.lstrip().startswith(('#!', '"""')), ex.name

    def test_readme_mentions_both_theorems(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "Theorem 4" in readme or "Thm 4" in readme
        assert "Theorem 9" in readme or "Thm 9" in readme


class TestSignatureStability:
    """Smoke contracts on the two headline entry points."""

    def test_mpc_ulam_signature(self):
        import repro
        sig = inspect.signature(repro.mpc_ulam)
        for p in ("s", "t", "x", "eps", "sim", "config", "seed"):
            assert p in sig.parameters

    def test_mpc_edit_distance_signature(self):
        import repro
        sig = inspect.signature(repro.mpc_edit_distance)
        for p in ("s", "t", "x", "eps", "sim", "config", "seed"):
            assert p in sig.parameters

    def test_results_expose_summary(self):
        import repro
        for cls in (repro.UlamResult, repro.EditResult):
            assert callable(getattr(cls, "summary"))
