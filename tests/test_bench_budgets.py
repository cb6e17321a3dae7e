"""The figure benchmarks' budgets come from the environment and fail loudly.

``benchmarks/conftest.py`` reads ``REPRO_BENCH_ACCESSES`` and
``REPRO_BENCH_MIXES`` when it is imported; text that is not an integer must
raise rather than fall back to the default budget.
"""

import importlib.util
import pathlib

import pytest

CONFTEST = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


def load_bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest_under_test", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["REPRO_BENCH_ACCESSES", "REPRO_BENCH_MIXES"])
def test_unparsable_budget_names_the_variable_and_text(name, monkeypatch):
    monkeypatch.setenv(name, "6k")
    with pytest.raises(ValueError, match=f"{name} must be an integer, got '6k'"):
        load_bench_conftest()


def test_budgets_parse_or_default(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_ACCESSES", "6000")
    monkeypatch.delenv("REPRO_BENCH_MIXES", raising=False)
    module = load_bench_conftest()
    assert module.BENCH_ACCESSES == 6000
    assert module.BENCH_MIXES == 1
