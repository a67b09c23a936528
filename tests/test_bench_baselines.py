"""The benchmark scripts' baseline gates: a stage the baseline names but
the run did not produce is a problem, never a silent pass."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def hotpaths():
    return _load("bench_hotpaths")


@pytest.fixture(scope="module")
def scale():
    return _load("bench_scale")


@pytest.fixture(scope="module")
def serve():
    return _load("bench_serve")


class TestMissingStageIsAProblem:
    def test_hotpaths(self, hotpaths):
        baseline = {"after": {"quick": {"srp_solve": 1.0, "gone": 1.0}}}
        problems = hotpaths.compare_to_baseline({"srp_solve": 1.0}, baseline, 0.25, "quick")
        assert len(problems) == 1
        assert "stage gone" in problems[0] and "missing" in problems[0]

    def test_hotpaths_within_bound_is_clean(self, hotpaths):
        baseline = {"after": {"quick": {"srp_solve": 1.0}}}
        assert hotpaths.compare_to_baseline({"srp_solve": 1.1}, baseline, 0.25, "quick") == []

    def test_scale_stage_and_rss(self, scale):
        baseline = {
            "after": {
                "quick": {
                    "stages": {"curve": 1.0, "gone": 1.0},
                    "rss_mb": {"curve": 100.0, "gone_rss": 100.0},
                }
            }
        }
        problems = scale.compare_to_baseline(
            {"curve": 1.0}, {"curve": 100.0}, baseline, 0.25, "quick"
        )
        assert len(problems) == 2
        assert any("stage gone" in p and "missing" in p for p in problems)
        assert any("peak RSS gone_rss" in p and "missing" in p for p in problems)

    def test_serve(self, serve):
        baseline = {"stages": {"warm_verify": 1.0, "gone": 1.0}}
        problems = serve.compare_to_baseline({"warm_verify": 1.0}, baseline, 0.25, "quick")
        assert len(problems) == 1
        assert "stage gone" in problems[0] and "missing" in problems[0]
