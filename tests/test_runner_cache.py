"""Cache-correctness tests: key sensitivity and corruption tolerance."""

from __future__ import annotations

import pickle
import re
import threading
from pathlib import Path

import pytest

from repro import __version__
from repro.errors import RunnerError
from repro.runner import ParallelRunner, ResultCache, RunUnit, default_cache_dir

def _local_function():
    def local():
        pass

    return local


UNIT = RunUnit.make(
    "probe", "repro.runner.units:probe_unit", seed=3, value=1.5
)


class TestCacheToken:
    def test_stable_for_identical_units(self):
        again = RunUnit.make(
            "probe", "repro.runner.units:probe_unit", seed=3, value=1.5
        )
        assert UNIT.cache_token() == again.cache_token()

    def test_param_keyword_order_is_irrelevant(self):
        a = RunUnit.make("e", "m:f", seed=0, alpha=1, beta=2)
        b = RunUnit.make("e", "m:f", seed=0, beta=2, alpha=1)
        assert a == b
        assert a.cache_token() == b.cache_token()

    def test_changes_with_experiment_name(self):
        other = RunUnit.make(
            "probe2", "repro.runner.units:probe_unit", seed=3, value=1.5
        )
        assert other.cache_token() != UNIT.cache_token()

    def test_changes_with_fn(self):
        other = RunUnit.make("probe", "repro.runner.units:execute_unit",
                             seed=3, value=1.5)
        assert other.cache_token() != UNIT.cache_token()

    def test_changes_with_params(self):
        other = RunUnit.make(
            "probe", "repro.runner.units:probe_unit", seed=3, value=2.5
        )
        assert other.cache_token() != UNIT.cache_token()

    def test_changes_with_seed(self):
        other = RunUnit.make(
            "probe", "repro.runner.units:probe_unit", seed=4, value=1.5
        )
        assert other.cache_token() != UNIT.cache_token()

    def test_changes_with_package_version(self):
        assert UNIT.cache_token(version="0.0.0") != UNIT.cache_token()

    def test_package_version_matches_pyproject(self):
        # A regex, not tomllib: 3.10 has no tomllib.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE).group(1)
        assert declared == __version__

    def test_rejects_unhashable_params(self):
        unit = RunUnit.make("e", "m:f", steerer=object())
        with pytest.raises(RunnerError):
            unit.cache_token()


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        missed, _ = cache.get(UNIT)
        assert not missed
        payload = {"value": 6.0, "events": 1, "series": [1, 2, 3]}
        path = cache.put(UNIT, payload)
        assert path is not None and path.is_file()
        hit, value = cache.get(UNIT)
        assert hit and value == payload
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_none_payload_is_a_real_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(UNIT, None)
        hit, value = cache.get(UNIT)
        assert hit and value is None

    def test_truncated_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(UNIT, {"value": 6.0})
        path.write_bytes(path.read_bytes()[:10])
        hit, _ = cache.get(UNIT)
        assert not hit

    def test_flipped_payload_byte_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put(UNIT, {"value": 6.0})
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        hit, _ = cache.get(UNIT)
        assert not hit

    def test_foreign_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(UNIT)
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"value": 666.0}))  # no header/digest
        hit, _ = cache.get(UNIT)
        assert not hit

    def test_empty_file_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.path_for(UNIT)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"")
        hit, _ = cache.get(UNIT)
        assert not hit

    @pytest.mark.parametrize(
        "payload",
        [threading.Lock(), lambda: None, _local_function()],
        ids=["lock", "lambda", "local-function"],
    )
    def test_unpicklable_payload_is_dropped_not_raised(self, tmp_path, payload):
        cache = ResultCache(tmp_path)
        assert cache.put(UNIT, payload) is None
        assert cache.stores == 0
        assert not cache.get(UNIT)[0]
        assert not any(path.is_file() for path in tmp_path.rglob("*"))

    def test_inline_run_survives_an_unpicklable_payload(self, tmp_path):
        """``--jobs 1`` checkpoints inline: a payload the cache cannot
        pickle is returned, not turned into a crash after the unit ran."""
        runner = ParallelRunner(cache=ResultCache(tmp_path))
        unit = RunUnit.make("probe-lock", "tests.test_runner_cache:lock_unit")
        (value,) = runner.run([unit])
        assert isinstance(value, type(threading.Lock()))
        assert (runner.executed, runner.cache.stores) == (1, 0)

    def test_default_dir_honours_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"
        cache = ResultCache()
        assert cache.path_for(UNIT).is_relative_to(tmp_path / "elsewhere")


def lock_unit(seed: int = 0):
    """A unit whose payload cannot be pickled."""
    return threading.Lock()
