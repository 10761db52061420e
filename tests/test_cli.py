"""Tests for the CLI entry point."""

import functools
import inspect
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.experiments import EXPERIMENTS
from repro.runner import resolve_fn, usable_cpus


class TestCli:
    def test_runs_quick_fig1a(self, capsys):
        assert main(["fig1a", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "fig1a" in out
        assert "cubic" in out

    def test_duration_override(self, capsys):
        assert main(["fig1b", "--duration", "5"]) == 0
        assert "fig1b" in capsys.readouterr().out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig9"])

    def test_table1_pages_flag(self, capsys):
        assert main(["table1", "--pages", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Stati." in out or "Stat" in out

    @pytest.mark.parametrize(
        "args",
        [
            ["fig1a", "--duration", "2"],
            ["fig1b", "--duration", "2"],
            ["table1", "--pages", "2"],
        ],
        ids=lambda args: args[0],
    )
    def test_jobs_flag_matches_serial_output(self, args, capsys, tmp_path):
        """The default worker count prints what ``--jobs 1`` (inline, the
        reference mode) prints, apart from the ``[runner]`` line."""
        assert main(args + ["--jobs", "1", "--cache-dir", str(tmp_path / "inline")]) == 0
        serial, _, serial_runner = capsys.readouterr().out.partition("[runner]")
        assert main(args + ["--cache-dir", str(tmp_path / "default")]) == 0
        fanned, _, fanned_runner = capsys.readouterr().out.partition("[runner]")
        assert fanned == serial
        assert serial_runner.split()[0] == "jobs=1"
        assert fanned_runner.split()[0] == f"jobs={usable_cpus()}"

    def test_cache_dir_flag_populates_and_reuses_cache(self, capsys, tmp_path):
        args = ["fig1b", "--duration", "2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "executed=1" in cold and "cache_hits=0" in cold
        assert any(tmp_path.rglob("*.pkl"))
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "cache_hits=1" in warm and "executed=0" in warm
        # the experiment output itself is identical either way
        assert cold.split("[runner]")[0] == warm.split("[runner]")[0]

    def test_no_cache_flag_disables_caching(self, capsys, tmp_path):
        args = [
            "fig1b", "--duration", "2",
            "--cache-dir", str(tmp_path), "--no-cache",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[runner]" not in out
        assert not any(tmp_path.rglob("*.pkl"))

    def test_one_usable_cpu_runs_inline_without_a_pool(self, tmp_path):
        """``--jobs`` defaults to the CPUs the process may use: with one, a
        cold run executes inline and never imports the process pool."""
        code = (
            "import os, sys\n"
            "os.sched_getaffinity = lambda pid: {0}\n"
            "if hasattr(os, 'process_cpu_count'):\n"
            "    os.process_cpu_count = lambda: 1\n"
            "from repro.cli import main\n"
            f"main(['fig1a', '--duration', '1', '--cache-dir', {str(tmp_path)!r}])\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        *_, runner, pool_imported = done.stdout.strip().splitlines()
        assert runner.startswith("[runner] jobs=1 units=4 cache_hits=0 executed=4 ")
        assert pool_imported == "False"

    def test_many_usable_cpus_start_one_worker_per_pending_unit(self, monkeypatch):
        import concurrent.futures

        started = []

        class SpyPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(os, "process_cpu_count", lambda: 8, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        assert main(["fig1a", "--duration", "1", "--no-cache"]) == 0
        assert started == [4]  # fig1a's four CCA cells, not eight workers

    def test_rejects_zero_jobs(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1b", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_trace_dir_rejected_where_it_would_be_ignored(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["cc-matrix", "--quick", "--trace-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--trace-dir is not supported by 'cc-matrix'" in err
        assert "fig1a, fig1b, fig2, table1" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, option, takers",
        [
            (["fig1a", "--pages", "3"], "--pages", "baselines, general, h1-vs-h2, sweep-threshold"),
            (["fig1a", "--tenants", "5"], "--tenants", "fleet, resilience"),
            (["table1", "--shards", "2"], "--shards", "fleet"),
        ],
    )
    def test_scale_flag_rejected_where_it_would_be_ignored(
        self, capsys, argv, option, takers
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--no-cache"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"{option} is not supported by {argv[0]!r}" in captured.err
        assert takers in captured.err
        assert captured.out == ""  # nothing ran

    def test_tenants_reaches_the_fleet_cells_of_resilience(self, monkeypatch):
        real, calls = spy_on("resilience", monkeypatch)
        assert main(["resilience", "--no-cache", "--quick", "--tenants", "7"]) == 0
        (kwargs,) = calls
        assert kwargs["fleet_tenants"] == 7
        assert kwargs["duration"] == real.quick["duration"]

    @pytest.mark.parametrize("name", ["ab-tsn", "sweep-decode-wait"])
    def test_duration_reaches_every_experiment_that_takes_one(self, name, monkeypatch):
        real = resolve_fn(EXPERIMENTS[name])
        calls = []
        monkeypatch.setattr("tests.test_cli.FAKE_CALLS", calls)
        # wraps: the CLI reads the real signature through __wrapped__.
        spy = functools.wraps(real)(lambda **kwargs: fake_experiment(**kwargs))
        monkeypatch.setattr(sys.modules[real.__module__], real.__name__, spy)
        assert main([name, "--no-cache", "--duration", "5"]) == 0
        assert main([name, "--no-cache", "--quick"]) == 0
        assert [kwargs.get("duration") for kwargs in calls] == [5.0, None]

    def test_duration_rejected_where_it_would_be_ignored(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--pages", "2", "--duration", "5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--duration is not supported by 'table1'" in err
        assert "ab-tsn" in err and "sweep-decode-wait" in err

    def test_all_applies_trace_dir_where_supported(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.cli.EXPERIMENTS",
            {
                "fig1b": "tests.test_cli:fake_traceable_experiment",
                "ab-cost": "tests.test_cli:fake_experiment",
            },
        )
        monkeypatch.setattr("tests.test_cli.FAKE_CALLS", calls)
        assert main(["all", "--no-cache", "--trace-dir", str(tmp_path)]) == 0
        # sorted: ab-cost, then fig1b
        assert [kwargs.get("trace_dir") for kwargs in calls] == [None, str(tmp_path)]


#: Keyword arguments of each ``fake_experiment`` call, in call order.
FAKE_CALLS = []


def fake_experiment(**kwargs):
    """Stands in for a ``run_*`` function; records what the CLI passed."""
    FAKE_CALLS.append(kwargs)

    class Rendered:
        @staticmethod
        def render():
            return "fake"

    return Rendered


def spy_on(name, monkeypatch):
    """Swap experiment ``name`` for a recording fake that keeps its signature
    and attributes (the CLI reads both); returns (real function, calls)."""
    real = resolve_fn(EXPERIMENTS[name])
    calls = []
    monkeypatch.setattr("tests.test_cli.FAKE_CALLS", calls)
    spy = functools.wraps(real)(lambda **kwargs: fake_experiment(**kwargs))
    monkeypatch.setattr(sys.modules[real.__module__], real.__name__, spy)
    return real, calls


def fake_traceable_experiment(seed=0, runner=None, trace_dir=None):
    """An experiment counts as traceable by declaring ``trace_dir``."""
    return fake_experiment(seed=seed, runner=runner, trace_dir=trace_dir)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_quick_scale_lives_with_the_experiment_and_binds(name, monkeypatch):
    """Every registry entry resolves; ``--quick`` passes exactly the run
    function's own ``quick`` dict, and that dict names real parameters — a
    typo fails here, not two minutes into ``all --quick``."""
    real, calls = spy_on(name, monkeypatch)
    quick = getattr(real, "quick", {})
    inspect.signature(real).bind_partial(seed=0, runner=None, **quick)
    assert main([name, "--no-cache", "--quick"]) == 0
    (kwargs,) = calls
    assert sorted(kwargs) == sorted({"seed", "runner", *quick})
    assert all(kwargs[param] == value for param, value in quick.items())


def test_cli_import_leaves_numpy_and_the_fleet_engine_out():
    """``python -m repro <name>`` imports what ``<name>`` runs: numpy (via
    ``repro.fleet``) only for the fleet and resilience experiments."""
    code = (
        "import sys, repro.cli; "
        "from repro.experiments import run_fig1a; "
        "print(sorted(m for m in ('numpy', 'repro.fleet') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: What a warm cache hit (or ``--help``) must not import: the packet
#: simulator, the process pool and numpy.
SIMULATOR_MODULES = (
    "repro.sim", "repro.net", "repro.transport", "repro.steering",
    "concurrent.futures.process", "numpy",
)


def _cli_with_imports(*argv):
    """``python -m repro *argv`` in a fresh interpreter: (stdout without the
    ``[runner]`` line, the ``[runner]`` line, every module it imported)."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "repro", *argv],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    imported = {
        line.rpartition("|")[2].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    output, _, runner = done.stdout.partition("[runner]")
    return output, runner, imported


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["fig1a", "--duration", "2"],
        ["fig1b", "--duration", "2"],
        ["fig2", "--duration", "2"],
        ["table1", "--quick"],
        ["faults", "--quick"],
    ],
    ids=lambda argv: argv[0].lstrip("-"),
)
def test_warm_path_imports_no_simulator(argv, tmp_path):
    """A cache hit costs a cache read: after a cold run primes the cache, the
    warm run prints the same output and imports none of the simulator (the
    experiment modules import it inside the functions that run units)."""
    cache = ["--cache-dir", str(tmp_path)] if argv != ["--help"] else []
    cold, _, _ = _cli_with_imports(*argv, *cache)
    warm, runner, imported = _cli_with_imports(*argv, *cache)
    loaded = sorted(
        name for name in imported
        for banned in SIMULATOR_MODULES
        if name == banned or name.startswith(banned + ".")
    )
    assert loaded == []
    assert warm == cold
    if cache:
        fields = dict(field.split("=", 1) for field in runner.split())
        assert fields["executed"] == "0" and fields["cache_hits"] == fields["units"]


def test_experiment_modules_import_no_simulator():
    """The modules whose warm runs need no simulator import it only inside
    the functions that build networks or run units."""
    modules = [
        "fig1", "fig2", "table1", "ablations", "baselines", "sensitivity", "cc_matrix",
        "faults", "ablation_harness", "resilience",
    ]
    code = (
        "import sys\n"
        + "".join(f"import repro.experiments.{name}\n" for name in modules)
        + f"print(sorted(m for m in sys.modules if m.startswith({SIMULATOR_MODULES!r})))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_lazy_package_roots_keep_their_public_names():
    """``repro`` and ``repro.core`` resolve their names on first access
    (PEP 562), and every name they exported eagerly is still there."""
    from repro.core.api import HvcNetwork
    from repro.core.results import Table

    assert repro.HvcNetwork is HvcNetwork
    assert repro.core.Table is Table
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["units"] is repro.units
    exec("from repro.core import *", namespace)
    assert namespace["Table"] is Table
    assert set(repro.__all__) <= set(dir(repro))
    assert set(repro.core.__all__) <= set(dir(repro.core))
    for module in (repro, repro.core):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_missing_numpy_fails_the_fleet_by_name_and_nothing_else(tmp_path):
    """A ``numpy`` that cannot be imported stops ``fleet`` with the fix in
    the message; experiments that never touch the fleet engine still run."""
    (tmp_path / "numpy.py").write_text("raise ImportError('numpy is shadowed')\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), src]))

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "repro", *args, "--no-cache"],
            env=env, capture_output=True, text=True, timeout=300,
        )

    fleet = cli("fleet", "--quick")
    assert fleet.returncode != 0
    assert "repro.fleet" in fleet.stderr
    assert 'pip install "repro[fleet]"' in fleet.stderr
    fig1a = cli("fig1a", "--duration", "1")
    assert fig1a.returncode == 0, fig1a.stderr
