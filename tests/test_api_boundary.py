"""The CI boundary check itself, run as a test: no driver or benchmark
may call ``sim.run_round`` directly — rounds go through repro.mpc.plan —
and telemetry sinks are constructed only inside repro/mpc and the CLI."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_direct_run_round_outside_mpc_package():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_api_boundary.py"),
         str(ROOT)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_checker_flags_a_violation(tmp_path):
    bad = tmp_path / "src" / "repro" / "ulam"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text(
        "def f(sim):\n    return sim.run_round('r', id, [])\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_api_boundary.py"),
         str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 1
    assert "rogue.py:2" in proc.stdout


def _check(root):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_api_boundary.py"),
         str(root)],
        capture_output=True, text=True)


def test_checker_flags_sink_construction_outside_mpc(tmp_path):
    bad = tmp_path / "benchmarks"
    bad.mkdir(parents=True)
    (bad / "rogue_bench.py").write_text(
        "from repro.mpc import JsonlSink\n"
        "sink = JsonlSink('trace.jsonl')\n")
    proc = _check(tmp_path)
    assert proc.returncode == 1
    assert "rogue_bench.py:2" in proc.stdout
    assert "sink" in proc.stdout
    assert "Tracer.to_jsonl" in proc.stdout      # the fix hint


def test_checker_allows_sink_construction_in_cli_and_mpc(tmp_path):
    cli = tmp_path / "src" / "repro"
    cli.mkdir(parents=True)
    (cli / "cli.py").write_text("sink = InMemorySink()\n")
    mpc = cli / "mpc"
    mpc.mkdir()
    (mpc / "telemetry.py").write_text("sink = JsonlSink('t')\n")
    proc = _check(tmp_path)
    assert proc.returncode == 0, proc.stdout


def test_checker_ignores_commented_calls(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "driver.py").write_text(
        "# sim.run_round('r', id, [])  historical note\n"
        "# JsonlSink('t')\n")
    proc = _check(tmp_path)
    assert proc.returncode == 0, proc.stdout


def test_checker_flags_metrics_mutation_outside_repro(tmp_path):
    bad = tmp_path / "tests"
    bad.mkdir(parents=True)
    (bad / "test_rogue.py").write_text(
        "from repro.metrics import get_registry\n"
        "get_registry().counter('sneaky').inc()\n")
    proc = _check(tmp_path)
    assert proc.returncode == 1
    assert "test_rogue.py:2" in proc.stdout
    assert "metrics" in proc.stdout
    assert "snapshot" in proc.stdout             # the fix hint


def test_checker_allows_metrics_mutation_in_repro_and_own_tests(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "kernel.py").write_text(
        "_M = get_registry().counter('dp.cells')\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_metrics.py").write_text(
        "c = reg.counter('c')\n"
        "g = reg.gauge('g')\n"
        "h = reg.histogram('h')\n")
    proc = _check(tmp_path)
    assert proc.returncode == 0, proc.stdout


def test_checker_flags_metrics_mutation_in_benchmarks(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir(parents=True)
    (bench / "bench_rogue.py").write_text(
        "reg.histogram('lat', phase='x').observe(1)\n")
    proc = _check(tmp_path)
    assert proc.returncode == 1
    assert "bench_rogue.py:1" in proc.stdout


def test_checker_flags_kernel_charge_outside_repro(tmp_path):
    bad = tmp_path / "examples"
    bad.mkdir(parents=True)
    (bad / "rogue_charge.py").write_text(
        "from repro.mpc.accounting import charge\n"
        "with charge('sneaky', 1, 10):\n"
        "    pass\n")
    proc = _check(tmp_path)
    assert proc.returncode == 1
    assert "rogue_charge.py:2" in proc.stdout
    assert "kernel charge outside src/repro/" in proc.stdout
    assert "WorkMeter (total, kernels)" in proc.stdout    # the fix hint


def test_checker_allows_kernel_charge_in_repro_and_own_tests(tmp_path):
    src = tmp_path / "src" / "repro" / "strings"
    src.mkdir(parents=True)
    (src / "banded.py").write_text(
        "with charge('banded', len(pairs), total):\n"
        "    pass\n")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_obs_profile.py").write_text(
        "with charge('demo', 1, 10):\n"
        "    pass\n")
    (tests / "test_ledger.py").write_text(
        "ledger.charge(5)\n")          # a method, not the bracket
    proc = _check(tmp_path)
    assert proc.returncode == 0, proc.stdout


def test_checker_flags_raw_shared_memory_outside_mpc(tmp_path):
    bad = tmp_path / "src" / "repro" / "ulam"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text(
        "from multiprocessing import shared_memory\n"
        "seg = shared_memory.SharedMemory(create=True, size=8)\n")
    proc = _check(tmp_path)
    assert proc.returncode == 1
    assert "rogue.py:1" in proc.stdout
    assert "rogue.py:2" in proc.stdout
    assert "DataPlane" in proc.stdout            # the fix hint


def test_checker_allows_shared_memory_in_mpc_package(tmp_path):
    mpc = tmp_path / "src" / "repro" / "mpc"
    mpc.mkdir(parents=True)
    (mpc / "shm.py").write_text(
        "from multiprocessing import shared_memory\n"
        "seg = shared_memory.SharedMemory(create=True, size=8)\n")
    proc = _check(tmp_path)
    assert proc.returncode == 0, proc.stdout
