import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, old, new, expected, reason", mutants.MUTANTS,
                         ids=[f"{m[0]}: {m[4]}" for m in mutants.MUTANTS])
def test_each_mutant_applies_at_one_place(name, old, new, expected, reason):
    # the runner replaces the first occurrence; a second one, or none, would
    # mutate the wrong line or nothing
    text = (mutants.ROOT / mutants.SOURCE / name).read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert new != old and expected in ("killed", "equivalent")


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_stopped_runner_leaves_no_child_and_no_copy(tmp_path, signum):
    # the runner's tests are a stand-in that names its process and sleeps
    tmp, pid_file = tmp_path / "tmp", tmp_path / "child.pid"
    tmp.mkdir()
    stand_in = (f"import os, pathlib, time; pathlib.Path({str(pid_file)!r})"
                ".write_text(str(os.getpid())); time.sleep(600)")
    script = (f"import importlib.util, sys\n"
              f"spec = importlib.util.spec_from_file_location('mutants', {str(_spec.origin)!r})\n"
              f"mutants = importlib.util.module_from_spec(spec)\n"
              f"spec.loader.exec_module(mutants)\n"
              f"mutants.PYTEST = ['-c', {stand_in!r}]\n"
              f"sys.exit(mutants.main(['--only', 'readout']))\n")
    runner = subprocess.Popen([sys.executable, "-c", script], env={**os.environ, "TMPDIR": str(tmp)},
                              stdout=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists() or not pid_file.read_text():
            assert runner.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        child = int(pid_file.read_text())
        assert list(tmp.iterdir())  # the copy the stand-in runs in
        runner.send_signal(signum)
        out, _ = runner.communicate(timeout=60)
    finally:
        runner.kill()
        runner.wait()
    assert runner.returncode == 128 + signum
    assert f"stopped by signal {signum}" in out
    with pytest.raises(ProcessLookupError):
        os.kill(child, 0)
    assert not list(tmp.iterdir())
