"""The standing list of source mutants, and a runner that checks that the
tier-1 tests kill each one they should.

Each entry is (file under ``src/pulserc``, old text, new text, expected,
reason). ``expected`` is ``killed`` for a mutant that some test must
catch, and ``equivalent`` for one that changes no result the tests can
see; it is listed so that its survival is known, not found again.

Run from the repository root (it takes minutes, so it is not tier-1; CI runs
it in a job of its own):

    python tests/mutants.py [--only MODULE]

Each mutant is applied to a temporary copy of the repository, where the
tier-1 tests run with ``-x`` under a single BLAS thread, as the golden
files need. The runner prints each outcome and the killed, survived and
equivalent counts, and exits 1 if any mutant's outcome differs from its
expected one. SIGINT or SIGTERM stops the running tests (and every process
they started), removes the copy and exits with 128 plus the signal number. ``tests/test_mutants.py`` checks that each old text occurs
exactly once in its file, so the list cannot go stale silently.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = Path("src") / "pulserc"
# the tier-1 tests of a copy, stopping at the first failure, without the
# guard on this list (every mutant fails it)
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors", "--ignore", "tests/test_mutants.py"]

MUTANTS = [
    # readout.py: one ridge solve call, each strength factored on its first solve
    ("readout.py", "if ridge_lambda != self._lambda:", "if True:",
     "killed", "always refactor"),
    ("readout.py", "            self._lambda = ridge_lambda\n", "",
     "killed", "never cache"),
    ("readout.py", "self._lambda = None  # a failed factor", "pass  # a failed factor",
     "killed", "no clear before the rebuild"),
    ("readout.py", "self.rhs[target]", "self.rhs[0]",
     "killed", "target ignored"),
    ("readout.py", "if not (np.isfinite(a).all() and np.isfinite(b).all()):", "if False:",
     "killed", "no finiteness check"),
    ("readout.py", "return max(-1.0, min(1.0, r))", "return r",
     "killed", "no clamp"),
    ("readout.py", "ys = np.atleast_2d(np.asarray(targets, dtype=float))",
     "ys = np.atleast_2d(np.ravel(np.asarray(targets, dtype=float)))",
     "killed", "targets flattened to one row"),
    ("readout.py", "dpotrs(self._factor,", "dpotrs(a.T,",
     "equivalent", "dpotrs on a.T: the factor dpotrf returns shares its memory"),
    # harness.py: the lambda grid's shared solves
    ("harness.py", "tuple(dict.fromkeys(lead.lambda_grid))",
     "tuple(dict.fromkeys(lead.lambda_grid[::-1]))",
     "killed", "ties go to the later strength"),
    ("harness.py", "datasets[0].targets[spec.washout + spec.train_len:spec.total_len].copy(),",
     "datasets[0].targets[spec.washout + spec.train_len:spec.total_len],",
     "killed", "trace_targets kept as a view of the series"),
    ("harness.py", "if lam in lambdas[i] and i not in outcomes:", "if lam in lambdas[i]:",
     "killed", "failed points solved again"),
    ("harness.py", "if lam in lambdas[i] and i not in outcomes:", "if i not in outcomes:",
     "killed", "every strength for every point"),
    ("harness.py", "use(i, system.solve(lam, k))", "use(i, system.solve(lam, 0))",
     "killed", "one target for all"),
    ("harness.py", "                except PulseRcError as exc:\n"
                   "                    outcomes[i] = exc\n",
     "                except PulseRcError:\n"
     "                    raise\n",
     "killed", "a point error raised instead of kept"),
    # tasks.py: NARMA windows of 8+ terms summed by NumPy's row reduction
    ("tasks.py", "                    block[...] = ys[k + t - m:k + t, cols].T\n"
                 "                    add_reduce(block, 1, None, s_rows)\n",
     "                    add_reduce(ys[k + t - m:k + t, cols].T, 1, None, s_rows)\n",
     "killed", "the strided .T view reduced without the copy"),
    ("tasks.py", "                    block[...] = ys[k + t - m:k + t, cols].T\n"
                 "                    add_reduce(block, 1, None, s_rows)\n",
     "                    add_reduce(ys[k + t - m:k + t, cols], 0, None, s_rows)\n",
     "killed", "the time-major window reduced along axis 0"),
    ("tasks.py", "_PAIRWISE_MIN_TERMS = 8\n", "_PAIRWISE_MIN_TERMS = 9\n",
     "killed", "8-term windows summed left to right"),
    ("tasks.py", "_PAIRWISE_MIN_TERMS = 8\n", "_PAIRWISE_MIN_TERMS = 7\n",
     "equivalent", "NumPy adds 7 terms left to right either way"),
    ("tasks.py", "bounds = [padded, *(np.flatnonzero(np.diff(n_terms[padded:])) + padded + 1), rows]",
     "bounds = [padded, rows]",
     "killed", "every 8+-term count in one group"),
    ("tasks.py", "_REDRAW_SEEDS = 8  #", "_REDRAW_SEEDS = 4  #",
     "equivalent", "a lockstep pass tries fewer seeds; each row's seed order is the same"),
    # one reading of a spec value on the command line, numbers stored as
    # they run, spec files written only when they read back, BOMs dropped
    ("cli.py", "if name in SPEC_TYPES and value is not None:",
     "if name in SPEC_TYPES and value is not None and name != \"seed\":",
     "killed", "the --seed override not applied"),
    ("cli.py", 'action="store_const", const=True,', 'action="store_const", const=None,',
     "killed", "--compat-narma-sum ignored"),
    ("cli.py", 'if args.command == "run":', "if False:",
     "killed", "run prints the sweep line"),
    ("harness.py", "if kind in (int, float, tuple):", "if kind is int:",
     "killed", "float fields and lambda_grid entries kept as given"),
    ("harness.py", "if _COMMENT.sub(\"\", text, count=1).strip() != text or",
     "if False and",
     "killed", "write_spec_file writes a value that reads back as another"),
    ("tasks.py", 'encoding="utf-8-sig"', 'encoding="utf-8"',
     "killed", "a leading byte-order mark kept"),
    # reservoir.py: the drive kernel
    ("reservoir.py", "                if mix_to_row:\n"
                     "                    add(predecessors, mixed, row)\n",
     "                if mix_to_row:\n"
     "                    add(mixed, noise_j, mixed)\n"
     "                    add(predecessors, mixed, row)\n"
     "                    noise_j[...] = 0.0\n",
     "killed", "noise added before the predecessor term"),
    ("reservoir.py", "mix_to_row = two_term and all(p.gain_c == 1.0 for p in params)",
     "mix_to_row = two_term and any(p.gain_c == 1.0 for p in params)",
     "killed", "the gain fast path taken when one row's gain is not 1"),
    ("reservoir.py", "rows[-1], ring[0], carry[0] = state[0].T, eps * state[1], state[1]",
     "rows[-1] = state[0].T",
     "killed", "the start state's carry dropped"),
    ("reservoir.py", "[params], washout)[0]", "[params], washout - 1)[0][:-1]",
     "killed", "the washout slice off by one: states of samples washout-1 .. L-2"),
    ("reservoir.py", "rngs = [(generators.get(seed) or np.random.default_rng(seed), cols)",
     "rngs = [(np.random.default_rng(seed), cols)",
     "killed", "the generator map ignored"),
    ("reservoir.py", "state[0][...], state[1][...] = rows[steps - 1].T, "
                     "sines[-1] if two_term else carry[0]",
     "state[0][...] = rows[steps - 1].T",
     "killed", "the end state's carry not passed on"),
    ("reservoir.py", "        ring[0] = ring[-1]\n", "",
     "killed", "a chunk's first predecessor term not carried over from the last chunk"),
    ("reservoir.py", "return math.exp(-pulse_period / bandwidth_time)",
     "return math.exp(-bandwidth_time / pulse_period)",
     "killed", "the coupling factor's time constants swapped"),
    # tasks.py: the CSV reader, one pass per line
    ("tasks.py", "if width:  # only the first content line names columns",
     "if names is None:  # only the first content line names columns",
     "killed", "a header allowed after a data row"),
    ("tasks.py", "if len(values) != width:", "if False:",
     "killed", "the width check dropped"),
    ("tasks.py", "        if not parts:\n", "        if False:\n",
     "killed", "a line of separators only read as a row of no values"),
    # harness.py: sizes no run can hold
    ("harness.py", "        _refuse_oversized(spec)\n", "",
     "killed", "no size refusal"),
    # harness.py: one pass per rule: a spec's types checked where it is built,
    # each grid point's errors listed, one except per (point, replication)
    ("harness.py", "for v in items):", "for v in items if kind is not tuple):",
     "killed", "the build-time check skipping lambda_grid entries"),
    ("harness.py", "grid[e.index(min(e))]", "grid[len(e) - 1 - e[::-1].index(min(e))]",
     "killed", "the strength taken at the last minimum"),
    ("harness.py", "tuple(dict.fromkeys(lead.lambda_grid)), {}", "lead.lambda_grid, {}",
     "killed", "a repeated grid strength counted twice"),
    ("harness.py", "                        raise fit\n", "                        continue\n",
     "killed", "a fit error skipped instead of re-raised"),
    # harness.py: a spec's values checked where it is built, as its types are
    ("harness.py", "not (self.csv_input and self.csv_target)",
     "not (self.csv_input or self.csv_target)",
     "killed", "a CSV task built with one of its two paths"),
    ("harness.py", "if self.replications < 1:", "if self.replications < 0:",
     "killed", "a spec of zero replications built"),
    ("harness.py", "if self.lambda_grid and held_out < 2:", "if self.lambda_grid and held_out < 1:",
     "killed", "a lambda grid built with one held-out row"),
    ("harness.py", "if not (math.isfinite(lam) and lam >= 0):", "if not lam >= 0:",
     "killed", "an infinite ridge strength built"),
    ("harness.py", "                NarmaConfig(self.order, self.total_len, self.seed)\n",
     "                pass\n",
     "killed", "a NARMA spec built without NarmaConfig's checks"),
    # harness.py: one spec vocabulary: every scalar field a sweep axis, the
    # choice fields in one table, one text reader, each point's own series
    ("harness.py", '_CHOICES = {"task": ("narma", "surrogate", "csv"),\n'
                   '            "mask_kind": MASK_KINDS}\n',
     '_CHOICES = {"task": ("narma", "surrogate", "csv")}\n',
     "killed", "a choice table that drops mask_kind"),
    ("harness.py", "if kind is not tuple and k not in (\"schema\", \"out\"))",
     "if kind in (int, float) and k not in (\"schema\", \"out\"))",
     "killed", "the numeric-only sweep rule restored"),
    ("harness.py", 'raise SpecError(f"{where}: {exc}") from exc',
     'raise SpecError(f"{name}: {exc}") from exc',
     "killed", "a text error prefixed with its field, not its place"),
    ("harness.py", '_field_value(name, str(v), f"field {name!r}")',
     '_field_value(name, str(v), f"{name!r}")',
     "killed", "an axis text error without its 'field' prefix"),
    ("harness.py", "series = drawn[_task_key(spec)][:spec.replications]",
     "series = drawn[_task_key(spec)]",
     "killed", "a point reading another point's replication count"),
    # each point handed its task's datasets: every series drawn, read and
    # standardized once per call, cut to the group's length where it is read
    ("harness.py", "scaled = functools.cache(standardize)", "scaled = standardize",
     "killed", "each point standardizing its own datasets"),
    ("harness.py", 'if spec.task == "narma" else ()', 'if spec.task == "narma" else (spec.order,)',
     "killed", "a surrogate keyed by its order"),
    ("harness.py", "evaluate(series[i][r].targets[split:n], yhat)",
     "evaluate(series[i][r].targets[split:], yhat)",
     "killed", "test targets not cut to the group's length"),
    ("readout.py", "        if w.ndim != 1:\n", "        if False:\n",
     "killed", "2-d readout weights accepted"),
    ("tasks.py", "    if seed < 0:\n", "    if False:\n",
     "killed", "a negative surrogate seed left to NumPy"),
]


class Stopped(Exception):
    """The runner was sent SIGINT or SIGTERM; ``args[0]`` is the signal."""


def _stop(signum, frame):
    raise Stopped(signum)


def _pytest(copy: Path) -> int:
    """The exit code of ``PYTEST`` run in ``copy``. It runs in a session of
    its own, so that when the runner is stopped, it and every process it
    started are killed and waited for before the copy is removed."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    child = subprocess.Popen([sys.executable, *PYTEST], cwd=copy, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                             start_new_session=True)
    try:
        return child.wait()
    finally:
        if child.returncode is None:  # stopped before the tests ended
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="MODULE",
                        help="run only the mutants of this module, e.g. readout")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m[0], Path(m[0]).stem)]
    if not chosen:
        parser.error(f"no mutants of {args.only!r}")
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _stop)
    try:
        return _run(chosen)
    except Stopped as exc:
        print(f"stopped by signal {exc.args[0]}; the copy is removed", flush=True)
        return 128 + exc.args[0]


def _run(chosen: list) -> int:
    """Run each mutant of ``chosen`` in one temporary copy of the repository."""
    counts = dict.fromkeys(("killed", "survived", "equivalent"), 0)
    unexpected = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"))
        if _pytest(copy) != 0:
            print("the unmutated copy fails its tests; no mutant was run")
            return 2
        for name, old, new, expected, reason in chosen:
            path = copy / SOURCE / name
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(old, new, 1), encoding="utf-8")
            try:
                code = _pytest(copy)
            finally:
                path.write_text(original, encoding="utf-8")
            outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            if outcome == "survived" and expected == "equivalent":
                outcome = "equivalent"
            counts[outcome] = counts.get(outcome, 0) + 1
            unexpected += outcome != expected
            note = "" if outcome == expected else f"  (expected {expected})"
            print(f"{outcome:<10} {name}: {reason}{note}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items()) + f"; {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
