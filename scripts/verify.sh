#!/usr/bin/env sh
# Test-tier entry points (the single place the tiers are defined; the
# markers themselves are declared in pytest.ini):
#
#   scripts/verify.sh             fast tier: -m "not slow and not multiprocess"
#                                 -- serial-only, dependency-free (the numpy
#                                 marker auto-skips without NumPy), the loop
#                                 you run on every edit
#   scripts/verify.sh full        everything: the tier-1 gate
#                                 (PYTHONPATH=src python -m pytest -x -q),
#                                 including the exhaustive LFSR period walks
#                                 (slow) and the real worker-pool suites
#                                 (multiprocess)
#   scripts/verify.sh bench-smoke every benchmarks/bench_*.py on a tiny
#                                 workload (BENCH_SMOKE=1): exercises the
#                                 benchmark harnesses end to end so the
#                                 scripts cannot silently rot.  Speedup bars
#                                 are not asserted (tiny workloads measure
#                                 fixed costs, not throughput), JSON records
#                                 land in benchmarks/.smoke/ (gitignored),
#                                 and pytest-benchmark timing loops are
#                                 disabled so every benchmarked body runs
#                                 exactly once.
#   scripts/verify.sh marker EXPR [pytest args...]
#                                 the marker subset EXPR (a pytest -m
#                                 expression; quote it) -- the quick check
#                                 after touching one layer, e.g.
#                                   marker "transition and not multiprocess"
#                                     at-speed campaign/timing tests, serial
#                                   marker "service and not multiprocess"
#                                     campaign-service tests, serial
#                                   marker "lifecycle and not multiprocess"
#                                     cancel/deadline/shutdown/quarantine
#                                   marker chaos
#                                     fault-injection suite, real pools too
#                                 The pooled halves of these subsets run in
#                                 the full tier.
#
# Markers:
#   slow          exhaustive LFSR period walks (widths 14-20)
#   multiprocess  tests that spawn real worker pools (the stage-graph
#                 PooledScheduler) or fresh interpreters
#   numpy         optional numpy-backend tests; auto-skip without NumPy
#   transition    at-speed (transition / skew-sweep) campaign and timing
#                 tests
#   service       campaign-service tests; auto-skip when asyncio or
#                 repro.service is unavailable
#   chaos         fault-injection resilience tests; auto-skip without
#                 POSIX process primitives (os.kill / SIGKILL)
#   lifecycle     job-lifecycle tests (cancellation, deadlines, bounded
#                 shutdown, crash-loop quarantine)
#
# Extra arguments after the tier name pass straight to pytest, e.g.
#   scripts/verify.sh fast tests/campaign -k pipeline
set -e
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

tier="${1:-fast}"
[ "$#" -gt 0 ] && shift

case "$tier" in
  fast)
    exec python -m pytest -x -q -m "not slow and not multiprocess" "$@"
    ;;
  full)
    exec python -m pytest -x -q "$@"
    ;;
  bench-smoke)
    # Enumerate explicitly: bench_*.py does not match pytest's test-file
    # collection patterns, so a bare directory argument collects nothing.
    BENCH_SMOKE=1 exec python -m pytest -x -q --benchmark-disable \
      benchmarks/bench_*.py "$@"
    ;;
  marker)
    if [ "$#" -eq 0 ]; then
      echo "usage: scripts/verify.sh marker EXPR [pytest args...]" >&2
      exit 2
    fi
    expr="$1"
    shift
    exec python -m pytest -x -q -m "$expr" "$@"
    ;;
  *)
    echo "usage: scripts/verify.sh [fast|full|bench-smoke|marker EXPR] [pytest args...]" >&2
    exit 2
    ;;
esac
