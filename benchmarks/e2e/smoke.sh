#!/usr/bin/env bash
# One line for CI: every workload at smoke size, untraced and traced,
# then the harness self-tests.  Checks that the benchmark runs and that
# outputs are correct; smoke timings are not for publishing.
set -euo pipefail
cd "$(dirname "$0")/../.."
python3 benchmarks/e2e/bench.py run --all --smoke --seed 0
python3 benchmarks/e2e/bench.py run --all --smoke --seed 0 --trace 1
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest benchmarks/e2e -q
