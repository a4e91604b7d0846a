#!/bin/sh
# Run every workload, each in its own process, from the repository root:
#   sh bench/all.sh [seed] [seconds] [trace]
set -e
for workload in dense_blossoms long_paths certificates small_batch; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" \
        --seed "${1:-1}" --seconds "${2:-25}" --trace "${3:-0}"
done
