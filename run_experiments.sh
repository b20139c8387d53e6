#!/usr/bin/env bash
# Regenerate the record: results/<name>.txt for every experiment in the
# `repro` registry (tables, figures, extensions, ablations), then the
# repro gate. Only stdout is recorded; telemetry exports and diagnostics
# go to stderr and results/<name>.* side files. About 14 minutes at the
# default scale on a 2-vCPU box; TLPGNN_SCALE shrinks everything for a
# quick pass (see crates/bench) — but only a default-scale run may be
# committed, since ci.sh compares results/ with fresh default-scale runs.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p results
for exp in $(./target/release/repro list); do
    echo "=== running $exp ==="
    start=${SECONDS}
    ./target/release/repro "$exp" > "results/$exp.txt"
    echo "    $((SECONDS - start)) s"
done
echo "=== running repro gate ==="
./target/release/repro gate | tee results/repro_gate.txt
echo "all experiments done"
