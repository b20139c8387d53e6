#!/usr/bin/env bash
# CI entry point: build, test, format, lint — then the repro gate, the
# record and device-clock checks, and the perf gate. Every
# check here is deterministic or a correctness verdict; wall-clock
# serving numbers come only from benchmark/ (BENCHMARK.json). Fails fast
# on the first broken step, including failures inside pipelines and any
# use of an unset variable.
set -euo pipefail
cd "$(dirname "$0")"

# Each step's wall-clock seconds, printed when the next one starts (and
# after the last), so a change in the simulator's host speed shows where
# it lands: perf gate, repro gate, record canary.
step_name=""
step() {
  if [ -n "${step_name}" ]; then
    echo "--- ${step_name}: $((SECONDS - step_start)) s"
  fi
  step_name="$1"
  step_start=${SECONDS}
  [ -z "${step_name}" ] || echo "=== ${step_name} ==="
}

step "cargo build --release"
cargo build --release --workspace

step "cargo test"
cargo test -q --workspace

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

step "one home"
# Things that were deleted stay deleted: the sequential rayon stand-in
# and the unused crossbeam shim (host parallelism is tlpgnn_tensor::pool),
# the parking_lot shim (its one user, gpu-sim's L2, needs no lock), the
# second JSON implementation (everything goes through
# telemetry::json), the marker-only serde shims (nothing serialises
# through serde), the one-program-per-experiment binaries (an
# experiment is a row of the registry in crates/bench/src/experiments/,
# run as `repro <name>`; the five programs left each have a flag grammar
# and exit-code contract of their own, and one suite run gates the
# baseline and writes the roofline record), the second wall-clock harness
# (serve_bench, shard_bench, dynamic_bench and their closed-loop load
# generator: serving is timed by benchmark/ alone, and the checks they
# made are tests), the chaos harness (chaos_bench, its flag parser
# crates/bench/src/cli.rs and crates/bench's tlpgnn-serve dependency:
# the scenarios are tests in crates/serve/tests/chaos.rs), the
# simulator's second accounting views (a launch records one ledger,
# gpu_sim::Accounting; the per-SM cost formula is SmAccounting::cost and
# nothing re-types it; the per-SM occupancy histogram duplicated the
# telemetry SM tracks), and every second host clock (the criterion shim
# and its benches, perfgate's native wall-clock ride-along and the prof
# scope sampler: host time is measured by benchmark/ alone and
# attributed by span!).
if grep -qE '^name = "(rayon|crossbeam|parking_lot|serde|serde_derive|criterion)"' Cargo.lock; then
  echo "one home: rayon/crossbeam/parking_lot/serde/criterion are back in Cargo.lock" >&2
  exit 1
fi
if [ -e shims/criterion ] || [ -e crates/bench/benches ] || [ -e crates/perfgate/src/native.rs ]; then
  echo "one home: a second host clock is back (shims/criterion, crates/bench/benches/ or crates/perfgate/src/native.rs; host time is benchmark/'s)" >&2
  exit 1
fi
if grep -rqE 'prof::scope|TLPGNN_PROF' crates; then
  echo "one home: the prof scope sampler is back in crates/ (attribute host time with span!)" >&2
  exit 1
fi
if [ -e crates/conformance/src/json.rs ]; then
  echo "one home: crates/conformance/src/json.rs is back (use telemetry::json)" >&2
  exit 1
fi
bench_bins="$(LC_ALL=C ls crates/bench/src/bin | xargs)"
if [ "${bench_bins}" != "conformance_fuzz.rs gnnconv.rs perf_gate.rs repro.rs telemetry_diff.rs" ]; then
  echo "one home: crates/bench/src/bin/ holds ${bench_bins} (a new experiment is a registry row, not a binary)" >&2
  exit 1
fi
if [ -e crates/bench/src/cli.rs ] || grep -q 'tlpgnn-serve' crates/bench/Cargo.toml; then
  echo "one home: crates/bench drives the serving stack again (chaos scenarios are crates/serve/tests/chaos.rs)" >&2
  exit 1
fi
if [ -e crates/bench/src/load.rs ] || grep -rq 'load_metrics_snapshot' crates; then
  echo "one home: a second serving load generator is back in crates/bench (serving wall-clock is benchmark/'s)" >&2
  exit 1
fi
if grep -rq 'recompute_breakdown' crates/perfgate; then
  echo "one home: crates/perfgate recomputes the cost breakdown (call gpu_sim::Accounting::critical_sm)" >&2
  exit 1
fi
if grep -rqE 'SmOccupancy|OCCUPANCY_BUCKETS|struct SmBin' crates; then
  echo "one home: a second per-SM record is back in crates/ (the ledger's SmAccounting is the one)" >&2
  exit 1
fi
# A request is priced by one function, Pricer::price in
# crates/gpu-sim/src/price.rs, whether inline or replayed from the launch
# log: nothing else looks a sector up in, or drops one from, the cache
# model (cache.rs's own tests exercise the model itself).
if grep -rnE '\.(access|invalidate)\(' --include='*.rs' crates src tests examples |
  grep -vE '^crates/gpu-sim/src/(cache|price)\.rs:'; then
  echo "one home: SectorCache::access/invalidate called outside gpu-sim's pricing function (crates/gpu-sim/src/price.rs)" >&2
  exit 1
fi
# An option with one value in every caller is a constant: the settings
# that no caller set to anything but their default became constants
# where they are read, with the code paths only another value reached
# (the packed narrow-feature conv, the forced assignment, respawns on a
# faulty device, the cache TTL, the halo interconnect's bandwidth and
# latency). None comes back as a field or a struct-literal entry.
if grep -rnE --include='*.rs' '^\s*(pub(\(crate\))? )?(pack_narrow_features|force_assignment|respawn_healthy|attribution_floor|jitter_frac|unhealthy_weight|sample_seed|model_version|engine_options|allow_self_loops|cache_ttl|stale_grace|sample_fanout|bandwidth_gbps|latency_us)\s*:' crates; then
  echo "one home: a one-valued option is back as a field in crates/ (it is a constant where it is read)" >&2
  exit 1
fi
# Cache rows do not age: a key fixes vertex, epoch, depth and shard, and
# a mutation evicts every row it reaches, so a row is exact for as long
# as it is cached. The TTL lookup, the stale-cache flag and the ladder
# rung that served past-TTL rows stay deleted, and the ladder's
# thresholds stay one const table in crates/serve/src/policy.rs.
if grep -rnE --include='*.rs' 'StaleOk|stale_cache|get_aged|cache_stale_hits|DegradationPolicy' crates; then
  echo "one home: the cache TTL path or a settable ladder policy is back in crates/ (cache rows do not age)" >&2
  exit 1
fi
# Extensions earn a gate or go: the trainer, the second multi-device
# engine (sharded serving, tlpgnn_shard + ShardedServer, is the one
# multi-device path, and the serve_sharded workload measures it) and the
# untimed native push/edge-centric baselines stay deleted, with their
# examples.
for gone in crates/core/src/train.rs crates/core/src/multi_gpu.rs \
  crates/core/src/native/baselines.rs examples/train_gcn.rs examples/multi_gpu_scaling.rs; do
  if [ -e "${gone}" ]; then
    echo "one home: ${gone} is back (an extension without a gate is deleted with its example)" >&2
    exit 1
  fi
done
# Pins print what they pin: every modelled number outside perf_gate's
# matrix is a named line of crates/bench/tests/golden/pins.txt, checked
# and re-recorded by crates/bench/tests/pins.rs. The hashed kernel pins,
# the per-crate pin tests, their golden files and the second roofline
# golden stay deleted.
for gone in crates/core/tests/kernel_pins.rs crates/gpu-sim/tests/launch_pins.rs \
  crates/baselines/tests/system_pins.rs crates/gpu-sim/tests/profile_golden.rs \
  crates/perfgate/tests/roofline_golden.rs crates/gpu-sim/tests/golden/profile_metrics.txt \
  crates/gpu-sim/tests/golden/hw_counter_names.txt crates/perfgate/tests/golden/roofline.json; do
  if [ -e "${gone}" ]; then
    echo "one home: ${gone} is back (a pin is a named line of crates/bench/tests/golden/pins.txt)" >&2
    exit 1
  fi
done
# Host parallelism is tlpgnn_tensor::pool: no library crate starts a
# thread of its own outside the pool, and the graph crate's random draws
# come from one splitmix64 (generators::mix64, the counter-indexed
# stream every generator and sampler reads).
if grep -rnE --include='*.rs' 'thread::(spawn|scope|Builder)' \
  crates/{graph,tensor,core,gpu-sim,baselines,shard}/src | grep -v '^crates/tensor/src/pool\.rs:'; then
  echo "one home: a thread is started outside tlpgnn_tensor::pool (crates/tensor/src/pool.rs)" >&2
  exit 1
fi
splitmixes="$(grep -rh --include='*.rs' . crates/graph/src | tr -d '_' |
  { grep -oi '0xbf58476d1ce4e5b9' || true; } | wc -l)"
if [ "${splitmixes}" -ne 1 ]; then
  echo "one home: crates/graph/src holds ${splitmixes} splitmix64 bodies (draw from generators::mix64)" >&2
  exit 1
fi
# A layer's order (project first iff it narrows) is decided once, in
# GnnLayer's constructor in crates/core/src/model.rs: no other file
# constructs an Order variant. The device forward in engine.rs may match
# on the order (a `Variant =>` arm) but never chooses one.
if grep -rnE --include='*.rs' '\b(ProjectFirst|AggregateFirst)\b' crates src tests examples benchmark |
  grep -v '^crates/core/src/model\.rs:' | grep -vE '^[^:]+:[0-9]+:\s*//' |
  grep -vE '^crates/core/src/engine\.rs:[0-9]+:\s*Order::(ProjectFirst|AggregateFirst)\s*=>'; then
  echo "one home: a layer's Order is constructed outside crates/core/src/model.rs (GnnLayer::new decides it)" >&2
  exit 1
fi
# A forward's large buffers are reused through one store, Matrix's spare
# buffers in crates/tensor/src/matrix.rs: no other static holds f32
# buffers or matrices, and nothing else defines a store's take or
# give-back. A spare buffer holds stale values, so only the kernels that
# write every element of their output take one: matmul and the fused
# dense phase (crates/tensor/src/ops.rs) and the native convolution
# (crates/core/src/native/mod.rs). Page reuse is the program's own
# doing, not the allocator's: no library or binary tunes malloc or
# installs a global allocator (test-local counting allocators live
# under crates/*/tests/).
if grep -rnE --include='*.rs' '\bstatic\s+(mut\s+)?\w+\s*:[^=]*\b(f32|Matrix)\b|fn (recycle|for_overwrite)\b' crates/*/src src |
  grep -v '^crates/tensor/src/matrix\.rs:'; then
  echo "one home: a second spare-buffer store outside crates/tensor/src/matrix.rs" >&2
  exit 1
fi
if grep -rnE --include='*.rs' '\bfor_overwrite\b' crates src tests examples benchmark |
  grep -vE '^crates/(tensor/src/(matrix|ops)|core/src/native/mod)\.rs:' | grep -vE '^[^:]+:[0-9]+:\s*//'; then
  echo "one home: Matrix::for_overwrite called outside the kernels that write every element (matmul, ops::dense, NativeEngine::conv)" >&2
  exit 1
fi
if grep -rnE --include='*.rs' 'mallopt|MALLOC_|#\[global_allocator\]' crates/*/src src; then
  echo "one home: an allocator setting or a global allocator under crates/*/src or src (reuse pages through Matrix's spare store)" >&2
  exit 1
fi
# Instruction-set dispatch has one home, crates/tensor/src/ops.rs: the
# copies built for AVX2 and AVX-512 and the run-time detection that
# picks the widest (ops::Isa). The dense tile and the native conv's rows
# reach them through Isa::run; nothing else names a target feature.
if grep -rnE --include='*.rs' '#\[target_feature|is_x86_feature_detected!' crates/*/src |
  grep -v '^crates/tensor/src/ops\.rs:'; then
  echo "one home: a target_feature or a run-time ISA check outside crates/tensor/src/ops.rs (dispatch through tlpgnn_tensor::ops::Isa)" >&2
  exit 1
fi
# Public means called: every `pub` fn, mod, struct, enum, trait, union,
# type alias, const, static and named field under crates/<c>/src
# (comments, string literals and each #[cfg(test)] item, braces
# balanced, removed; src/bin/ targets are crates of their own) is named
# in some tracked .rs file outside that crate's src/ — another crate, a
# tests/ or examples/ file, a bin target, benchmark/ — counting code only
# (// comments and string literals removed). Three things also count as
# a use, because rustc rejects the narrowed item there: a type named in
# the declaration of a public item of its crate that passes (narrowing
# it trips private_interfaces; a field's type, a fn's signature, an
# enum's or trait's body), a field of a struct that code outside its
# crate builds with `..base` (E0451 there), and a name in the body of a
# #[macro_export] macro (it expands in the caller). Anything else is
# pub(crate) or private, so rustc's dead_code lint (clippy -D warnings
# above) sees when nothing uses it at all. There are no exceptions.
# Blind spot: names are matched, not resolved, so a pub item whose name
# is reused anywhere outside its crate (`new`, `len`, `spec`) passes; a
# trial that narrows every `pub` to `pub(crate)` and lets rustc re-widen
# what breaks (check, doc tests, clippy, benchmark/) is the exact method.
uncalled="$(git ls-files '*.rs' | perl -e '
  my (%owner, %fru, @decls, %seen);
  while (my $file = <STDIN>) {
    chomp $file;
    open my $fh, "<", $file or die "$file: $!\n";
    my $src = do { local $/; <$fh> };
    my ($home) = $file =~ m{^crates/([^/]+)/src/(?!bin/)};
    $home //= "";
    $src =~ s{//[^\n]*|(?<!\w)b?r(#*)".*?"\1|b?"(?:[^"\\]|\\.)*"|b?\x27(?:[^\x27\\]|\\.)\x27}{ }gs;
    $owner{$_}{$home} = 1 for $src =~ /[A-Za-z_]\w*/g;
    while ($src =~ /\b([A-Z]\w*)\s*(\{(?:[^{}]++|(?-1))*+\})/g) {
      my ($name, $body) = ($1, $2);
      $fru{$name}{$home} = 1 if $body =~ /[{,]\s*\.\.[^,{}]*\}\z/;
    }
    next unless $home;
    (my $decl = $src) =~ s/#\[cfg\(test\)\][^{;]*(?:;|(\{(?:[^{}]++|(?-1))*+\}))//g;
    while ($decl =~ /#\[macro_export\]\s*macro_rules!\s*\w+\s*(\{(?:[^{}]++|(?-1))*+\})/g) {
      $owner{$_}{"$home!"} = 1 for $1 =~ /[A-Za-z_]\w*/g;
    }
    my @found;
    push @found, map { [$_->[0], "fn", $_->[1]] }
      pairs($decl =~ /(?:^|[\s{;}])pub\s+(?:const\s+|unsafe\s+|async\s+)*fn\s+(\w+)([^{;]*)/g);
    push @found, map { [$_->[0], "type", $_->[1]] }
      pairs($decl =~ /(?:^|[\s{;}])pub\s+(?:unsafe\s+)?(?:struct|union)\s+(\w+)([^{;]*)/g);
    while ($decl =~ /(?:^|[\s{;}])pub\s+(?:unsafe\s+)?(?:enum|trait)\s+(\w+)([^{;]*(\{(?:[^{}]++|(?-1))*+\})?)/g) {
      push @found, [$1, "type", $2];
    }
    push @found, map { [$_->[0], "type", $_->[1]] }
      pairs($decl =~ /(?:^|[\s{;}])pub\s+(?:type|static(?:\s+mut)?|const(?!\s+(?:unsafe\s+)?fn\b)|mod)\s+(\w+)([^;{]*)/g);
    while ($decl =~ /\bstruct\s+(\w+)[^{;]*(\{(?:[^{}]++|(?-1))*+\})/g) {
      my ($struct, $body) = ($1, $2);
      push @found, map { [$_->[0], "field", $_->[1], $struct] }
        pairs($body =~ /(?:^|[{,])\s*(?:#\[[^\]]*\]\s*)*pub\s+(\w+)\s*:(?!:)(?=([^\n]*))/mg);
    }
    for my $d (@found) {
      push @decls, [$home, @$d] unless $seen{"$home\0$d->[0]\0$d->[1]\0" . ($d->[3] // "")}++;
    }
  }
  sub pairs { my @p; push @p, [shift, shift] while @_; @p }
  sub outside {
    my ($crate, $set) = @_;
    return grep { $_ ne $crate } keys %{ $set // {} };
  }
  my (%ok, %reached);
  for my $d (@decls) {
    my ($crate, $name, $kind, undef, $struct) = @$d;
    $ok{$d} = outside($crate, $owner{$name}) || ($kind eq "field" && outside($crate, $fru{$struct}));
  }
  for (my $grew = 1; $grew;) {
    $grew = 0;
    for my $d (grep { $ok{$_} } @decls) {
      $reached{"$d->[0]\0$_"} //= $grew = 1 for $d->[3] =~ /[A-Za-z_]\w*/g;
    }
    for my $d (grep { !$ok{$_} && $_->[2] eq "type" } @decls) {
      $ok{$d} = $grew = 1 if $reached{"$d->[0]\0$d->[1]"};
    }
  }
  print "$_->[0]::" . ($_->[4] ? "$_->[4]." : "") . "$_->[1]\n"
    for grep { !$ok{$_} } @decls;
')"
if [ -n "${uncalled}" ]; then
  echo "one home: pub items that nothing outside their crate names (make them pub(crate) or private):" >&2
  echo "${uncalled}" >&2
  exit 1
fi

step "repro gate"
# Writes results/repro_gate.json (PASS/FAIL per claim) and exits non-zero
# on any failure. Its inputs are sized by a constant (1/8 of the default
# registry scales), not by TLPGNN_SCALE, so the JSON repeats byte for byte.
./target/release/repro gate

step "record canary"
# results/<name>.txt is the record EXPERIMENTS.md quotes, and it is only a
# record while it equals what the code prints. Regenerate, at the default
# scale, the five experiments that take a few seconds each and compare
# them byte for byte with the committed files: every experiment draws on
# the same generators, RNG shim and cost model, so these are the canary
# for all 16. A change that means to move them reruns
# ./run_experiments.sh and commits the result.
canary_dir="$(mktemp -d)"
for exp in datasets table3 fig8 ext_hetero profile_kernels; do
  env -u TLPGNN_SCALE -u TLPGNN_QUICK TLPGNN_TELEMETRY=0 \
    ./target/release/repro "${exp}" > "${canary_dir}/${exp}.txt"
  if ! cmp "results/${exp}.txt" "${canary_dir}/${exp}.txt"; then
    echo "record canary: results/${exp}.txt is not what \`repro ${exp}\` prints; rerun ./run_experiments.sh" >&2
    exit 1
  fi
done
rm -rf "${canary_dir}"
echo "record canary: 5 records identical"

step "conformance smoke"
# Seeded differential/metamorphic fuzz over all 16 backends; exits
# non-zero (and prints the shrunk case) on any invariant violation.
./target/release/conformance_fuzz --seed 42 --iters 200 --no-save

step "benchmark smoke"
# benchmark/ is a package of its own (empty [workspace], own lock file)
# that reaches the program only through the public items of crates/, so
# nothing above compiles it: an API change there would otherwise first
# show in the pipeline that runs BENCHMARK.json. Build it as that
# pipeline does and run five workloads briefly; the last line of each is
# the result record, which says whether every output matched its oracle.
# native_conv is the host-compute path; sim_conv is the simulator's own
# workload, the one whose check also demands that simulated time repeats
# across repetitions; serve_cold, serve_churn and serve_sharded run the
# serving pipeline on both façades (the sharded quiet phase is the
# bitwise sharded-vs-unsharded check). Cargo brings
# benchmark/Cargo.lock up to date with the crates' manifests when it
# builds; the committed copy is put back, since only a change that
# redefines the benchmark may edit that directory.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "${bench_lock}"
trap 'mv "${bench_lock}" benchmark/Cargo.lock' EXIT
# benchmark/ is linted like the workspace. It calls some inherent methods
# by path inside a trait impl of the same name (ResponseHandle::wait and
# try_wait in src/window.rs): narrowed, such a call resolves to the trait
# method and recurses forever, which rustc reports only as a warning.
cargo clippy --offline --manifest-path benchmark/Cargo.toml --all-targets -- -D warnings
for workload in native_conv sim_conv serve_cold serve_churn serve_sharded; do
  bench_result="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "${workload}" --seed 42 --seconds 2 --trace 0 | tail -n 1)" || true
  case "${bench_result}" in
    *'"correct":true'*) echo "benchmark smoke: ${workload}: ${bench_result}" ;;
    *)
      echo "benchmark smoke: ${workload} did not report \"correct\":true: ${bench_result}" >&2
      exit 1
      ;;
  esac
done
# Every modelled number unchanged, as a step instead of by hand: one
# traced pass of the simulator's own workload (GCN, GAT and the three
# baseline systems on the modelled V100) and of serve_cold (the probe's
# ego graphs and five-launch GraphSage forward pass), whose device-clock lines —
# simulated counts, rates and times, which repeat bit for bit for a seed
# on any machine — must equal the committed record. A change that means
# to move the model re-records results/device_clock_seed42.txt in the
# same commit; a change to how the simulator *executes* never does.
# serve_cold's probe reads the first 32 full batches (512 targets) of the
# timed section, so it gets two seconds: one second can end after a
# single 500-request repetition on a slow machine.
device_clock_lines() {
  grep -E '^[a-z_]+ (gpu_sim\.|baselines\.|core\.engine\.(sim_device_ms|classify_forward_sim_ms|kernel_launches) |graph\.subgraph\.ego_(vertices|edges)_mean )' |
    grep -v ' gpu_sim\.host_'
}
device_clock="$(mktemp)"
for traced in "sim_conv 1" "serve_cold 2"; do
  cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "${traced% *}" --seed 42 --seconds "${traced#* }" --trace 1 | device_clock_lines
done > "${device_clock}"
if ! diff -u results/device_clock_seed42.txt "${device_clock}"; then
  echo "benchmark smoke: device-clock lines differ from results/device_clock_seed42.txt" >&2
  exit 1
fi
rm -f "${device_clock}"
echo "benchmark smoke: device clock: $(wc -l < results/device_clock_seed42.txt) lines identical"
trap - EXIT
mv "${bench_lock}" benchmark/Cargo.lock

step "perf gate"
# One run of the pinned 30-workload bench matrix through the
# deterministic simulator. It diffs per-workload cycles/peak-memory
# against the committed BENCH_<seq>.json baseline, attributing any
# regression to the limiter metrics that moved, and exits non-zero past
# the threshold. After an intentional perf change, re-baseline with
# `perf_gate --bless` and commit the new snapshot. The same runs are
# placed on the device's roofline: every workload's classification, read
# off its launch ledger through the cost function the launcher used, must
# agree with the limiter stored on the profile (non-zero exit otherwise),
# and the placements are written as roofline.json.
#
# The fault-injection layer and the profiling must be invisible to the
# gate: with FaultPlan::none() (every gate workload) the committed
# baseline stays byte-identical, checked via sha256 around the run.
# results/roofline.json is a record like the experiment tables: the run
# writes into a temp dir and its roofline.json must equal the committed
# one byte for byte.
bench_baseline_sha="$(sha256sum BENCH_*.json)"
perf_dir="$(mktemp -d)"
TLPGNN_RESULTS_DIR="${perf_dir}" ./target/release/perf_gate
echo "${bench_baseline_sha}" | sha256sum --check --quiet -
if ! cmp results/roofline.json "${perf_dir}/roofline.json"; then
  echo "perf gate: results/roofline.json is not what perf_gate writes; rerun it and commit the file" >&2
  exit 1
fi
rm -rf "${perf_dir}"
echo "perf gate: roofline record identical"

step ""
echo "ci: all green"
