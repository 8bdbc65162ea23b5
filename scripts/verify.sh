#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md) plus the static gates:
#   build (release) -> tests (SIMD on and forced off) -> fmt ->
#   clippy (deny warnings) -> benches compile.
# Run from anywhere; operates on the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> PIC_NO_SIMD=1 cargo test -q (distributed rank suites, then workspace)"
# The distributed rank loop defaults to the binned SIMD kernel; its
# bit-identity contract must also hold with the vector path forced off.
# Run the rank suites explicitly first so a scalar-path regression there
# is reported against the responsible crate, then the whole workspace.
PIC_NO_SIMD=1 cargo test -q -p pic-par -p pic-ampi
PIC_NO_SIMD=1 cargo test -q

echo "==> cargo test --workspace -q (every crate, SIMD on and forced off)"
# The Tier-1 command above covers the root package only; the crates'
# own suites (pool, SIMD bit-identity, proptests, comm, trace) run here.
cargo test --workspace -q
PIC_NO_SIMD=1 cargo test --workspace -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo check --all-targets"
# Stable-toolchain compile gate over every target (the AVX-512 kernel
# instantiations included) even when the test steps above were filtered.
cargo check --all-targets

echo "==> cargo bench --no-run"
cargo bench --no-run

echo "==> traced diffusion smoke run (binned rank path, --trace + trace_check)"
# 4 thread-ranks on the binned fast-tier rank kernel: the summary must
# name the kernel, verification must PASS, the trace run header must
# record the kernel descriptor, and the ndjson must validate.
trace_file="$(mktemp /tmp/pic-trace-smoke.XXXXXX.ndjson)"
out="$(./target/release/pic --impl diffusion --ranks 4 --grid 32 \
    --particles 2000 --steps 40 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --sweep soa-binned-fast --trace "$trace_file" --trace-every 2)"
echo "$out" | grep -E "rank kernel *: .*/fast"
echo "$out" | grep -q "verification          : PASS"
head -1 "$trace_file" | grep -q '"simd":"[a-z0-9]*/fast"'
cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
rm -f "$trace_file"

echo "==> traced adaptive smoke run (online strategy switching)"
# Sustained geometric skew must drive the adaptive balancer through at
# least one deterministic strategy switch; the header/summary must carry
# the balancer identity, the stream must validate (trace_check also
# cross-checks the summary's switch count against the records), and the
# forced-scalar path must pass the same run.
trace_file="$(mktemp /tmp/pic-trace-adaptive.XXXXXX.ndjson)"
out="$(./target/release/pic --balancer adaptive --ranks 4 --grid 32 \
    --particles 2000 --steps 60 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --trace "$trace_file" --trace-every 2)"
echo "$out" | grep -q "verification          : PASS"
head -1 "$trace_file" | grep -q '"balancer":"adaptive"'
switches="$(grep -c '"type":"switch"' "$trace_file")"
test "$switches" -ge 1
cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
rm -f "$trace_file"
PIC_NO_SIMD=1 ./target/release/pic --balancer adaptive --ranks 4 --grid 32 \
    --particles 2000 --steps 60 --m 1 --dist geometric:0.9 --lb-interval 5 \
    --quiet | grep -qx PASS

echo "==> traced AMPI smoke run (VP-local stores, --trace + trace_check)"
# 4 thread-ranks at d = 4 with row crossers (m = 1) and LB rounds that
# migrate whole VPs: verification must PASS, the header must name the
# kernel, the stream must carry the 'v' reassignment records and
# validate — vector and forced-scalar.
ampi_trace_smoke() {
    local simd="$1"
    shift
    local trace_file out
    trace_file="$(mktemp /tmp/pic-trace-ampi.XXXXXX.ndjson)"
    out="$("$@" ./target/release/pic --impl ampi --ranks 4 --d 4 --grid 32 \
        --particles 2000 --steps 40 --m 1 --dist geometric:0.9 \
        --lb-interval 5 --trace "$trace_file" --trace-every 2)"
    echo "$out" | grep -q "verification          : PASS"
    head -1 "$trace_file" | grep -q "\"simd\":\"$simd\""
    grep -q '"type":"cuts"' "$trace_file"
    cargo run --release -q -p pic-bench --bin trace_check -- "$trace_file"
    rm -f "$trace_file"
}
ampi_trace_smoke '[a-z0-9]*/exact' env
ampi_trace_smoke 'scalar/exact' env PIC_NO_SIMD=1

echo "==> exchange equivalence pass (drift-reach drain vs AoS rehome)"
# The binned rank loops drain only the bins a particle can have left its
# tile from; the AoS loops test every particle. Both must land on the
# same bits in pic-par and pic-ampi, vector and forced-scalar, and every
# implementation must PASS on 1, 2 and 4 ranks with a fast stride and
# with leftward row-crossing drift.
for simd in env "env PIC_NO_SIMD=1"; do
    $simd cargo test -q -p pic-par --test rank_kernel_equivalence
    $simd cargo test -q -p pic-ampi --test rank_kernel_equivalence
done
for impl in baseline diffusion ampi; do
    for ranks in 1 2 4; do
        for drift in "--k 1" "--m 1 --dir -1"; do
            # shellcheck disable=SC2086
            ./target/release/pic --impl "$impl" --ranks "$ranks" --grid 32 \
                --particles 2000 --steps 30 $drift --dist geometric:0.9 \
                --quiet | grep -qx PASS
        done
    done
done

echo "==> fast-tier analytic gate (--sweep soa-binned-fast must PASS)"
# The fast kernel relaxes bit-identity; its correctness gate is the
# analytic trajectory bound (DESIGN.md §12), which verify() applies in
# this mode. A tolerance breach makes the run FAIL and exit non-zero.
./target/release/pic --sweep soa-binned-fast --grid 64 --particles 20000 \
    --steps 60 --k 1 --m 1 --rebin 3 --dist geometric:0.95 --quiet \
    | grep -qx PASS
PIC_NO_SIMD=1 ./target/release/pic --sweep soa-binned-fast --grid 64 \
    --particles 20000 --steps 60 --k 1 --m 1 --rebin 3 \
    --dist geometric:0.95 --quiet | grep -qx PASS

echo "verify: OK"
