#!/usr/bin/env bash
# Tier-1 verification plus a ThreadSanitizer pass over the fork/join pool.
#
#   scripts/verify.sh          full build + ctest + TSan pool/parallel_for run
#   scripts/verify.sh --tsan   TSan pass only
#
# The TSan pass uses a separate build tree (build-tsan) configured with
# -DJACCX_SANITIZE=thread so barrier/scheduling races are caught at PR time
# without slowing the main build.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
RUN_FULL=1
if [[ "${1:-}" == "--tsan" ]]; then
  RUN_FULL=0
fi

if [[ $RUN_FULL -eq 1 ]]; then
  cmake -B build -S .
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS"
  # Both mem-pool modes are supported configurations; `none` must keep the
  # seed's exact allocation behavior.
  JACC_MEM_POOL=none ctest --test-dir build --output-on-failure -j"$JOBS"
  # Forcing a single async lane degrades every queued submission to the
  # synchronous path; the whole suite must be equivalent under it (ISSUE 4
  # acceptance: default-queue == sync semantics).
  JACC_QUEUES=1 ctest --test-dir build --output-on-failure -j"$JOBS"
  # The async layer (futures, queue-routed collectives, pipelined CG, graph
  # capture/replay) with two forced lanes and the pool disabled: staging and
  # future slots must degrade to plain allocation without changing any
  # result.  CgQueued runs the solvers inside a queue_scope on a real lane:
  # none may return with work still queued against its scratch.
  JACC_QUEUES=2 JACC_MEM_POOL=none ctest --test-dir build \
    -R 'DistAsync|QueueTest|GraphTest|CgPipelined|CgGraphed|CgQueued|PipelinedSolve|GraphedSolve' \
    --output-on-failure -j"$JOBS"
  # Kernel fusion (docs/FUSION.md): the whole suite must pass with both
  # fusion levels forced on, and with fusion forced off — `none` must keep
  # the seed's launch sequence and simulated charges bit for bit (the
  # Fusion.NoneModeMatchesSeedChargesExactly test pins the charges; these
  # legs prove nothing else quietly depends on the mode).
  JACC_FUSE=all ctest --test-dir build --output-on-failure -j"$JOBS"
  JACC_FUSE=none ctest --test-dir build --output-on-failure -j"$JOBS"
  # Auto-sharding (docs/SHARDING.md): the whole suite must pass with
  # sharding explicitly forced on — the default resolution, so this proves
  # no test quietly depends on JACC_SHARD being unset.  The shard suite
  # itself pins bit-exactness against the deprecated hand-sharded front
  # end and covers the off mode via the test hook.
  JACC_SHARD=auto ctest --test-dir build --output-on-failure -j"$JOBS"

  # Serving scheduler (docs/SERVING.md): the suite must pass with explicit
  # serve env overrides in place, proving the resolution order (options >
  # env > auto) and that no other test depends on the serve env being
  # unset.
  JACC_SERVE_SLOTS=2 ctest --test-dir build -R 'ServeTest' \
    --output-on-failure -j"$JOBS"

  # Serving acceptance: sim throughput must scale to slot saturation,
  # 8 equal-weight tenants must stay within the 1.5x p99 queue-wait ratio,
  # and the memory-pressure scenario must defer-then-admit with the pool's
  # trim-and-retry actually firing; the binary exits nonzero on a miss.
  rm -f BENCH_serving.json
  JACC_NUM_THREADS=4 ./build/bench/abl_serving --benchmark_filter=NONE \
    > /dev/null
  grep -q '"serving"' BENCH_serving.json
  rm -f BENCH_serving.json

  # Auto-shard acceptance: auto-sharded CG chain and LBM-like stencil must
  # hit the strong-scaling bars (>=1.7x on 2 devices, >=3x on 4) and the
  # measured rebalancer must recover >=80% of the ideal plan's win with
  # one device slowed 2x; the binary exits nonzero on a miss.
  rm -f BENCH_auto_shard.json
  ./build/bench/abl_auto_shard --benchmark_filter=NONE > /dev/null 2>&1
  test -s BENCH_auto_shard.json
  rm -f BENCH_auto_shard.json

  # Fig. 11 acceptance: both series run the paper's Fig. 10 kernel, and the
  # JACC one must stay within 5% of the device-specific one at 512^2 on
  # every architecture model; the binary exits nonzero on a miss.
  rm -f BENCH_fig11_lbm.json
  ./build/bench/fig11_lbm --benchmark_filter=NONE > /dev/null
  rm -f BENCH_fig11_lbm.json

  # Fusion ablation acceptance: the fused CG BLAS chain must charge >=1.5x
  # less simulated DRAM traffic than the eager chain (the binary exits
  # nonzero when the bar is missed) and emit roofline rows for the fused
  # kernels into its JSON artifact.
  rm -f BENCH_cg_fusion.json
  JACC_NUM_THREADS=4 ./build/bench/abl_cg_fusion > /dev/null
  grep -q '"roofline"' BENCH_cg_fusion.json
  rm -f BENCH_cg_fusion.json

  # Roofline smoke: the fig13 CG bench under JACC_PROFILE=roofline must
  # print per-kernel roof placements for the host backends and at least two
  # sim models, and mirror the same rows into BENCH_fig13_cg.json.  Output
  # goes to a file (not a pipe) so the bench never sees a closed stdout.
  rm -f roofline_smoke.out BENCH_fig13_cg.json
  JACC_NUM_THREADS=4 JACC_PROFILE=roofline ./build/bench/fig13_cg \
    --benchmark_filter='fig13/cg/(serial_wallclock/jacc/16384|threads_wallclock/jacc/16384|a100/jacc/16384|mi100/jacc/16384)' \
    > roofline_smoke.out 2>&1
  grep -q 'jaccx::prof roofline' roofline_smoke.out
  for target in serial threads a100 mi100; do
    grep -Eq "^${target} " roofline_smoke.out
  done
  grep -q '"roofline"' BENCH_fig13_cg.json
  rm -f roofline_smoke.out BENCH_fig13_cg.json

  # dlopen-tool smoke: a KokkosP-analogue tool named via JACC_TOOLS_LIBS
  # must receive callbacks from an unmodified binary and print its finalize
  # summary at exit.  Output to a file (grep -q on a pipe would SIGPIPE the
  # binary under pipefail).
  JACC_TOOLS_LIBS=./build/tests/tools/libjaccp_test_tool.so \
    ./build/examples/quickstart > tool_smoke.out 2>&1
  grep -q 'jaccp_test_tool:' tool_smoke.out
  rm -f tool_smoke.out

  # Trace-file %p substitution: one process, one PID-stamped trace file.
  rm -f trace_verify_*.json
  JACC_PROFILE=trace JACC_TRACE_FILE=trace_verify_%p.json \
    ./build/examples/quickstart > /dev/null
  ls trace_verify_*.json > /dev/null
  rm -f trace_verify_*.json
fi

cmake -B build-tsan -S . -DJACCX_SANITIZE=thread \
  -DJACC_BUILD_BENCH=OFF -DJACC_BUILD_EXAMPLES=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j"$JOBS" --target tests_substrate tests_core \
  tests_apps

# Exercise the barrier with more workers than this machine may have cores,
# and under both schedules, so spin/park and cursor paths all run.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
JACC_NUM_THREADS=4 ./build-tsan/tests/tests_substrate --gtest_filter='ThreadPool.*'
JACC_NUM_THREADS=4 ./build-tsan/tests/tests_core \
  --gtest_filter='*ParallelFor*:*ThreadsDecomposition*:Prof.*'
JACC_NUM_THREADS=4 JACC_SCHEDULE=dynamic,16 ./build-tsan/tests/tests_substrate \
  --gtest_filter='ThreadPool.*'
JACC_NUM_THREADS=4 JACC_SCHEDULE=dynamic,16 JACC_SPIN_US=0 \
  ./build-tsan/tests/tests_core --gtest_filter='*ParallelFor*:Prof.*'

# Profiler collection concurrent with the pool's instrumented fast paths:
# rings, pool counters, and the sim-event tee all race-checked under load.
JACC_NUM_THREADS=4 JACC_PROFILE=collect ./build-tsan/tests/tests_core \
  --gtest_filter='Prof.*:*ParallelFor*'

# The mem pool's mutex-guarded free lists and the pooled reduction paths
# (device workspace reuse + host scratch lease) under concurrent load, in
# both modes. Mem.ConcurrentAcquireReleaseIsRaceFree is the dedicated
# stress; the ReduceAgreement filters drive the pooled host scratch from
# the worker pool. WorkspaceGrowthZeroesTail and the large sim-GPU sweeps
# stay out: block-sized SIMT fibers (raw context switches, 64 KiB stacks)
# are not TSan-instrumentable, a pre-existing simulator limitation that
# the non-TSan ctest runs cover.
JACC_NUM_THREADS=4 ./build-tsan/tests/tests_core \
  --gtest_filter='Mem.*:*ReduceAgreement*serial*:*ReduceAgreement*threads*:-Mem.WorkspaceGrowthZeroesTail'
JACC_NUM_THREADS=4 JACC_MEM_POOL=none ./build-tsan/tests/tests_core \
  --gtest_filter='Mem.*:*ReduceAgreement*serial*:*ReduceAgreement*threads*:-Mem.WorkspaceGrowthZeroesTail'

# Queue front end under real async lanes: JACC_QUEUES=2 forces two dispatcher
# threads regardless of core count, so submission, completion signalling,
# events, futures (including the destruction races: future outliving its
# queue, a dropped handle with in-flight work, synchronize concurrent with
# queue creation), and the two-host-thread stress all run with genuine
# concurrency under TSan.  The two sim-reduction tests stay out for the
# same fiber reason as the sim-GPU sweeps above.
QUEUE_TSAN_FILTER='QueueTest.*:-QueueTest.FutureGetBitExactWithSyncReduceOnSim:QueueTest.WaitOnFutureOrdersCrossQueueSimWork'
JACC_NUM_THREADS=4 JACC_QUEUES=2 ./build-tsan/tests/tests_core \
  --gtest_filter="$QUEUE_TSAN_FILTER"
JACC_NUM_THREADS=4 JACC_QUEUES=2 JACC_MEM_POOL=none \
  ./build-tsan/tests/tests_core --gtest_filter="$QUEUE_TSAN_FILTER"

# Graph capture/replay under the same two forced lanes: the capture installs
# (atomic hot-path check), replay chains across lanes, graph-outlives-queue,
# and the replay-concurrent-with-capture stress.  The sim-reduction charge
# test stays out for the fiber reason above.
GRAPH_TSAN_FILTER='GraphTest.*:-GraphTest.SimReplayChargesMatchEager'
JACC_NUM_THREADS=4 JACC_QUEUES=2 ./build-tsan/tests/tests_core \
  --gtest_filter="$GRAPH_TSAN_FILTER"
JACC_NUM_THREADS=4 JACC_QUEUES=2 JACC_MEM_POOL=none \
  ./build-tsan/tests/tests_core --gtest_filter="$GRAPH_TSAN_FILTER"

# Kernel fusion under forced lanes with both levels on: fused expr sweeps
# and fused replay nodes run member bodies back-to-back on the worker pool,
# which is the new race surface this PR adds.  The sim-charge tests stay
# out for the SIMT-fiber reason above.
FUSION_TSAN_FILTER='Fusion.*:-Fusion.ExprSimChargesLessDram:Fusion.NoneModeMatchesSeedChargesExactly:Fusion.CgSolveExprBitExactSerialAndSim'
JACC_NUM_THREADS=4 JACC_QUEUES=2 JACC_FUSE=all ./build-tsan/tests/tests_core \
  --gtest_filter="$FUSION_TSAN_FILTER"

# Serving scheduler (docs/SERVING.md): worker dispatch, job-handle
# signalling, WFQ bookkeeping, the admission/pressure callback, and the
# scratch-lease free list all race with the lanes under JACC_QUEUES=2.
# The sim-stream test stays out for the SIMT-fiber reason above; the
# lane-reinit test re-execs initialize() and is covered by the non-TSan
# ctest runs.
SERVE_TSAN_FILTER='ServeTest.*:-ServeTest.SimTenantsLandOnPerTenantSlotStreams:ServeTest.LaneReresolutionAcrossInitializeMidServing'
JACC_NUM_THREADS=4 JACC_QUEUES=2 ./build-tsan/tests/tests_apps \
  --gtest_filter="$SERVE_TSAN_FILTER"

# Auto-shard engine (docs/SHARDING.md): plan staging, packed halo exchange,
# re-sharding, and the per-device sim::launch paths are all instrumented.
# The fiber-based sim reductions are not TSan-instrumentable (same SIMT
# limitation as above), so the reduce-driven shard tests stay out.
SHARD_TSAN_FILTER='ShardPlan.*:ShardExec.*:ShardHalo.*:ShardRebalance.*:ShardPool.*:ShardErrors.*:*ShardVsMulti.AxpyBitExact*:-ShardPlan.OffModePinsEverythingToDeviceZero:ShardHalo.StencilReductionReadsGhosts'
JACC_NUM_THREADS=4 ./build-tsan/tests/tests_apps \
  --gtest_filter="$SHARD_TSAN_FILTER"

echo "verify: OK"
