/**
 * @file
 * Microbenchmark of the three RTL simulation engines on the six paper
 * applications: the per-node interpreter (rtl/sim.h), the PU-batched
 * structure-of-arrays evaluator of the compiled op tape
 * (rtl/tape.h, rtl/batch_sim.h), and the native JIT-compiled batch
 * (rtl/jit.h — the batch evaluator with the tape lowered to a compiled
 * shared object). Each engine is driven through the same port-level
 * stimulus — random tokens, always-valid input, always-ready output —
 * and its outputs are folded into a running hash, so the benchmark
 * doubles as an engine-equivalence check: every batch lane must match
 * its own interpreter replay, and the jit batch the interpreted batch,
 * or the run fails.
 *
 * Reported speedups:
 *  - batch: per-PU speedup at `lanes` PUs per group, i.e.
 *           (interpreter time x lanes) / batched time — the ratio of
 *           simulating `lanes` units with the interpreter vs. one
 *           vectorized batch.
 *  - jit:   steady-state batch time / jit time (same lanes, compile
 *           time excluded), plus the compile cost itself and the
 *           amortization point: how many simulated cycles of the whole
 *           group the one-time native compile takes to pay back.
 *
 * Per-app JSON also records the circuit-optimizer pass statistics
 * (nodes before/after constant folding + DCE, dead nodes removed), so
 * optimizer regressions show up in the bench artifact, not just in
 * unit tests.
 *
 * Modes:
 *  --smoke       short CI configuration; also *gates*: exits non-zero on
 *                any equivalence failure, and (in NDEBUG builds, where
 *                timing is meaningful) on batched per-PU speedup < 5x
 *                or jit speedup over batch < 1.5x — regression floors
 *                ~30% under the measured minima (batch 8.4-19x per PU,
 *                jit 2-4x over batch) — so a performance regression
 *                fails the bench job the same way a correctness one
 *                does. The jit gate is skipped (loudly) when no host
 *                toolchain is available or FLEET_JIT_DISABLE is set.
 *  --json PATH   write per-app results as JSON.
 *  --lanes N     batch width (default 64, the paper's PUs-per-group
 *                order of magnitude).
 *  --cycles N    simulated cycles per engine (default 20000; smoke 3000).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "bench_io.h"
#include "compile/compiler.h"
#include "rtl/batch_sim.h"
#include "rtl/jit.h"
#include "rtl/sim.h"
#include "rtl/tape.h"
#include "system/pu_backend.h"
#include "util/rng.h"
#include "util/table.h"

using namespace fleet;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a fold of one observed output tuple. */
inline uint64_t
fold(uint64_t h, uint64_t v)
{
    return (h ^ v) * 0x100000001b3ull;
}

struct Stimulus
{
    const compile::CompiledUnit &unit;
    int tokenWidth;
};

/**
 * Drive `cycles` cycles of seeded random stimulus through the
 * interpreter, hashing the four output ports each cycle.
 */
uint64_t
drive(rtl::Simulator &sim, const Stimulus &st, uint64_t seed, int cycles)
{
    Rng rng(seed);
    sim.reset();
    // The handshake inputs are loop-invariant; setting them once keeps
    // the timed loop measuring the engine, not the driver. (Input
    // slots are engine state: eval/step never overwrite them.)
    sim.setInput(st.unit.inInputValid, 1);
    sim.setInput(st.unit.inInputFinished, 0);
    sim.setInput(st.unit.inOutputReady, 1);
    uint64_t h = 0xcbf29ce484222325ull;
    for (int cycle = 0; cycle < cycles; ++cycle) {
        sim.setInput(st.unit.inInputToken,
                     rng.next() & mask64(st.tokenWidth));
        sim.evalComb();
        h = fold(h, sim.value(st.unit.outInputReady));
        h = fold(h, sim.value(st.unit.outOutputToken));
        h = fold(h, sim.value(st.unit.outOutputValid));
        h = fold(h, sim.value(st.unit.outOutputFinished));
        sim.step();
    }
    return h;
}

/** Same stimulus and hash, all lanes advancing through one evalAll()
 * and one step() per cycle; lane l replays the single-PU run with seed
 * base_seed + l. Returns the per-lane hashes. */
std::vector<uint64_t>
driveBatch(rtl::BatchSimulator &batch, const Stimulus &st,
           uint64_t base_seed, int cycles)
{
    const int lanes = batch.lanes();
    std::vector<Rng> rngs;
    for (int l = 0; l < lanes; ++l)
        rngs.emplace_back(base_seed + l);
    batch.reset();
    // Loop-invariant handshake inputs, set once per lane (see drive()).
    for (int l = 0; l < lanes; ++l) {
        batch.setInput(l, st.unit.inInputValid, 1);
        batch.setInput(l, st.unit.inInputFinished, 0);
        batch.setInput(l, st.unit.inOutputReady, 1);
    }
    // Hoisted node-to-slot lookups for the per-cycle output reads: with
    // 4 ports x many lanes each cycle, the lookup would otherwise be a
    // measurable slice of the timed loop (it is driver work, identical
    // for the interpreted and jit batch).
    const auto &tp = batch.tape();
    const int32_t s_ready = tp.slotOf(st.unit.outInputReady);
    const int32_t s_token = tp.slotOf(st.unit.outOutputToken);
    const int32_t s_valid = tp.slotOf(st.unit.outOutputValid);
    const int32_t s_fin = tp.slotOf(st.unit.outOutputFinished);
    std::vector<uint64_t> h(lanes, 0xcbf29ce484222325ull);
    for (int cycle = 0; cycle < cycles; ++cycle) {
        for (int l = 0; l < lanes; ++l)
            batch.setInput(l, st.unit.inInputToken,
                           rngs[l].next() & mask64(st.tokenWidth));
        batch.evalAll();
        for (int l = 0; l < lanes; ++l) {
            h[l] = fold(h[l], batch.valueAtSlot(l, s_ready));
            h[l] = fold(h[l], batch.valueAtSlot(l, s_token));
            h[l] = fold(h[l], batch.valueAtSlot(l, s_valid));
            h[l] = fold(h[l], batch.valueAtSlot(l, s_fin));
        }
        batch.step();
    }
    return h;
}

struct AppResult
{
    std::string name;
    uint64_t circuitNodes = 0;
    uint64_t tapeOps = 0;
    uint64_t nodesEliminated = 0;
    // Circuit-optimizer pass statistics (rtl/opt.h, carried on the
    // tape): node counts before and after constant folding + DCE.
    uint64_t optSourceNodes = 0;
    uint64_t optResultNodes = 0;
    uint64_t optDeadNodes = 0;
    int lanes = 0;
    int cycles = 0;
    double interpS = 0;
    double batchS = 0;
    double batchPerPuSpeedup = 0;
    // Native JIT batch (absent when the toolchain is unavailable).
    bool jitAvailable = false;
    bool jitFromDiskCache = false;
    double jitS = 0;
    double jitCompileS = 0;
    double jitOverBatchSpeedup = 0;
    double jitPerPuSpeedup = 0;
    // Simulated group-cycles after which the one-time native compile
    // has paid for itself vs. running the interpreted batch
    // (compile_s / per-cycle savings); 0 when the jit is not faster.
    double jitAmortCycles = 0;
    std::string jitStatus; // why unavailable, for the JSON artifact
    bool equivalent = false;
};

AppResult
evaluateApp(const apps::Application &app, int lanes, int cycles,
            uint64_t seed)
{
    AppResult r;
    r.name = app.name();
    r.lanes = lanes;
    r.cycles = cycles;

    lang::Program program = app.program();
    auto unit = compile::compileProgram(program);
    Stimulus st{unit, program.inputTokenWidth};
    r.circuitNodes = unit.circuit.nodes().size();

    auto tape_program = std::make_shared<const rtl::TapeProgram>(
        rtl::TapeProgram::compile(unit.circuit));
    r.tapeOps = tape_program->ops.size();
    r.nodesEliminated = tape_program->nodesEliminated;
    r.optSourceNodes = tape_program->optSourceNodes;
    r.optResultNodes = tape_program->optResultNodes;
    r.optDeadNodes = tape_program->optDeadNodes;

    // Native JIT compile (timed separately from steady-state eval).
    // Kernels run whole vectors only, so the group is compiled and
    // batched padded to them, as FleetSystem builds it (rtl/jit.h).
    rtl::JitOptions jopts;
    jopts.lanes = rtl::JitProgram::paddedLanes(*tape_program, lanes);
    Status jit_status;
    double c0 = now();
    auto jit = rtl::JitProgram::compile(*tape_program, jopts,
                                        &jit_status);
    double c1 = now();
    r.jitAvailable = jit != nullptr;
    if (jit) {
        r.jitCompileS = c1 - c0;
        r.jitFromDiskCache = jit->fromDiskCache();
    } else {
        r.jitStatus = jit_status.toString();
    }

    // Engine equivalence first (untimed): batch lane l replays seed
    // `seed + l` and must match the interpreter's run of that seed. The
    // jit batch must match the interpreted batch lane-for-lane.
    rtl::Simulator interp(unit.circuit);
    rtl::BatchSimulator batch(tape_program, lanes);
    const int check_cycles = std::min(cycles, 2000);
    auto h_lanes = driveBatch(batch, st, seed, check_cycles);
    r.equivalent = true;
    for (int l = 0; l < lanes && r.equivalent; ++l)
        r.equivalent =
            h_lanes[l] == drive(interp, st, seed + l, check_cycles);
    rtl::BatchSimulator jbatch(tape_program, jopts.lanes);
    if (jit) {
        jbatch.attachJit(jit);
        auto h_jit = driveBatch(jbatch, st, seed, check_cycles);
        h_jit.resize(size_t(lanes));
        r.equivalent = r.equivalent && h_jit == h_lanes;
    }

    // Timed runs, identical stimulus volume per engine per PU. Each
    // engine takes the best of kReps passes: the per-app runs are
    // short (down to sub-millisecond for the smallest circuits), so a
    // single pass on a busy host can be 30%+ off and flap the speedup
    // gates; the minimum is the standard noise-robust estimator for
    // deterministic CPU-bound work.
    constexpr int kReps = 3;
    uint64_t sink = 0;
    auto bestOf = [&](auto &&run) {
        double best = 1e300;
        for (int rep = 0; rep < kReps; ++rep) {
            double t0 = now();
            sink = fold(sink, run());
            best = std::min(best, now() - t0);
        }
        return best;
    };
    r.interpS = bestOf([&] { return drive(interp, st, seed, cycles); });
    r.batchS = bestOf(
        [&] { return driveBatch(batch, st, seed, cycles)[lanes - 1]; });
    if (jit)
        r.jitS = bestOf([&] {
            return driveBatch(jbatch, st, seed, cycles)[lanes - 1];
        });
    if (sink == 0) // Keep the measured work observable.
        std::printf("(hash sink collision)\n");

    r.batchPerPuSpeedup =
        r.batchS > 0 ? r.interpS * lanes / r.batchS : 0;
    if (jit) {
        r.jitOverBatchSpeedup = r.jitS > 0 ? r.batchS / r.jitS : 0;
        r.jitPerPuSpeedup = r.jitS > 0 ? r.interpS * lanes / r.jitS : 0;
        double savings_per_cycle = (r.batchS - r.jitS) / cycles;
        r.jitAmortCycles = savings_per_cycle > 0
                               ? r.jitCompileS / savings_per_cycle
                               : 0;
    }
    return r;
}

bool
writeJson(const std::string &path, const std::vector<AppResult> &results,
          bool smoke)
{
    // Single-PU engine microbench: host threading does not apply, and
    // the "backend" axis *is* the result rows (interp vs batch vs jit).
    auto w = bench::benchReport("micro_rtl_engines", "rtl-engines", -1);
    w.field("smoke", smoke);
    // Canonical engine names from the shared backend registry, in row
    // order (interp / batch / jit columns below).
    w.array("engines", bench::JsonWriter::Layout::Row);
    for (auto engine : {system::PuBackend::RtlInterp,
                        system::PuBackend::Rtl, system::PuBackend::RtlJit})
        w.value(system::puBackendName(engine));
    w.end().array("apps");
    for (const AppResult &r : results) {
        w.object()
            .field("app", r.name)
            .field("circuit_nodes", r.circuitNodes)
            .field("tape_ops", r.tapeOps)
            .field("nodes_eliminated", r.nodesEliminated)
            .field("opt_source_nodes", r.optSourceNodes)
            .field("opt_result_nodes", r.optResultNodes)
            .field("opt_dead_nodes", r.optDeadNodes)
            .field("lanes", r.lanes)
            .field("cycles", r.cycles)
            .field("interp_s", r.interpS, 6)
            .field("batch_s", r.batchS, 6)
            .field("batch_per_pu_speedup", r.batchPerPuSpeedup, 3)
            .field("jit_available", r.jitAvailable);
        if (r.jitAvailable)
            w.field("jit_s", r.jitS, 6)
                .field("jit_compile_s", r.jitCompileS, 6)
                .field("jit_from_disk_cache", r.jitFromDiskCache)
                .field("jit_over_batch_speedup", r.jitOverBatchSpeedup, 3)
                .field("jit_per_pu_speedup", r.jitPerPuSpeedup, 3)
                .field("jit_amort_cycles", r.jitAmortCycles, 0);
        else
            w.field("jit_status", r.jitStatus);
        w.field("equivalent", r.equivalent).end();
    }
    return w.save(path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    int lanes = 64;
    int cycles = 0;
    bench::Cli cli;
    cli.flag("--smoke", &smoke)
        .option("--json", "PATH", &json_path)
        .option("--lanes", "N", &lanes)
        .option("--cycles", "N", &cycles);
    if (!cli.parse(argc, argv))
        return 2;
    if (lanes < 1) {
        std::fprintf(stderr, "--lanes must be >= 1\n");
        return 2;
    }
    if (cycles == 0)
        cycles = smoke ? 3000 : 20000;

    std::printf("\n==== RTL engines: interpreter vs batched vs jit "
                "(x%d) ====\n"
                "Same stimulus per engine; outputs hashed for "
                "equivalence.\n\n",
                lanes);

    std::vector<AppResult> results;
    Table table({"App", "nodes", "tape ops", "elim", "interp (s)",
                 "batch (s)", "jit (s)", "batch x/PU", "jit/batch",
                 "compile (ms)", "amort (cyc)", "equiv"});
    bool all_equivalent = true;
    bool jit_everywhere = true;
    double min_batch = 1e300, min_jit = 1e300;
    int jit_apps = 0, jit_fast_apps = 0;
    for (auto &app : apps::allApplications()) {
        AppResult r = evaluateApp(*app, lanes, cycles, 42);
        all_equivalent = all_equivalent && r.equivalent;
        jit_everywhere = jit_everywhere && r.jitAvailable;
        min_batch = std::min(min_batch, r.batchPerPuSpeedup);
        if (r.jitAvailable) {
            min_jit = std::min(min_jit, r.jitOverBatchSpeedup);
            ++jit_apps;
            if (r.jitOverBatchSpeedup >= 1.5)
                ++jit_fast_apps;
        }
        // Jit columns read n/a when the toolchain is unavailable.
        auto jit = [&r](double v, int precision, const char *suffix = "") {
            return r.jitAvailable ? bench::fixed(v, precision) + suffix
                                  : std::string("n/a");
        };
        table.row()
            .cell(r.name)
            .cell(r.circuitNodes)
            .cell(r.tapeOps)
            .cell(r.nodesEliminated)
            .cell(r.interpS, 3)
            .cell(r.batchS, 3)
            .cell(jit(r.jitS, 3))
            .cell(bench::fixed(r.batchPerPuSpeedup, 1) + "x")
            .cell(jit(r.jitOverBatchSpeedup, 1, "x"))
            .cell(jit(r.jitCompileS * 1e3, 0,
                      r.jitFromDiskCache ? "*" : ""))
            .cell(jit(r.jitAmortCycles, 0))
            .cell(r.equivalent ? "yes" : "NO");
        std::fflush(stdout);
        results.push_back(std::move(r));
    }
    std::printf("%s", table.str().c_str());
    std::printf("(compile * = reused from the on-disk jit cache; amort "
                "= group-cycles for the native compile to pay back vs "
                "the interpreted batch)\n\n");
    if (!jit_everywhere) {
        const AppResult *why = nullptr;
        for (const AppResult &r : results)
            if (!r.jitAvailable)
                why = &r;
        std::printf("NOTE: rtl-jit unavailable on this host (%s); jit "
                    "column and gate skipped, runtime falls back to "
                    "rtl.\n\n",
                    why ? why->jitStatus.c_str() : "unknown");
    }

    if (!json_path.empty() && !writeJson(json_path, results, smoke))
        return 1;

    if (!all_equivalent) {
        std::fprintf(stderr,
                     "FAIL: engine outputs diverged (see table)\n");
        return 1;
    }
    if (smoke) {
#ifdef NDEBUG
        // Regression floors, set with ~30% headroom under the measured
        // minima across the six apps on the CI reference host (batch
        // 8.4-19x per PU at 64 lanes; see DESIGN.md). They catch a real
        // engine regression — e.g. losing vectorization or the 32-bit
        // lane path — without flaking on machine-to-machine timing
        // variance.
        if (min_batch < 5.0) {
            std::fprintf(stderr,
                         "FAIL: batched per-PU speedup regressed below "
                         "5x (min %.2fx)\n",
                         min_batch);
            return 1;
        }
        // The jit target is >= 2x over the interpreted batch on at
        // least 4 of the 6 apps; the gate asserts the same shape with
        // headroom (>= 1.5x on 4+ apps). A min-over-apps gate would be
        // meaningless: the smallest register-dominated circuits (Regex:
        // 52 ops, nearly all feeding register nexts) are store-bound in
        // any engine — there is nothing for dead-store elision to
        // elide — so their jit/batch ratio sits near 1x by construction.
        if (jit_everywhere && jit_fast_apps < std::min(jit_apps, 4)) {
            std::fprintf(stderr,
                         "FAIL: jit >= 1.5x over the interpreted batch "
                         "on only %d/%d apps (need 4; min %.2fx)\n",
                         jit_fast_apps, jit_apps, min_jit);
            return 1;
        }
        if (jit_everywhere)
            std::printf("gates passed: batch >= 5x per PU (min %.1fx), "
                        "jit >= 1.5x over batch on %d/%d apps (min "
                        "%.1fx)\n",
                        min_batch, jit_fast_apps, jit_apps, min_jit);
        else
            std::printf("gates passed: batch >= 5x per PU (min %.1fx); "
                        "JIT GATE SKIPPED (toolchain unavailable)\n",
                        min_batch);
#else
        std::printf("speedup gates skipped (debug build; timing not "
                    "meaningful)\n");
#endif
    }
    return 0;
}
