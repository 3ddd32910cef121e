#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "compile/compiler.h"
#include "lang/builder.h"
#include "rtl/batch_sim.h"
#include "rtl/jit.h"
#include "rtl/tape.h"
#include "sim/simulator.h"
#include "system/fleet_system.h"
#include "system/pu_fast.h"
#include "system/pu_rtl.h"
#include "system/pu_rtl_batch.h"
#include "rtl/sim.h"
#include "system/pu_testbench.h"
#include "random_programs.h"
#include "util/rng.h"

/**
 * Property test: generate random restriction-respecting Fleet programs and
 * verify that the functional simulator, the compiled RTL, and the fast
 * replay model agree on outputs (and the two cycle models on exact cycle
 * counts) across stall profiles. This is the reproduction of the paper's
 * cross-checking test infrastructure (Section 6), generalized from six
 * hand-written applications to a program family.
 *
 * The same program family also feeds the observability layer (ISSUE 3):
 * random programs run under the full system with tracing enabled must
 * satisfy the counter-conservation invariants, and tracing must never
 * change the simulation (trace-on and trace-off runs bit-identical).
 */

namespace fleet {
namespace {

using lang::Program;
using testprogs::RandomProgramGenerator;

class RandomProgramCrossCheck : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramCrossCheck, AllBackendsAgree)
{
    uint64_t seed = GetParam();
    RandomProgramGenerator generator(seed);
    Program program = generator.generate();

    Rng rng(seed * 7919 + 1);
    BitBuffer input;
    int tokens = 120 + static_cast<int>(rng.nextBelow(100));
    for (int i = 0; i < tokens; ++i)
        input.appendBits(rng.next(), program.inputTokenWidth);

    sim::FunctionalSimulator functional(program);
    sim::RunResult golden = functional.run(input);

    system::RtlPu rtl_pu(program);
    system::FastPu fast_pu(program, input);
    auto batch = std::make_shared<system::RtlBatch>(
        std::make_shared<const system::RtlTapeEngine>(program), 4);
    system::RtlBatchLane batch_pu(batch, 2);

    const system::TestbenchOptions profiles[] = {
        {1.0, 1.0, seed + 1, 1ULL << 26},
        {0.6, 0.7, seed + 2, 1ULL << 26},
    };
    for (const auto &profile : profiles) {
        auto rtl_result = system::runPu(rtl_pu, input, profile);
        auto fast_result = system::runPu(fast_pu, input, profile);
        auto batch_result = system::runPu(batch_pu, input, profile);
        ASSERT_TRUE(rtl_result.output == golden.output)
            << "seed " << seed << ": RTL output mismatch";
        ASSERT_TRUE(fast_result.output == golden.output)
            << "seed " << seed << ": fast-model output mismatch";
        ASSERT_TRUE(batch_result.output == golden.output)
            << "seed " << seed << ": batched-engine output mismatch";
        ASSERT_EQ(rtl_result.cycles, fast_result.cycles)
            << "seed " << seed << ": cycle-count mismatch";
        ASSERT_EQ(rtl_result.cycles, batch_result.cycles)
            << "seed " << seed << ": interpreter/batch cycle mismatch";
    }

    // Property: the generator only produces restriction-respecting
    // programs (the functional run above would have thrown otherwise),
    // so the compiler's inserted runtime checks must never fire.
    compile::CompileOptions check_options;
    check_options.insertRuntimeChecks = true;
    auto checked = compile::compileProgram(program, check_options);
    rtl::Simulator sim(checked.circuit);
    rtl::NodeId violation = checked.circuit.outputNode("violation");
    uint64_t token_count = input.sizeBits() / program.inputTokenWidth;
    uint64_t next = 0;
    for (uint64_t cycle = 0; cycle < token_count + 200; ++cycle) {
        bool have = next < token_count;
        sim.setInput(checked.inInputToken,
                     have ? input.readBits(next * program.inputTokenWidth,
                                           program.inputTokenWidth)
                          : 0);
        sim.setInput(checked.inInputValid, have ? 1 : 0);
        sim.setInput(checked.inInputFinished, have ? 0 : 1);
        sim.setInput(checked.inOutputReady, 1);
        sim.evalComb();
        ASSERT_EQ(sim.value(violation), 0u)
            << "seed " << seed << ": runtime check fired at cycle "
            << cycle;
        if (sim.value(checked.outOutputFinished) != 0)
            break;
        if (sim.value(checked.outInputReady) != 0 && have)
            ++next;
        sim.step();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramCrossCheck,
                         ::testing::Range<uint64_t>(1, 41));

class RandomProgramTraceConservation
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramTraceConservation, InvariantsHoldAndTracingIsPure)
{
    uint64_t seed = GetParam();
    RandomProgramGenerator generator(seed);
    Program program = generator.generate();

    // A handful of streams of random whole tokens, unevenly sized so
    // the channels finish at different cycles.
    Rng rng(seed * 6271 + 5);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 5; ++p) {
        BitBuffer stream;
        int tokens = 90 + static_cast<int>(rng.nextBelow(120));
        for (int i = 0; i < tokens; ++i)
            stream.appendBits(rng.next(), program.inputTokenWidth);
        streams.push_back(std::move(stream));
    }

    // Note bufferBursts stays at the paper's 1: non-dividing token
    // widths (e.g. 12-bit outputs against 1024-bit bursts) are handled
    // by the controllers' one-token skid (memctl/params.h tokenBits),
    // not by doubling the buffer.
    auto config = [](int threads, bool traced) {
        system::SystemConfig c;
        c.numChannels = 3;
        c.numThreads = threads;
        c.trace.counters = traced;
        c.trace.events = traced;
        return c;
    };

    system::FleetSystem traced(program, config(1, true), streams);
    const system::RunReport &report = traced.run();
    ASSERT_TRUE(report.allOk()) << "seed " << seed << ": "
                                << report.summary();
    ASSERT_NE(report.trace, nullptr);

    // Conservation: every (PU, cycle) in exactly one phase; delivered
    // bits equal stream bits at both the PU and controller level; the
    // occupancy histograms hold one sample per cycle.
    for (const trace::ChannelTrace &ch : report.trace->channels) {
        uint64_t pu_delivered = 0;
        const trace::CounterSet *input = nullptr;
        for (const trace::CounterSet &set : ch.counters) {
            if (set.name.ends_with("/input_ctrl"))
                input = &set;
            if (set.name.find("/pu") == std::string::npos)
                continue;
            uint64_t phase_sum = 0;
            for (int p = 0; p < trace::kNumPuPhases; ++p)
                phase_sum += set.get(
                    std::string(trace::puPhaseName(
                        static_cast<trace::PuPhase>(p))) +
                    "_cycles");
            EXPECT_EQ(phase_sum, ch.cycles)
                << "seed " << seed << " " << set.name;
            EXPECT_EQ(set.get("delivered_bits"), set.get("stream_bits"))
                << "seed " << seed << " " << set.name;
            pu_delivered += set.get("delivered_bits");
        }
        ASSERT_NE(input, nullptr) << "seed " << seed;
        EXPECT_EQ(input->get("bits_delivered"), pu_delivered)
            << "seed " << seed << " channel " << ch.channel;
        for (const trace::Histogram &h : ch.histograms)
            EXPECT_EQ(h.samples(), ch.cycles)
                << "seed " << seed << " " << h.name;
    }

    // Determinism: the worker-pool run collects the identical trace.
    system::FleetSystem parallel(program, config(4, true), streams);
    const system::RunReport &parallel_report = parallel.run();
    ASSERT_TRUE(report == parallel_report)
        << "seed " << seed << ": traced reports diverge across threads";

    // Purity: switching tracing off changes nothing observable.
    system::FleetSystem plain(program, config(1, false), streams);
    plain.run();
    EXPECT_EQ(plain.stats().cycles, traced.stats().cycles)
        << "seed " << seed;
    for (int p = 0; p < plain.numPus(); ++p)
        EXPECT_TRUE(plain.output(p) == traced.output(p))
            << "seed " << seed << " PU " << p
            << ": tracing changed the output bytes";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTraceConservation,
                         ::testing::Range<uint64_t>(1, 17));

/** Drop the engine-identity counters (which name the backend and its
 * compile statistics) so the remaining counters — handshakes, phases,
 * controller and DRAM activity — can be compared across engines. */
trace::CounterSet
stripEngineKeys(const trace::CounterSet &in)
{
    static const char *const engine_keys[] = {
        "backend_rtl",  "backend_rtl_tape", "backend_rtl_jit",
        "circuit_nodes", "tape_ops",        "nodes_eliminated",
        "batch_width",
    };
    trace::CounterSet out;
    out.name = in.name;
    for (const auto &kv : in.values) {
        bool engine_key =
            std::any_of(std::begin(engine_keys), std::end(engine_keys),
                        [&](const char *k) { return kv.first == k; });
        if (!engine_key)
            out.values.push_back(kv);
    }
    return out;
}

class RandomProgramEngineEquivalence
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomProgramEngineEquivalence, RtlEnginesBitIdentical)
{
    uint64_t seed = GetParam();
    RandomProgramGenerator generator(seed);
    Program program = generator.generate();

    Rng rng(seed * 104729 + 11);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 4; ++p) {
        BitBuffer stream;
        int tokens = 60 + static_cast<int>(rng.nextBelow(80));
        for (int i = 0; i < tokens; ++i)
            stream.appendBits(rng.next(), program.inputTokenWidth);
        streams.push_back(std::move(stream));
    }

    auto config = [](system::PuBackend backend, int threads) {
        system::SystemConfig c;
        c.numChannels = 2;
        c.numThreads = threads;
        c.backend = backend;
        c.trace.counters = true;
        return c;
    };

    // The per-node interpreter is the reference; the batched and jit
    // engines must match it bit for bit — outputs, cycle count, and
    // every trace counter that is not an engine-identity key — at one
    // thread and at N threads.
    system::FleetSystem interp(program,
                               config(system::PuBackend::RtlInterp, 1),
                               streams);
    const system::RunReport &interp_report = interp.run();
    ASSERT_TRUE(interp_report.allOk())
        << "seed " << seed << ": " << interp_report.summary();

    // RtlJit exercises the native kernel when a host toolchain is
    // available and the documented fallback demotion to Rtl when not
    // (e.g. the FLEET_JIT_DISABLE=1 CI leg) — identical outputs either
    // way, so the assertion holds in both modes.
    const system::PuBackend engines[] = {system::PuBackend::Rtl,
                                         system::PuBackend::RtlJit};
    for (system::PuBackend backend : engines) {
        for (int threads : {1, 4}) {
            system::FleetSystem sys(program, config(backend, threads),
                                    streams);
            const system::RunReport &report = sys.run();
            ASSERT_TRUE(report.allOk())
                << "seed " << seed << ": " << report.summary();
            EXPECT_EQ(sys.stats().cycles, interp.stats().cycles)
                << "seed " << seed << ": cycle-count mismatch";
            for (int p = 0; p < sys.numPus(); ++p)
                ASSERT_TRUE(sys.output(p) == interp.output(p))
                    << "seed " << seed << " PU " << p
                    << ": output mismatch vs interpreter";
            ASSERT_NE(report.trace, nullptr);
            ASSERT_EQ(report.trace->channels.size(),
                      interp_report.trace->channels.size());
            for (size_t ch = 0; ch < report.trace->channels.size();
                 ++ch) {
                const auto &a = report.trace->channels[ch];
                const auto &b = interp_report.trace->channels[ch];
                EXPECT_EQ(a.cycles, b.cycles) << "seed " << seed;
                ASSERT_EQ(a.counters.size(), b.counters.size());
                for (size_t s = 0; s < a.counters.size(); ++s)
                    EXPECT_TRUE(stripEngineKeys(a.counters[s]) ==
                                stripEngineKeys(b.counters[s]))
                        << "seed " << seed << ": counter set "
                        << a.counters[s].name
                        << " differs between engines";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramEngineEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

class RandomProgramJitBitIdentity
    : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * JIT vs interpreter bit-identity at the BatchSimulator level, on the
 * exactly-observed state: output ports each cycle, every register and
 * every BRAM word at the end. The jit runs only whole vectors, so a
 * group of `lanes` PUs runs on a batch padded to
 * JitProgram::paddedLanes — as FleetSystem builds it — whose extra
 * lanes are never driven; the reference is an unpadded interpreter
 * batch of `lanes`. 3 lanes is below one vector, 5 and 11 are not
 * whole vectors. The programs of these seeds all fit 32-bit elements,
 * so each also runs as a 64-bit-element tape (fits32 cleared, the
 * always-exact wide form) at 3 and 11 lanes, padded to 4 and 16. A
 * mid-run resetLane models containPu slot reuse after a
 * kill/quarantine, and a single-lane catch-up (evalLane/stepLane,
 * always on the host interpreter) follows full-width jit steps, the
 * shape a batch takes when lanes die mid-run.
 */
TEST_P(RandomProgramJitBitIdentity, MatchesInterpreterLaneForLane)
{
    uint64_t seed = GetParam();
    RandomProgramGenerator generator(seed);
    Program program = generator.generate();
    auto unit = compile::compileProgram(program);
    auto narrow = std::make_shared<const rtl::TapeProgram>(
        rtl::TapeProgram::compile(unit.circuit));
    auto wide = std::make_shared<rtl::TapeProgram>(*narrow);
    wide->fits32 = false;
    using Case = std::pair<std::shared_ptr<const rtl::TapeProgram>, int>;
    const Case cases[] = {
        {narrow, 3}, {narrow, 5}, {narrow, 11}, {wide, 3}, {wide, 11}};

    for (const auto &[tape, lanes] : cases) {
        rtl::JitOptions jopts;
        jopts.lanes = rtl::JitProgram::paddedLanes(*tape, lanes);
        ASSERT_GT(jopts.lanes, lanes);
        Status jit_status;
        auto jit = rtl::JitProgram::compile(*tape, jopts, &jit_status);
        if (!jit)
            GTEST_SKIP() << "jit unavailable: " << jit_status.toString();
        ASSERT_EQ(jopts.lanes % jit->vectorLanes(), 0);

        rtl::BatchSimulator ref(tape, lanes);
        rtl::BatchSimulator jbs(tape, jopts.lanes);
        jbs.attachJit(jit);

        std::vector<Rng> rngs;
        for (int l = 0; l < lanes; ++l)
            rngs.emplace_back(seed * 31 + l);
        auto feed = [&](int l) {
            uint64_t tok =
                rngs[l].next() & mask64(program.inputTokenWidth);
            for (rtl::BatchSimulator *s : {&ref, &jbs}) {
                s->setInput(l, unit.inInputToken, tok);
                s->setInput(l, unit.inInputValid, 1);
                s->setInput(l, unit.inInputFinished, 0);
                s->setInput(l, unit.inOutputReady, 1);
            }
        };
        auto expect_outputs = [&](int l, const char *where) {
            for (rtl::NodeId out :
                 {unit.outInputReady, unit.outOutputToken,
                  unit.outOutputValid, unit.outOutputFinished})
                ASSERT_EQ(jbs.value(l, out), ref.value(l, out))
                    << "seed " << seed << " lanes " << lanes << "x"
                    << jbs.elementBits() << "b lane " << l << " "
                    << where;
        };

        const int reset_lane = int(seed % uint64_t(lanes));
        for (int cycle = 0; cycle < 140; ++cycle) {
            if (cycle == 60) {
                // containPu slot reuse: the lane is reset and re-armed
                // with a fresh stream while its neighbours keep state.
                ref.resetLane(reset_lane);
                jbs.resetLane(reset_lane);
                rngs[reset_lane] = Rng(seed * 131 + 7);
            }
            for (int l = 0; l < lanes; ++l)
                feed(l);
            ref.evalAll();
            jbs.evalAll();
            for (int l = 0; l < lanes; ++l)
                expect_outputs(l, "full-width");
            ref.step();
            jbs.step();
        }

        // Single-lane catch-up (the other lanes are dead or drained).
        for (int cycle = 0; cycle < 20; ++cycle) {
            feed(reset_lane);
            ref.evalLane(reset_lane);
            jbs.evalLane(reset_lane);
            expect_outputs(reset_lane, "single-lane");
            ref.stepLane(reset_lane);
            jbs.stepLane(reset_lane);
        }

        for (int l = 0; l < lanes; ++l) {
            for (size_t r = 0; r < tape->regs.size(); ++r)
                ASSERT_EQ(jbs.regValue(l, int(r)),
                          ref.regValue(l, int(r)))
                    << "seed " << seed << " lanes " << lanes << "x"
                    << jbs.elementBits() << "b lane " << l << " reg " << r;
            for (size_t m = 0; m < tape->brams.size(); ++m)
                for (uint32_t a = 0; a < tape->brams[m].elements; ++a)
                    ASSERT_EQ(jbs.bramWord(l, int(m), int(a)),
                              ref.bramWord(l, int(m), int(a)))
                        << "seed " << seed << " lanes " << lanes << "x"
                        << jbs.elementBits() << "b lane " << l << " bram "
                        << m << " addr " << a;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramJitBitIdentity,
                         ::testing::Range<uint64_t>(1, 9));

} // namespace
} // namespace fleet
