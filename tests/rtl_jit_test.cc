#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
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
#include "test_programs.h"
#include "util/bitbuf.h"
#include "util/logging.h"
#include "util/rng.h"

/**
 * Cache and failure-containment tests for the native tape compiler
 * (rtl/jit.h). Bit-identity against the interpreter is covered
 * exhaustively by the random-program property suite; this file pins
 * the operational contract: artifacts are reused across processes via
 * the on-disk cache, a corrupted cache entry triggers a fresh compile
 * instead of loading garbage, every failure path (FLEET_JIT_DISABLE,
 * missing toolchain, compile error) degrades to the interpreter via a
 * Status — never an abort, a clean compile writes no diagnostics, and
 * the kernels accept only whole-vector lane ranges while the lanes
 * past them run on the interpreter over the same state.
 */

namespace fleet {
namespace {

/** Scoped environment-variable override, restored on destruction. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = ::getenv(name);
        had_ = old != nullptr;
        if (had_)
            old_ = old;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, old_;
    bool had_ = false;
};

std::shared_ptr<const rtl::TapeProgram>
sumTape()
{
    auto unit = compile::compileProgram(testprogs::streamSum());
    return std::make_shared<const rtl::TapeProgram>(
        rtl::TapeProgram::compile(unit.circuit));
}

/**
 * An accumulator that advances only on valid-input cycles — so it is
 * held, enable low, whenever the input stalls — and XORs each new
 * value into a BRAM row. The multiply pushes values past 32 bits when
 * the accumulator is wider, which makes the tape use 64-bit elements.
 */
lang::Program
heldAccumulator(int acc_width)
{
    using lang::Value;
    lang::ProgramBuilder b("HeldAccumulator", 8, acc_width);
    Value acc = b.reg("acc", acc_width, 1);
    Value idx = b.reg("idx", 4, 0);
    lang::Bram mix = b.bram("mix", 16, acc_width);
    b.if_(b.streamFinished(), [&] { b.emit(acc); }).else_([&] {
        Value next = ((acc * Value::lit(3, acc_width)).resize(acc_width) +
                      b.input().resize(acc_width))
                         .resize(acc_width);
        b.assign(acc, next);
        b.assign(mix[idx], mix[idx] ^ next);
        b.assign(idx, idx + Value::lit(1, 4));
    });
    return b.finish();
}

std::string
freshCacheDir(const std::string &leaf)
{
    // Wiped so reruns start cold; JitProgram::compile recreates it.
    std::string dir = ::testing::TempDir() + "fleet_jit_test_" + leaf;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

/** Drive a few hundred cycles on a jit-backed and an interpreted batch
 * and require identical outputs — proves a (re)compiled artifact is
 * actually functional, not merely loadable. */
void
expectFunctional(std::shared_ptr<const rtl::TapeProgram> tape,
                 std::shared_ptr<const rtl::JitProgram> jit)
{
    auto unit = compile::compileProgram(testprogs::streamSum());
    const int lanes = jit->lanes();
    rtl::BatchSimulator ref(tape, lanes);
    rtl::BatchSimulator jbs(tape, lanes);
    jbs.attachJit(jit);
    Rng rng(7);
    for (int cycle = 0; cycle < 200; ++cycle) {
        for (int l = 0; l < lanes; ++l) {
            uint64_t tok = rng.next() & 0xffu;
            for (rtl::BatchSimulator *s : {&ref, &jbs}) {
                s->setInput(l, unit.inInputToken, tok);
                s->setInput(l, unit.inInputValid, 1);
                s->setInput(l, unit.inInputFinished, 0);
                s->setInput(l, unit.inOutputReady, 1);
            }
        }
        ref.evalAll();
        jbs.evalAll();
        for (int l = 0; l < lanes; ++l)
            for (rtl::NodeId out :
                 {unit.outInputReady, unit.outOutputToken,
                  unit.outOutputValid, unit.outOutputFinished})
                ASSERT_EQ(jbs.value(l, out), ref.value(l, out))
                    << "cycle " << cycle << " lane " << l;
        ref.step();
        jbs.step();
    }
}

TEST(RtlJitCache, SameTapeSharesOneInProcessInstance)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("share");
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    EXPECT_EQ(first.get(), second.get())
        << "second compile of the same (tape, lanes) must reuse the "
           "in-process instance";
    // A different lane count is a different specialization.
    rtl::JitOptions other = opts;
    other.lanes = 5;
    auto third = rtl::JitProgram::compile(*tape, other, &status);
    ASSERT_NE(third, nullptr) << status.toString();
    EXPECT_NE(first.get(), third.get());
    EXPECT_NE(rtl::JitProgram::cacheKey(*tape, 4),
              rtl::JitProgram::cacheKey(*tape, 5));
}

TEST(RtlJitCache, DiskArtifactReusedWithoutRecompiling)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("disk");
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    EXPECT_FALSE(first->fromDiskCache());
    const std::string artifact = first->artifactPath();
    first.reset();

    rtl::JitProgram::dropInProcessCacheForTests();
    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    ASSERT_NE(second, nullptr) << status.toString();
    EXPECT_TRUE(second->fromDiskCache())
        << "expected the cached artifact at " << artifact
        << " to be reused";
    EXPECT_EQ(second->artifactPath(), artifact);
    expectFunctional(tape, second);
}

TEST(RtlJitCache, CorruptedArtifactTriggersFreshCompile)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("corrupt");
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    const std::string artifact = first->artifactPath();
    first.reset();
    rtl::JitProgram::dropInProcessCacheForTests();

    {
        std::ofstream f(artifact,
                        std::ios::binary | std::ios::trunc);
        f << "not an ELF shared object";
    }

    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    ASSERT_NE(second, nullptr)
        << "corrupted cache entry must fall back to a fresh compile: "
        << status.toString();
    EXPECT_FALSE(second->fromDiskCache());
    expectFunctional(tape, second);
}

/** A fresh compile deletes the fleet-jit-* files older emitters left
 * (versioned or not) and nothing else; loading from the cache deletes
 * nothing. */
TEST(RtlJitCache, CompilePrunesOnlyOlderEmitterArtifacts)
{
    namespace fs = std::filesystem;
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("prune");
    opts.forceRecompile = true;
    Status status;
    auto first = rtl::JitProgram::compile(*tape, opts, &status);
    if (!first)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    // fleet-jit-v<N>-<16 hex key>.so
    const std::string name =
        fs::path(first->artifactPath()).filename().string();
    ASSERT_EQ(name.rfind("fleet-jit-v", 0), 0u) << name;
    const std::string current = name.substr(0, name.size() - 19);
    ASSERT_EQ(current.back(), '-') << name;

    const fs::path dir(opts.cacheDir);
    const std::vector<std::string> stale = {
        "fleet-jit-0123456789abcdef.so", "fleet-jit-0123456789abcdef.c",
        "fleet-jit-v1-0123456789abcdef.so",
        "fleet-jit-v1-0123456789abcdef.log",
        // A longer version number sharing the current one's digits.
        current.substr(0, current.size() - 1) + "0-0123456789abcdef.so"};
    const std::vector<std::string> kept = {
        "notes.txt", "fleet-jitter.so",
        current + "0123456789abcdef.tmp4242.so"};
    for (const auto &file : stale)
        std::ofstream(dir / file) << "x";
    for (const auto &file : kept)
        std::ofstream(dir / file) << "x";
    fs::create_directories(dir / "fleet-jit-old-dir");

    // The load path prunes nothing.
    first.reset();
    rtl::JitProgram::dropInProcessCacheForTests();
    rtl::JitOptions load = opts;
    load.forceRecompile = false;
    auto loaded = rtl::JitProgram::compile(*tape, load, &status);
    ASSERT_NE(loaded, nullptr) << status.toString();
    EXPECT_TRUE(loaded->fromDiskCache());
    for (const auto &file : stale)
        EXPECT_TRUE(fs::exists(dir / file)) << file;

    auto second = rtl::JitProgram::compile(*tape, opts, &status);
    ASSERT_NE(second, nullptr) << status.toString();
    for (const auto &file : stale)
        EXPECT_FALSE(fs::exists(dir / file)) << file << " not pruned";
    for (const auto &file : kept)
        EXPECT_TRUE(fs::exists(dir / file)) << file << " pruned";
    EXPECT_TRUE(fs::is_directory(dir / "fleet-jit-old-dir"));
    EXPECT_TRUE(fs::exists(second->artifactPath()));
    expectFunctional(tape, second);
}

TEST(RtlJitFallback, DisableEnvReportsUnavailable)
{
    ScopedEnv disable("FLEET_JIT_DISABLE", "1");
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("disabled");
    EXPECT_FALSE(rtl::JitProgram::availability(opts).ok());
    Status status;
    auto jit = rtl::JitProgram::compile(*tape, opts, &status);
    EXPECT_EQ(jit, nullptr);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code, StatusCode::InvalidArgument)
        << status.toString();
}

TEST(RtlJitFallback, MissingCompilerFailsWithStatusNotAbort)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 4;
    opts.cacheDir = freshCacheDir("nocc");
    opts.compiler = "/nonexistent/fleet-test-has-no-such-compiler";
    opts.forceRecompile = true;
    Status status;
    auto jit = rtl::JitProgram::compile(*tape, opts, &status);
    EXPECT_EQ(jit, nullptr);
    EXPECT_FALSE(status.ok()) << "a bogus compiler must surface as a "
                                 "Status, never an abort";
}

/** The system-level contract for the FLEET_JIT_DISABLE CI leg: a
 * RtlJit binding silently runs as the interpreted Rtl batch — each
 * channel's PUs still one batch group — with slotBackend() reporting
 * the demotion and a RunReport identical to an Rtl run's. */
TEST(RtlJitFallback, SystemDemotesToRtlAndStillCompletes)
{
    ScopedEnv disable("FLEET_JIT_DISABLE", "1");
    lang::Program program = testprogs::streamSum();
    Rng rng(11);
    std::vector<BitBuffer> streams;
    for (int p = 0; p < 4; ++p) {
        BitBuffer stream;
        for (int t = 0; t < 64; ++t)
            stream.appendBits(rng.next(), 8);
        streams.push_back(std::move(stream));
    }

    auto config = [](system::PuBackend backend) {
        system::SystemConfig c;
        c.numChannels = 2;
        c.backend = backend;
        c.trace.counters = true;
        return c;
    };
    testing::internal::CaptureStderr();
    system::FleetSystem system(program,
                               config(system::PuBackend::RtlJit), streams);
    const std::string log = testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("rtl-jit: fallback backend=rtl program=0"),
              std::string::npos)
        << log;
    const system::RunReport &report = system.run();
    ASSERT_TRUE(report.allOk());
    for (int p = 0; p < int(streams.size()); ++p)
        EXPECT_EQ(system.slotBackend(p), system::PuBackend::Rtl)
            << "PU " << p << " should have been demoted";

    system::FleetSystem rtl(program, config(system::PuBackend::Rtl),
                            streams);
    const system::RunReport &rtl_report = rtl.run();
    ASSERT_TRUE(rtl_report.allOk());
    EXPECT_EQ(system.stats().cycles, rtl.stats().cycles);
    EXPECT_TRUE(report == rtl_report)
        << "demoted RunReport (traces included) differs from Rtl's";

    sim::FunctionalSimulator functional(program);
    for (size_t p = 0; p < streams.size(); ++p) {
        sim::RunResult golden = functional.run(streams[p]);
        ASSERT_TRUE(system.output(p) == golden.output)
            << "PU " << p << " output mismatch under jit fallback";
        ASSERT_TRUE(system.output(p) == rtl.output(p)) << "PU " << p;
    }

    // Batched, not per-PU: every demoted unit reports its channel's
    // whole group as the batch width, and none claims the jit.
    ASSERT_NE(report.trace, nullptr);
    int pu_sets = 0;
    for (const auto &channel : report.trace->channels)
        for (const auto &set : channel.counters) {
            if (!set.has("batch_width"))
                continue;
            ++pu_sets;
            EXPECT_EQ(set.get("batch_width"), 2u) << set.name;
            EXPECT_FALSE(set.has("backend_rtl_jit")) << set.name;
        }
    EXPECT_EQ(pu_sets, int(streams.size()));
}

TEST(RtlJitEmit, SourceIsDeterministic)
{
    auto tape = sumTape();
    EXPECT_EQ(rtl::JitProgram::emitSource(*tape, 4),
              rtl::JitProgram::emitSource(*tape, 4));
    EXPECT_NE(rtl::JitProgram::emitSource(*tape, 4),
              rtl::JitProgram::emitSource(*tape, 8))
        << "lane count must be baked into the generated code";
}

TEST(RtlJitEmit, SuccessfulCompileLeavesAnEmptyLog)
{
    auto held = compile::compileProgram(heldAccumulator(64));
    auto wide = std::make_shared<const rtl::TapeProgram>(
        rtl::TapeProgram::compile(held.circuit));
    ASSERT_FALSE(wide->fits32);
    for (const auto &tape : {sumTape(), wide}) {
        rtl::JitOptions opts;
        opts.lanes = 16;
        opts.cacheDir = freshCacheDir("log");
        opts.forceRecompile = true;
        Status status;
        auto jit = rtl::JitProgram::compile(*tape, opts, &status);
        if (!jit)
            GTEST_SKIP() << "jit unavailable: " << status.toString();
        const auto log = std::filesystem::path(jit->artifactPath())
                             .replace_extension(".log");
        std::ifstream f(log);
        ASSERT_TRUE(f.good()) << "no compile log at " << log;
        const std::string text((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
        EXPECT_EQ(text, "") << "the host compiler warned about the "
                               "emitted source (elementBits "
                            << jit->elementBits() << ")";
    }
}

TEST(RtlJitContract, RangesMustCoverWholeVectors)
{
    auto tape = sumTape();
    rtl::JitOptions opts;
    opts.lanes = 8;
    Status status;
    auto jit = rtl::JitProgram::compile(*tape, opts, &status);
    if (!jit)
        GTEST_SKIP() << "jit unavailable: " << status.toString();
    const int vw = jit->vectorLanes();
    ASSERT_GT(vw, 1);
    ASSERT_EQ(opts.lanes % vw, 0);
    // Wide enough for either element width; eval reads no BRAM.
    std::vector<uint64_t> slots(size_t(tape->numSlots) * opts.lanes, 0);
    EXPECT_NO_THROW(jit->eval(slots.data(), 0, vw));
    EXPECT_NO_THROW(jit->eval(slots.data(), 0, 0));
    EXPECT_THROW(jit->eval(slots.data(), 0, vw - 1), PanicError);
    EXPECT_THROW(jit->eval(slots.data(), 1, opts.lanes), PanicError);
    EXPECT_THROW(jit->eval(slots.data(), 0, opts.lanes + vw), PanicError);
    EXPECT_THROW(jit->step(slots.data(), nullptr, nullptr, 0, 1),
                 PanicError);
    EXPECT_THROW(jit->step(slots.data(), nullptr, nullptr, vw, 0),
                 PanicError);

    // A kernel may be compiled for any lane count, but a batch only
    // attaches one whose lanes are whole vectors.
    opts.lanes = 5;
    auto odd = rtl::JitProgram::compile(*tape, opts, &status);
    ASSERT_NE(odd, nullptr) << status.toString();
    ASSERT_NE(opts.lanes % odd->vectorLanes(), 0);
    rtl::BatchSimulator batch(tape, opts.lanes);
    EXPECT_THROW(batch.attachJit(odd), PanicError);
}

TEST(RtlJitContract, PaddedLanesAreWholeVectors)
{
    auto narrow = sumTape();
    ASSERT_TRUE(narrow->fits32);
    auto wide = std::make_shared<rtl::TapeProgram>(*narrow);
    wide->fits32 = false;
    for (const rtl::TapeProgram *tape :
         {narrow.get(), (const rtl::TapeProgram *)wide.get()}) {
        int prev = 0;
        for (int lanes = 1; lanes <= 70; ++lanes) {
            const int padded = rtl::JitProgram::paddedLanes(*tape, lanes);
            EXPECT_GE(padded, lanes);
            EXPECT_GE(padded, prev) << "not monotone at " << lanes;
            EXPECT_EQ(rtl::JitProgram::paddedLanes(*tape, padded), padded)
                << lanes << " lanes pad to " << padded
                << ", which is not itself whole vectors";
            prev = padded;
        }
        // Already whole vectors: no padding.
        EXPECT_EQ(rtl::JitProgram::paddedLanes(*tape, 64), 64);
        EXPECT_EQ(rtl::JitProgram::paddedLanes(*tape, 48), 48);
    }
    // One 16-byte vector minimum, 64-byte vectors once a row fills one.
    EXPECT_EQ(rtl::JitProgram::paddedLanes(*narrow, 3), 4);
    EXPECT_EQ(rtl::JitProgram::paddedLanes(*narrow, 24), 32);
    EXPECT_EQ(rtl::JitProgram::paddedLanes(*wide, 3), 4);
    EXPECT_EQ(rtl::JitProgram::paddedLanes(*wide, 20), 24);
}

/**
 * FleetSystem builds a jit group whose PU count is not a whole number
 * of vectors — or is smaller than one — at JitProgram::paddedLanes,
 * with the extra lanes idle, so the kernel still runs every lane.
 * Outputs and cycle counts must equal the interpreted batch's, and no
 * slot may be demoted. Covers 32- and 64-bit-element tapes.
 */
TEST(RtlJitContract, SystemPadsGroupsToWholeVectors)
{
    Status avail = rtl::JitProgram::availability();
    if (!avail.ok())
        GTEST_SKIP() << "jit unavailable: " << avail.toString();
    for (int width : {24, 64}) {
        const lang::Program program = heldAccumulator(width);
        for (int per_channel : {3, 20}) {
            const int channels = 2;
            Rng rng(uint64_t(width * 100 + per_channel));
            std::vector<BitBuffer> streams;
            for (int p = 0; p < channels * per_channel; ++p) {
                BitBuffer stream;
                const int tokens = 20 + int(rng.nextBelow(40));
                for (int t = 0; t < tokens; ++t)
                    stream.appendBits(rng.next(), 8);
                streams.push_back(std::move(stream));
            }
            auto run = [&](system::PuBackend backend) {
                system::SystemConfig config;
                config.numChannels = channels;
                config.backend = backend;
                auto sys = std::make_unique<system::FleetSystem>(
                    program, config, streams);
                EXPECT_TRUE(sys->run().allOk());
                return sys;
            };
            auto ref = run(system::PuBackend::Rtl);
            auto jit = run(system::PuBackend::RtlJit);
            EXPECT_EQ(jit->stats().cycles, ref->stats().cycles)
                << "width " << width << " x" << per_channel;
            for (int p = 0; p < jit->numPus(); ++p) {
                EXPECT_EQ(jit->slotBackend(p), system::PuBackend::RtlJit)
                    << "width " << width << " PU " << p;
                EXPECT_TRUE(jit->output(p) == ref->output(p))
                    << "width " << width << " x" << per_channel << " PU "
                    << p;
            }
        }
    }
}

/**
 * The jit's fused register commit updates only a register's published
 * out slot, never its staging row, so a lane the host interpreter
 * steps after jit steps must hold a disabled register from the out
 * slot. Drive an accumulator through full-width jit steps, stall its
 * input for host-only single-lane steps (enable low: the value must
 * hold), resume, and return to full width; registers, BRAM words and
 * ports must match a pure-interpreter batch throughout.
 */
TEST(RtlJitContract, HostStepsHoldRegistersTheJitCommitted)
{
    for (int width : {24, 64}) {
        lang::Program program = heldAccumulator(width);
        auto unit = compile::compileProgram(program);
        auto tape = std::make_shared<const rtl::TapeProgram>(
            rtl::TapeProgram::compile(unit.circuit));
        ASSERT_EQ(tape->fits32, width <= 32);

        rtl::JitOptions opts;
        opts.lanes = 16;
        Status status;
        auto jit = rtl::JitProgram::compile(*tape, opts, &status);
        if (!jit)
            GTEST_SKIP() << "jit unavailable: " << status.toString();
        ASSERT_EQ(opts.lanes % jit->vectorLanes(), 0)
            << "full-width steps must all run on the jit";
        rtl::BatchSimulator ref(tape, opts.lanes);
        rtl::BatchSimulator jbs(tape, opts.lanes);
        jbs.attachJit(jit);

        Rng rng{uint64_t(width)};
        auto drive = [&](int l, bool valid) {
            const uint64_t tok = rng.next() & 0xffu;
            for (rtl::BatchSimulator *s : {&ref, &jbs}) {
                s->setInput(l, unit.inInputToken, tok);
                s->setInput(l, unit.inInputValid, valid ? 1 : 0);
                s->setInput(l, unit.inInputFinished, 0);
                s->setInput(l, unit.inOutputReady, 1);
            }
        };
        auto expect_ports = [&](int l, const std::string &where) {
            for (rtl::NodeId out :
                 {unit.outInputReady, unit.outOutputToken,
                  unit.outOutputValid, unit.outOutputFinished})
                ASSERT_EQ(jbs.value(l, out), ref.value(l, out))
                    << "width " << width << " lane " << l << " " << where;
        };
        auto expect_state = [&](const std::string &where) {
            for (int l = 0; l < opts.lanes; ++l) {
                for (size_t r = 0; r < tape->regs.size(); ++r)
                    ASSERT_EQ(jbs.regValue(l, int(r)),
                              ref.regValue(l, int(r)))
                        << "width " << width << " lane " << l << " reg "
                        << r << " " << where;
                for (size_t m = 0; m < tape->brams.size(); ++m)
                    for (uint32_t a = 0; a < tape->brams[m].elements;
                         ++a)
                        ASSERT_EQ(jbs.bramWord(l, int(m), int(a)),
                                  ref.bramWord(l, int(m), int(a)))
                            << "width " << width << " lane " << l
                            << " addr " << a << " " << where;
            }
        };
        auto full_width = [&](int cycles, const std::string &where) {
            for (int c = 0; c < cycles; ++c) {
                for (int l = 0; l < opts.lanes; ++l)
                    drive(l, c % 3 != 2);
                ref.evalAll();
                jbs.evalAll();
                for (int l = 0; l < opts.lanes; ++l)
                    expect_ports(l, where);
                ref.step();
                jbs.step();
            }
            expect_state(where);
        };
        const int lane = 5;
        auto host_lane = [&](int cycles, bool valid,
                             const std::string &where) {
            for (int c = 0; c < cycles; ++c) {
                drive(lane, valid);
                ref.evalLane(lane);
                jbs.evalLane(lane);
                expect_ports(lane, where);
                ref.stepLane(lane);
                jbs.stepLane(lane);
            }
            expect_state(where);
        };

        full_width(12, "jit steps");
        std::vector<uint64_t> before;
        for (size_t r = 0; r < tape->regs.size(); ++r)
            before.push_back(ref.regValue(lane, int(r)));
        host_lane(4, false, "stalled host steps");
        int held = 0;
        for (size_t r = 0; r < tape->regs.size(); ++r)
            held += before[r] != tape->regs[r].init &&
                    ref.regValue(lane, int(r)) == before[r];
        EXPECT_GT(held, 0) << "width " << width
                           << ": no register moved under the jit and "
                              "then held through the stall";
        host_lane(4, true, "resumed host steps");
        full_width(9, "back on the jit");
    }
}

} // namespace
} // namespace fleet
