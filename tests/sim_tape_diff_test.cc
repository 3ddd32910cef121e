#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/intcode.h"
#include "apps/registry.h"
#include "lang/builder.h"
#include "random_programs.h"
#include "sim/simulator.h"
#include "sim/tape.h"
#include "sim_walker_oracle.h"
#include "test_programs.h"
#include "util/logging.h"
#include "util/rng.h"

/**
 * Differential test of the functional simulator: the compiled tape
 * (sim/tape.h) against the AST-walking oracle (sim_walker_oracle.h) on
 * generated programs, the six applications, empty streams, while-heavy
 * programs and every restriction violation. Both must agree on the
 * output, the per-vcycle trace, every stepVcycle signature, the
 * token/vcycle/emit counts, usedBramForwarding and — when a program
 * violates a restriction — the exact text of the first violation.
 */

namespace fleet {
namespace {

using lang::Bram;
using lang::Program;
using lang::ProgramBuilder;
using lang::Value;
using lang::VecReg;
using testoracle::WalkerSimulator;

/** Run `fn`, returning the FatalError text ("" if it completed). */
template <typename Fn>
std::string
fatalText(Fn fn)
{
    try {
        fn();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

void
expectSameRun(const Program &program, const BitBuffer &input,
              const std::string &label, sim::SimOptions options = {})
{
    auto tape = sim::Tape::compile(program);
    ASSERT_EQ(tape->verify(), "") << label;

    // Whole-stream run, with the trace.
    options.recordTrace = true;
    sim::RunResult want, got;
    std::string want_error = fatalText([&] {
        want = WalkerSimulator(program, options).run(input);
    });
    std::string got_error = fatalText([&] {
        got = sim::FunctionalSimulator(tape, options).run(input);
    });
    ASSERT_EQ(got_error, want_error) << label;
    if (!want_error.empty())
        return;
    EXPECT_TRUE(got.output == want.output) << label;
    EXPECT_EQ(got.trace, want.trace) << label;
    EXPECT_EQ(got.tokens, want.tokens) << label;
    EXPECT_EQ(got.vcycles, want.vcycles) << label;
    EXPECT_EQ(got.emits, want.emits) << label;
    EXPECT_EQ(got.usedBramForwarding, want.usedBramForwarding) << label;

    // Single-stepped, comparing every cycle's flags and signature.
    WalkerSimulator walker(program);
    sim::FunctionalSimulator stepped(tape);
    walker.beginStream(input);
    stepped.beginStream(input);
    std::vector<uint8_t> want_sig, got_sig;
    for (uint64_t cycle = 0; !walker.streamDone(); ++cycle) {
        ASSERT_FALSE(stepped.streamDone()) << label << " cycle " << cycle;
        uint8_t want_flags = walker.stepVcycle(&want_sig);
        uint8_t got_flags = stepped.stepVcycle(&got_sig);
        ASSERT_EQ(got_flags, want_flags) << label << " cycle " << cycle;
        ASSERT_EQ(got_sig, want_sig) << label << " cycle " << cycle;
        const auto &bits = stepped.signatureBits();
        for (size_t a = 0; a < got_sig.size(); ++a)
            ASSERT_EQ((bits[a / 64] >> (a % 64)) & 1, got_sig[a])
                << label << " cycle " << cycle << " action " << a;
    }
    EXPECT_TRUE(stepped.streamDone()) << label;
    EXPECT_TRUE(stepped.partialResult().output ==
                walker.partialResult().output)
        << label;
}

BitBuffer
randomTokens(uint64_t seed, int count, int width)
{
    Rng rng(seed);
    BitBuffer input;
    for (int i = 0; i < count; ++i)
        input.appendBits(rng.next(), width);
    return input;
}

BitBuffer
tokens8(std::initializer_list<uint64_t> values)
{
    BitBuffer buf;
    for (uint64_t v : values)
        buf.appendBits(v, 8);
    return buf;
}

TEST(SimTapeDiff, RandomPrograms)
{
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        Program program = testprogs::RandomProgramGenerator(seed).generate();
        int tokens = 120 + int(seed % 100);
        expectSameRun(program,
                      randomTokens(seed * 7919 + 1, tokens,
                                   program.inputTokenWidth),
                      "seed " + std::to_string(seed));
        expectSameRun(program, BitBuffer(),
                      "seed " + std::to_string(seed) + " empty");
    }
}

TEST(SimTapeDiff, Applications)
{
    auto check = [](const apps::Application &app, uint64_t seed) {
        Rng rng(seed);
        expectSameRun(app.program(), app.generateStream(rng, 1024),
                      app.name());
        expectSameRun(app.program(), BitBuffer(), app.name() + " empty");
    };
    uint64_t seed = 11;
    for (const auto &app : apps::allApplications())
        check(*app, ++seed);
    for (int range : {5, 10, 15, 20, 25})
        check(apps::IntcodeApp(apps::IntcodeParams{range}), 100 + range);
}

TEST(SimTapeDiff, WhileHeavyPrograms)
{
    // Figure 3's histogram: a 256-cycle emit loop per block.
    expectSameRun(testprogs::blockFrequencies(4),
                  randomTokens(3, 64, 8), "histogram");

    // Two while loops, bodies with BRAM traffic, and a countdown that
    // spends most virtual cycles inside a loop.
    ProgramBuilder b("twoLoops", 8, 8);
    Value count = b.reg("count", 8, 0);
    Value phase = b.reg("phase", 2, 0);
    Bram mem = b.bram("mem", 16, 8);
    b.while_(count != 0, [&] {
        b.assign(count, count - 1);
        b.assign(mem[count.slice(3, 0)], count);
        b.if_(count.slice(0, 0) == uint64_t(1),
              [&] { b.emit(mem[count.slice(3, 0)]); });
    });
    b.while_(phase == uint64_t(3), [&] { b.assign(phase, 0); });
    b.if_(!b.streamFinished(), [&] {
        b.assign(count, b.input() & Value::lit(15, 8));
        b.assign(phase, b.input().slice(7, 6));
    });
    expectSameRun(b.finish(), randomTokens(5, 80, 8), "twoLoops");
}

TEST(SimTapeDiff, VerifierRejectsMalformedTapes)
{
    auto tape = sim::Tape::compile(testprogs::blockFrequencies(4));
    ASSERT_EQ(tape->verify(), "");
    auto first = [&](auto pred) {
        for (size_t pc = 0; pc < tape->ops.size(); ++pc)
            if (pred(tape->ops[pc]))
                return pc;
        ADD_FAILURE() << "no such op";
        return size_t(0);
    };
    auto contains = [](const std::string &text, const std::string &part) {
        return text.find(part) != std::string::npos;
    };

    // An operand read before the op that computes it.
    sim::Tape early = *tape;
    size_t use = first([&](const sim::TapeOp &op) {
        return op.code == sim::TapeOpcode::CheckRead;
    });
    early.ops[use].a = uint32_t(early.initialSlots.size() - 1);
    EXPECT_TRUE(contains(early.verify(), "read before it is defined"));

    // A jump backwards.
    sim::Tape back = *tape;
    size_t jump = first([&](const sim::TapeOp &op) {
        return op.code == sim::TapeOpcode::JumpIfZero ||
               op.code == sim::TapeOpcode::JumpIfNonZero;
    });
    back.ops[jump].dst = uint32_t(jump);
    EXPECT_TRUE(contains(back.verify(), "jump target out of range"));

    // A result slot past the end, and a missing End.
    sim::Tape wide = *tape;
    size_t value = first([&](const sim::TapeOp &op) {
        return op.code <= sim::TapeOpcode::Load &&
               op.code != sim::TapeOpcode::Select;
    });
    wide.ops[value].dst = uint32_t(wide.initialSlots.size());
    EXPECT_TRUE(contains(wide.verify(), "result slot out of range"));
    sim::Tape open = *tape;
    open.ops.pop_back();
    EXPECT_TRUE(contains(open.verify(), "does not end with End"));
}

TEST(SimTapeDiff, SharedTapeAcrossSimulators)
{
    // Simulators sharing one tape keep independent state, interleaved
    // on one thread or running on several.
    auto tape = sim::Tape::compile(testprogs::blockFrequencies(10));
    WalkerSimulator oracle(testprogs::blockFrequencies(10));
    BitBuffer a = randomTokens(8, 50, 8), b = randomTokens(9, 50, 8);
    sim::FunctionalSimulator first(tape), second(tape);
    first.beginStream(a);
    second.beginStream(b);
    while (!first.streamDone() || !second.streamDone()) {
        if (!first.streamDone())
            first.stepVcycle();
        if (!second.streamDone())
            second.stepVcycle();
    }
    EXPECT_TRUE(first.partialResult().output == oracle.run(a).output);
    EXPECT_TRUE(second.partialResult().output == oracle.run(b).output);

    std::vector<BitBuffer> streams;
    for (uint64_t seed = 0; seed < 4; ++seed)
        streams.push_back(randomTokens(seed, 400, 8));
    std::vector<sim::RunResult> results(streams.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < streams.size(); ++i)
        threads.emplace_back([&, i] {
            results[i] = sim::FunctionalSimulator(tape).run(streams[i]);
        });
    for (auto &thread : threads)
        thread.join();
    for (size_t i = 0; i < streams.size(); ++i)
        EXPECT_TRUE(results[i].output == oracle.run(streams[i]).output);
}

/** The violation programs of sim_simulator_test, plus orderings. */
TEST(SimTapeDiff, ViolationsReportTheSameFirstError)
{
    struct Case
    {
        std::string name;
        Program program;
        BitBuffer input;
        sim::SimOptions options;
    };
    std::vector<Case> cases;
    {
        ProgramBuilder b("multipleEmits", 8, 8);
        b.emit(b.input());
        b.emit(b.input());
        cases.push_back({"multipleEmits", b.finish(), tokens8({1}), {}});
    }
    {
        ProgramBuilder b("doubleReg", 8, 8);
        Value r = b.reg("r", 8);
        b.assign(r, 1);
        b.assign(r, 2);
        cases.push_back({"doubleReg", b.finish(), tokens8({1}), {}});
    }
    {
        ProgramBuilder b("twoReads", 8, 8);
        Bram m = b.bram("m", 16, 8);
        Value r = b.reg("r", 8);
        b.assign(r, (m[Value::lit(0, 4)] + m[Value::lit(1, 4)]).resize(8));
        cases.push_back({"twoReads", b.finish(), tokens8({1}), {}});
    }
    {
        ProgramBuilder b("twoWrites", 8, 8);
        Bram m = b.bram("m", 16, 8);
        b.assign(m[Value::lit(0, 4)], 1);
        b.assign(m[Value::lit(1, 4)], 2);
        cases.push_back({"twoWrites", b.finish(), tokens8({1}), {}});
    }
    {
        ProgramBuilder b("bramRange", 8, 8);
        Bram m = b.bram("m", 10, 8);
        b.assign(m[b.input().slice(3, 0)], 1);
        Program p = b.finish();
        cases.push_back({"bramRangeBad", p, tokens8({3, 15}), {}});
        cases.push_back({"bramRangeOk", p, tokens8({9}), {}});
    }
    {
        ProgramBuilder b("readRange", 8, 8);
        Bram m = b.bram("m", 10, 8);
        b.if_(b.input() != 0, [&] { b.emit(m[b.input().slice(3, 0)]); });
        cases.push_back({"readRange", b.finish(), tokens8({0, 4, 12}), {}});
    }
    {
        ProgramBuilder b("vecTwice", 8, 8);
        VecReg v = b.vreg("v", 4, 8);
        b.assign(v[Value::lit(0, 2)], 1);
        b.assign(v[Value::lit(0, 2)], 2);
        cases.push_back({"vecTwice", b.finish(), tokens8({1}), {}});
    }
    {
        ProgramBuilder b("vecRange", 8, 8);
        VecReg v = b.vreg("v", 3, 8);
        b.assign(v[b.input().slice(1, 0)], 1);
        cases.push_back({"vecRange", b.finish(), tokens8({1, 2, 3}), {}});
    }
    {
        ProgramBuilder b("spin", 8, 8);
        Value r = b.reg("r", 1, 0);
        b.while_(r == 0, [&] { b.assign(r, Value::lit(0, 1)); });
        sim::SimOptions options;
        options.maxVcyclesPerToken = 1000;
        cases.push_back({"spin", b.finish(), tokens8({1}), options});
    }
    {
        ProgramBuilder b("misaligned", 16, 16);
        b.emit(b.input());
        BitBuffer input;
        input.appendBits(0, 24);
        cases.push_back({"misaligned", b.finish(), input, {}});
    }
    {
        // Read, assign and emit violations in one cycle: the read one
        // is reported, then (without it) the assign one.
        for (bool with_read : {true, false}) {
            ProgramBuilder b("ordering", 8, 8);
            Bram m = b.bram("m", 16, 8);
            Value r = b.reg("r", 8);
            b.emit(b.input());
            b.assign(r, 1);
            b.assign(r, with_read ? m[Value::lit(0, 4)]
                                  : Value::lit(2, 8));
            if (with_read)
                b.emit(m[Value::lit(1, 4)]);
            else
                b.emit(b.input());
            cases.push_back({with_read ? "orderRead" : "orderAssign",
                             b.finish(), tokens8({1}), {}});
        }
    }
    {
        // A violation that first fires in the cleanup cycle.
        ProgramBuilder b("cleanup", 8, 8);
        b.if_(b.streamFinished(), [&] {
            b.emit(b.input());
            b.emit(Value::lit(1, 8));
        });
        cases.push_back({"cleanup", b.finish(), tokens8({1, 2}), {}});
    }

    for (const Case &c : cases) {
        std::string want = fatalText([&] {
            WalkerSimulator(c.program, c.options).run(c.input);
        });
        std::string got = fatalText([&] {
            sim::FunctionalSimulator(c.program, c.options).run(c.input);
        });
        EXPECT_EQ(got, want) << c.name;
        if (c.name != "bramRangeOk") {
            EXPECT_NE(got, "") << c.name << " should violate";
        }
        expectSameRun(c.program, c.input, c.name, c.options);
    }
}

} // namespace
} // namespace fleet
