/**
 * @file
 * The controllers' lane views against the buffers they are derived
 * from. InputController keeps, per unit, the head token at the input
 * width, a whole-token flag and a finished flag (stream exhausted,
 * buffer drained); OutputController keeps a token-fits flag. The
 * shard's latch reads only these arrays, so a view that misses an
 * update silently feeds a unit a stale handshake.
 *
 * Generated programs and streams (random_programs.h) run on a shard of
 * eight units — four in an RtlBatch bound to a strided permutation of
 * locals, four per-unit RtlPus — under each controller mode the
 * cross-commit golden pins, with parity faults and undersized output
 * regions forcing both containment paths. After every cycle each
 * unit's views must equal what peek / sizeBits / freeBits /
 * streamExhausted report.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "random_programs.h"
#include "system/channel_shard.h"
#include "system/pu_rtl.h"
#include "system/pu_rtl_batch.h"
#include "util/bitbuf.h"
#include "util/bits.h"
#include "util/rng.h"

namespace fleet {
namespace system {
namespace {

using memctl::ControllerParams;
using memctl::InputController;
using memctl::StreamRegion;

constexpr int kPus = 8;
constexpr uint64_t kBurstBytes = 128;

/** The controller modes of cross_commit_golden_test, plus defaults. */
enum class Mode
{
    Default,
    NonBlockingInputSyncOutput,
    TwoBuffersFourRegisters,
};

const Mode kModes[] = {Mode::Default, Mode::NonBlockingInputSyncOutput,
                       Mode::TwoBuffersFourRegisters};

const char *
modeName(Mode mode)
{
    switch (mode) {
      case Mode::Default:                    return "default";
      case Mode::NonBlockingInputSyncOutput: return "nonblocking-sync";
      case Mode::TwoBuffersFourRegisters:    return "2buf-4reg";
    }
    return "?";
}

void
applyMode(Mode mode, ControllerParams &in, ControllerParams &out)
{
    if (mode == Mode::NonBlockingInputSyncOutput) {
        in.blockingAddressing = false;
        out.blockingAddressing = true;
        out.asyncAddressSupply = false;
    } else if (mode == Mode::TwoBuffersFourRegisters) {
        for (ControllerParams *ctrl : {&in, &out}) {
            ctrl->bufferBursts = 2;
            ctrl->numBurstRegs = 4;
            ctrl->maxAheadRequests = 4;
        }
    }
}

/** The first unit whose views disagree with its buffers ("" = none). */
std::string
viewMismatch(const ChannelShard &shard, int in_width, int out_width)
{
    const InputController &in = shard.inputController();
    const memctl::OutputController &out = shard.outputController();
    for (int l = 0; l < shard.numPus(); ++l) {
        const memctl::BitFifo &in_buf = in.buffer(l);
        const bool whole = in_buf.sizeBits() >= uint64_t(in_width);
        const uint8_t flags = in.laneFlags()[l];
        std::ostringstream os;
        os << "cycle " << shard.cycles() << " local " << l << ": ";
        if (bool(flags & InputController::kWholeToken) != whole)
            return os.str() + "whole-token flag";
        if (in.headTokens()[l] != (whole ? in_buf.peek(in_width) : 0))
            return os.str() + "head token";
        if (bool(flags & InputController::kFinished) !=
            (in.streamExhausted(l) && in_buf.empty()))
            return os.str() + "finished flag";
        if ((out.tokenFits()[l] != 0) !=
            (out.buffer(l).freeBits() >= uint64_t(out_width)))
            return os.str() + "output-fits flag";
    }
    return "";
}

struct Tally
{
    int parity = 0;
    int overflow = 0;
    uint64_t cycles = 0;
};

/** One shard run of a generated program, views checked every cycle. */
void
runChecked(uint64_t seed, Mode mode, Tally &tally)
{
    lang::Program program =
        testprogs::RandomProgramGenerator(seed).generate();
    const int in_width = program.inputTokenWidth;
    const int out_width = program.outputTokenWidth;

    Rng rng(seed * 7919 + static_cast<uint64_t>(mode));
    std::vector<BitBuffer> streams(kPus);
    for (BitBuffer &stream : streams) {
        const int tokens = 60 + static_cast<int>(rng.nextBelow(200));
        for (int i = 0; i < tokens; ++i)
            stream.appendBits(rng.next(), in_width);
    }

    // Inputs first, then outputs. Locals 3 and 6 get a single output
    // burst, so a unit that emits more than 1024 bits overflows.
    std::vector<StreamRegion> inputs(kPus), outputs(kPus);
    uint64_t bytes = 0;
    for (int l = 0; l < kPus; ++l) {
        inputs[l].baseAddr = bytes;
        inputs[l].streamBits = streams[l].sizeBits();
        inputs[l].regionBytes =
            roundUp(ceilDiv(streams[l].sizeBits(), 8), kBurstBytes);
        bytes += inputs[l].regionBytes;
    }
    for (int l = 0; l < kPus; ++l) {
        outputs[l].baseAddr = bytes;
        outputs[l].regionBytes =
            l == 3 || l == 6 ? kBurstBytes
                             : roundUp(4 * inputs[l].regionBytes + 8192,
                                       kBurstBytes);
        bytes += outputs[l].regionBytes;
    }

    ControllerParams in_params, out_params;
    in_params.tokenBits = in_width;
    out_params.tokenBits = out_width;
    applyMode(mode, in_params, out_params);
    fault::FaultPlan faults;
    faults.seed = seed;
    faults.corruptBeatPerMillion = 15000;
    ChannelShard shard(0, dram::DramParams{}, in_params, out_params,
                       inputs, outputs, bytes, faults);
    for (int l = 0; l < kPus; ++l) {
        std::vector<uint8_t> data = streams[l].toBytes();
        std::copy(data.begin(), data.end(),
                  shard.channel().memory().begin() + inputs[l].baseAddr);
    }

    // Even locals are batch lanes in reverse (lane 0 = local 6), odd
    // locals per-unit interpreters: both group kinds, one of them
    // through a lane map.
    auto engine = std::make_shared<const RtlTapeEngine>(program);
    auto batch = std::make_shared<RtlBatch>(engine, kPus / 2);
    const std::vector<int> batch_locals = {6, 4, 2, 0};
    for (int l = 0; l < kPus; ++l) {
        std::unique_ptr<ProcessingUnit> pu;
        if (l % 2 == 0)
            pu = std::make_unique<RtlBatchLane>(batch, (6 - l) / 2);
        else
            pu = std::make_unique<RtlPu>(program);
        shard.addPu(std::move(pu), l, streams[l].sizeBits());
    }
    shard.attachBatch(batch, batch_locals);

    shard.beginRun(in_width, out_width, 400000, 20000);
    ASSERT_EQ(viewMismatch(shard, in_width, out_width), "")
        << "seed " << seed << " " << modeName(mode) << " (armed)";
    while (shard.step(1) == ShardState::Active) {
        ASSERT_EQ(viewMismatch(shard, in_width, out_width), "")
            << "seed " << seed << " " << modeName(mode);
    }
    ASSERT_EQ(viewMismatch(shard, in_width, out_width), "")
        << "seed " << seed << " " << modeName(mode) << " (settled)";
    shard.finishRun();
    for (int l = 0; l < kPus; ++l) {
        const StatusCode code = shard.puOutcome(l).status.code;
        tally.parity += code == StatusCode::ParityError;
        tally.overflow += code == StatusCode::OutputOverflow;
    }
    tally.cycles += shard.cycles();
}

TEST(LaneViews, MatchTheirBuffersEveryCycle)
{
    Tally tally;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        for (Mode mode : kModes) {
            runChecked(seed, mode, tally);
            if (HasFatalFailure())
                return;
        }
    }
    // The mix must keep exercising both containment paths.
    EXPECT_GT(tally.parity, 0);
    EXPECT_GT(tally.overflow, 0);
    EXPECT_GT(tally.cycles, 0u);
}

} // namespace
} // namespace system
} // namespace fleet
