#include "system/channel_shard.h"

#include <algorithm>
#include <sstream>

#include "system/pu_rtl_batch.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/status.h"

namespace fleet {
namespace system {

ChannelShard::ChannelShard(int channel_index,
                           const dram::DramParams &dram_params,
                           const memctl::ControllerParams &input_params,
                           const memctl::ControllerParams &output_params,
                           std::vector<memctl::StreamRegion> input_regions,
                           std::vector<memctl::StreamRegion> output_regions,
                           uint64_t mem_bytes,
                           const fault::FaultPlan &fault_plan,
                           const trace::TraceConfig &trace_config)
    : channelIndex_(channel_index), traceConfig_(trace_config)
{
    // A fault-free shard carries no injector at all: the DRAM model's
    // null check is the only cost, so disabled-plan runs are
    // bit-identical to a build without the fault layer. The trace
    // collector follows the same discipline.
    if (trace_config.enabled())
        trace_ = std::make_unique<trace::ShardTrace>(
            channel_index, trace_config, dram_params.maxOutstandingReads,
            dram_params.maxOutstandingWrites);
    if (fault_plan.enabled())
        faults_.emplace(fault_plan, channel_index);
    channel_ = std::make_unique<dram::DramChannel>(
        dram_params, mem_bytes, faults_ ? &*faults_ : nullptr);
    inputCtrl_ = std::make_unique<memctl::InputController>(
        *channel_, input_params, std::move(input_regions));
    outputCtrl_ = std::make_unique<memctl::OutputController>(
        *channel_, output_params, std::move(output_regions));
}

void
ChannelShard::addPu(std::unique_ptr<ProcessingUnit> pu, int global_index,
                    uint64_t stream_bits)
{
    PuSlot slot;
    slot.pu = std::move(pu);
    slot.globalIndex = global_index;
    slot.streamBits = stream_bits;
    // One-shot runs arm one stream per unit: its job id is the global
    // PU index. Session arms overwrite this per job (rearmPu).
    slot.jobId = static_cast<uint64_t>(global_index);
    pus_.push_back(std::move(slot));
    live_.push_back(1);
    finished_.push_back(0);
    handshake_.push_back(0);
    emitted_.push_back(0);
    puStats_.push_back(PuStats{});
    if (trace_)
        trace_->addPu(global_index);
}

void
ChannelShard::attachBatch(std::shared_ptr<RtlBatch> batch,
                          std::vector<int> locals)
{
    batches_.push_back(BatchBinding{std::move(batch), std::move(locals)});
}

void
ChannelShard::containPu(int local, Status status)
{
    PuSlot &slot = pus_[local];
    if (slot.failed)
        return;
    slot.failed = true;
    live_[local] = 0;
    if (trace_)
        trace_->marker(local, cycles_,
                       std::string("contained: ") +
                           statusCodeName(status.code));
    slot.outcome.status = std::move(status);
    slot.outcome.atCycle = cycles_;
    // Kill it in both controllers so the shared burst registers and
    // addressing units keep flowing for the channel's healthy units:
    // no further input bursts (in-flight ones are discarded), and the
    // output side flushes what was already emitted as a final burst.
    inputCtrl_->killPu(local);
    outputCtrl_->setPuFinished(local);
}

bool
ChannelShard::cancelPu(int local, Status status)
{
    PuSlot &slot = pus_[local];
    if (state_ != ShardState::Active)
        return false;
    if (slot.parked || slot.failed || !slot.hasJob)
        return false;
    if (puDrained(local))
        return false; // Already drained: the job won, retire it.
    containPu(local, std::move(status));
    return true;
}

void
ChannelShard::forceHalt(Status status)
{
    if (state_ != ShardState::Active && state_ != ShardState::Idle)
        return;
    haltStatus_ = std::move(status);
    state_ = ShardState::Halted;
}

void
ChannelShard::recomputeWatchdogBudget()
{
    watchdogBudget_ = watchdogCycles_;
    if (watchdogStreamFactor_ <= 0.0 || inWidth_ <= 0)
        return;
    uint64_t max_tokens = 0;
    for (const PuSlot &slot : pus_) {
        if (slot.parked)
            continue;
        max_tokens = std::max(
            max_tokens, slot.streamBits / uint64_t(inWidth_));
    }
    uint64_t scaled = static_cast<uint64_t>(watchdogStreamFactor_ *
                                            double(max_tokens));
    watchdogBudget_ = std::max(watchdogBudget_, scaled);
}

ChannelOutcome
ChannelShard::run(int input_token_width, int output_token_width,
                  uint64_t max_cycles, uint64_t watchdog_cycles)
{
    beginRun(input_token_width, output_token_width, max_cycles,
             watchdog_cycles);
    // The budget never binds before max_cycles does, so this is the
    // legacy single uninterrupted loop.
    step(UINT64_MAX);
    return finishRun();
}

void
ChannelShard::beginRun(int input_token_width, int output_token_width,
                       uint64_t max_cycles, uint64_t watchdog_cycles)
{
    inWidth_ = input_token_width;
    outWidth_ = output_token_width;
    maxCycles_ = max_cycles;
    watchdogCycles_ = watchdog_cycles;
    // Forward-progress watchdog: a configuration can genuinely hang
    // (e.g. blocking output addressing with divergent filter rates, the
    // pathology Section 5's non-blocking default avoids — or a PU
    // program that spins in a `while` without retiring tokens). If no
    // PU retired a token and no DRAM beat moved for watchdog_cycles,
    // turn the hang into a WatchdogStall outcome with a diagnostic dump
    // instead of spinning to maxCycles. Per-shard, the watchdog is
    // stricter than a global one: a stuck channel cannot hide behind
    // another channel's activity.
    lastActivityCycle_ = 0;
    lastBeats_ = 0;
    haltStatus_ = Status::make(StatusCode::Ok);
    cycles_ = 0;
    recomputeWatchdogBudget();

    // Resolve which batched engine lane (if any) drives each local PU.
    // An empty locals list is the legacy arrangement: lane l <-> local
    // l, covering the whole channel.
    laneRef_.assign(pus_.size(), LaneRef{});
    for (size_t b = 0; b < batches_.size(); ++b) {
        BatchBinding &binding = batches_[b];
        if (binding.locals.empty() &&
            binding.batch->lanes() != numPus()) {
            panic("system: batched RTL engine has ",
                  binding.batch->lanes(), " lanes for ", numPus(),
                  " PUs");
        }
        int lanes = binding.batch->lanes();
        if (!binding.locals.empty() &&
            static_cast<int>(binding.locals.size()) != lanes) {
            panic("system: batched RTL engine has ", lanes,
                  " lanes but ", binding.locals.size(),
                  " bound local PUs");
        }
        for (int lane = 0; lane < lanes; ++lane) {
            int local = binding.locals.empty() ? lane
                                               : binding.locals[lane];
            if (local < 0 || local >= numPus())
                panic("system: batch lane ", lane,
                      " binds out-of-range local PU ", local);
            if (laneRef_[local].batch)
                panic("system: local PU ", local,
                      " bound to two batched engines");
            laneRef_[local] = LaneRef{binding.batch.get(), lane};
        }
    }
    unbatched_.clear();
    for (int l = 0; l < numPus(); ++l)
        if (!laneRef_[l].batch)
            unbatched_.push_back(l);
    cycleIn_.assign(pus_.size(), PuInputs{});
    state_ = ShardState::Active;
}

ShardState
ChannelShard::step(uint64_t budget)
{
    if (state_ != ShardState::Active)
        return state_;
    const int in_width = inWidth_;
    const int out_width = outWidth_;
    const int num_pus = numPus();
    memctl::InputController &in_ctrl = *inputCtrl_;
    memctl::OutputController &out_ctrl = *outputCtrl_;

    try {
        for (; budget > 0 && cycles_ < maxCycles_; ++cycles_, --budget) {
            bool activity = false;
            bool all_finished = true;

            // Phase 1: latch every live PU's view of its controller
            // buffers straight into its engine lane's input rows (or,
            // for a per-unit lane, its PuInputs). These are pure reads
            // of per-PU state, so gathering them all before any
            // handshake acts is identical to the interleaved order —
            // and lets the batched engines evaluate every lane in one
            // vectorized sweep.
            for (int l = 0; l < num_pus; ++l) {
                if (!live_[l])
                    continue;
                const memctl::BitFifo &in_buf = in_ctrl.buffer(l);
                const bool valid = in_buf.sizeBits() >= uint64_t(in_width);
                const uint64_t token = valid ? in_buf.peek(in_width) : 0;
                const bool finished =
                    in_ctrl.streamExhausted(l) && in_buf.empty();
                const bool ready = out_ctrl.buffer(l).freeBits() >=
                                   uint64_t(out_width);
                handshake_[l] = uint8_t(valid * kInputValid |
                                        finished * kInputFinished |
                                        ready * kOutputReady);
                const LaneRef &ref = laneRef_[l];
                if (ref.batch)
                    ref.batch->setLaneInputs(ref.lane, token, valid,
                                             finished, ready);
                else
                    cycleIn_[l] = PuInputs{token, valid, finished, ready};
            }
            for (BatchBinding &binding : batches_)
                binding.batch->evalAll();

            // Phase 2: act on each PU's outputs (handshakes mutate only
            // that PU's buffers), classify the cycle, track completion.
            for (int l = 0; l < num_pus; ++l) {
                if (!live_[l]) {
                    // Contained or awaiting a job: quarantined from the
                    // loop until retired / re-armed.
                    if (trace_)
                        trace_->puCycle(l, cycles_, trace::PuPhase::Done);
                    continue;
                }
                const LaneRef &ref = laneRef_[l];
                const PuOutputs out =
                    ref.batch ? ref.batch->laneOutputs(ref.lane)
                              : pus_[l].pu->eval(cycleIn_[l]);
                const uint8_t latched = handshake_[l];
                const bool valid = latched & kInputValid;
                const bool finished = latched & kInputFinished;
                const bool ready = latched & kOutputReady;
                handshake_[l] = uint8_t(latched |
                                        out.inputReady * kInputReady |
                                        out.outputValid * kOutputValid);

                const bool produced = out.outputValid && ready;
                const bool consumed = out.inputReady && valid;
                if (produced) {
                    out_ctrl.push(l, out.outputToken, out_width);
                    emitted_[l] += out_width;
                }
                if (consumed)
                    in_ctrl.buffer(l).pop(in_width);
                const bool was_finished = finished_[l];
                const bool finishing = out.outputFinished && !was_finished;
                if (finishing) {
                    out_ctrl.setPuFinished(l);
                    finished_[l] = 1;
                    puStats_[l].finishedAtCycle = cycles_;
                }
                activity = activity || produced || consumed || finishing;
                // Shared taxonomy (trace/taxonomy.h), counted until the
                // unit finishes. Note these two legacy counters are
                // independent conditions, not the exclusive phase
                // partition the trace records.
                const bool open = !(was_finished || finishing);
                PuStats &stats = puStats_[l];
                stats.inputStarvedCycles += uint64_t(
                    open &&
                    trace::inputStarved(out.inputReady, valid, finished));
                stats.outputBlockedCycles += uint64_t(
                    open && trace::outputBlocked(out.outputValid, ready));
                if (trace_) {
                    trace::PuPhase phase;
                    if (was_finished)
                        phase = trace::PuPhase::Done;
                    else if (consumed || produced || finishing)
                        phase = trace::PuPhase::Active;
                    else
                        phase = trace::phaseForStall(trace::classifyStall(
                            out.inputReady, valid, finished,
                            out.outputValid, ready));
                    trace_->puCycle(l, cycles_, phase);
                }
                all_finished = all_finished && !open;
            }

            inputCtrl_->tick();
            outputCtrl_->tick();
            channel_->tick();
            // One vectorized clock edge per batched group. Failed lanes
            // advance too, but nothing observes them again. Unbatched
            // slots step per-unit.
            for (BatchBinding &binding : batches_)
                binding.batch->step();
            for (int l : unbatched_)
                if (live_[l])
                    pus_[l].pu->step();

            // Containment events raised by this cycle's ticks. Polled
            // after the ticks so the kill takes effect from the next
            // cycle — the same point on every host thread count.
            while (auto parity = inputCtrl_->takeParityEvent()) {
                if (finished_[parity->pu])
                    continue; // Already done; stale beat is harmless.
                std::ostringstream os;
                os << "PU " << pus_[parity->pu].globalIndex
                   << ": parity error on read beat at channel address "
                   << parity->addr;
                containPu(parity->pu,
                          Status::make(StatusCode::ParityError, os.str()));
                activity = true;
            }
            while (auto overflow = outputCtrl_->takeOverflowEvent()) {
                std::ostringstream os;
                os << "PU " << pus_[overflow->pu].globalIndex
                   << ": output exceeds its " << overflow->regionBytes
                   << "-byte region (declare a larger maxOutputExpansion "
                      "or set SystemConfig::outputRegionBytes)";
                containPu(overflow->pu,
                          Status::make(StatusCode::OutputOverflow,
                                       os.str()));
                activity = true;
            }

            stats_.readQueueOccupancySum += channel_->outstandingReads();
            stats_.writeQueueOccupancySum += channel_->outstandingWrites();
            if (trace_)
                trace_->dramCycle(cycles_, channel_->outstandingReads(),
                                  channel_->outstandingWrites());

            uint64_t beats =
                channel_->beatsDelivered() + channel_->beatsWritten();
            if (activity || beats != lastBeats_) {
                lastActivityCycle_ = cycles_;
                lastBeats_ = beats;
            } else if (cycles_ - lastActivityCycle_ > watchdogBudget_) {
                haltStatus_ = Status::make(
                    StatusCode::WatchdogStall,
                    watchdogDump(cycles_ - lastActivityCycle_));
                state_ = ShardState::Halted;
                return state_;
            }

            // Idle also waits for discarded in-flight bursts of
            // contained lanes to drain: a lane with reads still in
            // flight is not puIdle, so retiring its job (and re-arming
            // the slot) would be impossible once step() short-circuits.
            if (all_finished && outputCtrl_->done() &&
                inputCtrl_->inflightBursts() == 0) {
                ++cycles_;
                state_ = ShardState::Idle;
                return state_;
            }
        }
        if (cycles_ >= maxCycles_) {
            std::ostringstream os;
            os << "channel " << channelIndex_ << " did not finish within "
               << maxCycles_ << " cycles";
            haltStatus_ =
                Status::make(StatusCode::CycleLimitExceeded, os.str());
            state_ = ShardState::Halted;
        }
    } catch (const StatusError &error) {
        haltStatus_ = error.status();
        state_ = ShardState::Halted;
    } catch (const std::exception &error) {
        haltStatus_ =
            Status::make(StatusCode::InternalError, error.what());
        state_ = ShardState::Halted;
    }
    return state_;
}

ChannelOutcome
ChannelShard::finishRun()
{
    ChannelOutcome channel_outcome;
    channel_outcome.status = haltStatus_;
    channel_outcome.cycles = cycles_;

    // Close any job spans still open (jobs left armed at session end —
    // on a halted channel they inherit the channel status below).
    if (trace_) {
        for (size_t l = 0; l < pus_.size(); ++l) {
            PuSlot &slot = pus_[l];
            if (slot.hasJob)
                trace_->jobSpan(static_cast<int>(l), slot.jobId,
                                slot.armCycle, cycles_);
        }
    }

    finalizeStats();

    // Settle per-PU outcomes: contained units keep the status recorded
    // at containment; on a failed channel every other unit inherits the
    // channel status (even a unit that asserted output_finished may
    // have unflushed output stranded in its buffer); on a completed
    // channel every non-contained unit finished and fully flushed.
    for (size_t l = 0; l < pus_.size(); ++l) {
        PuSlot &slot = pus_[l];
        if (!slot.failed) {
            if (channel_outcome.status.ok()) {
                slot.outcome.status = Status::make(StatusCode::Ok);
                slot.outcome.atCycle = puStats_[l].finishedAtCycle;
            } else {
                slot.outcome.status = channel_outcome.status;
                slot.outcome.atCycle = cycles_;
            }
        }
        slot.outcome.outputBits =
            outputCtrl_->payloadBits(static_cast<int>(l));
        slot.outcome.jobId = slot.jobId;
    }
    return channel_outcome;
}

bool
ChannelShard::puDrained(int local) const
{
    const PuSlot &slot = pus_[local];
    if (slot.parked || !slot.hasJob)
        return false;
    if (!finished_[local] && !slot.failed)
        return false;
    return inputCtrl_->puIdle(local) && outputCtrl_->puFlushed(local);
}

RetiredJob
ChannelShard::retireJob(int local)
{
    PuSlot &slot = pus_[local];
    if (!puDrained(local))
        panic("ChannelShard: retireJob(", local,
              ") before the job drained");

    RetiredJob job;
    job.jobId = slot.jobId;
    job.armCycle = slot.armCycle;
    job.retireCycle = cycles_;
    const PuStats &stats = puStats_[local];
    job.streamBits = slot.streamBits;
    job.emittedBits = emitted_[local];
    job.stats.inputStarvedCycles = stats.inputStarvedCycles -
                                   slot.statsAtArm.inputStarvedCycles;
    job.stats.outputBlockedCycles = stats.outputBlockedCycles -
                                    slot.statsAtArm.outputBlockedCycles;
    job.stats.finishedAtCycle = stats.finishedAtCycle;
    if (slot.failed) {
        job.outcome = slot.outcome; // Status recorded at containment.
    } else {
        job.outcome.status = Status::make(StatusCode::Ok);
        job.outcome.atCycle = stats.finishedAtCycle;
    }
    job.outcome.outputBits = outputCtrl_->payloadBits(local);
    job.outcome.jobId = slot.jobId;

    if (trace_)
        trace_->jobSpan(local, slot.jobId, slot.armCycle, cycles_);

    // Roll the finished job into the cumulative channel accounting,
    // then park the slot. The controller lanes keep their drained
    // state (idle input, finished-and-flushed output) so the channel's
    // completion check and channel-mates are unaffected; the next
    // rearmPu resets them.
    slot.pastInputBytes += ceilDiv(slot.streamBits, 8);
    slot.pastOutputBytes += ceilDiv(emitted_[local], 8);
    ++slot.jobsRetired;
    slot.parked = true;
    slot.hasJob = false;
    slot.failed = false;
    live_[local] = 0;
    finished_[local] = 0;
    slot.streamBits = 0;
    emitted_[local] = 0;
    recomputeWatchdogBudget();
    return job;
}

void
ChannelShard::parkPu(int local)
{
    PuSlot &slot = pus_[local];
    slot.parked = true;
    live_[local] = 0;
    slot.hasJob = false;
    slot.streamBits = 0;
    // A parked lane counts as finished-and-flushed so it never blocks
    // the channel's completion check.
    outputCtrl_->setPuFinished(local);
}

void
ChannelShard::rearmPu(int local, uint64_t stream_bits, uint64_t job_id)
{
    PuSlot &slot = pus_[local];
    if (state_ == ShardState::Unstarted || state_ == ShardState::Halted)
        panic("ChannelShard: rearmPu(", local,
              ") outside an active run");
    if (!slot.parked)
        panic("ChannelShard: rearmPu(", local,
              ") on a slot that still holds a job");

    inputCtrl_->rearmPu(local, stream_bits);
    outputCtrl_->rearmPu(local);
    slot.pu->reset();
    slot.parked = false;
    slot.hasJob = true;
    slot.jobId = job_id;
    slot.armCycle = cycles_;
    slot.streamBits = stream_bits;
    slot.failed = false;
    live_[local] = 1;
    finished_[local] = 0;
    handshake_[local] = 0;
    emitted_[local] = 0;
    slot.statsAtArm = puStats_[local];
    puStats_[local].finishedAtCycle = 0;
    slot.outcome = PuOutcome{};
    // Fresh work: the stretch the slot sat parked must not count
    // against the forward-progress watchdog.
    lastActivityCycle_ = cycles_;
    lastBeats_ = channel_->beatsDelivered() + channel_->beatsWritten();
    recomputeWatchdogBudget();
    state_ = ShardState::Active;
}

void
ChannelShard::finalizeStats()
{
    stats_.cycles = cycles_;
    stats_.numPus = numPus();
    stats_.beatsDelivered = channel_->beatsDelivered();
    stats_.beatsWritten = channel_->beatsWritten();
    for (size_t l = 0; l < pus_.size(); ++l) {
        const PuSlot &slot = pus_[l];
        // Past* are the retired jobs' roll-ups (always 0 one-shot).
        stats_.inputBytes += slot.pastInputBytes +
                             ceilDiv(slot.streamBits, 8);
        stats_.outputBytes += slot.pastOutputBytes +
                              ceilDiv(emitted_[l], 8);
        stats_.inputStarvedCycles += puStats_[l].inputStarvedCycles;
        stats_.outputBlockedCycles += puStats_[l].outputBlockedCycles;
    }
}

const char *
ChannelShard::stallReason(int local) const
{
    const PuSlot &slot = pus_[local];
    if (slot.failed)
        return "contained";
    if (slot.parked)
        return "parked";
    if (finished_[local])
        return "finished";
    // Shared classification (trace/taxonomy.h) over the last cycle's
    // latched handshake — the same attribution the trace layer records.
    const uint8_t hs = handshake_[local];
    return trace::stallCauseName(trace::classifyStall(
        hs & kInputReady, hs & kInputValid, hs & kInputFinished,
        hs & kOutputValid, hs & kOutputReady));
}

trace::ChannelTrace
ChannelShard::takeTrace()
{
    trace::ChannelTrace out = trace_->finish(cycles_);
    if (!traceConfig_.counters)
        return out;

    auto component = [this](const char *suffix) {
        trace::CounterSet set;
        set.name = "ch" + std::to_string(channelIndex_) + "/" + suffix;
        return set;
    };

    trace::CounterSet dram = component("dram");
    channel_->exportCounters(dram);
    out.counters.push_back(std::move(dram));

    trace::CounterSet input = component("input_ctrl");
    inputCtrl_->exportCounters(input);
    out.counters.push_back(std::move(input));

    trace::CounterSet output = component("output_ctrl");
    outputCtrl_->exportCounters(output);
    out.counters.push_back(std::move(output));

    for (size_t l = 0; l < pus_.size(); ++l) {
        const PuSlot &slot = pus_[l];
        trace::CounterSet set = component(
            ("pu" + std::to_string(slot.globalIndex)).c_str());
        const int local = static_cast<int>(l);
        for (int p = 0; p < trace::kNumPuPhases; ++p) {
            auto phase = static_cast<trace::PuPhase>(p);
            set.set(std::string(trace::puPhaseName(phase)) + "_cycles",
                    trace_->phaseCycles(local, phase));
        }
        set.set("stream_bits", slot.streamBits);
        set.set("delivered_bits", inputCtrl_->puBitsDelivered(local));
        set.set("emitted_bits", emitted_[l]);
        set.set("flushed_payload_bits", outputCtrl_->payloadBits(local));
        set.set("finished_at_cycle", puStats_[l].finishedAtCycle);
        set.set("contained", slot.failed ? 1 : 0);
        set.set("jobs_retired", slot.jobsRetired);
        slot.pu->appendCounters(set);
        out.counters.push_back(std::move(set));
    }
    return out;
}

std::string
ChannelShard::watchdogDump(uint64_t stalled_cycles) const
{
    std::ostringstream os;
    os << "channel " << channelIndex_ << " made no forward progress for "
       << stalled_cycles << " cycles (cycle " << cycles_
       << "): no PU retired a token and no DRAM beat moved\n";
    for (size_t l = 0; l < pus_.size(); ++l) {
        const PuSlot &slot = pus_[l];
        os << "  PU " << slot.globalIndex << " (local " << l
           << "): " << stallReason(static_cast<int>(l)) << "; in-fifo "
           << inputCtrl_->buffer(static_cast<int>(l)).sizeBits()
           << " bits, out-fifo "
           << outputCtrl_->buffer(static_cast<int>(l)).sizeBits()
           << " bits, emitted " << emitted_[l] << " bits, starved "
           << puStats_[l].inputStarvedCycles << " cycles, blocked "
           << puStats_[l].outputBlockedCycles << " cycles\n";
    }
    os << "  input-ctrl in-flight bursts " << inputCtrl_->inflightBursts()
       << ", output-ctrl pending bursts " << outputCtrl_->pendingBursts()
       << ", DRAM outstanding reads " << channel_->outstandingReads()
       << " / writes " << channel_->outstandingWrites();
    return os.str();
}

} // namespace system
} // namespace fleet
