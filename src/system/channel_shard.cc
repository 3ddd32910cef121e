#include "system/channel_shard.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include "system/pu_rtl_batch.h"
#include "trace/taxonomy.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/status.h"

namespace fleet {
namespace system {

namespace {

/** Bits of a lane's event byte: what its handshake does this cycle
 * (bit k is eventLanes' kind k). */
enum : unsigned
{
    kProduced = 1,
    kConsumed = 2,
    kFinishing = 4,
};

static_assert(int(memctl::InputController::kWholeToken) ==
                  int(kInputValid) &&
              int(memctl::InputController::kFinished) ==
                  int(kInputFinished));
// The byte rows are read and written eight lanes per 64-bit word, lane
// i in byte i.
static_assert(std::endian::native == std::endian::little);

uint64_t
loadWord(const uint8_t *bytes)
{
    uint64_t word;
    std::memcpy(&word, bytes, sizeof word);
    return word;
}

void
storeWord(uint8_t *bytes, uint64_t word)
{
    std::memcpy(bytes, &word, sizeof word);
}

/** The latch over a shard's dense rows: each live unit's input bits
 * from the controllers' lane views (zero when not live). */
void
latchHandshakes(int num_pus, const uint8_t *__restrict in_flags,
                const uint8_t *__restrict fits,
                const uint8_t *__restrict live, uint8_t *__restrict hs_row)
{
    for (int l = 0; l < num_pus; ++l)
        hs_row[l] = uint8_t((in_flags[l] | fits[l] * kOutputReady) &
                            -live[l]);
}

constexpr uint64_t kOnes = 0x0101010101010101ULL;

/** Handshake flag `flag` of each of eight lanes (one byte each),
 * moved to bit 0 of its byte. */
constexpr uint64_t
laneFlag(uint64_t hs, unsigned flag)
{
    return hs >> std::countr_zero(flag) & kOnes;
}

/** trace::inputStarved per lane: wants input, none valid, stream not
 * finished. */
constexpr uint64_t
starvedLanes(uint64_t hs)
{
    return laneFlag(hs, kInputReady) &
           ((laneFlag(hs, kInputValid) | laneFlag(hs, kInputFinished)) ^
            kOnes);
}

/** trace::outputBlocked per lane: output valid, not ready. */
constexpr uint64_t
blockedLanes(uint64_t hs)
{
    return laneFlag(hs, kOutputValid) & (laneFlag(hs, kOutputReady) ^ kOnes);
}

constexpr bool
lanesMatchTaxonomy()
{
    for (unsigned hs = 0; hs < 64; ++hs) {
        if (bool(starvedLanes(hs)) !=
            trace::inputStarved(hs & kInputReady, hs & kInputValid,
                                hs & kInputFinished))
            return false;
        if (bool(blockedLanes(hs)) !=
            trace::outputBlocked(hs & kOutputValid, hs & kOutputReady))
            return false;
    }
    return true;
}
static_assert(lanesMatchTaxonomy());

/**
 * The handshake's mask pass over a shard's dense rows, eight lanes per
 * 64-bit word (one byte each; every shift is masked back within its
 * byte): per lane, the produced / consumed / finishing event bits (0
 * unless live) and the stall counters' increments. A unit stays open
 * until it finishes; the counters follow the shared taxonomy while it
 * is open — two independent conditions, not the exclusive phase
 * partition the trace records. Returns whether any event bit is set;
 * sets all_finished when no live unit is open.
 */
bool
handshakeMasks(int words, const uint8_t *hs_row, const uint8_t *live,
               const uint8_t *finished, uint8_t *events, uint8_t *starved,
               uint8_t *blocked, bool &all_finished)
{
    uint64_t any_event = 0;
    uint64_t any_open = 0;
    for (int w = 0; w < words; ++w) {
        const uint64_t hs = loadWord(hs_row + 8 * w);
        const uint64_t on = loadWord(live + 8 * w);
        const uint64_t was_finished = loadWord(finished + 8 * w);
        const uint64_t out_finished = laneFlag(hs, kOutputFinished);
        const uint64_t produced =
            laneFlag(hs, kOutputValid) & laneFlag(hs, kOutputReady);
        const uint64_t consumed =
            laneFlag(hs, kInputReady) & laneFlag(hs, kInputValid);
        const uint64_t finishing = out_finished & (was_finished ^ kOnes);
        const uint64_t open = on & ((was_finished | out_finished) ^ kOnes);
        const uint64_t event = (produced * kProduced |
                                consumed * kConsumed |
                                finishing * kFinishing) &
                               on * 7;
        // Bytewise adds: a pending counter byte is folded before it
        // wraps, so no add carries into the next lane.
        storeWord(starved + 8 * w,
                  loadWord(starved + 8 * w) + (open & starvedLanes(hs)));
        storeWord(blocked + 8 * w,
                  loadWord(blocked + 8 * w) + (open & blockedLanes(hs)));
        storeWord(events + 8 * w, event);
        any_event |= event;
        any_open |= open;
    }
    all_finished = any_open == 0;
    return any_event != 0;
}

/**
 * One bit per lane of each event kind (indexed by the kind's bit
 * position), from `words` x 8 event bytes: at most 64 lanes.
 */
void
eventLanes(const uint8_t *events, int words, uint64_t (&lanes)[3])
{
    lanes[0] = lanes[1] = lanes[2] = 0;
    for (int w = 0; w < words; ++w) {
        const uint64_t word = loadWord(events + 8 * w);
        // Bit k of byte i sits at 8i + k; the multiply moves bit 8i to
        // 56 + i (no two partial products meet, so nothing carries).
        for (int k = 0; k < 3; ++k) {
            const uint64_t low = word >> k & kOnes;
            lanes[k] |= (low * 0x0102040810204080ULL >> 56) << (8 * w);
        }
    }
}

} // namespace

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
    // The byte rows the mask pass reads a word at a time are padded
    // with zeros to whole 64-bit words (a padding lane is not live).
    const size_t padded = roundUp(pus_.size(), 8);
    for (std::vector<uint8_t> *row :
         {&live_, &finished_, &handshake_, &events_, &starvedPending_,
          &blockedPending_})
        row->resize(padded, 0);
    live_[pus_.size() - 1] = 1;
    outToken_.push_back(0);
    emitted_.push_back(0);
    starved_.push_back(0);
    blocked_.push_back(0);
    finishedAt_.push_back(0);
    if (trace_)
        trace_->addPu(global_index);
}

void
ChannelShard::attachBatch(std::shared_ptr<RtlBatch> batch,
                          std::vector<int> locals)
{
    GroupBinding binding;
    binding.group = std::move(batch);
    binding.locals = std::move(locals);
    batches_.push_back(std::move(binding));
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

    // Resolve the lane groups: every local PU belongs to exactly one.
    // An empty locals list is the legacy arrangement: lane l <-> local
    // l, covering the whole channel.
    inputCtrl_->setTokenWidth(inWidth_);
    outputCtrl_->setTokenWidth(outWidth_);
    groups_.clear();
    std::vector<char> covered(pus_.size(), 0);
    for (const GroupBinding &binding : batches_) {
        const int lanes = binding.group->lanes();
        GroupBinding group = binding;
        if (group.locals.empty()) {
            if (lanes != numPus())
                panic("system: batched RTL engine has ", lanes,
                      " lanes for ", numPus(), " PUs");
            for (int l = 0; l < lanes; ++l)
                group.locals.push_back(l);
        }
        if (static_cast<int>(group.locals.size()) != lanes)
            panic("system: batched RTL engine has ", lanes,
                  " lanes but ", group.locals.size(),
                  " bound local PUs");
        for (int lane = 0; lane < lanes; ++lane) {
            const int local = group.locals[lane];
            if (local < 0 || local >= numPus())
                panic("system: batch lane ", lane,
                      " binds out-of-range local PU ", local);
            if (covered[local])
                panic("system: local PU ", local,
                      " bound to two batched engines");
            covered[local] = 1;
        }
        groups_.push_back(std::move(group));
    }
    GroupBinding units;
    std::vector<ProcessingUnit *> unit_pus;
    for (int l = 0; l < numPus(); ++l) {
        if (covered[l])
            continue;
        units.locals.push_back(l);
        unit_pus.push_back(pus_[l].pu.get());
    }
    if (!units.locals.empty()) {
        units.group = std::make_shared<UnitGroup>(std::move(unit_pus));
        groups_.push_back(std::move(units));
    }
    // Rows start at the group's first local; consecutive locals need no
    // lane map.
    for (GroupBinding &group : groups_) {
        const std::vector<int> &locals = group.locals;
        const int first = locals.empty() ? 0 : locals[0];
        bool consecutive = true;
        for (size_t i = 0; i < locals.size(); ++i)
            consecutive = consecutive && locals[i] == first + int(i);
        const int base = consecutive ? first : 0;
        group.rows = LaneRows{inputCtrl_->headTokens() + base,
                              handshake_.data() + base,
                              outToken_.data() + base};
        group.map = consecutive ? nullptr : locals.data();
        group.live = live_.data() + base;
    }
    state_ = ShardState::Active;
}

bool
ChannelShard::runHandshakes(bool &all_finished)
{
    const int num_pus = numPus();

    // Latch: every live unit's view of its controller buffers, read
    // from the controllers' dense lane views into the handshake bytes.
    // Pure reads of per-PU state, so gathering them all before any
    // handshake acts is identical to the interleaved order — and lets
    // each group evaluate all its lanes in one sweep. A unit that is
    // not live latches nothing.
    const uint8_t *live = live_.data();
    uint8_t *hs_row = handshake_.data();
    latchHandshakes(num_pus, inputCtrl_->laneFlags(),
                    outputCtrl_->tokenFits(), live, hs_row);
    for (const GroupBinding &group : groups_)
        group.group->eval(group.rows, group.map, group.live);

    // Masks: each live unit's produced / consumed / finishing bits and
    // its stall counters, without a branch per lane.
    const uint8_t *finished = finished_.data();
    uint8_t *events = events_.data();
    uint8_t *starved = starvedPending_.data();
    uint8_t *blocked = blockedPending_.data();
    const bool any_event = handshakeMasks(
        static_cast<int>(events_.size() / 8), hs_row, live, finished,
        events, starved, blocked, all_finished);
    if (++pendingCycles_ == kFoldCycles) {
        for (int l = 0; l < num_pus; ++l) {
            starved_[l] += starved[l];
            blocked_[l] += blocked[l];
            starved[l] = blocked[l] = 0;
        }
        pendingCycles_ = 0;
    }

    if (trace_) {
        for (int l = 0; l < num_pus; ++l) {
            const uint8_t hs = hs_row[l];
            trace::PuPhase phase;
            if (!live[l] || finished[l])
                phase = trace::PuPhase::Done;
            else if (events[l])
                phase = trace::PuPhase::Active;
            else
                phase = trace::phaseForStall(trace::classifyStall(
                    hs & kInputReady, hs & kInputValid,
                    hs & kInputFinished, hs & kOutputValid,
                    hs & kOutputReady));
            trace_->puCycle(l, cycles_, phase);
        }
    }

    // Commit: only the units whose handshake fired, in ascending local
    // order, 64 lanes at a time: first the pushes, then the pops, then
    // the finishes. Each touches only its own unit's buffers, so this
    // is the per-unit order push, pop, finish.
    const int in_width = inWidth_;
    const int out_width = outWidth_;
    const size_t num_bytes = events_.size();
    for (size_t base = 0; any_event && base < num_bytes; base += 64) {
        const int first = static_cast<int>(base);
        const int words = static_cast<int>(
            std::min<size_t>(8, (num_bytes - base) / 8));
        uint64_t lanes[3];
        eventLanes(events + base, words, lanes);
        for (uint64_t m = lanes[0]; m; m &= m - 1) {
            const int l = first + std::countr_zero(m);
            outputCtrl_->push(l, outToken_[l], out_width);
            emitted_[l] += out_width;
        }
        for (uint64_t m = lanes[1]; m; m &= m - 1)
            inputCtrl_->pop(first + std::countr_zero(m), in_width);
        for (uint64_t m = lanes[2]; m; m &= m - 1) {
            const int l = first + std::countr_zero(m);
            outputCtrl_->setPuFinished(l);
            finished_[l] = 1;
            finishedAt_[l] = cycles_;
        }
    }
    return any_event;
}

ShardState
ChannelShard::step(uint64_t budget)
{
    if (state_ != ShardState::Active)
        return state_;

    try {
        for (; budget > 0 && cycles_ < maxCycles_; ++cycles_, --budget) {
            bool all_finished = true;
            bool activity = runHandshakes(all_finished);

            inputCtrl_->tick();
            outputCtrl_->tick();
            channel_->tick();
            // One clock edge per lane group.
            for (const GroupBinding &group : groups_)
                group.group->step(group.map, group.live);

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
                slot.outcome.atCycle = finishedAt_[l];
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
    const PuStats stats = puStats(local);
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
    slot.statsAtArm = puStats(local);
    finishedAt_[local] = 0;
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
        const PuStats stats = puStats(static_cast<int>(l));
        stats_.inputStarvedCycles += stats.inputStarvedCycles;
        stats_.outputBlockedCycles += stats.outputBlockedCycles;
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
        set.set("finished_at_cycle", finishedAt_[l]);
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
        const PuStats stats = puStats(static_cast<int>(l));
        os << "  PU " << slot.globalIndex << " (local " << l
           << "): " << stallReason(static_cast<int>(l)) << "; in-fifo "
           << inputCtrl_->buffer(static_cast<int>(l)).sizeBits()
           << " bits, out-fifo "
           << outputCtrl_->buffer(static_cast<int>(l)).sizeBits()
           << " bits, emitted " << emitted_[l] << " bits, starved "
           << stats.inputStarvedCycles << " cycles, blocked "
           << stats.outputBlockedCycles
           << " cycles\n";
    }
    os << "  input-ctrl in-flight bursts " << inputCtrl_->inflightBursts()
       << ", output-ctrl pending bursts " << outputCtrl_->pendingBursts()
       << ", DRAM outstanding reads " << channel_->outstandingReads()
       << " / writes " << channel_->outstandingWrites();
    return os.str();
}

} // namespace system
} // namespace fleet
