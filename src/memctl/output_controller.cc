#include "memctl/output_controller.h"

#include <bit>
#include <cstring>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace memctl {

// Burst registers are read and written as little-endian 64-bit words.
static_assert(std::endian::native == std::endian::little);

OutputController::OutputController(dram::DramChannel &channel,
                                   const ControllerParams &params,
                                   std::vector<StreamRegion> regions)
    : channel_(channel), params_(params)
{
    int bus_bits = channel_.busWidthBytes() * 8;
    if (params_.burstBits % bus_bits != 0 || params_.burstBits < bus_bits) {
        fatal("OutputController: burst size must be a positive multiple "
              "of the bus width");
    }
    beatsPerBurst_ = params_.burstBits / bus_bits;

    // One-token skid: when the token width does not divide the burst
    // size, a buffer of exactly N bursts wedges — it fills to within
    // tokenBits-1 bits of a burst boundary, too full for the PU to push
    // and not full enough for the addressing unit to issue. The skid
    // keeps freeBits >= tokenBits whenever a burst is still short.
    uint64_t capacity =
        uint64_t(params_.burstBits) * std::max(1, params_.bufferBursts);
    if (params_.tokenBits > 0 && params_.burstBits % params_.tokenBits != 0)
        capacity += uint64_t(params_.tokenBits) - 1;
    for (auto &region : regions)
        pus_.push_back(PuState{region, BitFifo(capacity)});
    slots_.resize(params_.numBurstRegs);
    for (auto &slot : slots_)
        slot.data.resize(params_.burstBits / 8 + sizeof(uint64_t));
    const int count = static_cast<int>(pus_.size());
    live_ = LaneMask(count);
    ready_ = LaneMask(count);
    tokenFits_.assign(pus_.size(), 0);
    tokenWidth_ = params_.tokenBits;
    for (int p = 0; p < count; ++p)
        refreshReady(p);
    fillStamp_.assign(pus_.size(), 0);
}

void
OutputController::setTokenWidth(int bits)
{
    if (bits < 0 || bits > 64)
        panic("OutputController: bad token width ", bits);
    tokenWidth_ = bits;
    for (size_t p = 0; p < pus_.size(); ++p)
        refreshFits(static_cast<int>(p));
}

void
OutputController::setPuFinished(int pu)
{
    pus_[pu].finished = true;
    refreshReady(pu);
}

std::optional<OutputController::OverflowEvent>
OutputController::takeOverflowEvent()
{
    if (overflowEvents_.empty())
        return std::nullopt;
    OverflowEvent event = overflowEvents_.front();
    overflowEvents_.pop_front();
    return event;
}

bool
OutputController::puFlushed(int pu_index) const
{
    const PuState &pu = pus_[pu_index];
    if (!pu.finished)
        return false;
    if (pu.failed ? pu.bitsPendingFill != 0 : !pu.buffer.empty())
        return false;
    // Committed bursts stay in the order queue until every beat has been
    // transmitted (and thereby committed to channel memory).
    for (const auto &pending : orderQueue_)
        if (pending.pu == pu_index)
            return false;
    return true;
}

void
OutputController::rearmPu(int pu_index)
{
    PuState &pu = pus_[pu_index];
    if (!puFlushed(pu_index))
        panic("OutputController: rearmPu(", pu_index,
              ") with output still in flight");
    pu.buffer.clear();
    pu.burstsIssued = 0;
    pu.bitsAccepted = 0;
    pu.bitsPendingFill = 0;
    pu.finished = false;
    pu.flushIssued = false;
    pu.failed = false;
    refreshReady(pu_index);
}

bool
OutputController::done() const
{
    if (!orderQueue_.empty())
        return false;
    for (const auto &pu : pus_) {
        if (!pu.finished)
            return false;
        // An overflowed PU's uncommitted bits are dropped: only the bits
        // already committed to issued bursts still need to flush.
        if (pu.failed ? pu.bitsPendingFill != 0 : !pu.buffer.empty())
            return false;
    }
    return true;
}

void
OutputController::refreshReady(int pu_index)
{
    const PuState &pu = pus_[pu_index];
    // Bits already committed to an issued burst still sit in the buffer
    // until its burst register pops them; only uncommitted bits count.
    const uint64_t available = pu.buffer.sizeBits() - pu.bitsPendingFill;
    // Produced its last output (or was contained): skipped forever.
    const bool live = !pu.failed && !(pu.finished && available == 0);
    const bool ready =
        live && (available >= uint64_t(params_.burstBits) ||
                 (pu.finished && available > 0 && !pu.flushIssued));
    live_.set(pu_index, live);
    ready_.set(pu_index, ready);
    refreshFits(pu_index);
}

void
OutputController::issueAddresses()
{
    if (pus_.empty())
        return;
    if (static_cast<int>(orderQueue_.size()) >= params_.maxAheadRequests)
        return;
    if (!params_.asyncAddressSupply) {
        // Synchronous supply: one outstanding write burst at a time.
        if (!orderQueue_.empty())
            return;
    }
    if (!channel_.awReady())
        return;

    // Round-robin walk: non-blocking addressing visits only the ready
    // units; blocking addressing visits every live one and waits at
    // the first that is not ready.
    const int count = static_cast<int>(pus_.size());
    const int start = rrPointer_;
    const LaneMask &visit = params_.blockingAddressing ? live_ : ready_;
    for (int k = visit.cyclicOffset(start); k >= 0;
         k = visit.cyclicOffset(start, k + 1)) {
        const int p = (start + k) % count;
        PuState &pu = pus_[p];
        if (!ready_.test(p)) {
            rrPointer_ = p; // Wait for this PU's next output burst.
            return;
        }
        uint64_t burst_bytes = params_.burstBits / 8;
        uint64_t addr = pu.region.baseAddr + pu.burstsIssued * burst_bytes;
        if ((pu.burstsIssued + 1) * burst_bytes > pu.region.regionBytes) {
            // Contained overflow: no room for another burst. Keep the
            // bursts already issued (their data flushes normally), drop
            // the uncommitted remainder, and report the PU failed. The
            // rest of the channel is unaffected.
            pu.failed = true;
            pu.finished = true;
            pu.flushIssued = true;
            refreshReady(p);
            overflowEvents_.push_back(
                OverflowEvent{p, pu.region.regionBytes});
            continue;
        }
        uint64_t payload = std::min<uint64_t>(
            params_.burstBits, pu.buffer.sizeBits() - pu.bitsPendingFill);
        if (payload < uint64_t(params_.burstBits))
            pu.flushIssued = true; // Final partial burst.
        channel_.awPush(addr, beatsPerBurst_);
        orderQueue_.push_back(PendingBurst{p, payload, -1, 0});
        pu.burstsIssued++;
        pu.bitsAccepted += payload;
        pu.bitsPendingFill += payload;
        ++awIssued_;
        refreshReady(p);
        rrPointer_ = (p + 1) % count;
        return;
    }
    // Nothing issued: the walk went all the way round to `start`.
}

void
OutputController::assignSlots()
{
    for (auto &pending : orderQueue_) {
        if (pending.slot >= 0)
            continue;
        int free_slot = -1;
        for (size_t s = 0; s < slots_.size(); ++s) {
            if (!slots_[s].active) {
                free_slot = static_cast<int>(s);
                break;
            }
        }
        if (free_slot < 0)
            return;
        pending.slot = free_slot;
        BurstSlot &slot = slots_[free_slot];
        slot.active = true;
        slot.filledBits = 0;
        slot.payloadBits = pending.payloadBits;
        std::fill(slot.data.begin(), slot.data.end(), 0);
    }
}

void
OutputController::fillSlots()
{
    // A PU's bursts must pop its buffer in issue order; while an earlier
    // burst for the same PU is still filling, later ones wait.
    ++fillTick_;
    for (auto &pending : orderQueue_) {
        bool earlier_incomplete = fillStamp_[pending.pu] == fillTick_;
        bool this_incomplete =
            pending.slot < 0 ||
            slots_[pending.slot].filledBits <
                slots_[pending.slot].payloadBits;
        if (this_incomplete)
            fillStamp_[pending.pu] = fillTick_;
        if (pending.slot < 0 || earlier_incomplete)
            continue;
        BurstSlot &slot = slots_[pending.slot];
        if (slot.filledBits >= slot.payloadBits)
            continue;
        PuState &pu = pus_[pending.pu];
        uint64_t remaining = slot.payloadBits - slot.filledBits;
        int chunk = static_cast<int>(
            std::min<uint64_t>(params_.portWidth, remaining));
        if (pu.buffer.sizeBits() < uint64_t(chunk))
            continue; // Shouldn't starve: payload was buffered at issue.
        // Buffer and pending count fall together: the uncommitted bits,
        // and with them the PU's ready bits, are unchanged.
        uint64_t value = pu.buffer.pop(chunk);
        pu.bitsPendingFill -= chunk;
        refreshFits(pending.pu);
        // OR the chunk in at filledBits (the bits past it are still
        // zero): one 8-byte access when it fits one (the register is
        // padded for it), else byte by byte.
        const uint64_t bit_off = slot.filledBits;
        const int bit_shift = static_cast<int>(bit_off % 8);
        if (bit_shift + chunk <= 64) {
            uint8_t *at = slot.data.data() + bit_off / 8;
            uint64_t word;
            std::memcpy(&word, at, sizeof word);
            word |= truncTo(value, chunk) << bit_shift;
            std::memcpy(at, &word, sizeof word);
        } else {
            for (int put = 0; put < chunk;) {
                uint64_t byte = (bit_off + put) / 8;
                int shift = (bit_off + put) % 8;
                int piece = std::min(chunk - put, 8 - shift);
                slot.data[byte] |= uint8_t(
                    ((value >> put) & mask64(piece)) << shift);
                put += piece;
            }
        }
        slot.filledBits += chunk;
        bitsCollected_ += chunk;
    }
}

void
OutputController::transmit()
{
    if (orderQueue_.empty())
        return;
    PendingBurst &head = orderQueue_.front();
    if (head.slot < 0)
        return;
    BurstSlot &slot = slots_[head.slot];
    if (slot.filledBits < slot.payloadBits)
        return; // Head-of-line: wait until the oldest burst is complete.
    if (!channel_.wReady())
        return;
    int bus_bytes = channel_.busWidthBytes();
    channel_.wPush(slot.data.data() +
                   static_cast<size_t>(head.beatsSent) * bus_bytes);
    head.beatsSent++;
    if (head.beatsSent == beatsPerBurst_) {
        slot.active = false;
        orderQueue_.pop_front();
    }
}

void
OutputController::tick()
{
    issueAddresses();
    assignSlots();
    fillSlots();
    transmit();
}

void
OutputController::exportCounters(trace::CounterSet &out) const
{
    out.set("bits_collected", bitsCollected_);
    out.set("write_bursts_issued", awIssued_);
    out.set("burst_bits", params_.burstBits);
    out.set("beats_per_burst", beatsPerBurst_);
    out.set("pending_bursts", pendingBursts());
    uint64_t accepted = 0, failed = 0;
    for (const auto &pu : pus_) {
        accepted += pu.bitsAccepted;
        failed += pu.failed ? 1 : 0;
    }
    out.set("bits_accepted", accepted);
    out.set("pus_contained", failed);
}

} // namespace memctl
} // namespace fleet
