#ifndef FLEET_MEMCTL_OUTPUT_CONTROLLER_H
#define FLEET_MEMCTL_OUTPUT_CONTROLLER_H

/**
 * @file
 * Round-robin output controller for one memory channel — symmetric to the
 * input controller (Section 5). The addressing unit issues a write
 * address once a processing unit has a full burst buffered (or a final
 * partial burst after output_finished); burst registers fill from the
 * per-PU output buffers in parallel at w bits per cycle; completed bursts
 * are transmitted to the AXI W channel in address order. The addressing
 * unit is non-blocking by default, since filter-style units produce
 * output at dramatically different rates (paper, Section 5).
 *
 * Failure containment (ISSUE 2): a processing unit whose output would
 * exceed its DRAM region is *contained*, not fatal — the controller
 * stops issuing bursts for it, flushes what was already committed, drops
 * the uncommitted remainder, and raises an OverflowEvent so the shard
 * can record a per-PU OutputOverflow outcome while every other unit on
 * the channel keeps running.
 */

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "dram/dram.h"
#include "memctl/bitfifo.h"
#include "memctl/lane_mask.h"
#include "memctl/params.h"

namespace fleet {
namespace memctl {

class OutputController
{
  public:
    OutputController(dram::DramChannel &channel,
                     const ControllerParams &params,
                     std::vector<StreamRegion> regions);

    /** Per-PU output buffer the processing unit emits tokens into. */
    const BitFifo &buffer(int pu) const { return pus_[pu].buffer; }

    /** The PU emits one `width`-bit token into its buffer (the caller
     * checks freeBits). Emits go through the controller, which keeps
     * the addressing unit's ready set current. */
    void
    push(int pu, uint64_t value, int width)
    {
        pus_[pu].buffer.push(value, width);
        refreshReady(pu);
    }

    /// @name Lane view: what the shard's latch reads, one dense entry
    /// per PU, derived from the buffers at the token width.
    /// @{
    /** Width the view reads at; set before the first cycle. */
    void setTokenWidth(int bits);
    /** Per PU: 1 when a whole token fits the buffer (output_ready). */
    const uint8_t *tokenFits() const { return tokenFits_.data(); }
    /// @}

    /** Inform the controller the PU asserted output_finished. */
    void setPuFinished(int pu);

    /** A PU whose next burst would exceed its output region. */
    struct OverflowEvent
    {
        int pu;
        uint64_t regionBytes; ///< The region it overflowed.
    };

    /** Oldest undelivered overflow event, if any. */
    std::optional<OverflowEvent> takeOverflowEvent();

    /** True once the PU was contained for output-region overflow. */
    bool puFailed(int pu) const { return pus_[pu].failed; }

    /**
     * True once the PU has finished (or been contained) and every bit it
     * committed has left the controller: no uncommitted output remains
     * (for a contained PU the uncommitted remainder was dropped), no
     * burst of its is still filling or awaiting transmission, so its
     * payloadBits() are all in channel memory (writes commit to memory
     * as their beats are pushed). The gate for re-arming the lane.
     */
    bool puFlushed(int pu) const;

    /**
     * Re-arm one PU's lane for the next job's output stream: resets the
     * finished / flushIssued / failed protocol state (all one-way within
     * a single job), the burst and payload accounting, and the buffer.
     * The lane must be flushed (puFlushed); the fixed output region is
     * reused, so the caller must read back the previous job's output
     * first. Shared structures (burst registers, order queue,
     * round-robin pointer) are untouched.
     */
    void rearmPu(int pu);

    /** All output flushed to channel memory for every finished PU. */
    bool done() const;

    /** Total payload bits written for one PU (for host readback). */
    uint64_t payloadBits(int pu) const { return pus_[pu].bitsAccepted; }

    /** Advance one cycle (call before the channel's tick()). */
    void tick();

    /// @name Statistics.
    /// @{
    uint64_t bitsCollected() const { return bitsCollected_; }
    uint64_t awIssued() const { return awIssued_; }
    /** Dump the controller's native counters into `out` (trace layer). */
    void exportCounters(trace::CounterSet &out) const;
    /** Issued-but-untransmitted bursts (addressing-unit lead; utilization
     * diagnostics). */
    int pendingBursts() const
    {
        return static_cast<int>(orderQueue_.size());
    }
    /// @}

  private:
    struct PuState
    {
        StreamRegion region;
        BitFifo buffer;
        uint64_t burstsIssued = 0;
        uint64_t bitsAccepted = 0; ///< Payload bits committed to bursts.
        uint64_t bitsPendingFill = 0; ///< Committed but not yet popped.
        bool finished = false;
        bool flushIssued = false; ///< Final partial burst issued.
        bool failed = false;      ///< Contained overflow: uncommitted
                                  ///< bits are dropped, not flushed.
    };

    struct PendingBurst
    {
        int pu;
        uint64_t payloadBits; ///< Real bits (rest of the burst is padding).
        int slot = -1;        ///< Burst register, -1 until assigned.
        int beatsSent = 0;
    };

    struct BurstSlot
    {
        bool active = false;
        uint64_t filledBits = 0;
        uint64_t payloadBits = 0;
        int owner = -1; ///< Index into orderQueue_ at assignment time is
                        ///< not stable; slots are referenced from
                        ///< PendingBurst::slot instead.
        std::vector<uint8_t> data;
    };

    void assignSlots();
    void fillSlots();
    void transmit();
    void issueAddresses();
    /** Re-derive the PU's bits in live_ and ready_, and its lane view,
     * after a change to its buffer, bitsPendingFill or protocol
     * flags. */
    void refreshReady(int pu);
    void
    refreshFits(int pu)
    {
        tokenFits_[pu] =
            pus_[pu].buffer.freeBits() >= uint64_t(tokenWidth_);
    }

    dram::DramChannel &channel_;
    ControllerParams params_;
    std::vector<PuState> pus_;
    std::vector<BurstSlot> slots_;
    /**
     * The addressing unit's round-robin walk visits set bits only.
     * live_: units it does not skip forever — neither contained nor
     * finished with every bit committed. ready_: live units with a
     * burst to issue now (a full burst of uncommitted bits, or the
     * final partial one).
     */
    LaneMask live_;
    LaneMask ready_;
    int tokenWidth_ = 0;
    std::vector<uint8_t> tokenFits_;
    /** fillSlots scratch: fillStamp_[pu] == fillTick_ marks a PU with
     * an earlier burst still filling this tick (no per-tick clear). */
    std::vector<uint64_t> fillStamp_;
    uint64_t fillTick_ = 0;
    std::deque<PendingBurst> orderQueue_;
    std::deque<OverflowEvent> overflowEvents_;
    int rrPointer_ = 0;
    int beatsPerBurst_;
    uint64_t bitsCollected_ = 0;
    uint64_t awIssued_ = 0;
};

} // namespace memctl
} // namespace fleet

#endif // FLEET_MEMCTL_OUTPUT_CONTROLLER_H
