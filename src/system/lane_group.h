#ifndef FLEET_SYSTEM_LANE_GROUP_H
#define FLEET_SYSTEM_LANE_GROUP_H

/**
 * @file
 * The one engine path of a ChannelShard's cycle loop. Every local
 * processing unit of a shard belongs to exactly one lane group; a
 * group evaluates and clocks all of its lanes per cycle. RtlBatch
 * (pu_rtl_batch.h) is the vectorized kind — one structure-of-arrays
 * BatchSimulator for every lane — and UnitGroup below drives per-unit
 * engines (Fast, RtlInterp) one eval()/step() per unit.
 *
 * The shard and its groups share per-local dense rows (LaneRows): the
 * latch writes each local's latched input bits into its handshake
 * byte; a group's eval() reads them, with the input token, for each of
 * its lanes through the group's lane -> local map and ORs the output
 * bits back in, storing the output token alongside. Groups never touch
 * the controllers, so the shard's handshake pass sees exactly the
 * latched view.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "system/pu.h"

namespace fleet {
namespace system {

/** Bits of a lane's handshake byte: the latched inputs, then the
 * outputs. */
enum : uint8_t
{
    kInputValid = 1,
    kInputFinished = 2,
    kOutputReady = 4,
    kInputReady = 8,
    kOutputValid = 16,
    kOutputFinished = 32,
};

/** Per-local rows of one cycle, indexed by local PU. */
struct LaneRows
{
    /** The input buffer's head token; 0 unless a whole token is
     * buffered. */
    const uint64_t *inToken = nullptr;
    /** Latched input bits in, output bits ORed in by eval(). */
    uint8_t *handshake = nullptr;
    /** Output token, written by eval(). */
    uint64_t *outToken = nullptr;
};

class LaneGroup
{
  public:
    virtual ~LaneGroup() = default;

    /** Lanes driven. */
    virtual int lanes() const = 0;

    /**
     * Evaluate every lane from its row's latched bits and write its
     * outputs back. Lane i is row locals[i] of `rows` and `live`, or
     * row i when locals is null. A lane whose row is not live
     * (contained or parked) latched no input bits; nothing reads its
     * outputs.
     */
    virtual void eval(const LaneRows &rows, const int *locals,
                      const uint8_t *live) = 0;

    /** Clock edge for every lane (rows as in eval()). */
    virtual void step(const int *locals, const uint8_t *live) = 0;
};

/**
 * Per-unit engines as one group: eval() and step() call each live
 * unit's ProcessingUnit in lane order; units that are not live are
 * neither evaluated nor clocked.
 */
class UnitGroup : public LaneGroup
{
  public:
    explicit UnitGroup(std::vector<ProcessingUnit *> units)
        : units_(std::move(units))
    {
    }

    int lanes() const override { return static_cast<int>(units_.size()); }

    void
    eval(const LaneRows &rows, const int *locals,
         const uint8_t *live) override
    {
        for (size_t i = 0; i < units_.size(); ++i) {
            const size_t l = locals ? size_t(locals[i]) : i;
            if (!live[l])
                continue;
            const uint8_t hs = rows.handshake[l];
            const PuOutputs out = units_[i]->eval(
                PuInputs{rows.inToken[l], bool(hs & kInputValid),
                         bool(hs & kInputFinished),
                         bool(hs & kOutputReady)});
            rows.handshake[l] = uint8_t(
                hs | out.inputReady * kInputReady |
                out.outputValid * kOutputValid |
                out.outputFinished * kOutputFinished);
            rows.outToken[l] = out.outputToken;
        }
    }

    void
    step(const int *locals, const uint8_t *live) override
    {
        for (size_t i = 0; i < units_.size(); ++i)
            if (live[locals ? size_t(locals[i]) : i])
                units_[i]->step();
    }

  private:
    std::vector<ProcessingUnit *> units_;
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_LANE_GROUP_H
