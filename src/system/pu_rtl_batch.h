#ifndef FLEET_SYSTEM_PU_RTL_BATCH_H
#define FLEET_SYSTEM_PU_RTL_BATCH_H

/**
 * @file
 * Tape-compiled RTL processing-unit backends (see rtl/tape.h and
 * rtl/batch_sim.h):
 *
 *  - RtlTapeEngine: the program compiled once — circuit, optimizer run,
 *    tape — shared by every PU replica instead of re-deriving it per
 *    unit;
 *  - RtlBatch + RtlBatchLane: PUs of a channel evaluated as lanes of
 *    one structure-of-arrays BatchSimulator. RtlBatch is a LaneGroup:
 *    ChannelShard drives the whole group per cycle (eval: gather the
 *    latched rows -> evalAll -> scatter the outputs; then step); a lane
 *    still works standalone as a ProcessingUnit (single-PU
 *    testbenches), evaluating and stepping only itself.
 */

#include <memory>
#include <vector>

#include "compile/compiler.h"
#include "rtl/batch_sim.h"
#include "rtl/tape.h"
#include "system/lane_group.h"
#include "system/pu.h"

namespace fleet {
namespace system {

/** One program compiled to a tape, shared by every replica. */
class RtlTapeEngine
{
  public:
    explicit RtlTapeEngine(const lang::Program &program);
    explicit RtlTapeEngine(compile::CompiledUnit unit);

    const compile::CompiledUnit &unit() const { return unit_; }
    const std::shared_ptr<const rtl::TapeProgram> &tape() const
    {
        return tape_;
    }

    /** Trace counters shared by every tape-backed unit. */
    void appendCounters(trace::CounterSet &out, int batch_width) const;

  private:
    compile::CompiledUnit unit_;
    std::shared_ptr<const rtl::TapeProgram> tape_;
};

/**
 * A channel group of tape-compiled PUs evaluated together in SoA
 * layout; the shard maps each lane to a local PU.
 */
class RtlBatch : public LaneGroup
{
  public:
    /**
     * `lanes` PUs. With a native kernel (rtl/jit.h) the simulator is
     * jit->lanes() wide — JitProgram::paddedLanes(tape, lanes), a whole
     * number of the kernel's vectors — and the lanes past `lanes` are
     * never driven; see rtl::BatchSimulator::attachJit.
     */
    RtlBatch(std::shared_ptr<const RtlTapeEngine> engine, int lanes,
             std::shared_ptr<const rtl::JitProgram> jit = nullptr);
    /** The resolved port rows point into this batch's own storage. */
    RtlBatch(const RtlBatch &) = delete;
    RtlBatch &operator=(const RtlBatch &) = delete;

    /** PU lanes, excluding any jit padding. */
    int lanes() const override { return lanes_; }
    const RtlTapeEngine &engine() const { return *engine_; }
    bool jitAttached() const { return sim_.jitAttached(); }

    /**
     * Write one lane's input ports straight into the simulator's SoA
     * input rows, resolved once at construction (an input port the
     * optimizer eliminated writes to a sink row).
     */
    void
    setLaneInputs(int lane, const PuInputs &in)
    {
        const uint64_t token = in.inputToken & tokenMask_;
        if (elem32_)
            rows32_.write(lane, token, in.inputValid, in.inputFinished,
                          in.outputReady);
        else
            rows64_.write(lane, token, in.inputValid, in.inputFinished,
                          in.outputReady);
    }
    /** Group path: gather every lane's latched rows into the input
     * rows, evaluate all lanes in one sweep, scatter the outputs. */
    void eval(const LaneRows &rows, const int *locals,
              const uint8_t *live) override;
    /** Clock edge for every lane (group path). */
    void step(const int *locals, const uint8_t *live) override;
    /** Evaluate one lane only (standalone-lane path). */
    void evalLane(int lane);
    /** One lane's output ports, read straight from the output rows. */
    PuOutputs
    laneOutputs(int lane) const
    {
        return elem32_ ? rows32_.read(lane) : rows64_.read(lane);
    }
    void stepLane(int lane);
    void resetLane(int lane);

  private:
    /** The unit's port rows in one element type (see
     * rtl::BatchSimulator::row). */
    template <typename T>
    struct PortRows
    {
        /** inputToken, inputValid, inputFinished, outputReady. */
        T *in[4] = {};
        /** inputReady, outputToken, outputValid, outputFinished. */
        const T *out[4] = {};

        void
        write(int lane, uint64_t token, bool valid, bool finished,
              bool ready) const
        {
            in[0][lane] = T(token);
            in[1][lane] = valid;
            in[2][lane] = finished;
            in[3][lane] = ready;
        }
        PuOutputs
        read(int lane) const
        {
            PuOutputs o;
            o.inputReady = out[0][lane] != 0;
            o.outputToken = out[1][lane];
            o.outputValid = out[2][lane] != 0;
            o.outputFinished = out[3][lane] != 0;
            return o;
        }
    };

    template <typename T>
    void resolveRows(PortRows<T> &rows, std::vector<T> &sink);
    template <typename T, typename RowOf>
    void evalRows(const PortRows<T> &ports, const LaneRows &rows,
                  RowOf row_of);

    std::shared_ptr<const RtlTapeEngine> engine_;
    int lanes_;
    rtl::BatchSimulator sim_;
    bool elem32_;
    uint64_t tokenMask_ = 0;
    /** Exactly one set is resolved, per sim_.elementBits(). */
    PortRows<uint32_t> rows32_;
    PortRows<uint64_t> rows64_;
    std::vector<uint32_t> sink32_;
    std::vector<uint64_t> sink64_;
};

/**
 * ProcessingUnit view of one batch lane. When its ChannelShard has the
 * batch attached, eval()/step() are bypassed in favour of the group
 * calls; standalone (e.g. under the single-PU testbench) the lane
 * evaluates and steps only itself and is bit-identical to an RtlPu.
 */
class RtlBatchLane : public ProcessingUnit
{
  public:
    RtlBatchLane(std::shared_ptr<RtlBatch> batch, int lane);

    void reset() override;
    PuOutputs eval(const PuInputs &inputs) override;
    void step() override;
    int inputTokenWidth() const override
    {
        return batch_->engine().unit().inputTokenWidth;
    }
    int outputTokenWidth() const override
    {
        return batch_->engine().unit().outputTokenWidth;
    }
    void appendCounters(trace::CounterSet &out) const override;

    RtlBatch &batch() { return *batch_; }
    int lane() const { return lane_; }

  private:
    std::shared_ptr<RtlBatch> batch_;
    int lane_;
};

} // namespace system
} // namespace fleet

#endif // FLEET_SYSTEM_PU_RTL_BATCH_H
