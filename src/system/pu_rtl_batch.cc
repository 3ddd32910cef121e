#include "system/pu_rtl_batch.h"

#include "rtl/jit.h"
#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace system {

RtlTapeEngine::RtlTapeEngine(const lang::Program &program)
    : RtlTapeEngine(compile::compileProgram(program))
{
}

RtlTapeEngine::RtlTapeEngine(compile::CompiledUnit unit)
    : unit_(std::move(unit)),
      tape_(std::make_shared<const rtl::TapeProgram>(
          rtl::TapeProgram::compile(unit_.circuit)))
{
}

void
RtlTapeEngine::appendCounters(trace::CounterSet &out, int batch_width) const
{
    out.set("backend_rtl_tape", 1);
    out.set("tape_ops", tape_->ops.size());
    out.set("nodes_eliminated", tape_->nodesEliminated);
    out.set("batch_width", uint64_t(batch_width));
}

RtlBatch::RtlBatch(std::shared_ptr<const RtlTapeEngine> engine, int lanes,
                   std::shared_ptr<const rtl::JitProgram> jit)
    : engine_(std::move(engine)), lanes_(lanes),
      sim_(engine_->tape(), jit ? jit->lanes() : lanes)
{
    if (sim_.lanes() < lanes_)
        panic("system: jit kernel has ", sim_.lanes(), " lanes for ",
              lanes_, " PUs");
    if (jit)
        sim_.attachJit(std::move(jit));
    elem32_ = sim_.elementBits() == 32;
    tokenMask_ = mask64(
        engine_->tape()->inputWidth[engine_->unit().inInputToken]);
    if (elem32_)
        resolveRows(rows32_, sink32_);
    else
        resolveRows(rows64_, sink64_);
}

template <typename T>
void
RtlBatch::resolveRows(PortRows<T> &rows, std::vector<T> &sink)
{
    const auto &unit = engine_->unit();
    const rtl::TapeProgram &tape = *engine_->tape();
    const int in_ports[4] = {unit.inInputToken, unit.inInputValid,
                             unit.inInputFinished, unit.inOutputReady};
    for (int i = 0; i < 4; ++i) {
        int32_t slot = tape.inputSlot[in_ports[i]];
        if (slot >= 0) {
            rows.in[i] = sim_.row<T>(slot);
        } else {
            sink.resize(sim_.lanes());
            rows.in[i] = sink.data();
        }
    }
    const rtl::NodeId out_nodes[4] = {
        unit.outInputReady, unit.outOutputToken, unit.outOutputValid,
        unit.outOutputFinished};
    for (int i = 0; i < 4; ++i)
        rows.out[i] = sim_.row<T>(tape.slotOf(out_nodes[i]));
}

void
RtlBatch::evalAll()
{
    sim_.evalAll();
}

void
RtlBatch::evalLane(int lane)
{
    sim_.evalLane(lane);
}

void
RtlBatch::step()
{
    sim_.step();
}

void
RtlBatch::stepLane(int lane)
{
    sim_.stepLane(lane);
}

void
RtlBatch::resetLane(int lane)
{
    sim_.resetLane(lane);
}

RtlBatchLane::RtlBatchLane(std::shared_ptr<RtlBatch> batch, int lane)
    : batch_(std::move(batch)), lane_(lane)
{
}

void
RtlBatchLane::reset()
{
    batch_->resetLane(lane_);
}

PuOutputs
RtlBatchLane::eval(const PuInputs &inputs)
{
    batch_->setLaneInputs(lane_, inputs);
    batch_->evalLane(lane_);
    return batch_->laneOutputs(lane_);
}

void
RtlBatchLane::step()
{
    batch_->stepLane(lane_);
}

void
RtlBatchLane::appendCounters(trace::CounterSet &out) const
{
    batch_->engine().appendCounters(out, batch_->lanes());
    if (batch_->jitAttached())
        out.set("backend_rtl_jit", 1);
}

} // namespace system
} // namespace fleet
