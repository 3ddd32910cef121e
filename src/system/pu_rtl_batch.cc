#include "system/pu_rtl_batch.h"

#include "rtl/jit.h"
#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace system {

namespace {

// The group gather and scatter, one loop per element width, each
// vectorizing when the rows are consecutive. Restrict-qualified
// parameters spare the loops their run-time alias checks, which
// dominate at a handful of lanes.

template <typename T, typename RowOf>
void
gatherInputs(int lanes, RowOf row_of, uint64_t token_mask,
             const uint64_t *__restrict in_token,
             const uint8_t *__restrict handshake, T *__restrict token,
             T *__restrict valid, T *__restrict finished,
             T *__restrict ready)
{
    for (int i = 0; i < lanes; ++i)
        token[i] = T(in_token[row_of(i)] & token_mask);
    for (int i = 0; i < lanes; ++i) {
        const T hs = handshake[row_of(i)];
        valid[i] = hs & kInputValid;
        finished[i] = hs >> 1 & 1;
        ready[i] = hs >> 2 & 1;
    }
}

/** The one-bit ports hold 0 or 1 (engine values are width-masked), so
 * each port's low bit is its value. */
template <typename T, typename RowOf>
void
scatterOutputs(int lanes, RowOf row_of, const T *__restrict input_ready,
               const T *__restrict out_token, const T *__restrict out_valid,
               const T *__restrict out_finished,
               uint8_t *__restrict handshake, uint64_t *__restrict out)
{
    for (int i = 0; i < lanes; ++i)
        handshake[row_of(i)] |= uint8_t((input_ready[i] & 1) * kInputReady |
                                        (out_valid[i] & 1) * kOutputValid |
                                        (out_finished[i] & 1) *
                                            kOutputFinished);
    for (int i = 0; i < lanes; ++i)
        out[row_of(i)] = out_token[i];
}

} // namespace

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
            // A row per port: the group gather writes the four rows
            // through restrict pointers.
            sink.resize(4 * size_t(sim_.lanes()));
            rows.in[i] = sink.data() + i * size_t(sim_.lanes());
        }
    }
    const rtl::NodeId out_nodes[4] = {
        unit.outInputReady, unit.outOutputToken, unit.outOutputValid,
        unit.outOutputFinished};
    for (int i = 0; i < 4; ++i)
        rows.out[i] = sim_.row<T>(tape.slotOf(out_nodes[i]));
}

void
RtlBatch::eval(const LaneRows &rows, const int *locals, const uint8_t *)
{
    // A row that is not live latched no input bits; its lane is
    // evaluated on them and its outputs are never read. Consecutive
    // rows (no lane map) keep both sweeps free of indexed accesses.
    auto mapped = [locals](int i) { return locals[i]; };
    auto direct = [](int i) { return i; };
    if (elem32_ && locals)
        evalRows(rows32_, rows, mapped);
    else if (elem32_)
        evalRows(rows32_, rows, direct);
    else if (locals)
        evalRows(rows64_, rows, mapped);
    else
        evalRows(rows64_, rows, direct);
}

template <typename T, typename RowOf>
void
RtlBatch::evalRows(const PortRows<T> &ports, const LaneRows &rows,
                   RowOf row_of)
{
    gatherInputs(lanes_, row_of, tokenMask_, rows.inToken, rows.handshake,
                 ports.in[0], ports.in[1], ports.in[2], ports.in[3]);
    sim_.evalAll();
    scatterOutputs(lanes_, row_of, ports.out[0], ports.out[1],
                   ports.out[2], ports.out[3], rows.handshake,
                   rows.outToken);
}

void
RtlBatch::evalLane(int lane)
{
    sim_.evalLane(lane);
}

void
RtlBatch::step(const int *, const uint8_t *)
{
    // Lanes that are not live advance too; nothing observes them until
    // a re-arm resets the lane.
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
