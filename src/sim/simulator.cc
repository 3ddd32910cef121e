#include "sim/simulator.h"

#include <algorithm>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace sim {

using lang::LValue;

FunctionalSimulator::FunctionalSimulator(const lang::Program &program,
                                         SimOptions options)
    : FunctionalSimulator(Tape::compile(program), options)
{
}

FunctionalSimulator::FunctionalSimulator(std::shared_ptr<const Tape> tape,
                                         SimOptions options)
    : tape_(std::move(tape)), options_(options)
{
    const Tape &t = *tape_;
    done_.assign(t.numFlags, 0);
    regWritten_.assign(t.program.regs.size(), 0);
    vecWritten_.assign(t.vregElements, 0);
    readAddr_.assign(t.program.brams.size(), -1);
    writeAddr_.assign(t.program.brams.size(), -1);
    writes_.reserve(t.flat.assigns.size());
    sigBits_.assign((t.numActions() + 63) / 64, 0);
    reset();
}

void
FunctionalSimulator::reset()
{
    slots_ = tape_->initialSlots;
    mem_ = tape_->initialMem;
    prevWriteAddr_.assign(tape_->program.brams.size(), -1);
    streamFinished_ = false;
    tokenIndex_ = 0;
    setCurrentToken(0);
}

void
FunctionalSimulator::setCurrentToken(uint64_t token)
{
    slots_[tape_->inputSlot] = token;
    slots_[tape_->finishedSlot] = streamFinished_ ? 1 : 0;
}

void
FunctionalSimulator::violation(const std::string &message) const
{
    fatal(tape_->program.name, ": restriction violation at ",
          streamFinished_ ? "cleanup cycle" : "token",
          streamFinished_ ? std::string() : " " + std::to_string(tokenIndex_),
          ": ", message);
}

void
FunctionalSimulator::setSignatureBit(size_t action)
{
    sigBits_[action / 64] |= uint64_t(1) << (action % 64);
}

void
FunctionalSimulator::checkRead(const TapeOp &op, RunResult &result)
{
    const int id = tape_->flat.bramReads[op.dst].bramId;
    const auto &bram = tape_->program.bram(id);
    const uint64_t addr = slots_[op.a];
    if (addr >= uint64_t(bram.elements)) {
        violation("BRAM " + bram.name + " read address " +
                  std::to_string(addr) + " out of range (" +
                  std::to_string(bram.elements) + " elements)");
    }
    if (readAddr_[id] >= 0 && readAddr_[id] != int64_t(addr)) {
        violation("BRAM " + bram.name +
                  " read at two addresses in one virtual cycle (" +
                  std::to_string(readAddr_[id]) + " and " +
                  std::to_string(addr) + ")");
    }
    readAddr_[id] = int64_t(addr);
    if (prevWriteAddr_[id] == int64_t(addr))
        result.usedBramForwarding = true;
}

void
FunctionalSimulator::fireAssign(const TapeOp &op)
{
    const TapeAssign &target = tape_->assigns[op.dst];
    const lang::Program &program = tape_->program;
    setSignatureBit(op.dst);
    uint64_t index = 0;
    switch (target.kind) {
      case LValue::Kind::Reg:
        if (regWritten_[target.stateId] == epoch_) {
            violation("register " + program.reg(target.stateId).name +
                      " assigned twice in one virtual cycle");
        }
        regWritten_[target.stateId] = epoch_;
        break;
      case LValue::Kind::VecElem: {
        const auto &vreg = program.vreg(target.stateId);
        index = slots_[op.b];
        if (index >= target.elements) {
            violation("vector register " + vreg.name + " write index " +
                      std::to_string(index) + " out of range");
        }
        uint32_t &written = vecWritten_[target.memBase + index];
        if (written == epoch_) {
            violation("vector register " + vreg.name + " element " +
                      std::to_string(index) +
                      " assigned twice in one virtual cycle");
        }
        written = epoch_;
        break;
      }
      case LValue::Kind::BramElem: {
        const auto &bram = program.bram(target.stateId);
        index = slots_[op.b];
        if (index >= target.elements) {
            violation("BRAM " + bram.name + " write address " +
                      std::to_string(index) + " out of range");
        }
        if (writeAddr_[target.stateId] >= 0) {
            violation("BRAM " + bram.name +
                      " written twice in one virtual cycle");
        }
        writeAddr_[target.stateId] = int64_t(index);
        break;
      }
    }
    writes_.push_back({op.dst, index, truncTo(slots_[op.a], target.width)});
}

void
FunctionalSimulator::fireEmit(const TapeOp &op, RunResult &result)
{
    if (emitted_)
        violation("multiple emits in one virtual cycle");
    setSignatureBit(tape_->flat.assigns.size() + op.dst);
    emitted_ = true;
    result.output.appendBits(slots_[op.a], tape_->program.outputTokenWidth);
    ++result.emits;
}

void
FunctionalSimulator::execTape(RunResult &result)
{
    const TapeOp *ops = tape_->ops.data();
    uint64_t *s = slots_.data();
    const uint64_t *mem = mem_.data();
    for (const TapeOp *op = ops;; ++op) {
        switch (op->code) {
#define FLEET_TAPE_BINOP(name)                                             \
          case TapeOpcode::name:                                           \
            s[op->dst] =                                                   \
                applyBinOp<BinOp::name>(s[op->a], op->wa, s[op->b], op->wb); \
            break;
            FLEET_FOR_EACH_BINOP(FLEET_TAPE_BINOP)
#undef FLEET_TAPE_BINOP
#define FLEET_TAPE_UNOP(name)                                              \
          case TapeOpcode::name:                                           \
            s[op->dst] = applyUnOp<UnOp::name>(s[op->a], op->wa);         \
            break;
            FLEET_FOR_EACH_UNOP(FLEET_TAPE_UNOP)
#undef FLEET_TAPE_UNOP
          case TapeOpcode::Slice:
            s[op->dst] = bitsOf(s[op->a], op->wa, op->wb);
            break;
          case TapeOpcode::Concat:
            s[op->dst] = (s[op->a] << op->wb) | s[op->b];
            break;
          case TapeOpcode::Select:
            s[op->dst] = s[op->c] ? s[op->a] : s[op->b];
            break;
          case TapeOpcode::Mov:
            s[op->dst] = s[op->a];
            break;
          case TapeOpcode::Load: {
            // Out-of-range reads return 0, matching the hardware mux
            // tree's don't-care behaviour; gated BRAM reads are range
            // checked by CheckRead.
            const uint64_t index = s[op->a];
            s[op->dst] = index < op->c ? mem[op->b + index] : 0;
            break;
          }
          case TapeOpcode::Jump:
            op = ops + op->dst - 1;
            break;
          case TapeOpcode::JumpIfZero:
            if (s[op->a] == 0)
                op = ops + op->dst - 1;
            break;
          case TapeOpcode::JumpIfNonZero:
            if (s[op->a] != 0)
                op = ops + op->dst - 1;
            break;
          case TapeOpcode::Guard:
            if (done_[op->a] == epoch_)
                op = ops + op->dst - 1;
            else
                done_[op->a] = epoch_;
            break;
          case TapeOpcode::CheckRead:
            checkRead(*op, result);
            break;
          case TapeOpcode::Assign:
            fireAssign(*op);
            break;
          case TapeOpcode::Emit:
            fireEmit(*op, result);
            break;
          case TapeOpcode::End:
            return;
        }
    }
}

bool
FunctionalSimulator::runVcycle(RunResult &result)
{
    // New virtual cycle: bumping the epoch clears every tagged flag.
    if (++epoch_ == 0) {
        std::fill(done_.begin(), done_.end(), 0);
        std::fill(regWritten_.begin(), regWritten_.end(), 0);
        std::fill(vecWritten_.begin(), vecWritten_.end(), 0);
        epoch_ = 1;
    }
    std::fill(readAddr_.begin(), readAddr_.end(), -1);
    std::fill(writeAddr_.begin(), writeAddr_.end(), -1);
    std::fill(sigBits_.begin(), sigBits_.end(), 0);
    writes_.clear();
    emitted_ = false;

    execTape(result);
    // Read before the commit: the while slot may be a register.
    const bool while_active = slots_[tape_->whileSlot] != 0;

    // Commit: every write read pre-cycle state, so apply them only now.
    for (const PendingWrite &write : writes_) {
        const TapeAssign &target = tape_->assigns[write.assign];
        if (target.kind == LValue::Kind::Reg)
            slots_[target.stateId] = write.value;
        else
            mem_[target.memBase + write.index] = write.value;
    }
    prevWriteAddr_.swap(writeAddr_);

    ++result.vcycles;
    if (options_.recordTrace) {
        uint8_t flags = 0;
        if (!while_active)
            flags |= kVcycleConsumesToken;
        if (emitted_)
            flags |= kVcycleEmits;
        result.trace.push_back(flags);
    }
    return !while_active;
}

void
FunctionalSimulator::beginStream(const BitBuffer &input)
{
    const lang::Program &program = tape_->program;
    if (input.sizeBits() % program.inputTokenWidth != 0) {
        fatal(program.name, ": input stream of ", input.sizeBits(),
              " bits is not a whole number of ", program.inputTokenWidth,
              "-bit tokens");
    }
    reset();
    input_ = input;
    tokenCount_ = input.sizeBits() / program.inputTokenWidth;
    result_ = RunResult();
    vcyclesThisToken_ = 0;
    if (tokenCount_ == 0) {
        phase_ = Phase::Cleanup;
        streamFinished_ = true;
        setCurrentToken(0);
    } else {
        phase_ = Phase::Tokens;
        setCurrentToken(input_.readBits(0, program.inputTokenWidth));
    }
}

uint8_t
FunctionalSimulator::stepVcycle(std::vector<uint8_t> *signature)
{
    const lang::Program &program = tape_->program;
    if (phase_ == Phase::Done)
        fatal(program.name, ": stepVcycle after stream completion");
    uint64_t emits_before = result_.emits;
    bool consumed = runVcycle(result_);
    if (signature) {
        signature->resize(tape_->numActions());
        for (size_t a = 0; a < signature->size(); ++a)
            (*signature)[a] = (sigBits_[a / 64] >> (a % 64)) & 1;
    }
    uint8_t flags = 0;
    if (consumed)
        flags |= kVcycleConsumesToken;
    if (result_.emits != emits_before)
        flags |= kVcycleEmits;

    if (!consumed) {
        if (++vcyclesThisToken_ > options_.maxVcyclesPerToken) {
            fatal(program.name, ": while loop exceeded ",
                  options_.maxVcyclesPerToken,
                  " virtual cycles for one token (infinite loop?)");
        }
        return flags;
    }
    vcyclesThisToken_ = 0;
    if (phase_ == Phase::Tokens) {
        ++result_.tokens;
        ++tokenIndex_;
        if (tokenIndex_ < tokenCount_) {
            setCurrentToken(input_.readBits(
                tokenIndex_ * program.inputTokenWidth,
                program.inputTokenWidth));
        } else {
            // Stream-finished cleanup: the logic runs once more with a
            // dummy token, including any while iterations it triggers.
            phase_ = Phase::Cleanup;
            streamFinished_ = true;
            setCurrentToken(0);
        }
    } else {
        phase_ = Phase::Done;
    }
    return flags;
}

RunResult
FunctionalSimulator::run(const BitBuffer &input)
{
    beginStream(input);
    while (!streamDone())
        stepVcycle();
    return std::move(result_);
}

} // namespace sim
} // namespace fleet
