#ifndef FLEET_TESTS_SIM_WALKER_ORACLE_H
#define FLEET_TESTS_SIM_WALKER_ORACLE_H

/**
 * @file
 * Test oracle for the functional simulator: a direct AST walker over the
 * flattened program with a per-virtual-cycle memo, i.e. the language's
 * reference semantics written as plainly as possible. The simulator
 * proper runs a compiled tape (sim/tape.h); sim_tape_diff_test asserts
 * the two agree on outputs, traces, signatures, counts and the text of
 * the first restriction violation.
 *
 * Semantics per virtual cycle:
 *  1. while conditions: if any holds, only loop bodies run and the input
 *     token is not consumed;
 *  2. BRAM read accounting, in flattened order;
 *  3. assignments, in flattened order (committed at the end of the cycle);
 *  4. emits, in flattened order;
 *  5. commit.
 */

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/ast.h"
#include "lang/flatten.h"
#include "sim/simulator.h"
#include "util/bitbuf.h"
#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace testoracle {

class WalkerSimulator
{
  public:
    explicit WalkerSimulator(const lang::Program &program,
                             sim::SimOptions options = {})
        : program_(program), flat_(lang::flatten(program_)),
          options_(options)
    {
        // Number every node reachable from the flattened program; the
        // memo below is indexed by these numbers.
        for (const auto &cond : flat_.whileConds)
            number(cond);
        for (const auto &occ : flat_.bramReads) {
            number(occ.addr);
            number(occ.cond);
        }
        for (const auto &assign : flat_.assigns) {
            number(assign.cond);
            number(assign.value);
            number(assign.target.index);
        }
        for (const auto &emit : flat_.emits) {
            number(emit.cond);
            number(emit.value);
        }
        cache_.assign(ids_.size(), 0);
        epochs_.assign(ids_.size(), 0);
        reset();
    }

    sim::RunResult
    run(const BitBuffer &input)
    {
        beginStream(input);
        while (!streamDone())
            stepVcycle();
        return std::move(result_);
    }

    void
    beginStream(const BitBuffer &input)
    {
        if (input.sizeBits() % program_.inputTokenWidth != 0) {
            fatal(program_.name, ": input stream of ", input.sizeBits(),
                  " bits is not a whole number of ",
                  program_.inputTokenWidth, "-bit tokens");
        }
        reset();
        input_ = input;
        tokenCount_ = input.sizeBits() / program_.inputTokenWidth;
        result_ = sim::RunResult();
        vcyclesThisToken_ = 0;
        if (tokenCount_ == 0) {
            phase_ = Phase::Cleanup;
            streamFinished_ = true;
            currentToken_ = 0;
        } else {
            phase_ = Phase::Tokens;
            currentToken_ = input_.readBits(0, program_.inputTokenWidth);
        }
    }

    bool streamDone() const { return phase_ == Phase::Done; }

    uint8_t
    stepVcycle(std::vector<uint8_t> *signature = nullptr)
    {
        if (phase_ == Phase::Done)
            fatal(program_.name, ": stepVcycle after stream completion");
        uint64_t emits_before = result_.emits;
        bool consumed = runVcycle(result_, signature);
        uint8_t flags = 0;
        if (consumed)
            flags |= sim::kVcycleConsumesToken;
        if (result_.emits != emits_before)
            flags |= sim::kVcycleEmits;
        if (!consumed) {
            if (++vcyclesThisToken_ > options_.maxVcyclesPerToken) {
                fatal(program_.name, ": while loop exceeded ",
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
                currentToken_ = input_.readBits(
                    tokenIndex_ * program_.inputTokenWidth,
                    program_.inputTokenWidth);
            } else {
                phase_ = Phase::Cleanup;
                streamFinished_ = true;
                currentToken_ = 0;
            }
        } else {
            phase_ = Phase::Done;
        }
        return flags;
    }

    const sim::RunResult &partialResult() const { return result_; }

  private:
    enum class Phase { Tokens, Cleanup, Done };

    void
    number(const lang::Expr &e)
    {
        if (!e || ids_.count(e.get()))
            return;
        ids_.emplace(e.get(), ids_.size());
        number(e->a);
        number(e->b);
        number(e->c);
    }

    void
    reset()
    {
        regs_.clear();
        for (const auto &reg : program_.regs)
            regs_.push_back(reg.init);
        vregs_.clear();
        for (const auto &vreg : program_.vregs)
            vregs_.emplace_back(vreg.elements, vreg.init);
        brams_.clear();
        for (const auto &bram : program_.brams)
            brams_.emplace_back(bram.elements, 0);
        prevWriteAddr_.assign(program_.brams.size(), -1);
        currentToken_ = 0;
        streamFinished_ = false;
        tokenIndex_ = 0;
    }

    [[noreturn]] void
    violation(const std::string &message) const
    {
        fatal(program_.name, ": restriction violation at ",
              streamFinished_ ? "cleanup cycle" : "token",
              streamFinished_ ? std::string()
                              : " " + std::to_string(tokenIndex_),
              ": ", message);
    }

    uint64_t
    eval(const lang::Expr &e)
    {
        size_t id = ids_.at(e.get());
        if (epochs_[id] == epoch_)
            return cache_[id];
        uint64_t value = evalUncached(e);
        epochs_[id] = epoch_;
        cache_[id] = value;
        return value;
    }

    uint64_t
    evalUncached(const lang::Expr &e)
    {
        using lang::ExprKind;
        switch (e->kind) {
          case ExprKind::Const:
            return e->value;
          case ExprKind::Input:
            return currentToken_;
          case ExprKind::StreamFinished:
            return streamFinished_ ? 1 : 0;
          case ExprKind::RegRead:
            return regs_[e->stateId];
          case ExprKind::VecRegRead: {
            uint64_t idx = eval(e->a);
            const auto &vec = vregs_[e->stateId];
            return idx < vec.size() ? vec[idx] : 0;
          }
          case ExprKind::BramRead: {
            uint64_t addr = eval(e->a);
            const auto &mem = brams_[e->stateId];
            return addr < mem.size() ? mem[addr] : 0;
          }
          case ExprKind::Bin:
            return evalBinOp(e->binOp, eval(e->a), e->a->width, eval(e->b),
                             e->b->width);
          case ExprKind::Un:
            return evalUnOp(e->unOp, eval(e->a), e->a->width);
          case ExprKind::Mux:
            return eval(e->c) != 0 ? eval(e->a) : eval(e->b);
          case ExprKind::Slice:
            return bitsOf(eval(e->a), e->sliceLo, e->width);
          case ExprKind::Concat:
            return (eval(e->a) << e->b->width) | eval(e->b);
        }
        panic("WalkerSimulator: unknown expression kind");
    }

    bool
    evalGate(const lang::Expr &cond, bool inside_while, bool while_active)
    {
        if (!inside_while && while_active)
            return false;
        return !cond || eval(cond) != 0;
    }

    bool
    runVcycle(sim::RunResult &result, std::vector<uint8_t> *signature)
    {
        using lang::LValue;
        if (signature)
            signature->assign(flat_.assigns.size() + flat_.emits.size(), 0);
        ++epoch_;

        bool while_active = false;
        for (const auto &cond : flat_.whileConds)
            while_active = while_active || eval(cond) != 0;

        std::vector<int64_t> read_addr(program_.brams.size(), -1);
        for (const auto &occ : flat_.bramReads) {
            if (!evalGate(occ.cond, occ.insideWhile, while_active))
                continue;
            const auto &bram = program_.bram(occ.bramId);
            uint64_t addr = eval(occ.addr);
            if (addr >= uint64_t(bram.elements)) {
                violation("BRAM " + bram.name + " read address " +
                          std::to_string(addr) + " out of range (" +
                          std::to_string(bram.elements) + " elements)");
            }
            if (read_addr[occ.bramId] >= 0 &&
                read_addr[occ.bramId] != int64_t(addr)) {
                violation("BRAM " + bram.name +
                          " read at two addresses in one virtual cycle (" +
                          std::to_string(read_addr[occ.bramId]) + " and " +
                          std::to_string(addr) + ")");
            }
            read_addr[occ.bramId] = int64_t(addr);
            if (prevWriteAddr_[occ.bramId] == int64_t(addr))
                result.usedBramForwarding = true;
        }

        struct PendingWrite
        {
            LValue::Kind kind;
            int stateId;
            uint64_t index;
            uint64_t value;
        };
        std::vector<PendingWrite> writes;
        std::vector<bool> reg_written(program_.regs.size(), false);
        std::vector<int64_t> bram_write_addr(program_.brams.size(), -1);
        std::vector<std::pair<int, uint64_t>> vreg_written;
        for (size_t a = 0; a < flat_.assigns.size(); ++a) {
            const auto &assign = flat_.assigns[a];
            if (!evalGate(assign.cond, assign.insideWhile, while_active))
                continue;
            if (signature)
                (*signature)[a] = 1;
            PendingWrite write{assign.target.kind, assign.target.stateId, 0,
                               0};
            int target_width = 0;
            switch (assign.target.kind) {
              case LValue::Kind::Reg:
                if (reg_written[write.stateId]) {
                    violation("register " +
                              program_.reg(write.stateId).name +
                              " assigned twice in one virtual cycle");
                }
                reg_written[write.stateId] = true;
                target_width = program_.reg(write.stateId).width;
                break;
              case LValue::Kind::VecElem: {
                const auto &vreg = program_.vreg(write.stateId);
                write.index = eval(assign.target.index);
                if (write.index >= uint64_t(vreg.elements)) {
                    violation("vector register " + vreg.name +
                              " write index " +
                              std::to_string(write.index) + " out of range");
                }
                auto key = std::make_pair(write.stateId, write.index);
                if (std::find(vreg_written.begin(), vreg_written.end(),
                              key) != vreg_written.end()) {
                    violation("vector register " + vreg.name + " element " +
                              std::to_string(write.index) +
                              " assigned twice in one virtual cycle");
                }
                vreg_written.push_back(key);
                target_width = vreg.width;
                break;
              }
              case LValue::Kind::BramElem: {
                const auto &bram = program_.bram(write.stateId);
                write.index = eval(assign.target.index);
                if (write.index >= uint64_t(bram.elements)) {
                    violation("BRAM " + bram.name + " write address " +
                              std::to_string(write.index) + " out of range");
                }
                if (bram_write_addr[write.stateId] >= 0) {
                    violation("BRAM " + bram.name +
                              " written twice in one virtual cycle");
                }
                bram_write_addr[write.stateId] = int64_t(write.index);
                target_width = bram.width;
                break;
              }
            }
            write.value = truncTo(eval(assign.value), target_width);
            writes.push_back(write);
        }

        bool emitted = false;
        for (size_t m = 0; m < flat_.emits.size(); ++m) {
            const auto &emit = flat_.emits[m];
            if (!evalGate(emit.cond, emit.insideWhile, while_active))
                continue;
            if (emitted)
                violation("multiple emits in one virtual cycle");
            if (signature)
                (*signature)[flat_.assigns.size() + m] = 1;
            emitted = true;
            result.output.appendBits(eval(emit.value),
                                     program_.outputTokenWidth);
            ++result.emits;
        }

        for (const auto &write : writes) {
            switch (write.kind) {
              case LValue::Kind::Reg:
                regs_[write.stateId] = write.value;
                break;
              case LValue::Kind::VecElem:
                vregs_[write.stateId][write.index] = write.value;
                break;
              case LValue::Kind::BramElem:
                brams_[write.stateId][write.index] = write.value;
                break;
            }
        }
        prevWriteAddr_ = bram_write_addr;

        ++result.vcycles;
        if (options_.recordTrace) {
            uint8_t flags = 0;
            if (!while_active)
                flags |= sim::kVcycleConsumesToken;
            if (emitted)
                flags |= sim::kVcycleEmits;
            result.trace.push_back(flags);
        }
        return !while_active;
    }

    lang::Program program_;
    lang::FlatProgram flat_;
    sim::SimOptions options_;
    std::unordered_map<const lang::ExprNode *, size_t> ids_;
    std::vector<uint64_t> cache_;
    std::vector<uint64_t> epochs_;
    uint64_t epoch_ = 1;

    std::vector<uint64_t> regs_;
    std::vector<std::vector<uint64_t>> vregs_;
    std::vector<std::vector<uint64_t>> brams_;
    std::vector<int64_t> prevWriteAddr_;
    uint64_t currentToken_ = 0;
    bool streamFinished_ = false;
    uint64_t tokenIndex_ = 0;

    BitBuffer input_;
    uint64_t tokenCount_ = 0;
    Phase phase_ = Phase::Done;
    uint64_t vcyclesThisToken_ = 0;
    sim::RunResult result_;
};

} // namespace testoracle
} // namespace fleet

#endif // FLEET_TESTS_SIM_WALKER_ORACLE_H
