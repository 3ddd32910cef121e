#ifndef FLEET_SIM_SIMULATOR_H
#define FLEET_SIM_SIMULATOR_H

/**
 * @file
 * Functional ("software") simulator for Fleet programs, corresponding to
 * the software simulator of Sections 3 and 6 of the paper. It executes
 * virtual cycles with concurrent semantics, produces the output token
 * stream, and detects the dynamic restriction violations the language
 * imposes:
 *
 *  - more than one distinct BRAM read address per BRAM per virtual cycle,
 *  - more than one write per BRAM per virtual cycle,
 *  - more than one emit per virtual cycle,
 *  - more than one assignment to a register or vector element per cycle,
 *  - out-of-range BRAM/vector writes or gated BRAM reads.
 *
 * The program is lowered once into a sim::Tape (sim/tape.h) that every
 * simulator of the program shares; a simulator holds only the mutable
 * state (slots, memory, per-cycle flags) and runs the tape once per
 * virtual cycle.
 *
 * It can also record a per-virtual-cycle trace (token consumed? token
 * emitted?) which the fast full-system PU timing model replays
 * (system/pu_fast.h), and it reports whether any virtual cycle read a BRAM
 * address written by the immediately preceding virtual cycle — the paper's
 * check for eliding the BRAM forwarding register.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "sim/tape.h"
#include "util/bitbuf.h"

namespace fleet {
namespace sim {

/** Per-virtual-cycle trace flags (for the fast timing model). */
enum VcycleFlags : uint8_t
{
    kVcycleConsumesToken = 1 << 0, ///< Final virtual cycle for its token.
    kVcycleEmits = 1 << 1,         ///< Emits one output token.
};

struct SimOptions
{
    /** Record the per-virtual-cycle trace in RunResult::trace. */
    bool recordTrace = false;
    /** Abort if a single token takes more virtual cycles than this. */
    uint64_t maxVcyclesPerToken = 1ULL << 22;
};

struct RunResult
{
    BitBuffer output;           ///< Emitted tokens, packed.
    uint64_t tokens = 0;        ///< Input tokens consumed.
    uint64_t vcycles = 0;       ///< Total virtual cycles (incl. cleanup).
    uint64_t emits = 0;         ///< Output tokens produced.
    std::vector<uint8_t> trace; ///< Per-vcycle flags if recordTrace.
    /**
     * True if some virtual cycle read a BRAM address written by the
     * previous virtual cycle; if false for all example streams, the
     * compiler's forwarding register could be elided (paper, Section 4).
     */
    bool usedBramForwarding = false;
};

class FunctionalSimulator
{
  public:
    /** Compile `program` into a private tape. */
    explicit FunctionalSimulator(const lang::Program &program,
                                 SimOptions options = {});
    /** Run a tape shared with other simulators of the same program. */
    explicit FunctionalSimulator(std::shared_ptr<const Tape> tape,
                                 SimOptions options = {});

    /**
     * Run the program over a complete input stream (tokens packed at the
     * program's input token width), including the stream-finished cleanup
     * virtual cycles. Throws FatalError on a restriction violation.
     */
    RunResult run(const BitBuffer &input);

    /// @name Single-step interface (used by the SIMT divergence model).
    /// @{
    /** Reset state and begin a new stream. */
    void beginStream(const BitBuffer &input);
    /** True once the cleanup virtual cycles have completed. */
    bool streamDone() const { return phase_ == Phase::Done; }
    /**
     * Execute one virtual cycle. If `signature` is non-null it receives
     * one byte per flattened action (assignments then emits), 1 if the
     * action executed — the per-lane control signature the SIMT model
     * groups on. Returns the VcycleFlags of the cycle.
     */
    uint8_t stepVcycle(std::vector<uint8_t> *signature = nullptr);
    /**
     * The last cycle's signature as a bitset: bit i of word i / 64 is
     * set iff action i executed. Same content as stepVcycle's bytes.
     */
    const std::vector<uint64_t> &signatureBits() const { return sigBits_; }
    /** Results accumulated since beginStream(). */
    const RunResult &partialResult() const { return result_; }
    /// @}

    const lang::Program &program() const { return tape_->program; }

  private:
    enum class Phase { Tokens, Cleanup, Done };

    /** One fired assignment, committed at the end of the cycle. */
    struct PendingWrite
    {
        uint32_t assign;
        uint64_t index;
        uint64_t value;
    };

    void reset();
    /** Execute one virtual cycle; returns true if the token was consumed. */
    bool runVcycle(RunResult &result);
    void execTape(RunResult &result);
    void checkRead(const TapeOp &op, RunResult &result);
    void fireAssign(const TapeOp &op);
    void fireEmit(const TapeOp &op, RunResult &result);
    void setSignatureBit(size_t action);
    void setCurrentToken(uint64_t token);
    [[noreturn]] void violation(const std::string &message) const;

    std::shared_ptr<const Tape> tape_;
    SimOptions options_;

    // Program state: registers live in the tape's slots.
    std::vector<uint64_t> slots_;
    std::vector<uint64_t> mem_;
    bool streamFinished_ = false;
    uint64_t tokenIndex_ = 0;

    // Per-virtual-cycle bookkeeping. Epoch-tagged arrays are "set this
    // cycle" iff they hold the current epoch, so a cycle clears them by
    // bumping the epoch.
    uint32_t epoch_ = 0;
    std::vector<uint32_t> done_;       ///< Per done flag.
    std::vector<uint32_t> regWritten_; ///< Per register.
    std::vector<uint32_t> vecWritten_; ///< Per vector-register element.
    std::vector<int64_t> readAddr_;    ///< Per BRAM; -1 if not read.
    std::vector<int64_t> writeAddr_;   ///< Per BRAM; -1 if not written.
    /** BRAM addresses written by the previous virtual cycle, or -1. */
    std::vector<int64_t> prevWriteAddr_;
    std::vector<PendingWrite> writes_;
    std::vector<uint64_t> sigBits_;
    bool emitted_ = false;

    // Single-step stream state.
    BitBuffer input_;
    uint64_t tokenCount_ = 0;
    Phase phase_ = Phase::Done;
    uint64_t vcyclesThisToken_ = 0;
    RunResult result_;
};

} // namespace sim
} // namespace fleet

#endif // FLEET_SIM_SIMULATOR_H
