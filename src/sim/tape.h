#ifndef FLEET_SIM_TAPE_H
#define FLEET_SIM_TAPE_H

/**
 * @file
 * The functional simulator's compiled form of one program: a dense,
 * value-numbered tape of ops that FunctionalSimulator executes once per
 * virtual cycle. A program is lowered once and the immutable tape is
 * shared by every simulator of that program (every FastPu of a system,
 * every lane of a SIMT warp).
 *
 * Layout. Every value lives in a uint64_t slot: registers first (slot i
 * is register i), then the current input token, the stream-finished
 * flag, constants, and one temporary per distinct expression node.
 * Nodes are value-numbered (structurally equal subexpressions share a
 * slot) and operands are slot indices. Vector registers and BRAMs live
 * in one flat memory array.
 *
 * Control. The tape runs forward only; jumps skip regions. Each group of
 * consecutive actions with the same gate is one region, entered through
 * short-circuit jumps over the gate's conjuncts; a mux whose legs would
 * add more than kIfConvertOps ops becomes two leg regions, a smaller one
 * an eager Select. So, as in a lazy tree walk, only demanded nodes run.
 * A node shared by several regions is computed behind a Guard op: a
 * per-cycle done flag that skips the recomputation once any region has
 * produced it this cycle.
 *
 * Checks. The language's dynamic restrictions are ops of the tape:
 * CheckRead (one BRAM read address per cycle, range, forwarding),
 * Assign (double assignment, write ranges, one BRAM write) and Emit (one
 * emit per cycle), laid out reads, then assigns, then emits, each in
 * flattened order, so a cycle reports the same first violation as a
 * plain in-order walk of the flattened program.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/ast.h"
#include "lang/flatten.h"
#include "util/ops.h"

namespace fleet {
namespace sim {

enum class TapeOpcode : uint8_t
{
#define FLEET_TAPE_OPCODE(name) name,
    /// s[dst] = applyBinOp(s[a], wa, s[b], wb), one opcode per BinOp.
    FLEET_FOR_EACH_BINOP(FLEET_TAPE_OPCODE)
    /// s[dst] = applyUnOp(s[a], wa), one opcode per UnOp.
    FLEET_FOR_EACH_UNOP(FLEET_TAPE_OPCODE)
#undef FLEET_TAPE_OPCODE
    Slice,         ///< s[dst] = bits [wa, wa + wb) of s[a].
    Concat,        ///< s[dst] = s[a] << wb | s[b].
    Select,        ///< s[dst] = s[c] ? s[a] : s[b].
    Mov,           ///< s[dst] = s[a].
    Load,          ///< s[dst] = s[a] < c ? mem[b + s[a]] : 0.
    Jump,          ///< Continue at dst.
    JumpIfZero,    ///< Continue at dst if s[a] == 0.
    JumpIfNonZero, ///< Continue at dst if s[a] != 0.
    /// If flag a is set this cycle, continue at dst (slot b, the guarded
    /// node, already holds its value); otherwise set it and fall through.
    Guard,
    CheckRead, ///< Account flat.bramReads[dst] at address s[a].
    Assign,    ///< Fire assign dst: value s[a], index s[b].
    Emit,      ///< Fire emit dst with value s[a].
    End,       ///< End of the virtual cycle.
};

struct TapeOp
{
    TapeOpcode code;
    uint8_t wa = 0;
    uint8_t wb = 0;
    uint32_t dst = 0; ///< Result slot, jump target or action index.
    uint32_t a = 0;
    uint32_t b = 0;
    uint32_t c = 0;
};

/** Static facts about one flattened assignment's target. */
struct TapeAssign
{
    lang::LValue::Kind kind;
    int stateId;
    int width;         ///< Target width the value is truncated to.
    uint32_t memBase;  ///< Vector register / BRAM base in memory.
    uint32_t elements; ///< Vector register / BRAM element count.
};

/** A compiled program. Immutable once built; share it freely. */
struct Tape
{
    /**
     * A mux whose two legs would add at most this many ops is evaluated
     * eagerly into a Select instead of branching over its legs.
     */
    static constexpr int kIfConvertOps = 8;

    /** Lower `program` (flattened once here) into a tape. */
    static std::shared_ptr<const Tape> compile(const lang::Program &program);

    /**
     * Structural check: every jump is forward and in range, every slot,
     * flag, action and memory index is in range, and every operand slot
     * is defined on all paths before it is read (a Guard's taken edge
     * defines its guarded slot). Returns "" if well formed, else the
     * first problem found. compile() runs it in non-NDEBUG builds.
     */
    std::string verify() const;

    size_t
    numActions() const
    {
        return flat.assigns.size() + flat.emits.size();
    }

    lang::Program program;
    lang::FlatProgram flat;

    std::vector<TapeOp> ops;
    /** Slot values at reset: register inits, constants, zeros. */
    std::vector<uint64_t> initialSlots;
    /** Slots below firstTemp hold state, input or constants; slots from
     * firstTemp on are computed by the tape every cycle. */
    uint32_t firstTemp = 0;
    uint32_t inputSlot = 0;
    uint32_t finishedSlot = 0;
    /** Non-zero after the tape ran iff some while condition holds. */
    uint32_t whileSlot = 0;
    uint32_t numFlags = 0;

    std::vector<TapeAssign> assigns; ///< Parallel to flat.assigns.
    /** Memory at reset: vector registers (at vregBase), then BRAMs. */
    std::vector<uint64_t> initialMem;
    std::vector<uint32_t> vregBase;
    std::vector<uint32_t> bramBase;
    uint32_t vregElements = 0; ///< Vector elements precede all BRAMs.
};

} // namespace sim
} // namespace fleet

#endif // FLEET_SIM_TAPE_H
