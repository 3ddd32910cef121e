#ifndef FLEET_UTIL_OPS_H
#define FLEET_UTIL_OPS_H

/**
 * @file
 * Operator kinds and their width/value semantics, shared by the Fleet
 * language AST, the functional simulator, and the RTL interpreter so all
 * three layers agree bit-for-bit.
 *
 * Width rules (documented in the language reference in README.md):
 *   - Add/Sub/And/Or/Xor: result width = max(wa, wb), modular.
 *   - Mul: result width = min(64, wa + wb).
 *   - Shl/Shr: result width = wa; shift amount is the unsigned value of b.
 *   - Comparisons and logical ops: result width = 1. Unsigned comparisons
 *     zero-extend; signed comparisons sign-extend each operand at its own
 *     width.
 */

#include <cstdint>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {

enum class BinOp
{
    Add, Sub, Mul,
    And, Or, Xor,
    Shl, Shr,
    Eq, Ne,
    Ult, Ule, Ugt, Uge,
    Slt, Sle, Sgt, Sge,
    LAnd, LOr,
};

enum class UnOp
{
    Not,  ///< Bitwise complement; width preserved.
    LNot, ///< Logical not (== 0); width 1.
    Neg,  ///< Two's-complement negation; width preserved.
};

/** Result width of a binary operator applied to widths wa and wb. */
constexpr int
binOpWidth(BinOp op, int wa, int wb)
{
    switch (op) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::And:
      case BinOp::Or:
      case BinOp::Xor:
        return wa > wb ? wa : wb;
      case BinOp::Mul:
        return wa + wb > kMaxValueWidth ? kMaxValueWidth : wa + wb;
      case BinOp::Shl:
      case BinOp::Shr:
        return wa;
      default:
        return 1;
    }
}

/** Result width of a unary operator applied to width wa. */
constexpr int
unOpWidth(UnOp op, int wa)
{
    return op == UnOp::LNot ? 1 : wa;
}

/**
 * Value of one binary operator, chosen at compile time. This is the one
 * definition of each operator's semantics: evalBinOp() dispatches to it
 * at run time and the functional simulator's tape (sim/tape.h) bakes the
 * operator into its opcode. Operands must already be masked.
 */
template <BinOp op>
inline uint64_t
applyBinOp(uint64_t a, int wa, uint64_t b, int wb)
{
    const int w = binOpWidth(op, wa, wb);
    if constexpr (op == BinOp::Add)
        return truncTo(a + b, w);
    else if constexpr (op == BinOp::Sub)
        return truncTo(a - b, w);
    else if constexpr (op == BinOp::Mul)
        return truncTo(a * b, w);
    else if constexpr (op == BinOp::And)
        return a & b;
    else if constexpr (op == BinOp::Or)
        return a | b;
    else if constexpr (op == BinOp::Xor)
        return a ^ b;
    else if constexpr (op == BinOp::Shl)
        return b >= uint64_t(w) ? 0 : truncTo(a << b, w);
    else if constexpr (op == BinOp::Shr)
        return b >= 64 ? 0 : truncTo(a >> b, w);
    else if constexpr (op == BinOp::Eq)
        return a == b;
    else if constexpr (op == BinOp::Ne)
        return a != b;
    else if constexpr (op == BinOp::Ult)
        return a < b;
    else if constexpr (op == BinOp::Ule)
        return a <= b;
    else if constexpr (op == BinOp::Ugt)
        return a > b;
    else if constexpr (op == BinOp::Uge)
        return a >= b;
    else if constexpr (op == BinOp::Slt)
        return signExtend64(a, wa) < signExtend64(b, wb);
    else if constexpr (op == BinOp::Sle)
        return signExtend64(a, wa) <= signExtend64(b, wb);
    else if constexpr (op == BinOp::Sgt)
        return signExtend64(a, wa) > signExtend64(b, wb);
    else if constexpr (op == BinOp::Sge)
        return signExtend64(a, wa) >= signExtend64(b, wb);
    else if constexpr (op == BinOp::LAnd)
        return (a != 0) && (b != 0);
    else
        return (a != 0) || (b != 0); // LOr
}

/** Value of one unary operator (see applyBinOp). */
template <UnOp op>
inline uint64_t
applyUnOp(uint64_t a, int wa)
{
    if constexpr (op == UnOp::Not)
        return truncTo(~a, wa);
    else if constexpr (op == UnOp::LNot)
        return a == 0;
    else
        return truncTo(~a + 1, wa); // Neg
}

/** X-macro over every BinOp, for switches that dispatch on the kind. */
#define FLEET_FOR_EACH_BINOP(X)                                            \
    X(Add) X(Sub) X(Mul) X(And) X(Or) X(Xor) X(Shl) X(Shr) X(Eq) X(Ne)    \
    X(Ult) X(Ule) X(Ugt) X(Uge) X(Slt) X(Sle) X(Sgt) X(Sge) X(LAnd) X(LOr)

/** X-macro over every UnOp. */
#define FLEET_FOR_EACH_UNOP(X) X(Not) X(LNot) X(Neg)

/** Evaluate a binary operator. Operands must already be masked. */
inline uint64_t
evalBinOp(BinOp op, uint64_t a, int wa, uint64_t b, int wb)
{
    switch (op) {
#define FLEET_BINOP_CASE(name)                                             \
      case BinOp::name: return applyBinOp<BinOp::name>(a, wa, b, wb);
        FLEET_FOR_EACH_BINOP(FLEET_BINOP_CASE)
#undef FLEET_BINOP_CASE
    }
    panic("evalBinOp: unknown op");
}

/** Evaluate a unary operator. Operand must already be masked. */
inline uint64_t
evalUnOp(UnOp op, uint64_t a, int wa)
{
    switch (op) {
#define FLEET_UNOP_CASE(name)                                              \
      case UnOp::name: return applyUnOp<UnOp::name>(a, wa);
        FLEET_FOR_EACH_UNOP(FLEET_UNOP_CASE)
#undef FLEET_UNOP_CASE
    }
    panic("evalUnOp: unknown op");
}

/** Human-readable operator spelling (for dumps and the Verilog emitter). */
const char *binOpName(BinOp op);
const char *unOpName(UnOp op);

} // namespace fleet

#endif // FLEET_UTIL_OPS_H
