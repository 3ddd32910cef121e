#ifndef FLEET_TESTS_RANDOM_PROGRAMS_H
#define FLEET_TESTS_RANDOM_PROGRAMS_H

/**
 * @file
 * Seeded generator of random restriction-respecting Fleet programs,
 * shared by the cross-engine property suite and the functional
 * simulator's differential test.
 */

#include <string>
#include <vector>

#include "lang/builder.h"
#include "util/bits.h"
#include "util/rng.h"

namespace fleet {
namespace testprogs {

/** Generates one random program per seed. */
class RandomProgramGenerator
{
    using Bram = lang::Bram;
    using ProgramBuilder = lang::ProgramBuilder;
    using Value = lang::Value;
    using VecReg = lang::VecReg;

  public:
    explicit RandomProgramGenerator(uint64_t seed) : rng_(seed) {}

    lang::Program
    generate()
    {
        int token_width = pick({4, 8, 8, 16});
        int out_width = pick({4, 8, 8, 12});
        ProgramBuilder b("rand", token_width, out_width);

        // State elements.
        int num_regs = 1 + static_cast<int>(rng_.nextBelow(4));
        std::vector<Value> regs;
        for (int i = 0; i < num_regs; ++i) {
            int w = 2 + static_cast<int>(rng_.nextBelow(11));
            regs.push_back(b.reg("r" + std::to_string(i), w,
                                 rng_.next() & mask64(w)));
        }
        std::vector<VecReg> vregs;
        if (rng_.nextChance(1, 2))
            vregs.push_back(b.vreg("v0", 4 << rng_.nextBelow(2), 8));
        std::vector<Bram> brams;
        int num_brams = static_cast<int>(rng_.nextBelow(3));
        for (int i = 0; i < num_brams; ++i)
            brams.push_back(b.bram("m" + std::to_string(i),
                                   8 << rng_.nextBelow(3), 8));

        // One fixed read-address expression per BRAM guarantees the
        // one-read-per-virtual-cycle restriction by construction.
        ctx_ = Ctx{&b, regs, vregs, brams, {}};
        for (const auto &bram : brams) {
            int aw = indexWidth(bram.elements());
            ctx_.bramReadAddr.push_back(
                bramFreeExpr(3).resize(aw + 2) &
                Value::lit(bram.elements() - 1, aw + 2).resize(aw + 2));
        }

        // Program body: a couple of top-level statements, possibly an
        // if/else tree, one optional while loop, one emit.
        emitPlaced_ = false;
        std::vector<int> unassigned;
        for (int i = 0; i < num_regs; ++i)
            unassigned.push_back(i);
        // Reserve reg 0 as the while counter if we place a loop.
        bool use_while = rng_.nextChance(2, 3);
        if (use_while) {
            Value counter = regs[0];
            int cw = counter.width();
            b.while_(counter != 0, [&] {
                b.assign(counter, counter - 1);
                if (!emitPlaced_ && rng_.nextChance(1, 2)) {
                    b.emit(anyExpr(2).resize(out_width));
                    emitPlaced_ = true;
                }
            });
            // Reload the counter outside the loop from the input.
            b.assign(counter,
                     b.input().resize(cw) &
                         Value::lit(7, cw > 3 ? cw : 3).resize(cw));
            unassigned.erase(unassigned.begin());
        }

        genBlock(unassigned, out_width, 0);

        // Make sure every BRAM's read address is actually exercised and
        // each BRAM gets one write site.
        for (size_t m = 0; m < brams.size(); ++m) {
            b.assign(brams[m][ctx_.bramReadAddr[m]],
                     (brams[m][ctx_.bramReadAddr[m]] + bramFreeExpr(1))
                         .resize(8));
        }
        if (!vregs.empty()) {
            int iw = indexWidth(vregs[0].elements());
            b.assign(vregs[0][bramFreeExpr(2).resize(iw)],
                     bramFreeExpr(2).resize(8));
        }
        if (!emitPlaced_)
            b.emit(anyExpr(2).resize(out_width));

        return b.finish();
    }

  private:
    struct Ctx
    {
        ProgramBuilder *b;
        std::vector<Value> regs;
        std::vector<VecReg> vregs;
        std::vector<Bram> brams;
        std::vector<Value> bramReadAddr;
    };

    int
    pick(std::initializer_list<int> options)
    {
        auto it = options.begin();
        std::advance(it, rng_.nextBelow(options.size()));
        return *it;
    }

    /** Random expression with no BRAM reads (usable in conditions). */
    Value
    bramFreeExpr(int depth)
    {
        if (depth == 0 || rng_.nextChance(1, 3)) {
            switch (rng_.nextBelow(3)) {
              case 0:
                return ctx_.b->input();
              case 1:
                return ctx_.regs[rng_.nextBelow(ctx_.regs.size())];
              default:
                return Value::lit(rng_.next() & mask64(6), 6);
            }
        }
        Value a = bramFreeExpr(depth - 1);
        Value c = bramFreeExpr(depth - 1);
        return combine(a, c, depth);
    }

    /** Random expression that may read BRAMs (value positions only). */
    Value
    anyExpr(int depth)
    {
        if (!ctx_.brams.empty() && rng_.nextChance(1, 3)) {
            size_t m = rng_.nextBelow(ctx_.brams.size());
            return ctx_.brams[m][ctx_.bramReadAddr[m]];
        }
        if (!ctx_.vregs.empty() && rng_.nextChance(1, 4)) {
            int iw = indexWidth(ctx_.vregs[0].elements());
            return ctx_.vregs[0][bramFreeExpr(1).resize(iw)];
        }
        if (depth == 0)
            return bramFreeExpr(0);
        Value a = anyExpr(depth - 1);
        Value c = anyExpr(depth - 1);
        return combine(a, c, depth);
    }

    Value
    combine(const Value &a, const Value &c, int depth)
    {
        switch (rng_.nextBelow(10)) {
          case 0: return a + c;
          case 1: return a - c;
          case 2: return a ^ c;
          case 3: return a & c;
          case 4: return a | c;
          case 5: return (a == c).resize(1);
          case 6: return (a < c).resize(1);
          case 7: return lang::mux(bramFreeExpr(depth - 1), a, c);
          case 8: return (a >> Value::lit(rng_.nextBelow(4), 2));
          default: return ~a;
        }
    }

    /** Emit statements assigning each register in `targets` exactly once,
     * possibly nested under random if/else arms. */
    void
    genBlock(const std::vector<int> &targets, int out_width, int depth)
    {
        ProgramBuilder &b = *ctx_.b;
        size_t i = 0;
        while (i < targets.size()) {
            if (depth < 2 && targets.size() - i >= 2 &&
                rng_.nextChance(1, 2)) {
                // Split the remaining targets across if/else arms: the
                // arms are mutually exclusive so each register still
                // commits at most once per virtual cycle.
                std::vector<int> arm_a, arm_b;
                for (size_t j = i; j < targets.size(); ++j)
                    (rng_.nextChance(1, 2) ? arm_a : arm_b)
                        .push_back(targets[j]);
                Value cond = bramFreeExpr(2);
                b.if_(cond, [&] {
                    genBlock(arm_a, out_width, depth + 1);
                    maybeEmit(out_width);
                }).else_([&] {
                    genBlock(arm_b, out_width, depth + 1);
                    maybeEmit(out_width);
                });
                return;
            }
            int r = targets[i];
            int w = ctx_.regs[r].width();
            b.assign(ctx_.regs[r], anyExpr(2).resize(w));
            ++i;
        }
    }

    void
    maybeEmit(int out_width)
    {
        if (!emitPlaced_ && rng_.nextChance(1, 3)) {
            ctx_.b->emit(anyExpr(2).resize(out_width));
            emitPlaced_ = true;
        }
    }

    Rng rng_;
    Ctx ctx_{nullptr, {}, {}, {}, {}};
    bool emitPlaced_ = false;
};

} // namespace testprogs
} // namespace fleet

#endif // FLEET_TESTS_RANDOM_PROGRAMS_H
