#include "baseline/simt.h"

#include <algorithm>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "lang/flatten.h"
#include "sim/simulator.h"
#include "util/bits.h"

namespace fleet {
namespace baseline {

namespace {

/** DAG-aware node count of an expression set (shared subtrees counted
 * once, as a compiler would emit them once). */
void
countDag(const lang::Expr &e,
         std::unordered_set<const lang::ExprNode *> &visited,
         uint64_t &count)
{
    if (!e || visited.count(e.get()))
        return;
    visited.insert(e.get());
    ++count;
    countDag(e->a, visited, count);
    countDag(e->b, visited, count);
    countDag(e->c, visited, count);
}

} // namespace

SimtResult
simulateWarps(const lang::Program &program,
              const std::vector<BitBuffer> &streams,
              const SimtParams &params)
{
    SimtResult result;
    // One compiled tape serves every lane of every warp.
    auto tape = sim::Tape::compile(program);
    const lang::FlatProgram &flat = tape->flat;
    const size_t num_actions = tape->numActions();
    const size_t words = (num_actions + 63) / 64;

    // Expressions of each action, for signature costing.
    std::vector<std::vector<lang::Expr>> action_exprs(num_actions);
    for (size_t a = 0; a < flat.assigns.size(); ++a) {
        const auto &assign = flat.assigns[a];
        if (assign.cond)
            action_exprs[a].push_back(assign.cond);
        action_exprs[a].push_back(assign.value);
        if (assign.target.index)
            action_exprs[a].push_back(assign.target.index);
    }
    for (size_t m = 0; m < flat.emits.size(); ++m) {
        const auto &emit = flat.emits[m];
        if (emit.cond)
            action_exprs[flat.assigns.size() + m].push_back(emit.cond);
        action_exprs[flat.assigns.size() + m].push_back(emit.value);
    }

    auto signature_cost = [&](const uint64_t *sig) {
        std::unordered_set<const lang::ExprNode *> visited;
        uint64_t count = 0;
        for (size_t a = 0; a < num_actions; ++a) {
            if (!((sig[a / 64] >> (a % 64)) & 1))
                continue;
            for (const auto &expr : action_exprs[a])
                countDag(expr, visited, count);
            ++count; // The commit/emit itself.
            // Local-array writes are read-modify-write with bank
            // conflicts on a GPU.
            if (a < flat.assigns.size() &&
                flat.assigns[a].target.kind ==
                    lang::LValue::Kind::BramElem) {
                count += params.bramWriteExtraInsts;
            }
        }
        count += params.stepOverheadInsts;
        return count;
    };
    // Distinct signatures get dense ids (keys view their stable copies
    // in `stored`); costs[id] memoizes each one's instruction count.
    std::deque<std::string> stored;
    std::unordered_map<std::string_view, uint32_t> ids;
    std::vector<uint64_t> costs;
    auto intern = [&](const uint64_t *sig) {
        std::string_view key(reinterpret_cast<const char *>(sig),
                             words * sizeof(uint64_t));
        auto it = ids.find(key);
        if (it != ids.end())
            return it->second;
        ids.emplace(stored.emplace_back(key), uint32_t(costs.size()));
        costs.push_back(signature_cost(sig));
        return uint32_t(costs.size() - 1);
    };

    for (const auto &stream : streams)
        result.inputBytes += ceilDiv(stream.sizeBits(), 8);

    std::vector<uint32_t> groups;
    std::vector<uint64_t> union_sig(words);
    for (size_t base = 0; base < streams.size();
         base += size_t(params.warpSize)) {
        size_t lanes = std::min<size_t>(params.warpSize,
                                        streams.size() - base);
        std::vector<sim::FunctionalSimulator> sims;
        sims.reserve(lanes);
        for (size_t l = 0; l < lanes; ++l) {
            sims.emplace_back(tape);
            sims.back().beginStream(streams[base + l]);
        }

        while (true) {
            // One warp step: every unfinished lane executes one virtual
            // cycle; each distinct signature group issues serially.
            groups.clear();
            std::fill(union_sig.begin(), union_sig.end(), 0);
            for (auto &lane : sims) {
                if (lane.streamDone())
                    continue;
                lane.stepVcycle();
                const uint64_t *sig = lane.signatureBits().data();
                groups.push_back(intern(sig));
                for (size_t w = 0; w < words; ++w)
                    union_sig[w] |= sig[w];
            }
            if (groups.empty())
                break;
            ++result.warpSteps;
            std::sort(groups.begin(), groups.end());
            groups.erase(std::unique(groups.begin(), groups.end()),
                         groups.end());
            for (uint32_t id : groups)
                result.warpInstructions += costs[id];
            result.convergedInstructions += costs[intern(union_sig.data())];
        }
    }
    return result;
}

} // namespace baseline
} // namespace fleet
