#include "sim/tape.h"

#include <map>
#include <optional>
#include <string>
#include <unordered_map>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace sim {

using lang::ExprKind;

// Operator opcodes are laid out in BinOp / UnOp order.
static_assert(int(TapeOpcode::LOr) == int(BinOp::LOr));
static_assert(int(TapeOpcode::Neg) - int(TapeOpcode::Not) ==
              int(UnOp::Neg));

namespace {

/** One value-numbered expression node. Operands are node numbers. */
struct Node
{
    ExprKind kind;
    int width;
    uint64_t value = 0; ///< Const.
    int stateId = -1;   ///< RegRead / VecRegRead / BramRead.
    int op = 0;         ///< BinOp / UnOp.
    int sliceLo = 0;
    int wa = 0, wb = 0; ///< Operand widths as the AST declares them.
    int a = -1, b = -1, c = -1;

    bool
    operator==(const Node &o) const
    {
        return kind == o.kind && width == o.width && value == o.value &&
               stateId == o.stateId && op == o.op && sliceLo == o.sliceLo &&
               wa == o.wa && wb == o.wb && a == o.a && b == o.b && c == o.c;
    }
};

struct NodeHash
{
    size_t
    operator()(const Node &n) const
    {
        uint64_t h = uint64_t(n.kind) * 0x9e3779b97f4a7c15ULL;
        for (uint64_t v : {uint64_t(n.width), n.value, uint64_t(n.stateId),
                           uint64_t(n.op), uint64_t(n.sliceLo),
                           uint64_t(n.wa), uint64_t(n.wb), uint64_t(n.a),
                           uint64_t(n.b), uint64_t(n.c)})
            h = (h ^ v) * 0x100000001b3ULL + (h >> 29);
        return size_t(h);
    }
};

bool
isLeaf(const Node &n)
{
    switch (n.kind) {
      case ExprKind::Const:
      case ExprKind::Input:
      case ExprKind::StreamFinished:
      case ExprKind::RegRead:
        return true;
      default:
        return false;
    }
}

/** One conjunct of a gate: passes iff s[node] is non-zero (or zero). */
struct GateTerm
{
    int node;
    bool passIfZero;
};

class TapeCompiler
{
  public:
    explicit TapeCompiler(Tape &tape) : tape_(tape) {}

    void
    compile()
    {
        numberRoots();
        layOutState();
        countUses();
        definite_.assign(nodes_.size(), 0);
        emitted_.assign(nodes_.size(), 0);
        flagOf_.assign(nodes_.size(), -1);
        costMark_.assign(nodes_.size(), 0);
        emitWhileConds();
        emitReads();
        emitAssigns();
        emitEmits();
        emit({TapeOpcode::End});
    }

  private:
    // ---- Value numbering -------------------------------------------------

    int
    number(const lang::Expr &e)
    {
        if (!e)
            return -1;
        auto memo = byPtr_.find(e.get());
        if (memo != byPtr_.end())
            return memo->second;
        Node n;
        n.kind = e->kind;
        n.width = e->width;
        switch (e->kind) {
          case ExprKind::Const:
            n.value = e->value;
            break;
          case ExprKind::RegRead:
          case ExprKind::VecRegRead:
          case ExprKind::BramRead:
            n.stateId = e->stateId;
            break;
          case ExprKind::Bin:
            n.op = int(e->binOp);
            break;
          case ExprKind::Un:
            n.op = int(e->unOp);
            break;
          case ExprKind::Slice:
            n.sliceLo = e->sliceLo;
            break;
          default:
            break;
        }
        n.a = number(e->a);
        n.b = number(e->b);
        n.c = number(e->c);
        n.wa = e->a ? e->a->width : 0;
        n.wb = e->b ? e->b->width : 0;
        foldConstants(n);
        int id = intern(n);
        byPtr_.emplace(e.get(), id);
        return id;
    }

    /** Replace an operator over constants by its constant value. */
    void
    foldConstants(Node &n)
    {
        auto isConst = [&](int id) {
            return id >= 0 && nodes_[id].kind == ExprKind::Const;
        };
        auto val = [&](int id) { return nodes_[id].value; };
        uint64_t v;
        switch (n.kind) {
          case ExprKind::Bin:
            if (!isConst(n.a) || !isConst(n.b))
                return;
            v = evalBinOp(BinOp(n.op), val(n.a), n.wa, val(n.b), n.wb);
            break;
          case ExprKind::Un:
            if (!isConst(n.a))
                return;
            v = evalUnOp(UnOp(n.op), val(n.a), n.wa);
            break;
          case ExprKind::Slice:
            if (!isConst(n.a))
                return;
            v = bitsOf(val(n.a), n.sliceLo, n.width);
            break;
          case ExprKind::Concat:
            if (!isConst(n.a) || !isConst(n.b))
                return;
            v = (val(n.a) << n.wb) | val(n.b);
            break;
          default:
            return;
        }
        Node folded;
        folded.kind = ExprKind::Const;
        folded.width = n.width;
        folded.value = v;
        n = folded;
    }

    int
    intern(const Node &n)
    {
        auto [it, fresh] = byValue_.emplace(n, int(nodes_.size()));
        if (fresh)
            nodes_.push_back(n);
        return it->second;
    }

    void
    numberRoots()
    {
        const lang::FlatProgram &flat = tape_.flat;
        for (const auto &cond : flat.whileConds)
            whileConds_.push_back(number(cond));
        for (const auto &occ : flat.bramReads) {
            readGates_.push_back(number(occ.cond));
            readAddrs_.push_back(number(occ.addr));
        }
        for (const auto &assign : flat.assigns) {
            assignGates_.push_back(number(assign.cond));
            assignIndices_.push_back(number(assign.target.index));
            assignValues_.push_back(number(assign.value));
        }
        for (const auto &emit : flat.emits) {
            emitGates_.push_back(number(emit.cond));
            emitValues_.push_back(number(emit.value));
        }
    }

    // ---- State layout ----------------------------------------------------

    uint32_t
    newSlot(uint64_t init = 0)
    {
        tape_.initialSlots.push_back(init);
        return uint32_t(tape_.initialSlots.size() - 1);
    }

    void
    layOutState()
    {
        const lang::Program &program = tape_.program;
        for (const auto &reg : program.regs)
            newSlot(reg.init);
        tape_.inputSlot = newSlot();
        tape_.finishedSlot = newSlot();
        slot_.assign(nodes_.size(), 0);
        std::map<uint64_t, uint32_t> consts;
        consts[0] = newSlot(0);
        for (size_t i = 0; i < nodes_.size(); ++i) {
            const Node &n = nodes_[i];
            if (n.kind == ExprKind::Const) {
                auto it = consts.find(n.value);
                if (it == consts.end())
                    it = consts.emplace(n.value, newSlot(n.value)).first;
                slot_[i] = it->second;
            } else if (n.kind == ExprKind::Input) {
                slot_[i] = tape_.inputSlot;
            } else if (n.kind == ExprKind::StreamFinished) {
                slot_[i] = tape_.finishedSlot;
            } else if (n.kind == ExprKind::RegRead) {
                slot_[i] = uint32_t(n.stateId);
            }
        }
        zeroSlot_ = consts[0];
        tape_.firstTemp = uint32_t(tape_.initialSlots.size());
        for (size_t i = 0; i < nodes_.size(); ++i)
            if (!isLeaf(nodes_[i]))
                slot_[i] = newSlot();

        for (const auto &vreg : program.vregs) {
            tape_.vregBase.push_back(uint32_t(tape_.initialMem.size()));
            tape_.initialMem.insert(tape_.initialMem.end(),
                                    size_t(vreg.elements), vreg.init);
        }
        tape_.vregElements = uint32_t(tape_.initialMem.size());
        for (const auto &bram : program.brams) {
            tape_.bramBase.push_back(uint32_t(tape_.initialMem.size()));
            tape_.initialMem.insert(tape_.initialMem.end(),
                                    size_t(bram.elements), 0);
        }
        for (const auto &assign : tape_.flat.assigns) {
            const int id = assign.target.stateId;
            TapeAssign info{assign.target.kind, id, 0, 0, 0};
            switch (assign.target.kind) {
              case lang::LValue::Kind::Reg:
                info.width = program.reg(id).width;
                break;
              case lang::LValue::Kind::VecElem:
                info.width = program.vreg(id).width;
                info.memBase = tape_.vregBase[size_t(id)];
                info.elements = uint32_t(program.vreg(id).elements);
                break;
              case lang::LValue::Kind::BramElem:
                info.width = program.bram(id).width;
                info.memBase = tape_.bramBase[size_t(id)];
                info.elements = uint32_t(program.bram(id).elements);
                break;
            }
            tape_.assigns.push_back(info);
        }
    }

    // ---- Use counts ------------------------------------------------------

    /** Split a gate into the conjuncts its region jumps on. */
    void
    gateTerms(int id, std::vector<GateTerm> &out) const
    {
        const Node &n = nodes_[size_t(id)];
        if (n.kind == ExprKind::Bin && BinOp(n.op) == BinOp::LAnd) {
            gateTerms(n.a, out);
            gateTerms(n.b, out);
        } else if (n.kind == ExprKind::Un && UnOp(n.op) == UnOp::LNot) {
            out.push_back({stripNe0(n.a), true});
        } else {
            out.push_back({stripNe0(id), false});
        }
    }

    /** x != 0 is zero exactly when x is, so jump on x itself. */
    int
    stripNe0(int id) const
    {
        const Node &n = nodes_[size_t(id)];
        if (n.kind == ExprKind::Bin && BinOp(n.op) == BinOp::Ne &&
            nodes_[size_t(n.b)].kind == ExprKind::Const &&
            nodes_[size_t(n.b)].value == 0)
            return n.a;
        return id;
    }

    /** Count one demand of node `id` as a value (and, the first time, of
     * its operands). A node demanded more than once may be reached from
     * several regions and so is computed behind a done flag. */
    void
    use(int id)
    {
        if (id < 0)
            return;
        if (uses_[size_t(id)]++ > 0)
            return;
        const Node &n = nodes_[size_t(id)];
        use(n.a);
        use(n.b);
        use(n.c);
    }

    void
    useGate(int id)
    {
        if (id < 0)
            return;
        std::vector<GateTerm> terms;
        gateTerms(id, terms);
        for (const GateTerm &t : terms)
            use(t.node);
    }

    void
    countUses()
    {
        uses_.assign(nodes_.size(), 0);
        for (int id : whileConds_)
            use(id);
        for (size_t i = 0; i < readAddrs_.size(); ++i) {
            useGate(readGates_[i]);
            use(readAddrs_[i]);
        }
        for (size_t i = 0; i < assignValues_.size(); ++i) {
            useGate(assignGates_[i]);
            use(assignIndices_[i]);
            use(assignValues_[i]);
        }
        for (size_t i = 0; i < emitValues_.size(); ++i) {
            useGate(emitGates_[i]);
            use(emitValues_[i]);
        }
    }

    // ---- Code generation -------------------------------------------------

    size_t
    emit(TapeOp op)
    {
        tape_.ops.push_back(op);
        return tape_.ops.size() - 1;
    }

    void
    patchToHere(size_t at)
    {
        tape_.ops[at].dst = uint32_t(tape_.ops.size());
    }

    void
    pushScope()
    {
        scopes_.push_back(undo_.size());
    }

    void
    popScope()
    {
        for (size_t i = scopes_.back(); i < undo_.size(); ++i)
            definite_[size_t(undo_[i])] = 0;
        undo_.resize(scopes_.back());
        scopes_.pop_back();
    }

    void
    markDefinite(int id)
    {
        definite_[size_t(id)] = 1;
        if (!scopes_.empty())
            undo_.push_back(id);
    }

    /**
     * Ops `id` would add here, counting each not-yet-computed node once,
     * stopping early once `budget` is exceeded.
     */
    int
    newOps(int id, int budget)
    {
        if (id < 0 || budget < 0)
            return 0;
        const Node &n = nodes_[size_t(id)];
        if (isLeaf(n) || definite_[size_t(id)] ||
            costMark_[size_t(id)] == costEpoch_)
            return 0;
        costMark_[size_t(id)] = costEpoch_;
        int count = 1;
        count += newOps(n.a, budget - count);
        count += newOps(n.b, budget - count);
        count += newOps(n.c, budget - count);
        return count;
    }

    /** Make sure node `id` is computed at this point; returns its slot. */
    uint32_t
    value(int id)
    {
        const Node &n = nodes_[size_t(id)];
        if (isLeaf(n) || definite_[size_t(id)])
            return slot_[size_t(id)];
        // A node demanded once is computed only where its single user
        // is. A shared node computed before in a region that does not
        // cover this point may already hold this cycle's value.
        const bool guard = uses_[size_t(id)] > 1 &&
                           (!scopes_.empty() || emitted_[size_t(id)]);
        emitted_[size_t(id)] = 1;
        if (!guard) {
            compute(id);
            markDefinite(id);
            return slot_[size_t(id)];
        }
        if (flagOf_[size_t(id)] < 0)
            flagOf_[size_t(id)] = int(tape_.numFlags++);
        size_t guard_at =
            emit({TapeOpcode::Guard, 0, 0, 0, uint32_t(flagOf_[size_t(id)]),
                  slot_[size_t(id)], 0});
        pushScope();
        compute(id);
        popScope();
        patchToHere(guard_at);
        // Whichever earlier copy of this computation set the flag, it
        // computed the node's unconditional operands too.
        markComputedWith(id);
        return slot_[size_t(id)];
    }

    /**
     * Mark `id` and every node computing it necessarily computes (its
     * operands, except the legs of a mux) as computed. Every copy of a
     * node's computation computes at least these, so they hold this
     * cycle's values after a Guard whether or not it skipped.
     */
    void
    markComputedWith(int id)
    {
        if (id < 0)
            return;
        const Node &n = nodes_[size_t(id)];
        if (isLeaf(n) || definite_[size_t(id)])
            return;
        markDefinite(id);
        if (n.kind == ExprKind::Mux) {
            markComputedWith(n.c);
            return;
        }
        markComputedWith(n.a);
        markComputedWith(n.b);
    }

    void
    compute(int id)
    {
        const Node &n = nodes_[size_t(id)];
        const uint32_t dst = slot_[size_t(id)];
        const auto wa = uint8_t(n.wa);
        const auto wb = uint8_t(n.wb);
        switch (n.kind) {
          case ExprKind::Bin: {
            uint32_t a = value(n.a);
            uint32_t b = value(n.b);
            emit({TapeOpcode(n.op), wa, wb, dst, a, b, 0});
            return;
          }
          case ExprKind::Un: {
            uint32_t a = value(n.a);
            emit({TapeOpcode(int(TapeOpcode::Not) + n.op), wa, 0, dst, a, 0,
                  0});
            return;
          }
          case ExprKind::Slice:
            emit({TapeOpcode::Slice, uint8_t(n.sliceLo), uint8_t(n.width),
                  dst, value(n.a), 0, 0});
            return;
          case ExprKind::Concat: {
            uint32_t a = value(n.a);
            uint32_t b = value(n.b);
            emit({TapeOpcode::Concat, wa, wb, dst, a, b, 0});
            return;
          }
          case ExprKind::VecRegRead:
          case ExprKind::BramRead: {
            const bool vec = n.kind == ExprKind::VecRegRead;
            const lang::Program &p = tape_.program;
            uint32_t base = vec ? tape_.vregBase[size_t(n.stateId)]
                                : tape_.bramBase[size_t(n.stateId)];
            uint32_t elements =
                uint32_t(vec ? p.vreg(n.stateId).elements
                             : p.bram(n.stateId).elements);
            emit({TapeOpcode::Load, 0, 0, dst, value(n.a), base, elements});
            return;
          }
          case ExprKind::Mux:
            computeMux(n, dst);
            return;
          default:
            panic("sim::Tape: leaf reached compute()");
        }
    }

    void
    computeMux(const Node &n, uint32_t dst)
    {
        uint32_t c = value(n.c);
        ++costEpoch_;
        if (newOps(n.a, Tape::kIfConvertOps) +
                newOps(n.b, Tape::kIfConvertOps) <=
            Tape::kIfConvertOps) {
            uint32_t a = value(n.a);
            uint32_t b = value(n.b);
            emit({TapeOpcode::Select, 0, 0, dst, a, b, c});
            return;
        }
        size_t to_else = emit({TapeOpcode::JumpIfZero, 0, 0, 0, c, 0, 0});
        pushScope();
        emit({TapeOpcode::Mov, 0, 0, dst, value(n.a), 0, 0});
        popScope();
        size_t to_end = emit({TapeOpcode::Jump});
        patchToHere(to_else);
        pushScope();
        emit({TapeOpcode::Mov, 0, 0, dst, value(n.b), 0, 0});
        popScope();
        patchToHere(to_end);
    }

    /**
     * A gated region: jumps that skip to its end. The region's scope
     * opens at the first jump, so nodes computed before it (the first
     * conjunct) stay available after the region.
     */
    struct Region
    {
        std::vector<size_t> exits;
        bool open = false;
    };

    void
    exitIf(Region &r, uint32_t slot, bool if_non_zero)
    {
        if (!r.open) {
            pushScope();
            r.open = true;
        }
        r.exits.push_back(emit({if_non_zero ? TapeOpcode::JumpIfNonZero
                                            : TapeOpcode::JumpIfZero,
                                0, 0, 0, slot, 0, 0}));
    }

    void
    openRegion(Region &r, int gate, bool inside_while)
    {
        if (!inside_while && !whileConds_.empty())
            exitIf(r, tape_.whileSlot, true);
        if (gate < 0)
            return;
        std::vector<GateTerm> terms;
        gateTerms(gate, terms);
        for (const GateTerm &t : terms)
            exitIf(r, value(t.node), t.passIfZero);
    }

    void
    closeRegion(Region &r)
    {
        for (size_t at : r.exits)
            patchToHere(at);
        if (r.open)
            popScope();
    }

    /**
     * Emit `count` actions, one region per run of consecutive actions
     * with the same gate and while class, so a run shares what its
     * actions compute (the Smith-Waterman row update is one region).
     */
    template <typename GateOf, typename Body>
    void
    emitActions(size_t count, GateOf gate_of, Body body)
    {
        size_t i = 0;
        while (i < count) {
            auto [gate, inside_while] = gate_of(i);
            Region r;
            openRegion(r, gate, inside_while);
            for (; i < count && gate_of(i) == std::pair(gate, inside_while);
                 ++i)
                body(i);
            closeRegion(r);
        }
    }

    void
    emitWhileConds()
    {
        if (whileConds_.empty()) {
            tape_.whileSlot = zeroSlot_;
            return;
        }
        if (whileConds_.size() == 1) {
            tape_.whileSlot = value(whileConds_[0]);
            return;
        }
        // Any true condition decides: later ones are skipped.
        tape_.whileSlot = newSlot();
        emit({TapeOpcode::Mov, 0, 0, tape_.whileSlot,
              value(whileConds_[0]), 0, 0});
        Region r;
        for (size_t w = 1; w < whileConds_.size(); ++w) {
            exitIf(r, tape_.whileSlot, true);
            emit({TapeOpcode::Mov, 0, 0, tape_.whileSlot,
                  value(whileConds_[w]), 0, 0});
        }
        closeRegion(r);
    }

    void
    emitReads()
    {
        const auto &reads = tape_.flat.bramReads;
        emitActions(
            reads.size(),
            [&](size_t i) {
                return std::pair(readGates_[i], reads[i].insideWhile);
            },
            [&](size_t i) {
                emit({TapeOpcode::CheckRead, 0, 0, uint32_t(i),
                      value(readAddrs_[i]), 0, 0});
            });
    }

    void
    emitAssigns()
    {
        const auto &assigns = tape_.flat.assigns;
        emitActions(
            assigns.size(),
            [&](size_t i) {
                return std::pair(assignGates_[i], assigns[i].insideWhile);
            },
            [&](size_t i) {
                uint32_t index = assignIndices_[i] < 0
                                     ? zeroSlot_
                                     : value(assignIndices_[i]);
                uint32_t v = value(assignValues_[i]);
                emit({TapeOpcode::Assign, 0, 0, uint32_t(i), v, index, 0});
            });
    }

    void
    emitEmits()
    {
        const auto &emits = tape_.flat.emits;
        emitActions(
            emits.size(),
            [&](size_t i) {
                return std::pair(emitGates_[i], emits[i].insideWhile);
            },
            [&](size_t i) {
                emit({TapeOpcode::Emit, 0, 0, uint32_t(i),
                      value(emitValues_[i]), 0, 0});
            });
    }

    Tape &tape_;

    std::vector<Node> nodes_;
    std::unordered_map<const lang::ExprNode *, int> byPtr_;
    std::unordered_map<Node, int, NodeHash> byValue_;
    std::vector<int> whileConds_;
    std::vector<int> readGates_, readAddrs_;
    std::vector<int> assignGates_, assignIndices_, assignValues_;
    std::vector<int> emitGates_, emitValues_;

    std::vector<uint32_t> slot_;
    uint32_t zeroSlot_ = 0;
    std::vector<uint32_t> uses_;

    /** Nodes computed on every path to the current point. */
    std::vector<uint8_t> definite_;
    std::vector<int> undo_;
    std::vector<size_t> scopes_;
    /** Nodes emitted anywhere earlier in the tape. */
    std::vector<uint8_t> emitted_;
    std::vector<int> flagOf_;
    std::vector<uint32_t> costMark_;
    uint32_t costEpoch_ = 0;
};

} // namespace

std::shared_ptr<const Tape>
Tape::compile(const lang::Program &program)
{
    auto tape = std::make_shared<Tape>();
    tape->program = program;
    tape->flat = lang::flatten(tape->program);
    TapeCompiler(*tape).compile();
#ifndef NDEBUG
    std::string problem = tape->verify();
    if (!problem.empty())
        panic("sim::Tape for ", program.name, ": ", problem);
#endif
    return tape;
}

std::string
Tape::verify() const
{
    const size_t n = ops.size();
    const uint32_t num_slots = uint32_t(initialSlots.size());
    if (n == 0 || ops.back().code != TapeOpcode::End)
        return "tape does not end with End";
    if (inputSlot >= firstTemp || finishedSlot >= firstTemp ||
        whileSlot >= num_slots || firstTemp > num_slots)
        return "state slot layout out of range";
    if (assigns.size() != flat.assigns.size())
        return "assign table does not match the flattened program";

    auto at = [](size_t pc) { return " at op " + std::to_string(pc); };
    const size_t words = (num_slots + 63) / 64;
    using Bits = std::vector<uint64_t>;
    auto meet = [&](std::optional<Bits> &into, const Bits &bits) {
        if (!into)
            into = bits;
        else
            for (size_t w = 0; w < words; ++w)
                (*into)[w] &= bits[w];
    };
    // Slots defined on every path into each op. Jumps are forward, so
    // one pass in order sees every predecessor of an op first. A Guard's
    // taken edge can only be followed once an earlier copy of its
    // section ran this cycle (the first copy always falls through), so
    // it carries what every earlier copy's section end had defined.
    std::unordered_map<size_t, std::optional<Bits>> jump_in;
    // Per target: the Guards whose sections end there, and what each
    // one's taken edge carries (if it can be followed).
    struct GuardEdge
    {
        uint32_t flag;
        std::optional<Bits> taken;
    };
    std::unordered_map<size_t, std::vector<GuardEdge>> guard_in;
    std::vector<std::optional<Bits>> flag_defs(numFlags);
    std::optional<Bits> current = Bits(words, 0);
    for (uint32_t s = 0; s < firstTemp; ++s)
        (*current)[s / 64] |= uint64_t(1) << (s % 64);

    for (size_t pc = 0; pc < n; ++pc) {
        if (auto in = jump_in.find(pc); in != jump_in.end()) {
            meet(current, *in->second);
            jump_in.erase(in);
        }
        if (auto in = guard_in.find(pc); in != guard_in.end()) {
            // A section's end is reached through the section: by falling
            // through, by its own jumps, or by skipping nested sections.
            std::optional<Bits> through = current;
            for (const GuardEdge &e : in->second)
                if (e.taken)
                    meet(current, *e.taken);
            for (const GuardEdge &e : in->second) {
                std::optional<Bits> end = through;
                for (const GuardEdge &other : in->second)
                    if (other.flag != e.flag && other.taken)
                        meet(end, *other.taken);
                if (end)
                    meet(flag_defs[e.flag], *end);
            }
            guard_in.erase(in);
        }
        if (!current)
            continue; // Unreachable.
        const TapeOp &op = ops[pc];
        Bits &live = *current;
        auto defined = [&](uint32_t s) {
            return s < num_slots && ((live[s / 64] >> (s % 64)) & 1);
        };
        auto define = [&](uint32_t s) {
            live[s / 64] |= uint64_t(1) << (s % 64);
        };
        std::vector<uint32_t> reads;
        bool writes = false;
        bool jumps = false;
        switch (op.code) {
          case TapeOpcode::Slice:
          case TapeOpcode::Mov:
          case TapeOpcode::Not:
          case TapeOpcode::LNot:
          case TapeOpcode::Neg:
            reads = {op.a};
            writes = true;
            break;
          case TapeOpcode::Concat:
            reads = {op.a, op.b};
            writes = true;
            break;
          case TapeOpcode::Select:
            reads = {op.a, op.b, op.c};
            writes = true;
            break;
          case TapeOpcode::Load:
            if (uint64_t(op.b) + op.c > initialMem.size())
                return "load outside memory" + at(pc);
            reads = {op.a};
            writes = true;
            break;
          case TapeOpcode::Jump:
            jumps = true;
            break;
          case TapeOpcode::JumpIfZero:
          case TapeOpcode::JumpIfNonZero:
            reads = {op.a};
            jumps = true;
            break;
          case TapeOpcode::Guard:
            if (op.a >= numFlags)
                return "done flag out of range" + at(pc);
            if (op.b < firstTemp || op.b >= num_slots)
                return "guarded slot out of range" + at(pc);
            jumps = true;
            break;
          case TapeOpcode::CheckRead:
            if (op.dst >= flat.bramReads.size())
                return "read occurrence out of range" + at(pc);
            reads = {op.a};
            break;
          case TapeOpcode::Assign:
            if (op.dst >= flat.assigns.size())
                return "assign out of range" + at(pc);
            reads = {op.a, op.b};
            break;
          case TapeOpcode::Emit:
            if (op.dst >= flat.emits.size())
                return "emit out of range" + at(pc);
            reads = {op.a};
            break;
          case TapeOpcode::End:
            reads = {whileSlot};
            break;
          default:
            if (op.code > TapeOpcode::Neg)
                return "unknown opcode" + at(pc);
            reads = {op.a, op.b}; // Binary operator.
            writes = true;
            break;
        }
        for (uint32_t s : reads)
            if (!defined(s))
                return "slot " + std::to_string(s) +
                       " read before it is defined on every path" + at(pc);
        if (writes) {
            if (op.dst < firstTemp || op.dst >= num_slots)
                return "result slot out of range" + at(pc);
            define(op.dst);
        }
        if (jumps) {
            if (op.dst <= pc || op.dst >= n)
                return "jump target out of range" + at(pc);
            if (op.code != TapeOpcode::Guard) {
                meet(jump_in[op.dst], live);
            } else {
                GuardEdge edge{op.a, std::nullopt};
                if (flag_defs[op.a]) {
                    edge.taken = live;
                    for (size_t w = 0; w < words; ++w)
                        (*edge.taken)[w] |= (*flag_defs[op.a])[w];
                }
                guard_in[op.dst].push_back(std::move(edge));
            }
        }
        if (op.code == TapeOpcode::Jump || op.code == TapeOpcode::End)
            current.reset();
    }
    return "";
}

} // namespace sim
} // namespace fleet
