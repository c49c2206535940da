/**
 * @file
 * Unit tests for the DDG: construction, mutation (the chain-splice
 * machinery DMS depends on), the inline adjacency lists, structural
 * verification, and DOT export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ir/ddg.h"
#include "ir/dot.h"
#include "ir/verify.h"
#include "support/rng.h"

namespace dms {
namespace {

TEST(Opcode, ClassesAndArity)
{
    EXPECT_EQ(fuClassOf(Opcode::Load), FuClass::LdSt);
    EXPECT_EQ(fuClassOf(Opcode::Store), FuClass::LdSt);
    EXPECT_EQ(fuClassOf(Opcode::Add), FuClass::Add);
    EXPECT_EQ(fuClassOf(Opcode::Sub), FuClass::Add);
    EXPECT_EQ(fuClassOf(Opcode::Const), FuClass::Add);
    EXPECT_EQ(fuClassOf(Opcode::Mul), FuClass::Mul);
    EXPECT_EQ(fuClassOf(Opcode::Div), FuClass::Mul);
    EXPECT_EQ(fuClassOf(Opcode::Copy), FuClass::Copy);
    EXPECT_EQ(fuClassOf(Opcode::Move), FuClass::Copy);

    EXPECT_EQ(opcodeArity(Opcode::Load), 0);
    EXPECT_EQ(opcodeArity(Opcode::Store), 1);
    EXPECT_EQ(opcodeArity(Opcode::Add), 2);
    EXPECT_EQ(opcodeArity(Opcode::Move), 1);
}

TEST(Opcode, UsefulnessMatchesPaper)
{
    // Copy units "do not perform any useful computation".
    EXPECT_FALSE(isUseful(Opcode::Copy));
    EXPECT_FALSE(isUseful(Opcode::Move));
    EXPECT_TRUE(isUseful(Opcode::Load));
    EXPECT_TRUE(isUseful(Opcode::Mul));
}

TEST(Opcode, ValueProduction)
{
    EXPECT_FALSE(producesValue(Opcode::Store));
    EXPECT_TRUE(producesValue(Opcode::Load));
    EXPECT_TRUE(producesValue(Opcode::Move));
}

TEST(LatencyModelTest, DefaultsAndOverride)
{
    LatencyModel lat;
    EXPECT_EQ(lat.of(Opcode::Load), 2);
    EXPECT_EQ(lat.of(Opcode::Add), 1);
    EXPECT_EQ(lat.of(Opcode::Div), 8);
    lat.set(Opcode::Add, 3);
    EXPECT_EQ(lat.of(Opcode::Add), 3);
}

Ddg
smallGraph()
{
    // load -> add -> store, plus add self-loop (distance 1).
    Ddg g;
    OpId ld = g.addOp(Opcode::Load);
    OpId add = g.addOp(Opcode::Add);
    OpId st = g.addOp(Opcode::Store);
    g.addEdge(ld, add, DepKind::Flow, 0, 2, 0);
    g.addEdge(add, add, DepKind::Flow, 1, 1, 1);
    g.addEdge(add, st, DepKind::Flow, 0, 1, 0);
    return g;
}

TEST(Ddg, ConstructionBasics)
{
    Ddg g = smallGraph();
    EXPECT_EQ(g.numOps(), 3);
    EXPECT_EQ(g.liveOpCount(), 3);
    EXPECT_EQ(g.numEdges(), 3);
    EXPECT_EQ(g.op(0).opc, Opcode::Load);
    EXPECT_EQ(g.op(0).origId, 0);
    EXPECT_EQ(g.opLabel(1), "op1:add");
    EXPECT_TRUE(verifyDdg(g).empty());
}

TEST(Ddg, AdjacencyLists)
{
    Ddg g = smallGraph();
    EXPECT_EQ(g.op(0).outs.size(), 1u);
    EXPECT_EQ(g.op(1).ins.size(), 2u); // load + self loop
    EXPECT_EQ(g.op(1).outs.size(), 2u);
    EXPECT_EQ(g.op(2).ins.size(), 1u);
}

TEST(Ddg, FlowFanoutAndInputs)
{
    Ddg g = smallGraph();
    EXPECT_EQ(g.flowFanout(0), 1);
    EXPECT_EQ(g.flowFanout(1), 2); // self + store
    auto ins = g.flowInputs(1);
    EXPECT_EQ(ins.size(), 2u);
}

TEST(Ddg, CountsByClass)
{
    Ddg g = smallGraph();
    auto counts = g.opCountByClass();
    EXPECT_EQ(counts[static_cast<int>(FuClass::LdSt)], 2);
    EXPECT_EQ(counts[static_cast<int>(FuClass::Add)], 1);
    EXPECT_EQ(counts[static_cast<int>(FuClass::Mul)], 0);
    EXPECT_EQ(g.usefulOpCount(), 3);
}

TEST(Ddg, RemoveEdgeUnlinks)
{
    Ddg g = smallGraph();
    g.removeEdge(0);
    EXPECT_FALSE(g.edgeLive(0));
    EXPECT_EQ(g.op(0).outs.size(), 0u);
    EXPECT_EQ(g.op(1).ins.size(), 1u);
    EXPECT_TRUE(verifyDdg(g).empty());
}

TEST(Ddg, RemoveOpRequiresNoEdges)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    EXPECT_EQ(g.liveOpCount(), 1);
    g.removeOp(a);
    EXPECT_EQ(g.liveOpCount(), 0);
    EXPECT_FALSE(g.opLive(a));
}

TEST(Ddg, ReplacedEdgesAreInactive)
{
    Ddg g = smallGraph();
    EXPECT_TRUE(g.edgeActive(0));
    g.markReplaced(0);
    EXPECT_FALSE(g.edgeActive(0));
    EXPECT_TRUE(g.edgeLive(0));
    g.unmarkReplaced(0);
    EXPECT_TRUE(g.edgeActive(0));
}

TEST(Ddg, CopySemantics)
{
    Ddg g = smallGraph();
    Ddg copy = g; // per-II-attempt copy in DMS
    copy.markReplaced(0);
    EXPECT_TRUE(g.edgeActive(0));
    EXPECT_FALSE(copy.edgeActive(0));
    OpId mv = copy.addOp(Opcode::Move, OpOrigin::MoveOp);
    EXPECT_EQ(copy.numOps(), 4);
    EXPECT_EQ(g.numOps(), 3);
    EXPECT_EQ(copy.op(mv).origin, OpOrigin::MoveOp);
}

/** ---- EdgeList against a std::vector reference ----------------- */

std::vector<EdgeId>
contents(const EdgeList &list)
{
    return std::vector<EdgeId>(list.begin(), list.end());
}

/** Every observable of @p list agrees with @p ref. */
void
expectSame(const EdgeList &list, const std::vector<EdgeId> &ref)
{
    ASSERT_EQ(list.size(), ref.size());
    EXPECT_EQ(list.empty(), ref.empty());
    EXPECT_EQ(contents(list), ref);
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(list[i], ref[i]) << "index " << i;
}

/** A list and its reference holding ids base, base+1, ... */
EdgeList
filled(int n, int base, std::vector<EdgeId> *ref = nullptr)
{
    EdgeList list;
    for (int i = 0; i < n; ++i) {
        list.push_back(base + i);
        if (ref != nullptr)
            ref->push_back(base + i);
    }
    return list;
}

TEST(EdgeList, RandomEditsMatchVector)
{
    Rng rng(20260419);
    for (int round = 0; round < 300; ++round) {
        EdgeList list;
        std::vector<EdgeId> ref;
        EdgeId next = 0;
        for (int step = 0; step < 80; ++step) {
            const int what = rng.range(0, 9);
            if (what <= 4) {
                list.push_back(next);
                ref.push_back(next++);
            } else if (what <= 6) {
                if (ref.empty())
                    continue;
                const int at =
                    rng.range(0, static_cast<int>(ref.size()) - 1);
                list.erase(list.begin() + at);
                ref.erase(ref.begin() + at);
            } else if (what == 7) {
                const size_t n = static_cast<size_t>(rng.range(0, 12));
                list.reserve(n);
                ref.reserve(n);
            } else if (what == 8) {
                if (rng.range(0, 3) == 0) {
                    list.clear();
                    ref.clear();
                }
            } else {
                // Round-trip through a copy and a move.
                EdgeList copy = list;
                EdgeList moved = std::move(copy);
                list = moved;
            }
            expectSame(list, ref);
        }
    }
}

TEST(EdgeList, CopyAndMoveInlineAndSpilled)
{
    // Sizes on both sides of the inline capacity, into targets that
    // are themselves inline or spilled.
    for (int n : {0, 1, 4, 5, 11}) {
        for (int target : {0, 3, 9}) {
            SCOPED_TRACE(testing::Message()
                         << "source " << n << ", target " << target);
            std::vector<EdgeId> ref;
            const EdgeList src = filled(n, 100, &ref);

            const EdgeList constructed(src);
            expectSame(constructed, ref);

            EdgeList assigned = filled(target, 500);
            assigned = src;
            expectSame(assigned, ref);
            expectSame(src, ref);

            EdgeList from = src;
            const EdgeList move_constructed(std::move(from));
            expectSame(move_constructed, ref);
            EXPECT_TRUE(from.empty());
            from.push_back(7); // a moved-from list stays usable
            expectSame(from, {7});

            EdgeList donor = src;
            EdgeList move_assigned = filled(target, 500);
            move_assigned = std::move(donor);
            expectSame(move_assigned, ref);
            EXPECT_TRUE(donor.empty());

            // Self-assignment, through an alias.
            EdgeList self = src;
            EdgeList &alias = self;
            self = alias;
            expectSame(self, ref);
            self = std::move(alias);
            expectSame(self, ref);
        }
    }
}

TEST(EdgeList, SpillsPastInlineCapacityAndShrinksBack)
{
    std::vector<EdgeId> ref;
    EdgeList list = filled(static_cast<int>(EdgeList::kInline), 0, &ref);
    expectSame(list, ref);
    for (EdgeId e = 10; e < 30; ++e) {
        list.push_back(e);
        ref.push_back(e);
        expectSame(list, ref);
    }
    // Shrink from the front, middle and back down to one id, then
    // grow again past the inline capacity.
    while (ref.size() > 1) {
        const size_t at = ref.size() % 3 == 0 ? 0
                          : ref.size() % 3 == 1 ? ref.size() / 2
                                                : ref.size() - 1;
        list.erase(list.begin() + at);
        ref.erase(ref.begin() + static_cast<long>(at));
        expectSame(list, ref);
    }
    const EdgeList small = list; // a copy of a shrunk list
    expectSame(small, ref);
    for (EdgeId e = 40; e < 50; ++e) {
        list.push_back(e);
        ref.push_back(e);
    }
    expectSame(list, ref);
    list.clear();
    ref.clear();
    expectSame(list, ref);
    list.push_back(3);
    expectSame(list, {3});
}

TEST(Ddg, RemoveEdgeKeepsOrderOnSpilledList)
{
    // One producer with nine uses: its out-list spills, and removing
    // edges from the front, middle and end keeps the others in
    // insertion order (chain splicing relies on this).
    Ddg g;
    OpId src = g.addOp(Opcode::Load);
    std::vector<EdgeId> want;
    for (int i = 0; i < 9; ++i) {
        OpId use = g.addOp(Opcode::Store);
        want.push_back(g.addEdge(src, use, DepKind::Flow, 0, 2, 0));
    }
    EXPECT_EQ(contents(g.op(src).outs), want);
    for (EdgeId e : {want[0], want[4], want[8]}) {
        g.removeEdge(e);
        want.erase(std::find(want.begin(), want.end(), e));
        EXPECT_EQ(contents(g.op(src).outs), want);
    }
    Ddg copy;
    copy.resetTo(g);
    EXPECT_EQ(contents(copy.op(src).outs), want);
    EXPECT_TRUE(verifyDdg(copy).empty());
}

TEST(Ddg, UsefulCountExcludesCopyAndMove)
{
    Ddg g = smallGraph();
    g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    g.addOp(Opcode::Move, OpOrigin::MoveOp);
    EXPECT_EQ(g.liveOpCount(), 5);
    EXPECT_EQ(g.usefulOpCount(), 3);
}

TEST(DdgVerify, DetectsZeroDistanceCycle)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Add);
    OpId b = g.addOp(Opcode::Add);
    g.addEdge(a, b, DepKind::Flow, 0, 1, 0);
    g.addEdge(b, a, DepKind::Flow, 0, 1, 0);
    auto problems = verifyDdg(g);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("zero-distance"), std::string::npos);
}

TEST(DdgVerify, AcceptsPositiveDistanceCycle)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Add);
    OpId b = g.addOp(Opcode::Add);
    g.addEdge(a, b, DepKind::Flow, 0, 1, 0);
    g.addEdge(b, a, DepKind::Flow, 1, 1, 0);
    EXPECT_TRUE(verifyDdg(g).empty());
}

TEST(DdgVerify, DetectsDoubleFedSlot)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    OpId b = g.addOp(Opcode::Load);
    OpId c = g.addOp(Opcode::Add);
    g.addEdge(a, c, DepKind::Flow, 0, 2, 0);
    g.addEdge(b, c, DepKind::Flow, 0, 2, 0); // same slot 0
    auto problems = verifyDdg(g);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("fed twice"), std::string::npos);
}

TEST(DdgVerify, DetectsSlotBeyondArity)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    OpId st = g.addOp(Opcode::Store);
    g.addEdge(a, st, DepKind::Flow, 0, 2, 1); // store arity 1
    auto problems = verifyDdg(g);
    ASSERT_FALSE(problems.empty());
}

TEST(DdgVerify, FanoutBoundOption)
{
    Ddg g;
    OpId a = g.addOp(Opcode::Load);
    for (int i = 0; i < 3; ++i) {
        OpId s = g.addOp(Opcode::Store);
        g.addEdge(a, s, DepKind::Flow, 0, 2, 0);
    }
    EXPECT_TRUE(verifyDdg(g).empty());
    DdgVerifyOptions opts;
    opts.maxFlowFanout = 2;
    EXPECT_FALSE(verifyDdg(g, opts).empty());
}

TEST(TopoOrder, RespectsZeroDistanceEdges)
{
    Ddg g = smallGraph();
    auto order = topoOrderZeroDistance(g);
    ASSERT_EQ(order.size(), 3u);
    auto pos = [&](OpId id) {
        return std::find(order.begin(), order.end(), id) -
               order.begin();
    };
    EXPECT_LT(pos(0), pos(1));
    EXPECT_LT(pos(1), pos(2));
}

TEST(Dot, ExportMentionsOpsAndEdges)
{
    Ddg g = smallGraph();
    std::string dot = ddgToDot(g, "g");
    EXPECT_NE(dot.find("digraph g"), std::string::npos);
    EXPECT_NE(dot.find("op0:load"), std::string::npos);
    EXPECT_NE(dot.find("n1 -> n2"), std::string::npos);
    EXPECT_NE(dot.find("d=1"), std::string::npos);
}

TEST(DepKindNames, AllNamed)
{
    EXPECT_STREQ(depKindName(DepKind::Flow), "flow");
    EXPECT_STREQ(depKindName(DepKind::Anti), "anti");
    EXPECT_STREQ(depKindName(DepKind::Output), "output");
    EXPECT_STREQ(depKindName(DepKind::Memory), "memory");
}

} // namespace
} // namespace dms
