/**
 * @file
 * SCC detection and MII bounds (ResMII / RecMII) against
 * hand-computed values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "ir/prepass.h"
#include "ir/scc.h"
#include "machine/machine.h"
#include "sched/mii.h"
#include "workload/kernels.h"
#include "workload/synth.h"
#include "workload/unroll_policy.h"

namespace dms {
namespace {

/** Every SCC forEachScc visits, in visiting order. */
std::vector<std::vector<OpId>>
collectSccs(const Ddg &g)
{
    std::vector<std::vector<OpId>> sccs;
    forEachScc(g, [&](const OpId *ops, size_t n) {
        sccs.emplace_back(ops, ops + n);
    });
    return sccs;
}

TEST(Scc, AcyclicGraphHasTrivialSccs)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId y = b.mul1(x);
    b.store(1, y);
    Ddg g = b.take();
    auto sccs = collectSccs(g);
    EXPECT_EQ(sccs.size(), 3u);
    for (const auto &scc : sccs)
        EXPECT_EQ(scc.size(), 1u);
    EXPECT_FALSE(hasRecurrence(g));
}

TEST(Scc, SelfLoopIsRecurrence)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId acc = b.add1(x);
    b.flow(acc, acc, 1, 1);
    b.store(1, acc);
    Ddg g = b.take();
    EXPECT_TRUE(hasRecurrence(g));
}

TEST(Scc, TwoOpCycleDetected)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x);
    OpId m = b.mul1(a);
    b.flow(m, a, 1, 1);
    b.store(1, m);
    Ddg g = b.take();
    auto sccs = collectSccs(g);
    size_t big = 0;
    for (const auto &scc : sccs)
        big = std::max(big, scc.size());
    EXPECT_EQ(big, 2u);
    EXPECT_TRUE(hasRecurrence(g));
}

TEST(Scc, ReplacedEdgesDoNotParticipate)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x);
    EdgeId back = b.flow(a, a, 1, 1);
    b.store(1, a);
    Ddg g = b.take();
    g.markReplaced(back);
    EXPECT_FALSE(hasRecurrence(g));
}

TEST(ResMii, CeilingOfClassPressure)
{
    // 4 loads+stores on 1 L/S unit -> ResMII 4.
    LoopBuilder b;
    OpId l1 = b.load(0);
    OpId l2 = b.load(1);
    OpId s = b.add(l1, l2);
    b.store(2, s);
    b.store(3, s);
    Ddg g = b.take();
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(1)), 4);
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(2)), 2);
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(4)), 1);
    EXPECT_EQ(resMii(g, MachineModel::unclustered(2)), 2);
}

TEST(ResMii, CopyOpsPressCopyUnits)
{
    LoopBuilder b;
    OpId x = b.load(0);
    b.store(1, x);
    Ddg g = b.take();
    OpId c1 = g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    OpId c2 = g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    OpId c3 = g.addOp(Opcode::Copy, OpOrigin::CopyOp);
    g.addEdge(x, c1, DepKind::Flow, 0, 2, 0);
    g.addEdge(c1, c2, DepKind::Flow, 0, 1, 0);
    g.addEdge(c2, c3, DepKind::Flow, 0, 1, 0);
    // 3 copies / 1 copy unit = 3.
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(1)), 3);
    // ...or 2 copy units per cluster = ceil(3/2) = 2 (A2 ablation).
    EXPECT_EQ(resMii(g, MachineModel::clusteredRing(1, 2)), 2);
}

TEST(RecMii, AcyclicIsOne)
{
    EXPECT_EQ(recMii(kernelDaxpy().ddg), 1);
    EXPECT_EQ(recMii(kernelFir8().ddg), 1);
}

TEST(RecMii, AccumulatorSelfLoop)
{
    // add (lat 1) self-loop distance 1 -> RecMII = 1.
    EXPECT_EQ(recMii(kernelDotProduct().ddg), 1);
}

TEST(RecMii, LatencyOverDistanceRatio)
{
    // mul (lat 2) -> add (lat 1) -> mul, back distance 1:
    // cycle latency 3, distance 1 -> RecMII 3.
    LoopBuilder b;
    OpId x = b.load(0);
    OpId m = b.mul1(x);
    OpId a = b.add1(m);
    b.flow(a, m, 1, 1);
    b.store(1, a);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 3);
}

TEST(RecMii, DistanceTwoHalvesTheBound)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId m = b.mul1(x);
    OpId a = b.add1(m);
    b.flow(a, m, 1, 2); // same cycle, distance 2
    b.store(1, a);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 2); // ceil(3/2)
}

TEST(RecMii, HornerIsMulPlusAdd)
{
    // mul(2) + add(1) over distance 1 -> 3.
    EXPECT_EQ(recMii(kernelHorner().ddg), 3);
}

TEST(RecMii, LongLatencyDivRecurrence)
{
    // div(8) + sub(1) over distance 2 -> ceil(9/2) = 5.
    EXPECT_EQ(recMii(kernelMixedLongLatency().ddg), 5);
}

TEST(RecMii, TakesMaxOverCycles)
{
    LoopBuilder b;
    OpId x = b.load(0);
    OpId a = b.add1(x); // fast accumulator: 1/1
    b.flow(a, a, 1, 1);
    OpId m = b.mul1(x); // slow 2-op cycle: (2+1)/1 = 3
    OpId c = b.add1(m);
    b.flow(c, m, 1, 1);
    b.store(1, a);
    b.store(2, c);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 3);
}

TEST(RecMii, MemoryEdgeCyclesCount)
{
    // store -> load memory dep (dist 1) closing a flow path:
    // load(2) -> add(1) -> store, mem lat 1 => cycle lat 4, d 1.
    LoopBuilder b;
    OpId ld = b.load(0);
    OpId a = b.add1(ld);
    OpId st = b.store(0, a);
    b.memDep(st, ld, 1, 1);
    Ddg g = b.take();
    EXPECT_EQ(recMii(g), 4);
}

TEST(MinII, MaxOfBounds)
{
    Loop horner = kernelHorner(); // RecMII 3, tiny ResMII
    MachineModel m1 = MachineModel::clusteredRing(1);
    EXPECT_EQ(minII(horner.ddg, m1), 3);

    Loop fir = kernelFir8(); // 8 loads+1 store on 1 L/S: ResMII 9
    EXPECT_EQ(minII(fir.ddg, m1), 9);
    MachineModel m3 = MachineModel::clusteredRing(3);
    EXPECT_EQ(minII(fir.ddg, m3), 3);
}

TEST(KernelFacts, RecurrenceFlagsMatch)
{
    EXPECT_FALSE(kernelDaxpy().recurrence);
    EXPECT_TRUE(kernelDotProduct().recurrence);
    EXPECT_TRUE(kernelIir2().recurrence);
    EXPECT_FALSE(kernelComplexMultiply().recurrence);
    EXPECT_FALSE(kernelColorConvert().recurrence);
    EXPECT_TRUE(kernelPrefixSum().recurrence);
    EXPECT_FALSE(kernelFftButterfly().recurrence);
}

TEST(KernelFacts, AllSixteenBuildAndVerify)
{
    auto kernels = namedKernels();
    EXPECT_EQ(kernels.size(), 16u);
    for (const Loop &k : kernels) {
        EXPECT_GT(k.ddg.liveOpCount(), 0) << k.name;
        EXPECT_GT(k.tripCount, 0) << k.name;
    }
}

/**
 * Naive reference for the SCC layer: components from the transitive
 * closure (v shares u's component iff each reaches the other over
 * active edges), the recurrence flag from those components plus
 * self-loops, and RecMII by scanning II upward until no cycle has
 * positive weight latency - II * distance anywhere in the graph.
 */
struct NaiveScc
{
    explicit NaiveScc(const Ddg &g) : ddg(g)
    {
        const size_t n = static_cast<size_t>(g.numOps());
        std::vector<std::vector<char>> reach(n,
                                             std::vector<char>(n, 0));
        for (OpId u = 0; u < g.numOps(); ++u) {
            if (!g.opLive(u))
                continue;
            std::vector<OpId> stack{u};
            reach[static_cast<size_t>(u)][static_cast<size_t>(u)] = 1;
            while (!stack.empty()) {
                OpId v = stack.back();
                stack.pop_back();
                for (EdgeId e : g.op(v).outs) {
                    if (!g.edgeActive(e))
                        continue;
                    if (g.edge(e).src == g.edge(e).dst)
                        selfLoop = true;
                    char &r = reach[static_cast<size_t>(u)]
                                   [static_cast<size_t>(g.edge(e).dst)];
                    if (!r) {
                        r = 1;
                        stack.push_back(g.edge(e).dst);
                    }
                }
            }
        }
        // Canonical component id: the smallest member.
        comp.assign(n, kInvalidOp);
        for (OpId u = 0; u < g.numOps(); ++u) {
            if (!g.opLive(u) || comp[static_cast<size_t>(u)] >= 0)
                continue;
            for (OpId v = u; v < g.numOps(); ++v) {
                if (reach[static_cast<size_t>(u)]
                         [static_cast<size_t>(v)] &&
                    reach[static_cast<size_t>(v)]
                         [static_cast<size_t>(u)]) {
                    comp[static_cast<size_t>(v)] = u;
                    if (v != u)
                        nonTrivial = true;
                }
            }
        }
    }

    bool hasRecurrence() const { return selfLoop || nonTrivial; }

    /** Bellman-Ford over the whole graph from all-zero potentials. */
    bool
    positiveCycleAt(int ii) const
    {
        std::vector<std::int64_t> dist(
            static_cast<size_t>(ddg.numOps()), 0);
        for (int pass = 0; pass <= ddg.numOps(); ++pass) {
            bool changed = false;
            for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
                if (!ddg.edgeActive(e))
                    continue;
                const Edge &ed = ddg.edge(e);
                std::int64_t w = ed.latency -
                    static_cast<std::int64_t>(ii) * ed.distance;
                std::int64_t &d = dist[static_cast<size_t>(ed.dst)];
                if (dist[static_cast<size_t>(ed.src)] + w > d) {
                    d = dist[static_cast<size_t>(ed.src)] + w;
                    changed = true;
                }
            }
            if (!changed)
                return false;
        }
        return true;
    }

    int
    recMii() const
    {
        // Every cycle carries distance >= 1, so II = total latency
        // always clears it.
        int cap = 1;
        for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
            if (ddg.edgeActive(e))
                cap += ddg.edge(e).latency;
        }
        for (int ii = 1; ii <= cap; ++ii) {
            if (!positiveCycleAt(ii))
                return ii;
        }
        ADD_FAILURE() << "no feasible II up to " << cap;
        return -1;
    }

    const Ddg &ddg;
    std::vector<OpId> comp;
    bool selfLoop = false;
    bool nonTrivial = false;
};

/** forEachScc's components against the closure's, member for member. */
void
expectSccsMatchNaive(const Ddg &g,
                     const std::vector<std::vector<OpId>> &sccs,
                     const std::string &what)
{
    NaiveScc naive(g);
    std::vector<int> visits(static_cast<size_t>(g.numOps()), 0);
    for (const auto &scc : sccs) {
        ASSERT_FALSE(scc.empty()) << what;
        EXPECT_TRUE(std::is_sorted(scc.begin(), scc.end())) << what;
        const OpId id = naive.comp[static_cast<size_t>(scc[0])];
        size_t size = 0;
        for (OpId c : naive.comp)
            size += c == id ? 1 : 0;
        EXPECT_EQ(scc.size(), size) << what << " op" << scc[0];
        for (OpId v : scc) {
            EXPECT_TRUE(g.opLive(v)) << what << " op" << v;
            EXPECT_EQ(naive.comp[static_cast<size_t>(v)], id)
                << what << " op" << v;
            ++visits[static_cast<size_t>(v)];
        }
    }
    for (OpId v = 0; v < g.numOps(); ++v)
        EXPECT_EQ(visits[static_cast<size_t>(v)], g.opLive(v) ? 1 : 0)
            << what << " op" << v;
}

void
expectMatchesNaive(const Ddg &g, const std::string &what)
{
    expectSccsMatchNaive(g, collectSccs(g), what);
    NaiveScc naive(g);
    EXPECT_EQ(hasRecurrence(g), naive.hasRecurrence()) << what;
    EXPECT_EQ(recMii(g), naive.recMii()) << what;
}

/** The named kernels plus a fixed synthetic suite. */
std::vector<Loop>
differentialLoops()
{
    std::vector<Loop> loops = namedKernels();
    for (Loop &l : synthesizeSuite(/*seed=*/20260, /*count=*/48))
        loops.push_back(std::move(l));
    return loops;
}

TEST(SccDifferential, RawBodiesMatchNaiveReference)
{
    for (const Loop &loop : differentialLoops())
        expectMatchesNaive(loop.ddg, loop.name);
}

TEST(SccDifferential, UnrolledPrepassedBodiesMatchNaiveReference)
{
    // Unrolling multiplies recurrences across copies and the
    // pre-pass threads copy chains through them: the graphs the MII
    // stage actually sees.
    const MachineModel m = MachineModel::clusteredRing(4);
    int unrolled = 0;
    int copied = 0;
    int cyclic = 0;
    for (const Loop &loop : differentialLoops()) {
        Ddg body = applyUnrollPolicy(loop.ddg, m);
        expectMatchesNaive(body, loop.name + " unrolled");
        PrepassStats stats =
            singleUsePrepass(body, m.latencyOf(Opcode::Copy));
        expectMatchesNaive(body, loop.name + " pre-passed");
        unrolled += body.unrollFactor() > 1 ? 1 : 0;
        copied += stats.copiesInserted > 0 ? 1 : 0;
        cyclic += loop.recurrence ? 1 : 0;
    }
    // The suite must exercise every shape the comparison is about.
    EXPECT_GE(unrolled, 10);
    EXPECT_GE(copied, 10);
    EXPECT_GE(cyclic, 10);
}

TEST(SccDifferential, NestedWalkFromInsideAVisitor)
{
    // A visitor may start another walk (directly, or through
    // recMii/hasRecurrence) without disturbing the outer one: the
    // members it was handed stay intact and the walk completes.
    const Loop outer_loop = kernelIir2();
    const Ddg &outer = outer_loop.ddg;
    const Ddg inner = applyUnrollPolicy(kernelHorner().ddg,
                                        MachineModel::clusteredRing(4));
    NaiveScc inner_naive(inner);

    std::vector<std::vector<OpId>> outer_sccs;
    forEachScc(outer, [&](const OpId *ops, size_t n) {
        const std::vector<OpId> before(ops, ops + n);
        expectSccsMatchNaive(inner, collectSccs(inner), "nested");
        EXPECT_EQ(recMii(inner), inner_naive.recMii());
        EXPECT_EQ(hasRecurrence(inner), inner_naive.hasRecurrence());
        EXPECT_EQ(std::vector<OpId>(ops, ops + n), before);
        outer_sccs.push_back(before);
    });
    expectSccsMatchNaive(outer, outer_sccs, "outer");
    EXPECT_EQ(outer_sccs, collectSccs(outer));
}

} // namespace
} // namespace dms
