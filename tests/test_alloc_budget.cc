/**
 * @file
 * Heap-allocation budgets of the passes every compile runs (graph
 * copy and reset, unrolling, SCC walk, RecMII, verification,
 * single-use pre-pass, the DMS schedule stage). The binary
 * replaces the global operator new with a counting one; each pass is
 * run once to warm its per-thread scratch and then measured on the
 * second call, the steady state a serving worker sees. The budgets
 * are fixed counts, so a change that brings the churn back fails
 * here rather than as a slow drift in compile throughput.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <utility>

#include "core/pipeline.h"
#include "ir/prepass.h"
#include "ir/scc.h"
#include "ir/unroll.h"
#include "sched/mii.h"
#include "sched/verifier.h"
#include "workload/kernels.h"

namespace {

long g_allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size != 0 ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dms {
namespace {

/** Heap allocations made while running @p fn. */
template <typename Fn>
long
allocationsDuring(Fn &&fn)
{
    const long before = g_allocations;
    fn();
    return g_allocations - before;
}

/**
 * The fixed body: the IIR filter unrolled five times — recurrences
 * threaded through every copy and values with enough fan-out for the
 * pre-pass to insert copies. On an 8-cluster ring DMS routes some of
 * its values through move chains.
 */
const int kUnroll = 5;

Loop
fixedLoop()
{
    return kernelIir2();
}

Ddg
fixedBody()
{
    return unrollDdg(fixedLoop().ddg, kUnroll);
}

TEST(AllocBudget, CounterSeesAllocations)
{
    const Ddg body = fixedBody();
    EXPECT_GE(allocationsDuring([&] { (void)body.liveOps(); }), 1);
}

TEST(AllocBudget, RecMiiAndHasRecurrenceAllocateNothing)
{
    const Ddg body = fixedBody();
    const int rec = recMii(body);
    ASSERT_TRUE(hasRecurrence(body));
    int again = 0;
    bool cyclic = false;
    EXPECT_EQ(allocationsDuring([&] { again = recMii(body); }), 0);
    EXPECT_EQ(allocationsDuring([&] { cyclic = hasRecurrence(body); }),
              0);
    EXPECT_EQ(again, rec);
    EXPECT_TRUE(cyclic);
}

TEST(AllocBudget, CheckScheduleAllocatesAtMostOneBlock)
{
    const MachineModel machine = MachineModel::clusteredRing(8);
    const Loop loop = fixedLoop();
    PipelineOptions opts;
    opts.forceUnroll = kUnroll;
    Pipeline pipe(opts);
    CompilationContext ctx;
    ASSERT_TRUE(pipe.run(loop, machine, ctx));
    const Ddg &ddg = ctx.scheduledDdg();
    const PartialSchedule &ps = *ctx.result.sched.schedule;
    // DMS inserted move chains, so the communication checks (move
    // paths behind replaced edges) run too.
    ASSERT_GT(ctx.result.sched.movesInserted, 0);

    const auto check = [&] { checkSchedule(ddg, machine, ps); };
    check();
    EXPECT_LE(allocationsDuring(check), 1);
}

TEST(AllocBudget, PrepassAllocatesOnlyForWhatItInserts)
{
    const Ddg body = fixedBody();
    const int copy_latency = 1;
    Ddg warm = body;
    singleUsePrepass(warm, copy_latency);

    Ddg g = body;
    PrepassStats stats;
    const long allocations = allocationsDuring(
        [&] { stats = singleUsePrepass(g, copy_latency); });
    const int edges_inserted = g.numEdges() - body.numEdges();
    ASSERT_GT(stats.copiesInserted, 0);
    EXPECT_LE(allocations, stats.copiesInserted + edges_inserted)
        << stats.copiesInserted << " copies, " << edges_inserted
        << " edges inserted";
}

TEST(AllocBudget, GraphCopyAndResetAllocateOnlyTheArrays)
{
    // Adjacency lists are inline, so a copy allocates the op and
    // edge arrays and nothing per operation, and a reset into a
    // graph that already held the body allocates nothing.
    const Ddg body = fixedBody();
    ASSERT_GT(body.numOps(), 20);
    EXPECT_LE(allocationsDuring([&] { Ddg copy = body; }), 2);

    Ddg target;
    target.resetTo(body);
    EXPECT_EQ(allocationsDuring([&] { target.resetTo(body); }), 0);
}

TEST(AllocBudget, UnrollAllocatesOnlyTheArrays)
{
    const Loop loop = fixedLoop();
    Ddg fresh;
    EXPECT_LE(allocationsDuring(
                  [&] { fresh = unrollDdg(loop.ddg, kUnroll); }),
              2);

    // Rebuilt in place (the pipeline's path), nothing at all.
    Ddg body;
    unrollDdg(loop.ddg, kUnroll, body);
    EXPECT_EQ(
        allocationsDuring([&] { unrollDdg(loop.ddg, kUnroll, body); }),
        0);
    EXPECT_EQ(body.numOps(), fresh.numOps());
    EXPECT_EQ(body.numEdges(), fresh.numEdges());
}

TEST(AllocBudget, ReusedDmsScheduleStageAllocatesAHandful)
{
    // The schedule stage through one reused context: the DMS arena
    // takes the previous result's graph and schedule back and its
    // chain records keep their lists, so a repeat compile of the
    // same body finds every buffer already sized (0 measured; the
    // slack is for an incidental block, not per-op or per-chain
    // churn).
    const MachineModel machine = MachineModel::clusteredRing(8);
    const Loop loop = fixedLoop();
    PipelineOptions opts;
    opts.forceUnroll = kUnroll;
    Pipeline pipe(opts);
    CompilationContext ctx;
    ASSERT_TRUE(pipe.run(loop, machine, ctx));
    ASSERT_GT(ctx.result.sched.movesInserted, 0);

    Scheduler &dms = ctx.scheduler("dms");
    SchedulerConfig config = opts.config;
    config.dms.knownResMii = ctx.resMii;
    config.dms.knownRecMii = ctx.recMii;
    const SchedOutcome &first = ctx.result.sched;
    const int ii = first.ii;
    const long used = first.budgetUsed;
    // What the pipeline's schedule stage does: hand the previous
    // result back, then schedule into an empty one.
    auto rerun = [&] {
        dms.recycle(std::exchange(ctx.result, SchedulerResult{}));
        dms.schedule(ctx.body, machine, config, ctx.result);
    };
    rerun();
    const long allocations = allocationsDuring(rerun);
    ASSERT_TRUE(ctx.result.sched.ok);
    EXPECT_EQ(ctx.result.sched.ii, ii);
    EXPECT_EQ(ctx.result.sched.budgetUsed, used);
    EXPECT_LE(allocations, 2);
}

} // namespace
} // namespace dms
