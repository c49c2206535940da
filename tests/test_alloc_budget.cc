/**
 * @file
 * Heap-allocation budgets of the analysis passes every compile runs
 * (SCC walk, RecMII, verification, single-use pre-pass). The binary
 * replaces the global operator new with a counting one; each pass is
 * run once to warm its per-thread scratch and then measured on the
 * second call, the steady state a serving worker sees. The budgets
 * are fixed counts, so a change that brings the churn back fails
 * here rather than as a slow drift in compile throughput.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

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

} // namespace
} // namespace dms
