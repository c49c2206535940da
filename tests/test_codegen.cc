/**
 * @file
 * Kernel construction, cycle model, IPC accounting, and the
 * assembly emitters.
 */

#include <cstdint>
#include <string_view>

#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "codegen/perf.h"
#include "core/dms.h"
#include "core/pipeline.h"
#include "ir/prepass.h"
#include "sched/ims.h"
#include "workload/kernels.h"
#include "workload/suite.h"
#include "workload/synth.h"
#include "workload/text.h"

namespace dms {
namespace {

TEST(Kernel, RowsHoldAllOps)
{
    Loop k = kernelDaxpy();
    MachineModel m = MachineModel::unclustered(1);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    PipelinedLoop loop = buildPipelinedLoop(k.ddg, *out.schedule);
    EXPECT_EQ(loop.ii, out.ii);
    size_t total = 0;
    for (const auto &row : loop.rows)
        total += row.size();
    EXPECT_EQ(total, static_cast<size_t>(k.ddg.liveOpCount()));
}

TEST(Kernel, StageNumbers)
{
    Loop k = kernelDaxpy();
    MachineModel m = MachineModel::unclustered(1);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    PipelinedLoop loop = buildPipelinedLoop(k.ddg, *out.schedule);
    for (const auto &row : loop.rows) {
        for (const KernelSlot &s : row) {
            EXPECT_EQ(s.stage,
                      out.schedule->timeOf(s.op) / loop.ii);
            EXPECT_LT(s.stage, loop.stageCount);
        }
    }
}

TEST(Kernel, CycleModel)
{
    PipelinedLoop loop;
    loop.ii = 4;
    loop.stageCount = 3;
    EXPECT_EQ(loop.rampCycles(), 8);
    // (N + SC - 1) * II.
    EXPECT_EQ(loop.cyclesFor(1), 12);
    EXPECT_EQ(loop.cyclesFor(100), 408);
    EXPECT_EQ(loop.cyclesFor(0), 0);
}

TEST(Perf, IpcCountsOnlyUsefulOps)
{
    // Build a schedule containing copies and verify they are not
    // in the numerator.
    Loop k = kernelStencil3(); // pre-pass inserts a copy
    MachineModel m = MachineModel::clusteredRing(2);
    Ddg body = k.ddg;
    singleUsePrepass(body, m.latencyOf(Opcode::Copy));
    ASSERT_GT(body.liveOpCount(), k.ddg.liveOpCount());
    DmsOutcome out = scheduleDms(body, m);
    ASSERT_TRUE(out.sched.ok);

    LoopPerf perf = evaluatePerf(*out.ddg, *out.sched.schedule, 50);
    EXPECT_EQ(perf.usefulOps, k.ddg.liveOpCount());
    EXPECT_GT(perf.ipc, 0.0);
    EXPECT_LE(perf.ipc, m.usefulFuCount());
    EXPECT_EQ(perf.cycles,
              (50 + perf.stageCount - 1) *
                  static_cast<long>(perf.ii));
}

TEST(Perf, IpcApproachesWidthForParallelLoops)
{
    // color_convert: 21 independent useful ops; on a wide machine
    // the steady state should sustain good IPC.
    Loop k = kernelColorConvert();
    MachineModel m = MachineModel::unclustered(7);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    // Mul pressure binds: 9 muls on 7 units -> II 2, so the best
    // possible useful IPC is 21/2 = 10.5.
    LoopPerf perf = evaluatePerf(k.ddg, *out.schedule, 10000);
    EXPECT_GT(perf.ipc, 10.0);
    EXPECT_LE(perf.ipc, 10.5);
}

TEST(Emit, KernelShowsOpsAndStages)
{
    Loop k = kernelDaxpy();
    MachineModel m = MachineModel::clusteredRing(2);
    Ddg body = k.ddg;
    singleUsePrepass(body, 1);
    DmsOutcome out = scheduleDms(body, m);
    ASSERT_TRUE(out.sched.ok);
    PipelinedLoop loop =
        buildPipelinedLoop(*out.ddg, *out.sched.schedule);
    std::string txt = emitKernel(*out.ddg, m, loop);
    EXPECT_NE(txt.find("kernel: II="), std::string::npos);
    EXPECT_NE(txt.find("load"), std::string::npos);
    EXPECT_NE(txt.find("c1:"), std::string::npos);
}

TEST(Emit, PipelinedCodeHasAllPhases)
{
    Loop k = kernelFir8();
    MachineModel m = MachineModel::unclustered(2);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    PipelinedLoop loop = buildPipelinedLoop(k.ddg, *out.schedule);
    std::string txt = emitPipelinedCode(k.ddg, m, loop);
    EXPECT_NE(txt.find("prologue:"), std::string::npos);
    EXPECT_NE(txt.find("kernel (repeat):"), std::string::npos);
    EXPECT_NE(txt.find("epilogue:"), std::string::npos);
}

TEST(Emit, PrologueRampsUpIterations)
{
    // In the prologue, iteration subscripts never exceed the
    // current stage index.
    Loop k = kernelFir8();
    MachineModel m = MachineModel::unclustered(1);
    SchedOutcome out = scheduleIms(k.ddg, m);
    ASSERT_TRUE(out.ok);
    PipelinedLoop loop = buildPipelinedLoop(k.ddg, *out.schedule);
    std::string txt = emitPipelinedCode(k.ddg, m, loop);
    // i0 must appear before any i1.
    size_t first_i0 = txt.find("[i0]");
    size_t first_i1 = txt.find("[i1]");
    if (first_i1 != std::string::npos) {
        ASSERT_NE(first_i0, std::string::npos);
        EXPECT_LT(first_i0, first_i1);
    }
}

/** FNV-1a over text blobs, each length-prefixed. */
class TextHash
{
  public:
    void
    mix(std::string_view text)
    {
        byte(text.size());
        for (char c : text)
            byte(static_cast<unsigned char>(c));
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint64_t b)
    {
        h_ ^= b & 0xff;
        h_ *= 0x100000001b3ULL;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// The printed loop text is a cache key, the pipelined code is the
// wire result and both are compared byte for byte by clients: pin
// every byte the printers produce over named kernels and a fixed
// synth suite on each topology, with and without queue notes.
TEST(TextGolden, LoopAndKernelTextUnchanged)
{
    std::vector<Loop> loops = namedKernels();
    for (Loop &l : synthesizeSuite(kSuiteSeed, 40))
        loops.push_back(std::move(l));

    struct Target
    {
        MachineModel machine;
        const char *scheduler;
    };
    const std::array<int, kNumFuClasses> fus = {1, 1, 1, 1};
    const std::vector<Target> targets = {
        {MachineModel::clusteredRing(4), "dms"},
        {MachineModel::custom(4, RegFileKind::Queues, fus,
                              TopologyKind::Mesh, 2, 2),
         "dms"},
        {MachineModel::custom(4, RegFileKind::Queues, fus,
                              TopologyKind::Crossbar),
         "dms"},
        {MachineModel::unclustered(4), "ims"},
    };

    TextHash hash;
    int compiled = 0;
    for (const Loop &loop : loops) {
        const std::string text = loopToText(loop);
        hash.mix(text);
        // The parsed form must print back to the same bytes.
        Loop back;
        std::string error;
        ASSERT_TRUE(loopFromText(text, back, error)) << error;
        hash.mix(loopToText(back));
        hash.mix(back.recurrence ? "rec" : "acyclic");

        for (const Target &t : targets) {
            PipelineOptions po;
            po.scheduler = t.scheduler;
            po.regalloc = true;
            po.codegen = true;
            po.perf = false;
            CompilationContext ctx;
            if (!Pipeline(po).run(loop, t.machine, ctx)) {
                hash.mix("unschedulable");
                continue;
            }
            ++compiled;
            const Ddg &ddg = ctx.scheduledDdg();
            // The scheduled graph carries copies and moves: print
            // it as a loop too, so dense renumbering is exercised.
            Loop scheduled;
            scheduled.name = loop.name;
            scheduled.tripCount = loop.tripCount;
            scheduled.ddg = ddg;
            hash.mix(loopToText(scheduled));
            const QueueAllocation *queues =
                ctx.queuesValid ? &ctx.queues : nullptr;
            hash.mix(emitKernel(ddg, t.machine, ctx.kernel));
            hash.mix(emitKernel(ddg, t.machine, ctx.kernel, queues));
            hash.mix(emitPipelinedCode(ddg, t.machine, ctx.kernel));
            hash.mix(emitPipelinedCode(ddg, t.machine, ctx.kernel,
                                       queues));
        }
    }
    EXPECT_GT(compiled, static_cast<int>(loops.size()) * 3);
    EXPECT_EQ(hash.value(), 0x18fe93d9b7ec0448ULL) << std::hex << hash.value();
}

} // namespace
} // namespace dms
