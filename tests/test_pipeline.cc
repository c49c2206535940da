/**
 * @file
 * Staged-pipeline tests. The centerpiece is the old-vs-new matrix
 * equivalence: the pre-refactor runner flow (direct factory
 * machines, singleUsePrepass, scheduleIms/scheduleDms, the inline
 * perf arithmetic) is reimplemented here verbatim and the
 * pipeline-based runMatrix must reproduce it LoopRun-for-LoopRun —
 * the figures 4-6 data cannot move. Also covered: stage lists,
 * optional regalloc/codegen stages, scheduler selection by
 * configuration (twophase through the runner), and the reuse of one
 * context's arenas across an interleaved stream of compiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "baseline/twophase.h"
#include "core/pipeline.h"
#include "eval/runner.h"
#include "ir/prepass.h"
#include "machine/desc.h"
#include "sched/verifier.h"
#include "serve/loadgen.h"
#include "support/faultinject.h"
#include "workload/suite.h"
#include "workload/text.h"
#include "workload/unroll_policy.h"

namespace {

using namespace dms;

/** ---- Pre-refactor cell flow, kept as the reference ---------- */

long
legacyIterations(const Loop &loop, int unroll_factor)
{
    long iters =
        (loop.tripCount + unroll_factor - 1) / unroll_factor;
    return std::max<long>(iters, 1);
}

void
legacyFillPerf(LoopRun &run, const Ddg &ddg,
               const PartialSchedule &ps)
{
    run.stageCount = ps.maxTime() / ps.ii() + 1;
    run.cycles = (run.iterations + run.stageCount - 1) *
                 static_cast<long>(ps.ii());
    run.usefulIssues =
        static_cast<long>(ddg.usefulOpCount()) * run.iterations;
}

LoopRun
legacyUnclustered(const Loop &loop, int width)
{
    MachineModel machine = MachineModel::unclustered(width);
    Ddg body = applyUnrollPolicy(loop.ddg, machine);

    LoopRun run;
    run.unrollFactor = body.unrollFactor();
    run.iterations = legacyIterations(loop, run.unrollFactor);

    SchedOutcome out = scheduleIms(body, machine, SchedParams{});
    run.ok = out.ok;
    run.mii = out.mii;
    if (!out.ok)
        return run;
    run.ii = out.ii;
    checkSchedule(body, machine, *out.schedule);
    legacyFillPerf(run, body, *out.schedule);
    return run;
}

LoopRun
legacyClustered(const Loop &loop, int clusters)
{
    MachineModel machine = MachineModel::clusteredRing(clusters);
    Ddg body = applyUnrollPolicy(loop.ddg, machine);
    PrepassStats pp =
        singleUsePrepass(body, machine.latencyOf(Opcode::Copy));

    LoopRun run;
    run.unrollFactor = body.unrollFactor();
    run.copiesInserted = pp.copiesInserted;
    run.iterations = legacyIterations(loop, run.unrollFactor);

    DmsOutcome out = scheduleDms(body, machine, DmsParams{});
    run.ok = out.sched.ok;
    run.mii = out.sched.mii;
    if (!out.sched.ok)
        return run;
    run.ii = out.sched.ii;
    run.movesInserted = out.sched.movesInserted;
    checkSchedule(*out.ddg, machine, *out.sched.schedule);
    legacyFillPerf(run, *out.ddg, *out.sched.schedule);

    // Queue pressure, recounted here from the raw allocation as an
    // independent check of the regalloc->perf->LoopRun plumbing.
    QueueAllocation qa =
        allocateQueues(*out.ddg, machine, *out.sched.schedule);
    run.queuesRequired = static_cast<int>(qa.lifetimes.size());
    run.queueStorage = qa.totalStorage;
    for (const QueueFileStats &f : qa.lrf)
        run.queueFiles += f.queues > 0;
    for (const QueueFileStats &f : qa.cqrf) {
        run.queueFiles += f.queues > 0;
        run.maxLinkQueues = std::max(run.maxLinkQueues, f.queues);
    }
    return run;
}

/** ---- Tests -------------------------------------------------- */

TEST(Pipeline, StandardStageList)
{
    Pipeline standard{PipelineOptions{}};
    EXPECT_EQ(standard.stageNames(),
              (std::vector<std::string>{"unroll", "prepass", "mii",
                                        "schedule", "verify",
                                        "perf"}));

    PipelineOptions full;
    full.regalloc = true;
    full.codegen = true;
    Pipeline everything{full};
    EXPECT_EQ(everything.stageNames(),
              (std::vector<std::string>{"unroll", "prepass", "mii",
                                        "schedule", "regalloc",
                                        "codegen", "verify",
                                        "perf"}));

    PipelineOptions lean;
    lean.verify = false;
    lean.perf = false;
    Pipeline minimal{lean};
    EXPECT_EQ(minimal.stageNames(),
              (std::vector<std::string>{"unroll", "prepass", "mii",
                                        "schedule"}));
}

TEST(Pipeline, MatrixMatchesLegacyFlow)
{
    std::vector<Loop> suite = standardSuite(kSuiteSeed, 25);

    RunnerOptions opts;
    opts.maxClusters = 4;
    opts.progress = false;
    opts.jobs = 1;
    std::vector<ConfigRun> matrix = runMatrix(suite, opts);

    ASSERT_EQ(matrix.size(), 4u);
    for (int c = 1; c <= 4; ++c) {
        const ConfigRun &cfg = matrix[static_cast<size_t>(c - 1)];
        ASSERT_EQ(cfg.clusters, c);
        ASSERT_EQ(cfg.unclustered.size(), suite.size());
        ASSERT_EQ(cfg.clustered.size(), suite.size());
        for (size_t li = 0; li < suite.size(); ++li) {
            EXPECT_EQ(cfg.unclustered[li],
                      legacyUnclustered(suite[li], c))
                << "unclustered loop " << li << " clusters " << c;
            EXPECT_EQ(cfg.clustered[li],
                      legacyClustered(suite[li], c))
                << "clustered loop " << li << " clusters " << c;
        }
    }

    // Parallel workers reuse per-worker contexts; results must not
    // depend on the cell-to-worker assignment.
    opts.jobs = 4;
    EXPECT_EQ(runMatrix(suite, opts), matrix);
}

TEST(Pipeline, RunLoopWrappersMatchLegacyFlow)
{
    Loop loop = kernelFir8();
    EXPECT_EQ(runLoopUnclustered(loop, 4, SchedParams{}, true),
              legacyUnclustered(loop, 4));
    EXPECT_EQ(runLoopClustered(loop, 4, DmsParams{}, true),
              legacyClustered(loop, 4));
}

TEST(Pipeline, TwophaseSelectableThroughRunnerConfig)
{
    std::vector<Loop> suite = standardSuite(kSuiteSeed, 8);
    RunnerOptions opts;
    opts.maxClusters = 4;
    opts.progress = false;
    opts.jobs = 1;
    opts.clusteredScheduler = "twophase";
    std::vector<ConfigRun> matrix = runMatrix(suite, opts);

    int scheduled = 0;
    for (const ConfigRun &cfg : matrix) {
        for (const LoopRun &run : cfg.clustered) {
            if (run.ok) {
                ++scheduled;
                EXPECT_GE(run.ii, run.mii);
            }
        }
    }
    EXPECT_GT(scheduled, 0);
}

TEST(Pipeline, TwophaseIgnoresBodyMiiHints)
{
    // Phase 2 of the two-phase baseline schedules the
    // move-augmented graph, whose RecMII exceeds the body's for
    // several of these loops (recurrences crossing far clusters) —
    // e.g. synth0003/0013/0032 on the 8-cluster ring. The pipeline
    // MII stage computes *body* bounds; if the twophase adapter
    // forwarded them as trusted hints, the II ladder would start
    // below the true RecMII and the height relaxation would
    // diverge. The pipeline must reproduce the direct entry point.
    std::vector<Loop> suite = standardSuite(kSuiteSeed, 40);
    MachineModel machine = MachineModel::clusteredRing(8);

    PipelineOptions po;
    po.scheduler = "twophase";
    Pipeline pipeline(po);
    CompilationContext ctx;
    for (size_t i = 0; i < suite.size(); ++i) {
        bool ok = pipeline.run(suite[i], machine, ctx);

        Ddg body = applyUnrollPolicy(suite[i].ddg, machine);
        singleUsePrepass(body, machine.latencyOf(Opcode::Copy));
        TwoPhaseOutcome direct = scheduleTwoPhase(body, machine);

        ASSERT_EQ(ok, direct.sched.ok) << "loop " << i;
        EXPECT_EQ(ctx.result.sched.mii, direct.sched.mii)
            << "loop " << i;
        if (ok) {
            EXPECT_EQ(ctx.result.sched.ii, direct.sched.ii)
                << "loop " << i;
        }
    }
}

TEST(Pipeline, CustomMachineTemplateDrivesTheSweep)
{
    // Two copy units per cluster can only help: every II must be
    // <= the single-copy-unit configuration's.
    std::vector<Loop> suite = standardSuite(kSuiteSeed, 8);
    RunnerOptions opts;
    opts.maxClusters = 4;
    opts.progress = false;
    opts.jobs = 1;
    std::vector<ConfigRun> base = runMatrix(suite, opts);

    opts.clusteredMachine = "clusters $C\n"
                            "topology ring\n"
                            "regfile queues\n"
                            "fus ldst=1 add=1 mul=1 copy=2\n";
    std::vector<ConfigRun> wide = runMatrix(suite, opts);
    for (size_t ci = 0; ci < base.size(); ++ci) {
        for (size_t li = 0; li < suite.size(); ++li) {
            const LoopRun &b = base[ci].clustered[li];
            const LoopRun &w = wide[ci].clustered[li];
            if (b.ok && w.ok) {
                EXPECT_LE(w.ii, b.ii) << "loop " << li;
            }
        }
    }
}

TEST(Pipeline, RegallocAndCodegenStagesFillTheContext)
{
    Loop loop = kernelFir8();
    MachineModel machine = MachineModel::clusteredRing(4);

    PipelineOptions po;
    po.regalloc = true;
    po.codegen = true;
    Pipeline pipeline(po);
    CompilationContext ctx;
    ASSERT_TRUE(pipeline.run(loop, machine, ctx));

    ASSERT_TRUE(ctx.queuesValid);
    EXPECT_FALSE(ctx.queues.lifetimes.empty());

    ASSERT_TRUE(ctx.kernelValid);
    EXPECT_EQ(ctx.kernel.ii, ctx.result.sched.ii);
    ASSERT_TRUE(ctx.perfValid);
    EXPECT_EQ(ctx.kernel.cyclesFor(ctx.iterations),
              ctx.perf.cycles);
    EXPECT_EQ(ctx.kernel.stageCount, ctx.perf.stageCount);

    // MII stage agrees with the scheduler's own bookkeeping.
    EXPECT_EQ(ctx.mii, ctx.result.sched.mii);
    EXPECT_EQ(ctx.resMii, ctx.result.sched.resMii);
    EXPECT_EQ(ctx.recMii, ctx.result.sched.recMii);
}

TEST(Pipeline, DmsRunsOnCrossbarAndMeshTopologies)
{
    // Topology is configuration: the same pipeline schedules the
    // paper's ring, a torus mesh and a full crossbar. On the
    // crossbar every pair is directly connected, so no move
    // operations can ever be needed.
    Loop loop = kernelFir8();
    for (const char *desc :
         {"clusters 6\ntopology mesh 2x3\nregfile queues\n"
          "fus ldst=1 add=1 mul=1 copy=1\n",
          "clusters 6\ntopology crossbar\nregfile queues\n"
          "fus ldst=1 add=1 mul=1 copy=1\n"}) {
        MachineModel machine = machineFromTextOrDie(desc);
        Pipeline pipeline{PipelineOptions{}};
        CompilationContext ctx;
        ASSERT_TRUE(pipeline.run(loop, machine, ctx))
            << machine.describe();
        EXPECT_GE(ctx.result.sched.ii, ctx.mii);
        if (machine.topology() == TopologyKind::Crossbar) {
            EXPECT_EQ(ctx.result.sched.movesInserted, 0);
        }
    }
}

TEST(Pipeline, RegallocRunsOnEveryQueueFileTopology)
{
    // The regalloc stage must not skip any queue-file machine:
    // ring, mesh and crossbar all get an allocation, and the perf
    // record carries the pressure numbers.
    Loop loop = kernelFir8();
    for (const char *desc :
         {"clusters 6\ntopology ring\nregfile queues\n"
          "fus ldst=1 add=1 mul=1 copy=1\n",
          "clusters 6\ntopology mesh 2x3\nregfile queues\n"
          "fus ldst=1 add=1 mul=1 copy=1\n",
          "clusters 6\ntopology crossbar\nregfile queues\n"
          "fus ldst=1 add=1 mul=1 copy=1\n"}) {
        MachineModel machine = machineFromTextOrDie(desc);
        PipelineOptions po;
        po.regalloc = true;
        Pipeline pipeline(po);
        CompilationContext ctx;
        ASSERT_TRUE(pipeline.run(loop, machine, ctx))
            << machine.describe();
        ASSERT_TRUE(ctx.queuesValid) << machine.describe();
        EXPECT_FALSE(ctx.queues.lifetimes.empty());
        EXPECT_GT(ctx.perf.queues, 0) << machine.describe();
        EXPECT_GT(ctx.perf.queueFiles, 0) << machine.describe();
        EXPECT_GT(ctx.perf.queueStorage, 0) << machine.describe();
        // Every CQRF lifetime crosses a real link of the topology.
        for (const Lifetime &lt : ctx.queues.lifetimes) {
            if (lt.location != QueueLocation::Cqrf)
                continue;
            ASSERT_GE(lt.link, 0);
            ASSERT_LT(lt.link, machine.numLinks());
            EXPECT_EQ(machine.linkAt(lt.link).src, lt.cluster);
            EXPECT_EQ(machine.distance(
                          machine.linkAt(lt.link).src,
                          machine.linkAt(lt.link).dst),
                      1);
        }
    }

    // A conventional machine has no queue files: stage skips and
    // the perf record stays clean.
    PipelineOptions po;
    po.scheduler = "ims";
    po.regalloc = true;
    Pipeline pipeline(po);
    CompilationContext plain;
    ASSERT_TRUE(
        pipeline.run(loop, MachineModel::unclustered(6), plain));
    EXPECT_FALSE(plain.queuesValid);
    EXPECT_EQ(plain.perf.queues, 0);
}

/** ---- Context reuse ------------------------------------------ */

/**
 * Every field of a graph, adjacency lists in order, dead ops and
 * edges included: two graphs print the same iff every later pass
 * (regalloc, codegen, simulation) sees the same input.
 */
std::string
graphText(const Ddg &g)
{
    std::string out = strfmt("ops %d edges %d live %d unroll %d\n",
                             g.numOps(), g.numEdges(),
                             g.liveOpCount(), g.unrollFactor());
    for (OpId id = 0; id < g.numOps(); ++id) {
        const Operation &o = g.op(id);
        out += strfmt("op %d %d %d %d %d %d %d %d %lld in", id,
                      static_cast<int>(o.opc),
                      static_cast<int>(o.origin), o.dead ? 1 : 0,
                      o.origId, o.iterOffset, o.memStream,
                      o.memOffset, static_cast<long long>(o.literal));
        for (EdgeId e : o.ins)
            out += strfmt(" %d", e);
        out += " out";
        for (EdgeId e : o.outs)
            out += strfmt(" %d", e);
        out += "\n";
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        const Edge &ed = g.edge(e);
        out += strfmt("edge %d %d %d %d %d %d %d %d %d\n", e, ed.src,
                      ed.dst, static_cast<int>(ed.kind), ed.distance,
                      ed.latency, ed.operandIndex, ed.dead ? 1 : 0,
                      ed.replaced ? 1 : 0);
    }
    return out;
}

/** FNV-1a over the outcome and every placement of the schedule. */
std::uint64_t
scheduleHash(const CompilationContext &ctx)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](long v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    const SchedOutcome &s = ctx.result.sched;
    for (long v : {static_cast<long>(s.ok), static_cast<long>(s.ii),
                   static_cast<long>(s.mii),
                   static_cast<long>(s.attempts), s.budgetUsed,
                   static_cast<long>(s.movesInserted)})
        mix(v);
    if (!s.ok)
        return h;
    const Ddg &g = ctx.scheduledDdg();
    for (OpId id = 0; id < g.numOps(); ++id) {
        if (!g.opLive(id))
            continue;
        const Placement &p = s.schedule->placement(id);
        mix(id);
        mix(p.time);
        mix(p.cluster);
        mix(p.fuInstance);
    }
    return h;
}

/** One compile of the interleaved stream. */
struct ReuseStep
{
    std::string label;
    Loop loop;
    const MachineModel *machine;
    PipelineOptions options;
    bool injectScheduleFault = false;
};

/** What a compile leaves behind, for reused-vs-fresh comparison. */
struct ReuseOutcome
{
    LoopRun run;
    std::uint64_t hash = 0;
    std::string graph;
};

ReuseOutcome
compileInto(const ReuseStep &step, CompilationContext &ctx)
{
    Pipeline pipeline(step.options);
    ReuseOutcome out;
    out.run = runLoop(pipeline, step.loop, *step.machine, ctx);
    out.hash = scheduleHash(ctx);
    out.graph = graphText(ctx.scheduledDdg());
    return out;
}

/**
 * Two distinct generated loops whose pre-passed bodies have the same
 * op count and the same MII on @p machine: back to back through one
 * context, the second reaches the scheduler in a graph of the same
 * size at the same II as the first, the case where cached per-graph
 * state (heights) could be mistaken for the new body's.
 */
std::pair<Loop, Loop>
sameSizeBodies(const MachineModel &machine)
{
    PipelineOptions opts;
    opts.verify = false;
    opts.perf = false;
    Pipeline probe(opts);
    std::map<std::pair<int, int>, Loop> seen;
    for (int i = 0; i < 400; ++i) {
        Loop loop = loopFromText(coldLoopText(11, i));
        CompilationContext ctx;
        probe.run(loop, machine, ctx);
        const std::pair<int, int> key{ctx.body.numOps(), ctx.mii};
        auto it = seen.find(key);
        if (it != seen.end() &&
            loopToText(it->second) != loopToText(loop))
            return {it->second, loop};
        seen.emplace(key, loop);
    }
    ADD_FAILURE() << "no two generated bodies share a size and MII";
    return {kernelFir8(), kernelIir2()};
}

TEST(Pipeline, ReusedContextMatchesFreshContexts)
{
    const MachineModel ring2 = MachineModel::clusteredRing(2);
    const MachineModel ring4 = MachineModel::clusteredRing(4);
    const MachineModel ring8 = MachineModel::clusteredRing(8);
    const MachineModel mesh = machineFromTextOrDie(
        "clusters 4\ntopology mesh 2x2\nregfile queues\n"
        "fus ldst=1 add=1 mul=1 copy=1\n");
    const MachineModel xbar = machineFromTextOrDie(
        "clusters 6\ntopology crossbar\nregfile queues\n"
        "fus ldst=1 add=1 mul=1 copy=1\n");
    const MachineModel flat = MachineModel::unclustered(4);

    PipelineOptions full;
    full.regalloc = true;
    full.codegen = true;
    PipelineOptions unroll4 = full;
    unroll4.forceUnroll = 4;
    // Unschedulable two ways: every attempt of a long ladder runs
    // out of budget, or the II cap sits below the MII.
    PipelineOptions starved = full;
    starved.config.dms.budgetRatio = 0;
    PipelineOptions capped = full;
    capped.config.dms.maxII = 1;
    PipelineOptions speculative = full;
    speculative.config.dms.speculateII = 1;
    speculative.config.dms.budgetRatio = 1;
    PipelineOptions twophase = full;
    twophase.scheduler = "twophase";
    PipelineOptions ims;
    ims.scheduler = "ims";

    const std::pair<Loop, Loop> twins = sameSizeBodies(ring4);

    std::vector<ReuseStep> steps;
    const auto add = [&](const char *label, Loop loop,
                         const MachineModel &m,
                         const PipelineOptions &o) {
        steps.push_back({label, std::move(loop), &m, o});
    };
    add("fir8 ring4", kernelFir8(), ring4, full);
    add("iir2x4 ring8", kernelIir2(), ring8, unroll4);
    add("twin a ring4", twins.first, ring4, full);
    add("twin b ring4", twins.second, ring4, full);
    add("daxpy ring2", kernelDaxpy(), ring2, full);
    add("fft mesh", kernelFftButterfly(), mesh, full);
    add("horner ims", kernelHorner(), flat, ims);
    add("stencil xbar", kernelStencil3(), xbar, full);
    // A failed DMS run keeps its graph in the arena; another
    // scheduler's result then sits in the context when the next DMS
    // run fails too, which must leave no graph behind.
    add("hydro starved ring4", kernelLivermoreHydro(), ring4,
        starved);
    add("fir8 twophase ring4", kernelFir8(), ring4, twophase);
    add("iir2 capped ring4", kernelIir2(), ring4, capped);
    add("tridiag ring8", kernelTridiagSolve(), ring8, full);
    add("autocorr speculative ring8", kernelAutocorrelation(), ring8,
        speculative);
    add("colour ring2", kernelColorConvert(), ring2, full);
    steps.push_back({"fault ring8", kernelFir8(), &ring8, full,
                     /*injectScheduleFault=*/true});
    add("twin b ring4 again", twins.second, ring4, full);
    add("iir2x4 mesh", kernelIir2(), mesh, unroll4);
    add("twin a ring4 again", twins.first, ring4, full);
    add("mixed ring4", kernelMixedLongLatency(), ring4, full);
    for (int i = 0; i < 6; ++i) {
        const MachineModel &m =
            i % 3 == 0 ? ring8 : i % 3 == 1 ? mesh : ring2;
        add("generated", loopFromText(coldLoopText(5, i)), m, full);
    }

    // The stream must cover a failed II ladder and a move chain.
    bool saw_unschedulable = false;
    bool saw_moves = false;
    CompilationContext reused;
    for (const ReuseStep &step : steps) {
        SCOPED_TRACE(step.label);
        if (step.injectScheduleFault) {
            FaultPlan plan;
            FaultSpec spec;
            spec.site = "pipeline.schedule";
            spec.rate = 1.0;
            plan.add(spec);
            armFaults(plan);
            Pipeline pipeline(step.options);
            EXPECT_THROW(
                runLoop(pipeline, step.loop, *step.machine, reused),
                InjectedFault);
            disarmFaults();
            continue;
        }
        CompilationContext fresh;
        const ReuseOutcome want = compileInto(step, fresh);
        const ReuseOutcome got = compileInto(step, reused);
        EXPECT_TRUE(got.run == want.run);
        EXPECT_EQ(got.hash, want.hash);
        EXPECT_EQ(got.graph, want.graph);
        saw_unschedulable |= !want.run.ok;
        saw_moves |= want.run.movesInserted > 0;
    }
    EXPECT_TRUE(saw_unschedulable);
    EXPECT_TRUE(saw_moves);
}

} // namespace
