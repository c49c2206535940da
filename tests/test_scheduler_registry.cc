/**
 * @file
 * Scheduler registry tests: builtin registration, lookup behavior,
 * machine-support predicates, and adapter outcomes matching the
 * direct scheduler entry points bit for bit.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "baseline/twophase.h"
#include "core/dms.h"
#include "ir/prepass.h"
#include "sched/scheduler.h"
#include "workload/kernels.h"

namespace {

using namespace dms;

TEST(SchedulerRegistry, BuiltinsRegistered)
{
    std::vector<std::string> names =
        SchedulerRegistry::instance().names();
    for (const char *expected : {"dms", "ims", "twophase"}) {
        EXPECT_TRUE(std::find(names.begin(), names.end(),
                              expected) != names.end())
            << "missing " << expected;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(SchedulerRegistry, UnknownNameYieldsNull)
{
    EXPECT_EQ(SchedulerRegistry::instance().create("nope"), nullptr);
    EXPECT_FALSE(SchedulerRegistry::instance().contains("nope"));
    EXPECT_TRUE(SchedulerRegistry::instance().contains("dms"));
}

TEST(SchedulerRegistry, DuplicateRegistrationRejected)
{
    EXPECT_FALSE(SchedulerRegistry::instance().add(
        "dms", [] { return std::unique_ptr<Scheduler>(); }));
}

TEST(SchedulerRegistry, SupportPredicates)
{
    MachineModel ring = MachineModel::clusteredRing(4);
    MachineModel wide = MachineModel::unclustered(4);
    auto &reg = SchedulerRegistry::instance();

    auto ims = reg.create("ims");
    auto dms = reg.create("dms");
    auto twophase = reg.create("twophase");
    ASSERT_NE(ims, nullptr);
    ASSERT_NE(dms, nullptr);
    ASSERT_NE(twophase, nullptr);

    EXPECT_STREQ(ims->name(), "ims");
    EXPECT_STREQ(dms->name(), "dms");
    EXPECT_STREQ(twophase->name(), "twophase");

    EXPECT_TRUE(ims->supports(wide));
    EXPECT_FALSE(ims->supports(ring));
    EXPECT_TRUE(dms->supports(ring));
    EXPECT_FALSE(dms->supports(wide));
    EXPECT_TRUE(twophase->supports(ring));
    EXPECT_FALSE(twophase->supports(wide));
}

/** Placement-for-placement comparison of two schedules. */
void
expectSameSchedule(const Ddg &ddg, const SchedOutcome &a,
                   const SchedOutcome &b)
{
    ASSERT_EQ(a.ok, b.ok);
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(a.ii, b.ii);
    EXPECT_EQ(a.mii, b.mii);
    EXPECT_EQ(a.movesInserted, b.movesInserted);
    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id))
            continue;
        const Placement &pa = a.schedule->placement(id);
        const Placement &pb = b.schedule->placement(id);
        EXPECT_EQ(pa.time, pb.time) << "op " << id;
        EXPECT_EQ(pa.cluster, pb.cluster) << "op " << id;
        EXPECT_EQ(pa.fuInstance, pb.fuInstance) << "op " << id;
    }
}

TEST(SchedulerRegistry, AdaptersMatchDirectEntryPoints)
{
    Loop loop = kernelFir8();
    SchedulerConfig config;

    { // ims
        MachineModel m = MachineModel::unclustered(4);
        auto s = SchedulerRegistry::instance().create("ims");
        SchedulerResult via;
        s->schedule(loop.ddg, m, config, via);
        SchedOutcome direct = scheduleIms(loop.ddg, m);
        EXPECT_EQ(via.ddg, nullptr);
        expectSameSchedule(loop.ddg, via.sched, direct);
    }

    { // dms and twophase share the pre-passed body
        MachineModel m = MachineModel::clusteredRing(4);
        Ddg body = loop.ddg;
        singleUsePrepass(body, m.latencyOf(Opcode::Copy));

        auto s = SchedulerRegistry::instance().create("dms");
        SchedulerResult via;
        s->schedule(body, m, config, via);
        DmsOutcome direct = scheduleDms(body, m);
        ASSERT_NE(via.ddg, nullptr);
        expectSameSchedule(*via.ddg, via.sched, direct.sched);

        auto t = SchedulerRegistry::instance().create("twophase");
        SchedulerResult tvia;
        t->schedule(body, m, config, tvia);
        TwoPhaseOutcome tdirect = scheduleTwoPhase(body, m);
        ASSERT_NE(tvia.ddg, nullptr);
        expectSameSchedule(*tvia.ddg, tvia.sched, tdirect.sched);
    }
}

} // namespace
