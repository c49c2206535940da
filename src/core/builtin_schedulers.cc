/**
 * @file
 * Registry adapters for the built-in schedulers. This file lives in
 * core/ because it must see every implementation (IMS in sched/,
 * DMS in core/, the two-phase baseline in baseline/); the interface
 * itself (sched/scheduler.h) depends on none of them.
 */

#include "baseline/twophase.h"
#include "core/dms.h"
#include "sched/ims.h"
#include "sched/scheduler.h"

namespace dms {

namespace {

/** Rau's IMS on the unclustered reference machine. */
class ImsScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "ims"; }

    bool
    supports(const MachineModel &machine) const override
    {
        // IMS places everything in cluster 0 and ignores
        // communication; it only models the unclustered reference.
        return !machine.clustered();
    }

    void
    schedule(const Ddg &body, const MachineModel &machine,
             const SchedulerConfig &config,
             SchedulerResult &result) override
    {
        result.sched = scheduleIms(body, machine, config.base);
    }
};

/** The paper's single-phase distributed modulo scheduler. */
class DmsScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "dms"; }

    bool
    supports(const MachineModel &machine) const override
    {
        return machine.clustered();
    }

    void
    schedule(const Ddg &body, const MachineModel &machine,
             const SchedulerConfig &config,
             SchedulerResult &result) override
    {
        DmsOutcome out = arena_.schedule(body, machine, config.dms);
        result.sched = std::move(out.sched);
        result.ddg = std::move(out.ddg);
    }

    void
    recycle(SchedulerResult &&done) override
    {
        arena_.recycle(std::move(done.ddg),
                       std::move(done.sched.schedule));
    }

  private:
    /** Reused by every compile of the owning context. */
    DmsArena arena_;
};

/** Partition-then-schedule baseline (paper refs [6]/[12]). */
class TwoPhaseScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "twophase"; }

    bool
    supports(const MachineModel &machine) const override
    {
        return machine.clustered();
    }

    void
    schedule(const Ddg &body, const MachineModel &machine,
             const SchedulerConfig &config,
             SchedulerResult &result) override
    {
        // Phase 2 modulo-schedules the *move-augmented* graph, whose
        // RecMII can exceed the input body's (chains lengthen
        // recurrence paths). Pipeline MII hints describe the body,
        // so trusting them here would start the II ladder below the
        // true RecMII and blow up the height relaxation — phase 2
        // must recompute its own bounds.
        SchedParams params = config.base;
        params.knownResMii = -1;
        params.knownRecMii = -1;
        TwoPhaseOutcome out = scheduleTwoPhase(body, machine, params);
        result.sched = std::move(out.sched);
        result.ddg = std::move(out.ddg);
    }
};

} // namespace

void
registerBuiltinSchedulers(SchedulerRegistry &registry)
{
    registry.add("ims", [] {
        return std::unique_ptr<Scheduler>(new ImsScheduler);
    });
    registry.add("dms", [] {
        return std::unique_ptr<Scheduler>(new DmsScheduler);
    });
    registry.add("twophase", [] {
        return std::unique_ptr<Scheduler>(new TwoPhaseScheduler);
    });
}

} // namespace dms
