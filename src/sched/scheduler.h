#ifndef DMS_SCHED_SCHEDULER_H
#define DMS_SCHED_SCHEDULER_H

/**
 * @file
 * The common scheduler interface and its name-keyed registry. Every
 * modulo scheduler in the repository (IMS on the unclustered
 * reference, DMS on clustered machines, the two-phase
 * partition-then-schedule baseline) sits behind this interface so
 * drivers — the staged pipeline, eval/runner sweeps, dmsc — select
 * schedulers by configuration string instead of compiled-in
 * branches.
 *
 * Scheduler instances may be stateful (reusable arenas), so the
 * registry stores *factories*; each CompilationContext creates and
 * caches its own instances, which keeps parallel sweep workers
 * isolated without locking.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/dms.h"
#include "ir/ddg.h"
#include "machine/machine.h"
#include "sched/ims.h"

namespace dms {

/**
 * Knobs handed to any scheduler. Each implementation reads the set
 * it understands: IMS and the two-phase baseline use @c base, DMS
 * uses @c dms (whose budget/maxII/hints mirror base's fields).
 */
struct SchedulerConfig
{
    SchedParams base;
    DmsParams dms;
};

/** What a scheduler returns to the pipeline. */
struct SchedulerResult
{
    /** Scheduling result; schedule references the scheduled graph. */
    SchedOutcome sched;

    /**
     * The scheduled graph when the scheduler transformed the body
     * (DMS chains, two-phase pre-inserted moves); null when the
     * input body was scheduled as-is (IMS).
     */
    std::unique_ptr<Ddg> ddg;
};

/** One modulo-scheduling algorithm behind a registry name. */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** Registry key, e.g. "dms". */
    virtual const char *name() const = 0;

    /** True if this scheduler can target @p machine. */
    virtual bool supports(const MachineModel &machine) const = 0;

    /**
     * Schedule @p body (already unrolled and, on queue-file
     * machines, pre-passed) on @p machine into @p result, which is
     * empty on entry.
     */
    virtual void schedule(const Ddg &body, const MachineModel &machine,
                          const SchedulerConfig &config,
                          SchedulerResult &result) = 0;

    /**
     * Take back a result the caller is done with (the pipeline
     * hands over the previous compile's before each run). A
     * scheduler with an arena reuses its buffers; the default
     * drops it.
     */
    virtual void recycle(SchedulerResult &&) {}
};

/** Factory: a fresh scheduler instance per compilation context. */
using SchedulerFactory = std::unique_ptr<Scheduler> (*)();

/**
 * Name-keyed scheduler registry. The builtin schedulers ("ims",
 * "dms", "twophase") are registered on first use; additional
 * schedulers may be added at startup (add() is not thread-safe
 * against concurrent lookups — register before spawning sweeps).
 */
class SchedulerRegistry
{
  public:
    /** The process-wide registry, builtins included. */
    static SchedulerRegistry &instance();

    /** Register a factory; false (and no change) if the name is
     * taken. */
    bool add(const std::string &name, SchedulerFactory factory);

    /** Instantiate by name, or null for unknown names. */
    std::unique_ptr<Scheduler> create(const std::string &name) const;

    bool contains(const std::string &name) const;

    /** Registered names, sorted. */
    std::vector<std::string> names() const;

  private:
    SchedulerRegistry();

    std::vector<std::pair<std::string, SchedulerFactory>> entries_;
};

/**
 * Registers "ims", "dms" and "twophase" (defined in
 * core/builtin_schedulers.cc, which can see every implementation).
 */
void registerBuiltinSchedulers(SchedulerRegistry &registry);

} // namespace dms

#endif // DMS_SCHED_SCHEDULER_H
