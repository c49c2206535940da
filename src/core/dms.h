#ifndef DMS_CORE_DMS_H
#define DMS_CORE_DMS_H

/**
 * @file
 * Distributed Modulo Scheduling (the paper's contribution):
 * modulo scheduling and cluster partitioning integrated in a single
 * phase, built on the IMS substrate.
 *
 * For every operation OP, DMS tries three strategies in order
 * (paper figure 2):
 *
 *  1. find a (cluster, slot) where no communication conflict arises
 *     with OP's scheduled flow predecessors and successors;
 *  2. pick a cluster compatible with the scheduled successors and
 *     bridge every too-distant predecessor with a chain of move
 *     operations, choosing per chain between the two ring
 *     directions (figure 3) the option that maximizes the free
 *     copy-unit slots left in any cluster, ties broken by fewest
 *     moves;
 *  3. schedule OP the IMS way in an arbitrarily chosen cluster and
 *     backtrack: eject resource conflicts, dependence-violated
 *     successors, and communication-conflicting peers.
 *
 * Backtracking is chain-aware. Ejecting the original producer or
 * consumer of a chained edge dissolves the chain; ejecting a move
 * dissolves its chain and re-ejects the consumer so the pair is
 * re-scheduled without a dangling conflict.
 */

#include <memory>

#include "ir/ddg.h"
#include "machine/machine.h"
#include "sched/ims.h"

namespace dms {

/** How strategy 2 chooses between the two ring directions. */
enum class ChainSelectRule : std::uint8_t {
    /** Paper rule: max remaining free copy slots, then fewest moves. */
    MaxFreeSlots,
    /** Naive: fewest moves only (ablation A3). */
    ShortestPath,
};

/** How strategy 3 picks its "arbitrarily chosen" cluster. */
enum class S3ClusterPolicy : std::uint8_t {
    /** Prefer a conflict-free cluster when one exists. */
    PreferCommOk,
    /** Rotate through clusters on every retry. */
    RoundRobin,
};

/** DMS knobs. Defaults reproduce the paper's configuration. */
struct DmsParams
{
    /** Backtracking budget = budgetRatio * live ops. */
    int budgetRatio = 6;

    /** Hard II cap; 0 means automatic (6 * MII + 64). */
    int maxII = 0;

    /**
     * Scheduling attempts per II value. Each restart rotates the
     * cluster tie-break so a different embedding of the body in
     * the ring is explored before giving up on the II; 1 is the
     * pure single-pass scheme.
     */
    int restartsPerII = 3;

    /**
     * Enable strategy 2. Disabling it degrades DMS to the authors'
     * earlier IPPS'98 single-phase scheme, which "cannot consider
     * communication between indirectly-connected clusters"
     * (ablation A1).
     */
    bool enableChains = true;

    ChainSelectRule chainRule = ChainSelectRule::MaxFreeSlots;
    S3ClusterPolicy s3Policy = S3ClusterPolicy::PreferCommOk;

    /**
     * Precomputed MII bounds (see SchedParams): -1 computes
     * internally, >= 0 must equal resMii()/recMii() on the same
     * body and machine.
     */
    int knownResMii = -1;
    int knownRecMii = -1;

    /**
     * Speculative II ladder: run attempts ahead of the serial
     * (II, restart) order concurrently on a two-lane attempt pool
     * and commit the earliest success — the lowest II, lowest
     * restart — so the schedule, the FNV golden hashes, attempts
     * and budgetUsed are bit-identical to the serial ladder.
     *
     *  1  force on, 0 force serial, -1 (default) resolve the
     * DMS_SPECULATE_II environment knob, off when unset. Single
     * compile drivers (dmsc, runLoopClustered) flip the unset
     * default to on: they have no other parallelism axis. The
     * compile service and matrix sweeps leave it off — their
     * workers already are the parallelism.
     */
    int speculateII = -1;
};

/** DMS result: the schedule plus the transformed (spliced) DDG. */
struct DmsOutcome
{
    /** Scheduling result; schedule references *ddg below. */
    SchedOutcome sched;

    /**
     * The scheduled graph: the input body plus the move operations
     * of surviving chains. Owned here because downstream passes
     * (codegen, register allocation, simulation) operate on it.
     */
    std::unique_ptr<Ddg> ddg;
};

class DmsAttempt;

/**
 * The state DMS reuses from run to run: the scratch graph the chains
 * are spliced into, the partial schedule and its reservation table,
 * the height ladder, the worklist, the affinity rows and the
 * per-placement scratch. Whoever schedules loop after loop keeps one
 * (the registry's "dms" instance, cached per CompilationContext),
 * so a warm compile re-shapes these buffers instead of allocating
 * them. Not thread-safe; one arena per worker.
 */
class DmsArena
{
  public:
    DmsArena();
    ~DmsArena();
    DmsArena(const DmsArena &) = delete;
    DmsArena &operator=(const DmsArena &) = delete;

    /**
     * Schedule @p ddg on @p machine (see scheduleDms) in this
     * arena's buffers. On success the winning graph and schedule
     * are moved out into the outcome; on failure both are null and
     * the arena keeps the buffers.
     */
    DmsOutcome schedule(const Ddg &ddg, const MachineModel &machine,
                        const DmsParams &params);

    /**
     * Take back a graph and schedule the caller is done with
     * (typically an earlier outcome of this arena) so the next
     * schedule() reuses their buffers. Either may be null.
     */
    void recycle(std::unique_ptr<Ddg> ddg,
                 std::unique_ptr<PartialSchedule> schedule);

  private:
    std::unique_ptr<DmsAttempt> attempt_;
};

/**
 * Schedule a loop body on a clustered machine with DMS, in a fresh
 * arena.
 *
 * @param ddg the loop body. On queue-file machines run
 *        singleUsePrepass() first; DMS asserts the fan-out bound.
 * @param machine a clustered machine model.
 */
DmsOutcome scheduleDms(const Ddg &ddg, const MachineModel &machine,
                       const DmsParams &params = {});

} // namespace dms

#endif // DMS_CORE_DMS_H
