#include "core/dms.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <mutex>
#include <thread>

#include "core/affinity.h"
#include "core/chain.h"
#include "core/comm.h"
#include "obs/trace.h"
#include "sched/mii.h"
#include "sched/priority.h"
#include "sched/worklist.h"
#include "support/diag.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace dms {

namespace {

/**
 * Strategy-2 chain plan held in one flat arena: chain i bridges
 * edge[i] with the intermediate clusters
 * clusters[offsets[i] .. offsets[i+1]). Two instances (candidate
 * and best-so-far) are swapped instead of copied, so planning
 * allocates nothing in steady state.
 */
struct ChainPlan
{
    std::vector<EdgeId> edges;
    std::vector<int> offsets;
    std::vector<ClusterId> clusters;

    void
    clear()
    {
        edges.clear();
        offsets.assign(1, 0);
        clusters.clear();
    }

    int chainCount() const { return static_cast<int>(edges.size()); }

    int
    pathLen(int i) const
    {
        return offsets[static_cast<size_t>(i) + 1] -
               offsets[static_cast<size_t>(i)];
    }

    const ClusterId *
    path(int i) const
    {
        return clusters.data() + offsets[static_cast<size_t>(i)];
    }

    int totalMoves() const
    {
        return static_cast<int>(clusters.size());
    }
};

} // namespace

/**
 * DMS state reused across every (II, restart) attempt of a
 * scheduling run and, inside a DmsArena, across runs: the scratch
 * graph, the partial schedule, the chain registry, the height
 * table, the priority worklist, the incremental affinity rows and
 * the per-placement scratch vectors all live in one arena that
 * beginAttempt() re-shapes without reallocating.
 */
class DmsAttempt
{
  public:
    /**
     * Take back a graph and schedule handed out by an earlier run
     * (the caller's previous result) where the arena has none of
     * its own. beginAttempt() rebinds both, so any graph and
     * schedule will do.
     */
    void
    reclaim(std::unique_ptr<Ddg> &ddg,
            std::unique_ptr<PartialSchedule> &ps)
    {
        if (ddg_ == nullptr)
            ddg_ = std::move(ddg);
        if (ps_ == nullptr)
            ps_ = std::move(ps);
    }

    /**
     * Bind the arena to one scheduling run's inputs. The height
     * ladder forgets the previous run: it recognizes its graph by
     * address and op count, which a new body rebuilt into the same
     * scratch graph can share.
     */
    void
    bind(const Ddg &original, const MachineModel &machine,
         const DmsParams &params)
    {
        original_ = &original;
        machine_ = &machine;
        params_ = &params;
        // Empty: beginAttempt() resets it, then the schedule.
        if (ddg_ == nullptr)
            ddg_ = std::make_unique<Ddg>();
        if (ps_ == nullptr)
            ps_ = std::make_unique<PartialSchedule>(*ddg_, machine,
                                                    /*ii=*/1);
        ladder_.invalidate();
    }

    /**
     * Re-arm the arena for one (II, restart) attempt. False when
     * the height relaxation diverged — the II is below the true
     * RecMII (a hostile hint); the caller records a failed attempt
     * and climbs the ladder instead of panicking.
     */
    bool
    beginAttempt(int ii, int variant)
    {
        ii_ = ii;
        variant_ = variant;
        ddg_->resetTo(*original_);
        ps_->reset(*ddg_, *machine_, ii);
        chains_.reset();
        affinity_tracker_.attach(*ddg_, *ps_, *machine_);
        // The graph is back to its original shape, so the ladder
        // reuses heights verbatim across restarts and delta-steps
        // across II increments.
        if (!ladder_.ensure(*ddg_, ii))
            return false;
        heights_.assign(ladder_.heights().begin(),
                        ladder_.heights().end());
        worklist_.build(*ddg_, heights_);
        return true;
    }

    /**
     * Run the pass; true if everything got scheduled in budget.
     * When @p winner is set (speculative ladder), the attempt
     * aborts — returning false like a budget exhaustion — once an
     * attempt earlier in the serial (II, restart) order has won;
     * aborted attempts sit after the final winner, so their partial
     * accounting is never merged.
     */
    bool
    run(long budget, long &used,
        const std::atomic<int> *winner = nullptr, int my_index = 0)
    {
        long steps = 0;
        while (ps_->scheduledCount() < ddg_->liveOpCount()) {
            if (budget-- <= 0)
                return false;
            ++used;
            if (winner != nullptr && (steps++ & 31) == 0 &&
                winner->load(std::memory_order_relaxed) < my_index)
                return false;
            OpId op = worklist_.pop();
            DMS_ASSERT(op != kInvalidOp, "no unscheduled op");
            DMS_ASSERT(ddg_->op(op).origin != OpOrigin::MoveOp,
                       "unscheduled move op %d in worklist", op);
            scheduleOp(op);
        }
        return true;
    }

    /**
     * Move the successful attempt's graph and schedule out to the
     * caller; the tracker stays behind with the arena.
     */
    void
    handOut(SchedOutcome &sched, std::unique_ptr<Ddg> &scheduled)
    {
        affinity_tracker_.detach();
        sched.movesInserted = liveMoves();
        scheduled = std::move(ddg_);
        sched.schedule = std::move(ps_);
    }

  private:
    int
    liveMoves() const
    {
        int n = 0;
        for (OpId id = 0; id < ddg_->numOps(); ++id) {
            if (ddg_->opLive(id) &&
                ddg_->op(id).origin == OpOrigin::MoveOp) {
                ++n;
            }
        }
        return n;
    }

    void
    scheduleOp(OpId op)
    {
        // One affinity ranking serves all three strategies: a
        // failed strategy 1 mutates nothing, and a failed
        // strategy 2 dissolves every chain it placed, so the
        // schedule state the ranking depends on is identical at
        // each strategy entry. The ranking itself comes from the
        // incrementally maintained tracker rows.
        affinity_tracker_.order(op, variant_, affinity_);
        if (strategy1(op))
            return;
        if (params_->enableChains && strategy2(op))
            return;
        strategy3(op);
    }

    /**
     * Strategy 1: a communication-conflict-free cluster with a
     * resource-free slot inside the II window. Dependence-violated
     * successors are ejected; no resource eviction happens here.
     */
    bool
    strategy1(OpId op)
    {
        Cycle early = ps_->earlyStart(op);
        for (ClusterId c : affinity_) {
            if (!commOkAt(*ddg_, *ps_, *machine_, op, c))
                continue;
            Cycle slot = ps_->findFreeSlot(op, c, early);
            if (slot == kUnscheduled)
                continue;
            bool ok = ps_->tryPlace(op, slot, c);
            DMS_ASSERT(ok, "free slot vanished");
            ejectViolatedSuccessors(op);
            return true;
        }
        return false;
    }

    /**
     * Strategy 2: chains of moves toward every far predecessor
     * (paper figure 3). Returns false if no candidate cluster can
     * host all required chains.
     */
    bool
    strategy2(OpId op)
    {
        const auto &rt = ps_->reservations();

        // Free copy-unit slots per cluster, the quantity the
        // paper's selection rule preserves.
        const int nc = machine_->numClusters();
        base_free_.assign(static_cast<size_t>(nc), 0);
        for (ClusterId c = 0; c < nc; ++c) {
            base_free_[static_cast<size_t>(c)] =
                rt.freeSlotCount(c, FuClass::Copy);
        }

        ClusterId best_cluster = kInvalidCluster;
        int best_min_free = -1;
        int best_moves = 0;

        for (ClusterId c : affinity_) {
            if (!succsOkAt(*ddg_, *ps_, *machine_, op, c))
                continue;
            farPredecessorEdges(*ddg_, *ps_, *machine_, op, c,
                                far_edges_);
            if (far_edges_.empty())
                continue; // strategy 1 territory; resources failed

            claimed_.assign(static_cast<size_t>(nc), 0);
            plan_.clear();
            bool feasible = true;
            for (EdgeId e : far_edges_) {
                if (!planOneChain(e, c)) {
                    feasible = false;
                    break;
                }
                const int i = plan_.chainCount() - 1;
                const ClusterId *path = plan_.path(i);
                for (int k = 0; k < plan_.pathLen(i); ++k)
                    ++claimed_[static_cast<size_t>(path[k])];
            }
            if (!feasible)
                continue;

            int min_free = INT32_MAX;
            for (ClusterId x = 0; x < nc; ++x) {
                min_free = std::min(
                    min_free,
                    base_free_[static_cast<size_t>(x)] -
                        claimed_[static_cast<size_t>(x)]);
            }
            const int moves = plan_.totalMoves();

            bool better = best_cluster == kInvalidCluster ||
                          min_free > best_min_free ||
                          (min_free == best_min_free &&
                           moves < best_moves);
            if (better) {
                best_cluster = c;
                std::swap(best_plan_, plan_);
                best_min_free = min_free;
                best_moves = moves;
            }
        }

        if (best_cluster == kInvalidCluster)
            return false;
        return commitStrategy2(op, best_cluster, best_plan_);
    }

    /**
     * Pick a route for one chain, honouring slots already claimed
     * (in claimed_) by sibling chains of the same candidate, and
     * append it to plan_. Returns false when no route fits. Route
     * alternatives and scratch paths come from the machine's
     * topology (ring: the two directions of paper figure 3).
     */
    bool
    planOneChain(EdgeId e, ClusterId target)
    {
        ClusterId from = ps_->clusterOf(ddg_->edge(e).src);
        const std::vector<ClusterId> *best_path = nullptr;
        int best_min_free = -1;

        for (int r = 0; r < MachineModel::kNumRoutes; ++r) {
            std::vector<ClusterId> &path = route_scratch_[r];
            machine_->routeBetween(from, target, r, path);
            if (path.empty())
                continue; // would be adjacent; not a far edge
            bool fits = true;
            int min_free = INT32_MAX;
            for (ClusterId x : path) {
                int free_here = base_free_[static_cast<size_t>(x)] -
                                claimed_[static_cast<size_t>(x)] - 1;
                if (free_here < 0) {
                    fits = false;
                    break;
                }
                min_free = std::min(min_free, free_here);
            }
            if (!fits)
                continue;

            bool better;
            if (best_path == nullptr) {
                better = true;
            } else if (params_->chainRule ==
                       ChainSelectRule::MaxFreeSlots) {
                better = min_free > best_min_free ||
                         (min_free == best_min_free &&
                          path.size() < best_path->size());
            } else {
                better = path.size() < best_path->size();
            }
            if (better) {
                best_path = &path;
                best_min_free = min_free;
            }
        }
        if (best_path == nullptr)
            return false;

        plan_.edges.push_back(e);
        plan_.clusters.insert(plan_.clusters.end(),
                              best_path->begin(), best_path->end());
        plan_.offsets.push_back(
            static_cast<int>(plan_.clusters.size()));
        return true;
    }

    /** Splice and schedule the chosen chains, then place OP. */
    bool
    commitStrategy2(OpId op, ClusterId cluster,
                    const ChainPlan &plan)
    {
        const int move_lat = machine_->latencyOf(Opcode::Move);
        created_.clear();

        for (int i = 0; i < plan.chainCount(); ++i) {
            EdgeId bridged = plan.edges[static_cast<size_t>(i)];
            int cid = chains_.create(*ddg_, bridged, plan.path(i),
                                     plan.pathLen(i), move_lat);
            created_.push_back(cid);
            const Chain &ch = chains_.chain(cid);

            // Grow the height table for the new moves. A move
            // inherits its producer's height so eviction heuristics
            // treat it as critical as the value it forwards.
            heights_.resize(static_cast<size_t>(ddg_->numOps()), 0);
            std::int64_t h = heights_[static_cast<size_t>(
                ddg_->edge(bridged).src)];
            for (OpId mv : ch.moves)
                heights_[static_cast<size_t>(mv)] = h;

            // Paper: "move operations are sequentially scheduled,
            // starting from the first one after the original
            // producer". Feasibility was verified above, so a free
            // slot exists in every intermediate cluster.
            for (size_t k = 0; k < ch.moves.size(); ++k) {
                OpId mv = ch.moves[k];
                Cycle early = std::max<Cycle>(0, ps_->earlyStart(mv));
                Cycle slot =
                    ps_->findFreeSlot(mv, ch.clusters[k], early);
                DMS_ASSERT(slot != kUnscheduled,
                           "chain feasibility miscounted");
                bool ok = ps_->tryPlace(mv, slot, ch.clusters[k]);
                DMS_ASSERT(ok, "chain slot vanished");
            }
        }

        // Place OP itself. Copy-class ops share the copy units with
        // the moves just placed; forcing an eviction there could
        // knock out our own chain, so require a free slot and
        // otherwise roll back to strategy 3.
        Cycle early = ps_->earlyStart(op);
        Cycle slot = ps_->findFreeSlot(op, cluster, early);
        if (slot == kUnscheduled) {
            if (fuClassOf(ddg_->op(op).opc) == FuClass::Copy) {
                for (int cid : created_)
                    chains_.dissolve(cid, *ddg_, *ps_);
                return false;
            }
            slot = ps_->forcedSlot(op, early);
        }

        evicted_.clear();
        ps_->placeEvicting(op, slot, cluster, heights_, evicted_);
        for (OpId v : evicted_)
            handleEvicted(v);
        ejectViolatedSuccessors(op);
        return true;
    }

    /**
     * Strategy 3: IMS-style forced scheduling in an arbitrarily
     * chosen cluster, ejecting for resource, dependence *and*
     * communication conflicts.
     */
    void
    strategy3(OpId op)
    {
        ClusterId cluster = kInvalidCluster;
        if (params_->s3Policy == S3ClusterPolicy::PreferCommOk) {
            for (ClusterId c : affinity_) {
                if (commOkAt(*ddg_, *ps_, *machine_, op, c)) {
                    cluster = c;
                    break;
                }
            }
        }
        if (cluster == kInvalidCluster) {
            cluster = static_cast<ClusterId>(
                (op + ps_->placementCount(op) + variant_) %
                machine_->numClusters());
        }

        Cycle early = ps_->earlyStart(op);
        Cycle slot = ps_->findFreeSlot(op, cluster, early);
        if (slot == kUnscheduled)
            slot = ps_->forcedSlot(op, early);

        evicted_.clear();
        ps_->placeEvicting(op, slot, cluster, heights_, evicted_);
        for (OpId v : evicted_)
            handleEvicted(v);

        ejectViolatedSuccessors(op);

        // Communication conflicts: eject the far peers.
        commConflictPeers(*ddg_, *ps_, *machine_, op, peers_);
        for (OpId peer : peers_) {
            if (ps_->isScheduled(peer))
                backtrackUnschedule(peer);
        }
    }

    /** Eject scheduled successors whose dependences now fail. */
    void
    ejectViolatedSuccessors(OpId op)
    {
        // Re-query after every ejection: dissolving a chain edits
        // the edge set.
        while (true) {
            ps_->violatedSuccessors(op, viol_);
            bool any = false;
            for (OpId v : viol_) {
                if (ps_->isScheduled(v)) {
                    backtrackUnschedule(v);
                    any = true;
                    break;
                }
            }
            if (!any)
                return;
        }
    }

    /**
     * Post-process an operation that placeEvicting() already pulled
     * out of the schedule (chain bookkeeping plus worklist
     * re-insertion).
     */
    void
    handleEvicted(OpId victim)
    {
        if (ddg_->op(victim).origin == OpOrigin::MoveOp) {
            dissolveMoveChain(victim);
        } else {
            worklist_.push(victim);
            dissolveTouchingChains(victim);
        }
    }

    /** Chain-aware unschedule of a currently scheduled op. */
    void
    backtrackUnschedule(OpId victim)
    {
        if (ddg_->op(victim).origin == OpOrigin::MoveOp) {
            dissolveMoveChain(victim);
            return;
        }
        ps_->unschedule(victim);
        worklist_.push(victim);
        dissolveTouchingChains(victim);
    }

    /**
     * The paper's three dissolution cases. An ejected *move*
     * dissolves its chain and re-ejects the original consumer:
     * leaving producer and consumer scheduled in far clusters with
     * the restored edge would silently break the communication
     * invariant.
     */
    void
    dissolveMoveChain(OpId mv)
    {
        int cid = chains_.chainOfMove(mv);
        DMS_ASSERT(cid >= 0, "move %d without chain", mv);
        OpId consumer =
            ddg_->edge(chains_.chain(cid).originalEdge).dst;
        chains_.dissolve(cid, *ddg_, *ps_);
        if (ps_->isScheduled(consumer))
            backtrackUnschedule(consumer);
    }

    /**
     * Ejected producer or consumer: dissolve the chains hanging off
     * it. The surviving endpoint keeps its slot; the edge endpoints
     * are no longer both scheduled, so no conflict remains.
     */
    void
    dissolveTouchingChains(OpId endpoint)
    {
        chains_.chainsTouching(*ddg_, endpoint, touching_);
        for (int cid : touching_)
            chains_.dissolve(cid, *ddg_, *ps_);
    }

    const Ddg *original_ = nullptr;
    const MachineModel *machine_ = nullptr;
    const DmsParams *params_ = nullptr;
    int ii_ = 0;
    int variant_ = 0;
    std::unique_ptr<Ddg> ddg_;
    std::unique_ptr<PartialSchedule> ps_;
    ChainRegistry chains_;
    HeightLadder ladder_;
    Heights heights_;
    Worklist worklist_;
    AffinityTracker affinity_tracker_;

    /** Per-placement scratch, reused to stay allocation-free. */
    std::vector<OpId> evicted_;
    std::vector<OpId> viol_;
    std::vector<OpId> peers_;
    std::vector<EdgeId> far_edges_;
    std::vector<ClusterId> affinity_;
    std::vector<int> base_free_;
    std::vector<int> claimed_;
    std::vector<int> created_;
    std::vector<int> touching_;
    ChainPlan plan_;
    ChainPlan best_plan_;
    std::vector<ClusterId> route_scratch_[MachineModel::kNumRoutes];
};

namespace {

/**
 * Per-attempt ledger for the speculative ladder. Slot k describes
 * serial attempt k = (II - MII) * restarts + restart; each slot is
 * written by exactly one lane before the join, so the vector needs
 * no locking.
 */
struct AttemptRecord
{
    int attempts = 0; ///< 0 or 1: was this attempt started?
    long used = 0;    ///< scheduling steps it consumed
    bool success = false;
};

/**
 * One speculative lane: runs the serial attempt sequence restricted
 * to indices congruent to @p first (mod 2), in increasing order,
 * against its own attempt arena. CAS-min publishes the first
 * success; a lane stops once the published winner precedes its
 * next index (that attempt's outcome can no longer matter) and
 * aborts mid-attempt through run()'s winner check.
 */
void
runSpeculativeLane(DmsAttempt &attempt, int first, int base,
                   int total, int mii, int restarts, long budget,
                   std::vector<AttemptRecord> &records,
                   std::atomic<int> &winner)
{
    for (int k = first; k < total; k += 2) {
        if (winner.load(std::memory_order_acquire) < k)
            return;
        const int ii = mii + k / restarts;
        const int v = k % restarts;
        AttemptRecord &rec =
            records[static_cast<size_t>(k - base)];
        rec.attempts = 1;
        if (!attempt.beginAttempt(ii, v))
            continue;
        if (attempt.run(budget, rec.used, &winner, k)) {
            rec.success = true;
            int cur = winner.load(std::memory_order_relaxed);
            while (k < cur &&
                   !winner.compare_exchange_weak(
                       cur, k, std::memory_order_acq_rel)) {
            }
            // Later indices in this lane cannot precede this one;
            // the arena now holds this success for the join.
            return;
        }
    }
}

/**
 * The two-lane attempt pool behind every speculative ladder in the
 * process, mirroring the pooled-context pattern of the compile
 * service: lane 1 borrows a pool worker while lane 0 runs on the
 * caller. The mutex keeps one ladder at a time in the pool — a
 * concurrent caller (a sweep worker with the knob forced on) falls
 * back to the serial ladder rather than queue behind it, which
 * changes nothing observable: both ladders produce bit-identical
 * results.
 */
std::mutex &
speculationMutex()
{
    static std::mutex mu;
    return mu;
}

ThreadPool &
speculationPool()
{
    static ThreadPool pool(2);
    return pool;
}

/** Fold records [base, upto] into the outcome's accounting. */
void
mergeRecords(const std::vector<AttemptRecord> &records, int base,
             int upto, SchedOutcome &sched)
{
    for (int k = base; k <= upto; ++k) {
        const AttemptRecord &rec =
            records[static_cast<size_t>(k - base)];
        sched.attempts += rec.attempts;
        sched.budgetUsed += rec.used;
    }
}

/**
 * Speculative remainder of the ladder, entered after the serial
 * loop's first failed attempt (index @p k0 - 1): both lanes walk
 * disjoint halves of the remaining serial attempt order, and the
 * committed result is the attempt with the lowest serial index
 * that succeeded. Every attempt is a deterministic function of
 * (body, machine, params, II, restart) computed in a private
 * arena, and all attempts preceding the winner run to completion
 * (the skip and abort conditions only fire strictly after the
 * published winner), so the merged schedule, attempts count and
 * budgetUsed reproduce the serial ladder exactly. Engaging only
 * after a failure keeps the common first-attempt success free of
 * pool handoffs and second-arena setup.
 *
 * Lane 0 runs in the caller's arena; lane 1 gets an arena of its
 * own for this call only, so a reused arena never has a second lane
 * writing into it.
 *
 * Returns false (leaving @p sched and @p scheduled untouched) when
 * the pool is busy; the caller then just continues its serial loop.
 */
bool
scheduleDmsSpeculative(const Ddg &ddg, const MachineModel &machine,
                       const DmsParams &params, DmsAttempt &lane0,
                       int k0, int total, long budget, int restarts,
                       SchedOutcome &sched,
                       std::unique_ptr<Ddg> &scheduled)
{
    std::unique_lock<std::mutex> guard(speculationMutex(),
                                       std::try_to_lock);
    if (!guard.owns_lock())
        return false; // pool busy: caller runs the serial ladder

    const int mii = sched.mii;
    std::vector<AttemptRecord> records(
        static_cast<size_t>(total - k0));
    std::atomic<int> winner{INT_MAX};

    DmsAttempt lane1;
    lane1.bind(ddg, machine, params);
    ThreadPool &pool = speculationPool();
    pool.submit([&] {
        runSpeculativeLane(lane1, k0 + 1, k0, total, mii, restarts,
                           budget, records, winner);
    });
    try {
        runSpeculativeLane(lane0, k0, k0, total, mii, restarts,
                           budget, records, winner);
    } catch (...) {
        // Lane 1 still references our stack frame: poison the
        // winner so it aborts at its next check, join, rethrow.
        winner.store(INT_MIN, std::memory_order_release);
        pool.wait();
        throw;
    }
    pool.wait();

    const int win = winner.load(std::memory_order_acquire);
    if (win == INT_MAX) {
        mergeRecords(records, k0, total - 1, sched);
        return true; // exhausted ladder, like serial
    }
    mergeRecords(records, k0, win, sched);
    DmsAttempt &winning = (win - k0) % 2 == 0 ? lane0 : lane1;
    sched.ok = true;
    sched.ii = mii + win / restarts;
    winning.handOut(sched, scheduled);
    return true;
}

} // namespace

DmsArena::DmsArena() : attempt_(std::make_unique<DmsAttempt>()) {}

DmsArena::~DmsArena() = default;

DmsOutcome
DmsArena::schedule(const Ddg &ddg, const MachineModel &machine,
                   const DmsParams &params)
{
    DMS_ASSERT(machine.clustered(),
               "DMS targets clustered machines; use scheduleIms for "
               "the unclustered model");

    DmsOutcome out;
    SchedOutcome &sched = out.sched;
    std::unique_ptr<Ddg> &scheduled = out.ddg;
    DmsAttempt &attempt = *attempt_;
    attempt.bind(ddg, machine, params);

    sched.resMii = params.knownResMii >= 0 ? params.knownResMii
                                               : resMii(ddg, machine);
    sched.recMii = params.knownRecMii >= 0 ? params.knownRecMii
                                               : recMii(ddg);
    sched.mii = std::max(sched.resMii, sched.recMii);
    int max_ii = params.maxII > 0 ? params.maxII
                                  : defaultMaxII(sched.mii);

    long budget =
        static_cast<long>(params.budgetRatio) * ddg.liveOpCount();
    budget = std::max<long>(budget, 1);

    const int restarts = std::max(1, params.restartsPerII);
    const int total =
        std::max(0, (max_ii - sched.mii + 1) * restarts);

    // Explicit 0/1 wins; -1 resolves the environment knob, and the
    // resolved-on path still backs off on single-core hosts where a
    // second lane can only add scheduling overhead. Forcing
    // speculateII = 1 bypasses the core check so tests exercise the
    // concurrent path everywhere.
    const bool speculate =
        params.speculateII >= 0
            ? params.speculateII != 0
            : envInt("DMS_SPECULATE_II", 0, 0) > 0 &&
                  std::thread::hardware_concurrency() >= 2;

    // Rung spans for the serial ladder only: the speculative walk
    // runs attempts on pool threads whose interleaving is
    // nondeterministic, so those stay uninstrumented (their
    // thread-local trace is null anyway).
    obs::Trace *tr =
        obs::traceArmed() ? obs::currentTrace() : nullptr;
    for (int k = 0; k < total; ++k) {
        const int ii = sched.mii + k / restarts;
        const int v = k % restarts;
        ++sched.attempts;
        obs::ScopedSpan rung(tr, "sched.attempt");
        if (tr != nullptr)
            rung.note(strfmt("ii=%d restart=%d", ii, v));
        // A beginAttempt failure is a recoverable "II below RecMII"
        // miss (hostile hint): record a failed attempt and climb.
        if (attempt.beginAttempt(ii, v) &&
            attempt.run(budget, sched.budgetUsed)) {
            sched.ok = true;
            sched.ii = ii;
            attempt.handOut(sched, scheduled);
            return out;
        }
        // First failure: the rest of the ladder is the expensive
        // case — hand it to the two-lane speculative walk, which
        // finishes the search (success or exhaustion) exactly as
        // the serial loop would.
        if (speculate && k + 1 < total &&
            scheduleDmsSpeculative(ddg, machine, params, attempt,
                                   k + 1, total, budget, restarts,
                                   sched, scheduled)) {
            return out;
        }
    }
    return out;
}

void
DmsArena::recycle(std::unique_ptr<Ddg> ddg,
                  std::unique_ptr<PartialSchedule> schedule)
{
    attempt_->reclaim(ddg, schedule);
}

DmsOutcome
scheduleDms(const Ddg &ddg, const MachineModel &machine,
            const DmsParams &params)
{
    return DmsArena().schedule(ddg, machine, params);
}

} // namespace dms
