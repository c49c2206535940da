#ifndef DMS_CORE_CHAIN_H
#define DMS_CORE_CHAIN_H

/**
 * @file
 * Chains of move operations (paper section 3, figure 3). A chain
 * replaces a flow edge whose producer and consumer would otherwise
 * sit in indirectly-connected clusters: one move per intermediate
 * cluster forwards the value one ring hop at a time, each move
 * executing on that cluster's copy unit (reading one CQRF and
 * writing the next).
 *
 * The registry owns the bookkeeping needed by DMS backtracking:
 * which moves belong to which chain, and which original edge a
 * chain stands in for, so that unscheduling "the original producer,
 * a move operation, or the original consumer" can dissolve chains
 * exactly as the paper prescribes.
 */

#include <vector>

#include "ir/ddg.h"
#include "machine/machine.h"
#include "sched/schedule.h"

namespace dms {

/** One chain: the spliced DDG material standing in for an edge. */
struct Chain
{
    EdgeId originalEdge = kInvalidEdge;

    /**
     * Endpoints of the original edge, cached at create() time so
     * the eviction hot path (chainsTouching) never re-derives them
     * through the graph.
     */
    OpId src = kInvalidOp;
    OpId dst = kInvalidOp;

    /** Move ops, producer side first. */
    std::vector<OpId> moves;

    /** Spliced edges: src->m1, m1->m2, ..., mk->dst. */
    std::vector<EdgeId> edges;

    /** Clusters hosting the moves, aligned with @c moves. */
    std::vector<ClusterId> clusters;

    bool dissolved = false;
};

/** Registry of the live chains of one scheduling attempt. */
class ChainRegistry
{
  public:
    /**
     * Forget every chain (arena reuse between attempts). The chain
     * records stay allocated, and create() refills them, so the
     * move, edge and cluster lists keep their buffers too.
     */
    void
    reset()
    {
        count_ = 0;
        chain_of_move_.clear();
        live_ids_.clear();
    }

    /**
     * Splice a chain into @p ddg for @p edge, one move per cluster
     * of @p path (the intermediate clusters from the producer to
     * the consumer in one ring direction). The original edge is
     * marked replaced; its iteration distance travels on the first
     * sub-edge. Moves are created *unscheduled* — the caller
     * schedules them in order (paper: "move operations are
     * sequentially scheduled, starting from the first one after the
     * original producer").
     *
     * @param move_latency latency of a move (CQRF-to-CQRF forward).
     * @return chain id.
     */
    int create(Ddg &ddg, EdgeId edge,
               const std::vector<ClusterId> &path, int move_latency);

    /**
     * Span form of create() for callers that keep paths in a flat
     * plan arena (DMS strategy 2) instead of one vector per chain.
     */
    int create(Ddg &ddg, EdgeId edge, const ClusterId *path,
               int path_len, int move_latency);

    /**
     * Dissolve a chain: unschedule any still-scheduled move, remove
     * the moves and spliced edges from the DDG and restore the
     * original edge. Does not touch the producer or consumer.
     */
    void dissolve(int chain_id, Ddg &ddg, PartialSchedule &ps);

    /** Chain owning this move op, or -1. */
    int chainOfMove(OpId op) const;

    /**
     * Live chain ids whose original producer or consumer is op,
     * appended to @p out (cleared first) — the allocation-free form
     * the eviction path uses.
     */
    void chainsTouching(const Ddg &ddg, OpId op,
                        std::vector<int> &out) const;

    /** Allocating convenience overload of the above. */
    std::vector<int> chainsTouching(const Ddg &ddg, OpId op) const;

    const Chain &chain(int id) const;

    /** Number of chains created since reset() (dissolved included). */
    int numChains() const { return count_; }

    /** Count of live (not dissolved) chains. */
    int liveChainCount() const;

  private:
    /** Records [0, count_) are this attempt's chains; the rest are
     * spares from earlier attempts. */
    std::vector<Chain> chains_;
    int count_ = 0;
    /** op -> owning chain id (grown on demand; -1 = none). */
    std::vector<int> chain_of_move_;
    /**
     * Ids of live chains, ascending. create() appends (ids are
     * monotone) and dissolve() erases, so the eviction hot path
     * scans only live chains instead of every tombstone the
     * attempt ever created — chainsTouching dominated the DMS
     * profile before this.
     */
    std::vector<int> live_ids_;
};

} // namespace dms

#endif // DMS_CORE_CHAIN_H
