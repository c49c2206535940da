#ifndef DMS_SCHED_PRIORITY_H
#define DMS_SCHED_PRIORITY_H

/**
 * @file
 * Height-based scheduling priority (Rau's HeightR). The height of an
 * operation is the length of the longest latency-weighted path it
 * starts, under the modulo-scheduling edge weight
 * w(e) = latency - II * distance. Operations with larger height are
 * more critical and are scheduled first.
 *
 * Two entry points:
 *
 *  - computeHeights(): one full relaxation for one II.
 *  - HeightLadder: incremental heights across a whole II ladder.
 *    Stepping II -> II+1 only re-relaxes the *affected set* — the
 *    ops that can reach a loop-carried edge in the DDG (equivalently
 *    the reverse-DDG closure of the sources of distance > 0 edges).
 *    Every other op's height contains no -II*distance term and is
 *    II-independent, so the restricted relaxation computes exactly
 *    the heights a full recompute would (the fuzz oracle in
 *    tests/test_priority.cc pins the equality). Restarts at the
 *    same II reuse the table verbatim.
 */

#include <cstdint>
#include <vector>

#include "ir/ddg.h"

namespace dms {

/** Per-op heights, indexed by OpId. Dead ops get 0. */
using Heights = std::vector<std::int64_t>;

/**
 * Compute heights for the given II by longest-path relaxation. At
 * II >= RecMII every cycle has non-positive weight, so a fixpoint
 * exists; the function panics if relaxation fails to converge
 * (i.e. it was called with II < RecMII).
 */
Heights computeHeights(const Ddg &ddg, int ii);

/**
 * Allocation-free variant: compute into @p out (resized and
 * overwritten), reusing its capacity across attempts.
 */
void computeHeights(const Ddg &ddg, int ii, Heights &out);

/**
 * Non-panicking core: false when relaxation diverged, which means
 * the II is below the true RecMII (a hostile knownRecMii hint or a
 * corrupt graph). @p out is valid only on true. Schedulers treat a
 * false as a failed attempt and climb the II ladder instead of
 * taking the process down.
 */
bool tryComputeHeights(const Ddg &ddg, int ii, Heights &out);

/**
 * Height table maintained incrementally across an II ladder.
 *
 * Usage: call ensure(ddg, ii) before every attempt. The first call
 * (or a call with a different graph) runs a full relaxation and
 * records the affected set; a repeat at the same II is free; a step
 * to a higher II zeroes only the affected ops and re-relaxes them
 * against the fixed II-independent boundary. The table after any
 * successful ensure() is bit-identical to computeHeights(ddg, ii).
 *
 * The bound graph must be structurally identical (same ops, same
 * active edges) at every ensure() call; the DMS attempt arena
 * guarantees this by resetting its scratch graph to the original
 * before recomputing heights, and calls invalidate() before it
 * rebuilds that graph from another body.
 *
 * Divergence (ensure() == false) marks the table invalid; the next
 * ensure() falls back to a full relaxation, so a ladder that starts
 * below the true RecMII recovers as soon as it climbs past it.
 */
class HeightLadder
{
  public:
    /**
     * Make heights() valid for @p ii. Returns false when relaxation
     * diverged (II below RecMII); heights() is unusable until a
     * later ensure() converges.
     */
    bool ensure(const Ddg &ddg, int ii);

    /** The table for the last successful ensure(). */
    const Heights &heights() const { return h_; }

    /**
     * Forget the bound graph. ensure() recognizes its graph by
     * address and op count only, so a caller that rebuilds a
     * different body into the same Ddg object (a reused DMS arena)
     * must invalidate first, or stale heights pass for fresh ones.
     */
    void
    invalidate()
    {
        ddg_ = nullptr;
        valid_ = false;
    }

    /** @name Ladder statistics (bench/sched_hotpath reporting) */
    /// @{
    long fullRelaxations() const { return full_; }
    long deltaRelaxations() const { return delta_; }
    long verbatimReuses() const { return reuses_; }
    /** Ops whose height depends on II (the re-relaxed set). */
    int affectedOps() const
    {
        return static_cast<int>(affected_.size());
    }
    /// @}

  private:
    void bind(const Ddg &ddg);
    bool relaxAffected(const Ddg &ddg, int ii);

    const Ddg *ddg_ = nullptr;
    int boundOps_ = -1;
    int ii_ = -1;
    bool valid_ = false;
    Heights h_;

    /** Affected set, descending OpId (the full-sweep direction). */
    std::vector<OpId> affected_;
    std::vector<std::uint8_t> inAffected_;

    long full_ = 0;
    long delta_ = 0;
    long reuses_ = 0;
};

} // namespace dms

#endif // DMS_SCHED_PRIORITY_H
