#ifndef DMS_MACHINE_RESERVATION_H
#define DMS_MACHINE_RESERVATION_H

/**
 * @file
 * Modulo reservation table (MRT). Modulo scheduling requires that
 * an operation issued at absolute time t occupies its functional
 * unit in row t mod II; two operations conflict iff they need the
 * same (cluster, FU class, FU instance, row). FUs are fully
 * pipelined, so one issue occupies one row (see DESIGN.md).
 *
 * The table maintains three derived structures alongside the raw
 * slots so the scheduler's inner-loop queries are O(1):
 *
 *  - a per-(cluster, class, row) bitmask of *free instances*, so
 *    hasFree()/freeInstance() are a single mask test / bit scan;
 *  - a per-(cluster, class) bitmask of *rows with free capacity*
 *    (one bit per row, packed in 64-bit words), so firstFreeCycle()
 *    scans O(II/64) words instead of probing O(II x instances)
 *    slots;
 *  - a per-(cluster, class) free-slot counter, so freeSlotCount()
 *    (queried per cluster on every strategy-2 evaluation) is O(1).
 */

#include <cstdint>
#include <vector>

#include "ir/opcode.h"
#include "machine/machine.h"
#include "support/diag.h"
#include "support/types.h"

namespace dms {

/** Modulo reservation table for one II. */
class ReservationTable
{
  public:
    ReservationTable(const MachineModel &machine, int ii);

    /**
     * Clear every slot and re-shape the table for a new II, reusing
     * the existing allocations (the II-ladder reset path).
     */
    void reset(int ii);

    /**
     * Rebind to @p machine, which may differ in shape, and reset(ii).
     * How a reused scheduling arena follows a compile to a new
     * machine: the service frees each request's machine with the
     * request.
     */
    void reset(const MachineModel &machine, int ii);

    int ii() const { return ii_; }

    /** Occupant of a slot, or kInvalidOp. */
    OpId at(ClusterId cluster, FuClass cls, int instance,
            int row) const;

    /** First free instance at (cluster, cls, row), or -1. O(1). */
    int
    freeInstance(ClusterId cluster, FuClass cls, int row) const;

    /** True if some instance is free at (cluster, cls, row). O(1). */
    bool
    hasFree(ClusterId cluster, FuClass cls, int row) const
    {
        return free_insts_[rowIndex(cluster, cls, row)] != 0;
    }

    /** Place an op; the slot must be empty. */
    void place(OpId op, ClusterId cluster, FuClass cls, int instance,
               int row);

    /** Clear a slot; it must hold @p op. */
    void clear(OpId op, ClusterId cluster, FuClass cls, int instance,
               int row);

    /**
     * Number of free (instance, row) slots of a class in a cluster —
     * the quantity DMS maximizes when choosing between the two chain
     * directions ("the number of free slots left available to
     * schedule move operations in any cluster"). O(1).
     */
    int
    freeSlotCount(ClusterId cluster, FuClass cls) const
    {
        return free_count_[blockIndex(cluster, cls)];
    }

    /**
     * Rau's time-slot search over the row bitmask: the first cycle
     * t in [early, early + II - 1] whose row t mod II has a free
     * instance, or kUnscheduled when every row is occupied.
     */
    Cycle firstFreeCycle(ClusterId cluster, FuClass cls,
                         Cycle early) const;

    /** Occupants of every instance at (cluster, cls, row). */
    std::vector<OpId> occupants(ClusterId cluster, FuClass cls,
                                int row) const;

  private:
    size_t index(ClusterId cluster, FuClass cls, int instance,
                 int row) const;

    size_t
    blockIndex(ClusterId cluster, FuClass cls) const
    {
        return static_cast<size_t>(cluster) * kNumFuClasses +
               static_cast<size_t>(cls);
    }

    size_t
    rowIndex(ClusterId cluster, FuClass cls, int row) const
    {
        DMS_ASSERT(cluster >= 0 && cluster < machine_->numClusters(),
                   "bad cluster %d", cluster);
        DMS_ASSERT(row >= 0 && row < ii_, "bad row %d", row);
        return blockIndex(cluster, cls) * static_cast<size_t>(ii_) +
               static_cast<size_t>(row);
    }

    const MachineModel *machine_;
    int ii_;
    /** 64-bit words per (cluster, class) row bitmask. */
    int words_;
    /** Start offset of each (cluster, class) block in slots_. */
    std::vector<int> block_;
    std::vector<OpId> slots_;
    /** Free-instance mask per (cluster, class, row). */
    std::vector<std::uint64_t> free_insts_;
    /** Rows-with-capacity mask per (cluster, class), words_ each. */
    std::vector<std::uint64_t> free_rows_;
    /** Free slots per (cluster, class). */
    std::vector<int> free_count_;
};

} // namespace dms

#endif // DMS_MACHINE_RESERVATION_H
