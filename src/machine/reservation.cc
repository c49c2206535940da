#include "machine/reservation.h"

#include <algorithm>

#include "support/bits.h"
#include "support/diag.h"

namespace dms {

namespace {

/** Mask with the low @p n bits set (n in [0, 64]). */
inline std::uint64_t
lowBits(int n)
{
    return n >= 64 ? ~0ULL : (1ULL << n) - 1;
}

} // namespace

ReservationTable::ReservationTable(const MachineModel &machine, int ii)
    : machine_(&machine)
{
    reset(ii);
}

void
ReservationTable::reset(const MachineModel &machine, int ii)
{
    machine_ = &machine;
    reset(ii);
}

void
ReservationTable::reset(int ii)
{
    DMS_ASSERT(ii >= 1, "bad II %d", ii);
    ii_ = ii;
    words_ = (ii + 63) / 64;

    const size_t blocks =
        static_cast<size_t>(machine_->numClusters()) * kNumFuClasses;
    block_.resize(blocks);
    free_count_.resize(blocks);
    free_rows_.assign(blocks * static_cast<size_t>(words_), 0);
    free_insts_.resize(blocks * static_cast<size_t>(ii_));

    int off = 0;
    for (ClusterId c = 0; c < machine_->numClusters(); ++c) {
        for (int cls = 0; cls < kNumFuClasses; ++cls) {
            const size_t b = blockIndex(c, static_cast<FuClass>(cls));
            const int per =
                machine_->fusPerCluster(static_cast<FuClass>(cls));
            DMS_ASSERT(per <= 64, "more than 64 %s units per cluster",
                       fuClassName(static_cast<FuClass>(cls)));
            block_[b] = off;
            off += per * ii_;
            free_count_[b] = per * ii_;

            const std::uint64_t inst_mask = lowBits(per);
            for (int row = 0; row < ii_; ++row) {
                free_insts_[b * static_cast<size_t>(ii_) +
                            static_cast<size_t>(row)] = inst_mask;
            }
            if (per > 0) {
                std::uint64_t *rows =
                    &free_rows_[b * static_cast<size_t>(words_)];
                for (int w = 0; w < words_; ++w) {
                    int bits_here =
                        std::min(64, ii_ - 64 * w);
                    rows[w] = lowBits(bits_here);
                }
            }
        }
    }
    slots_.assign(static_cast<size_t>(off), kInvalidOp);
}

size_t
ReservationTable::index(ClusterId cluster, FuClass cls, int instance,
                        int row) const
{
    DMS_ASSERT(cluster >= 0 && cluster < machine_->numClusters(),
               "bad cluster %d", cluster);
    DMS_ASSERT(row >= 0 && row < ii_, "bad row %d", row);
    int per = machine_->fusPerCluster(cls);
    DMS_ASSERT(instance >= 0 && instance < per,
               "bad instance %d of class %s", instance,
               fuClassName(cls));
    int base = block_[blockIndex(cluster, cls)];
    return static_cast<size_t>(base + instance * ii_ + row);
}

OpId
ReservationTable::at(ClusterId cluster, FuClass cls, int instance,
                     int row) const
{
    return slots_[index(cluster, cls, instance, row)];
}

int
ReservationTable::freeInstance(ClusterId cluster, FuClass cls,
                               int row) const
{
    std::uint64_t m = free_insts_[rowIndex(cluster, cls, row)];
    return m != 0 ? countTrailingZeros(m) : -1;
}

void
ReservationTable::place(OpId op, ClusterId cluster, FuClass cls,
                        int instance, int row)
{
    size_t idx = index(cluster, cls, instance, row);
    DMS_ASSERT(slots_[idx] == kInvalidOp,
               "slot (c%d,%s,%d,row%d) already holds op%d", cluster,
               fuClassName(cls), instance, row, slots_[idx]);
    slots_[idx] = op;

    std::uint64_t &insts = free_insts_[rowIndex(cluster, cls, row)];
    insts &= ~(1ULL << instance);
    if (insts == 0) {
        free_rows_[blockIndex(cluster, cls) *
                       static_cast<size_t>(words_) +
                   static_cast<size_t>(row / 64)] &=
            ~(1ULL << (row % 64));
    }
    --free_count_[blockIndex(cluster, cls)];
}

void
ReservationTable::clear(OpId op, ClusterId cluster, FuClass cls,
                        int instance, int row)
{
    size_t idx = index(cluster, cls, instance, row);
    DMS_ASSERT(slots_[idx] == op,
               "slot (c%d,%s,%d,row%d) holds op%d, not op%d", cluster,
               fuClassName(cls), instance, row, slots_[idx], op);
    slots_[idx] = kInvalidOp;

    std::uint64_t &insts = free_insts_[rowIndex(cluster, cls, row)];
    if (insts == 0) {
        free_rows_[blockIndex(cluster, cls) *
                       static_cast<size_t>(words_) +
                   static_cast<size_t>(row / 64)] |=
            1ULL << (row % 64);
    }
    insts |= 1ULL << instance;
    ++free_count_[blockIndex(cluster, cls)];
}

Cycle
ReservationTable::firstFreeCycle(ClusterId cluster, FuClass cls,
                                 Cycle early) const
{
    DMS_ASSERT(early >= 0, "negative early cycle %d", early);
    const std::uint64_t *rows =
        &free_rows_[blockIndex(cluster, cls) *
                    static_cast<size_t>(words_)];
    const int r0 = early % ii_;

    // First free row at or after r0, then wrap to rows before r0:
    // the circular order a linear probe of [early, early + II)
    // visits.
    int w0 = r0 / 64;
    std::uint64_t word = rows[w0] & ~lowBits(r0 % 64);
    int row = -1;
    if (word != 0) {
        row = 64 * w0 + countTrailingZeros(word);
    } else {
        for (int w = w0 + 1; w < words_; ++w) {
            if (rows[w] != 0) {
                row = 64 * w + countTrailingZeros(rows[w]);
                break;
            }
        }
    }
    if (row < 0) {
        for (int w = 0; w <= w0; ++w) {
            std::uint64_t wrap =
                w == w0 ? rows[w] & lowBits(r0 % 64) : rows[w];
            if (wrap != 0) {
                row = 64 * w + countTrailingZeros(wrap);
                break;
            }
        }
    }
    if (row < 0)
        return kUnscheduled;
    return early + (row - r0 + (row < r0 ? ii_ : 0));
}

std::vector<OpId>
ReservationTable::occupants(ClusterId cluster, FuClass cls,
                            int row) const
{
    std::vector<OpId> out;
    int per = machine_->fusPerCluster(cls);
    for (int i = 0; i < per; ++i) {
        OpId o = at(cluster, cls, i, row);
        if (o != kInvalidOp)
            out.push_back(o);
    }
    return out;
}

} // namespace dms
