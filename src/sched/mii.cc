#include "sched/mii.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ir/scc.h"
#include "support/diag.h"

namespace dms {

int
resMii(const Ddg &ddg, const MachineModel &machine)
{
    std::vector<int> counts = ddg.opCountByClass();
    int mii = 1;
    for (int cls = 0; cls < kNumFuClasses; ++cls) {
        if (counts[static_cast<size_t>(cls)] == 0)
            continue;
        int fus = machine.totalFus(static_cast<FuClass>(cls));
        if (fus == 0) {
            panic("DDG needs %s units but machine '%s' has none",
                  fuClassName(static_cast<FuClass>(cls)),
                  machine.describe().c_str());
        }
        int need = (counts[static_cast<size_t>(cls)] + fus - 1) / fus;
        mii = std::max(mii, need);
    }
    return mii;
}

namespace {

/**
 * True if, at the given II, the SCC contains a cycle of positive
 * weight under w(e) = latency - II * distance (i.e. II is too
 * small). Bellman-Ford longest-path relaxation limited to the SCC.
 * @p dense maps op -> index within the SCC (-1 outside); @p dist
 * is caller-owned scratch so the binary search over II does not
 * reallocate per probe.
 */
bool
hasPositiveCycle(const Ddg &ddg, const OpId *scc, size_t n, int ii,
                 const std::vector<int> &dense,
                 std::vector<std::int64_t> &dist)
{
    dist.assign(n, 0);
    for (size_t pass = 0; pass <= n; ++pass) {
        bool changed = false;
        for (const OpId *u = scc; u != scc + n; ++u) {
            for (EdgeId e : ddg.op(*u).outs) {
                if (!ddg.edgeActive(e))
                    continue;
                const Edge &ed = ddg.edge(e);
                int vi = dense[static_cast<size_t>(ed.dst)];
                if (vi < 0)
                    continue;
                int ui = dense[static_cast<size_t>(*u)];
                std::int64_t w = ed.latency -
                    static_cast<std::int64_t>(ii) * ed.distance;
                if (dist[static_cast<size_t>(ui)] + w >
                    dist[static_cast<size_t>(vi)]) {
                    dist[static_cast<size_t>(vi)] =
                        dist[static_cast<size_t>(ui)] + w;
                    changed = true;
                }
            }
        }
        if (!changed)
            return false;
    }
    return true;
}

} // namespace

int
recMii(const Ddg &ddg, bool *has_recurrence)
{
    // Per-thread probe scratch: the SCC walk never calls back into
    // recMii, so one instance per thread is never shared. `dense`
    // is all -1 between SCCs (each SCC undoes its own entries).
    thread_local std::vector<int> dense;
    thread_local std::vector<std::int64_t> dist;
    if (dense.size() < static_cast<size_t>(ddg.numOps()))
        dense.resize(static_cast<size_t>(ddg.numOps()), -1);

    int best = 1;
    bool any_cycle = false;
    forEachScc(ddg, [&](const OpId *members, size_t n) {
        // Trivial SCCs constrain only via self-loops.
        bool cyclic = n > 1;
        std::int64_t lat_sum = 0;
        if (!cyclic) {
            for (EdgeId e : ddg.op(members[0]).outs) {
                if (ddg.edgeActive(e) &&
                    ddg.edge(e).dst == members[0]) {
                    cyclic = true;
                }
            }
        }
        if (!cyclic)
            return;
        any_cycle = true;

        for (size_t i = 0; i < n; ++i) {
            for (EdgeId e : ddg.op(members[i]).outs) {
                if (ddg.edgeActive(e))
                    lat_sum += ddg.edge(e).latency;
            }
        }

        // Dense op -> SCC index map, shared by every probe of the
        // binary search and undone per SCC (SCCs are disjoint).
        for (size_t i = 0; i < n; ++i) {
            dense[static_cast<size_t>(members[i])] =
                static_cast<int>(i);
        }

        // Binary search the smallest feasible II for this SCC.
        int lo = best;
        int hi = std::max<int>(lo,
            static_cast<int>(std::min<std::int64_t>(lat_sum, 1 << 20)));
        while (hasPositiveCycle(ddg, members, n, hi, dense, dist))
            hi *= 2;
        while (lo < hi) {
            int mid = lo + (hi - lo) / 2;
            if (hasPositiveCycle(ddg, members, n, mid, dense, dist))
                lo = mid + 1;
            else
                hi = mid;
        }
        best = std::max(best, lo);

        for (size_t i = 0; i < n; ++i)
            dense[static_cast<size_t>(members[i])] = -1;
    });
    if (has_recurrence != nullptr)
        *has_recurrence = any_cycle;
    return best;
}

int
minII(const Ddg &ddg, const MachineModel &machine)
{
    return std::max(resMii(ddg, machine), recMii(ddg));
}

} // namespace dms
