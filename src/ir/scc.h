#ifndef DMS_IR_SCC_H
#define DMS_IR_SCC_H

/**
 * @file
 * Strongly-connected components of a DDG (Tarjan). Recurrences —
 * the loops of the dependence graph — live inside non-trivial SCCs;
 * RecMII is computed per SCC and set 2 of the paper's evaluation is
 * exactly the loops whose DDGs have no non-trivial SCC.
 */

#include <cstddef>

#include "ir/ddg.h"

namespace dms {

/** SCC visitor: @p ctx is the caller's, @p members the component. */
using SccVisitor = void (*)(void *ctx, const OpId *members, size_t n);

/**
 * Visit every SCC over live ops and active edges (every dependence
 * kind participates; any kind of cycle constrains the II) in Tarjan
 * emission order. The visitor receives the members sorted
 * ascending, valid only for the duration of the call.
 *
 * The walk runs on per-thread scratch, so in steady state it
 * allocates nothing. A visitor may start another walk (directly or
 * through recMii/hasRecurrence): the nested walk gets scratch of its
 * own and leaves the outer one intact.
 */
void forEachScc(const Ddg &ddg, SccVisitor visit, void *ctx);

/** forEachScc for any callable taking (const OpId *, size_t). */
template <typename Fn>
void
forEachScc(const Ddg &ddg, Fn &&fn)
{
    auto *target = &fn;
    forEachScc(
        ddg,
        [](void *ctx, const OpId *members, size_t n) {
            (*static_cast<decltype(target)>(ctx))(members, n);
        },
        const_cast<void *>(static_cast<const void *>(target)));
}

/** True if the DDG contains a dependence cycle (a recurrence). */
bool hasRecurrence(const Ddg &ddg);

} // namespace dms

#endif // DMS_IR_SCC_H
