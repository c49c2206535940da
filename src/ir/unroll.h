#ifndef DMS_IR_UNROLL_H
#define DMS_IR_UNROLL_H

/**
 * @file
 * DDG-level loop unrolling. The paper unrolls loop bodies "to
 * provide additional operations to the scheduler whenever
 * necessary" [9] before modulo scheduling; we do the same at the
 * dependence-graph level.
 */

#include "ir/ddg.h"

namespace dms {

/**
 * Unroll a loop body @p factor times.
 *
 * Each original operation u becomes copies u#0..u#(f-1), where copy
 * j handles original iteration I*f + j of new iteration I. An edge
 * (u -> v, distance d) becomes, for each consumer copy j, an edge
 * from producer copy (j - d) mod f with new distance
 * (d - j + (j - d) mod f) / f. Copies keep the original op's
 * @c origId and record @c iterOffset = j so the simulator can map
 * executed iterations back to original iterations.
 *
 * @pre factor >= 1 and the input body is not itself unrolled.
 * @return a fresh DDG with unrollFactor() == factor.
 */
Ddg unrollDdg(const Ddg &ddg, int factor);

/**
 * Rebuild-in-place variant: writes the unrolled body into @p out
 * (which must not be @p ddg), reusing its buffers, so a context that
 * compiles loop after loop unrolls without allocating once warm.
 */
void unrollDdg(const Ddg &ddg, int factor, Ddg &out);

} // namespace dms

#endif // DMS_IR_UNROLL_H
