#include "ir/unroll.h"

#include "support/diag.h"

namespace dms {

Ddg
unrollDdg(const Ddg &ddg, int factor)
{
    DMS_ASSERT(factor >= 1, "bad unroll factor %d", factor);
    DMS_ASSERT(ddg.unrollFactor() == 1, "re-unrolling a body");

    Ddg out;
    out.setUnrollFactor(factor);

    // new id of (original op, copy j) at [op * factor + j];
    // kInvalidOp for dead originals.
    std::vector<OpId> ids(static_cast<size_t>(ddg.numOps() * factor),
                          kInvalidOp);
    auto idOf = [&](OpId op, int j) -> OpId & {
        return ids[static_cast<size_t>(op * factor + j)];
    };

    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id))
            continue;
        const Operation &o = ddg.op(id);
        DMS_ASSERT(o.origin == OpOrigin::Original,
                   "unrolling a transformed body (op %d)", id);
        for (int j = 0; j < factor; ++j) {
            OpId nid = out.addOp(o.opc, o.origin);
            Operation &n = out.op(nid);
            n.origId = o.origId;
            n.iterOffset = j;
            n.memStream = o.memStream;
            n.memOffset = o.memOffset;
            n.literal = o.literal;
            // Every copy gets exactly the original's degree.
            n.ins.reserve(o.ins.size());
            n.outs.reserve(o.outs.size());
            idOf(id, j) = nid;
        }
    }

    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (!ddg.edgeLive(e))
            continue;
        const Edge &ed = ddg.edge(e);
        DMS_ASSERT(!ed.replaced, "unrolling a body with chains");
        for (int j = 0; j < factor; ++j) {
            // Consumer copy j consumes from producer copy j', where
            // j' = (j - d) mod f, carried (d - j + j') / f new
            // iterations back.
            int jp = ((j - ed.distance) % factor + factor) % factor;
            int ndist = (ed.distance - j + jp) / factor;
            DMS_ASSERT(ndist >= 0, "negative unrolled distance");
            out.addEdge(idOf(ed.src, jp), idOf(ed.dst, j), ed.kind,
                        ndist, ed.latency, ed.operandIndex);
        }
    }

    return out;
}

} // namespace dms
