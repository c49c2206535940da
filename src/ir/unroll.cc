#include "ir/unroll.h"

#include "support/diag.h"

namespace dms {

void
unrollDdg(const Ddg &ddg, int factor, Ddg &out)
{
    DMS_ASSERT(factor >= 1, "bad unroll factor %d", factor);
    DMS_ASSERT(ddg.unrollFactor() == 1, "re-unrolling a body");
    DMS_ASSERT(&out != &ddg, "unrolling a body into itself");

    out.clear();
    out.setUnrollFactor(factor);
    out.reserve(ddg.liveOpCount() * factor, ddg.numEdges() * factor);

    // Copies are appended original by original, so copy j of the
    // r-th live original gets id r * factor + j. With no dead
    // originals r is the op id itself and no table is needed.
    std::vector<OpId> rank;
    if (ddg.liveOpCount() != ddg.numOps()) {
        rank.assign(static_cast<size_t>(ddg.numOps()), kInvalidOp);
        OpId r = 0;
        for (OpId id = 0; id < ddg.numOps(); ++id) {
            if (ddg.opLive(id))
                rank[static_cast<size_t>(id)] = r++;
        }
    }
    auto idOf = [&](OpId op, int j) -> OpId {
        OpId r = rank.empty() ? op : rank[static_cast<size_t>(op)];
        return r * factor + j;
    };

    for (OpId id = 0; id < ddg.numOps(); ++id) {
        if (!ddg.opLive(id))
            continue;
        const Operation &o = ddg.op(id);
        DMS_ASSERT(o.origin == OpOrigin::Original,
                   "unrolling a transformed body (op %d)", id);
        for (int j = 0; j < factor; ++j) {
            OpId nid = out.addOp(o.opc, o.origin);
            DMS_ASSERT(nid == idOf(id, j), "unroll id mismatch");
            Operation &n = out.op(nid);
            n.origId = o.origId;
            n.iterOffset = j;
            n.memStream = o.memStream;
            n.memOffset = o.memOffset;
            n.literal = o.literal;
            // Every copy gets exactly the original's degree.
            n.ins.reserve(o.ins.size());
            n.outs.reserve(o.outs.size());
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
}

Ddg
unrollDdg(const Ddg &ddg, int factor)
{
    Ddg out;
    unrollDdg(ddg, factor, out);
    return out;
}

} // namespace dms
