#include "ir/scc.h"

#include <algorithm>
#include <climits>
#include <vector>

namespace dms {

namespace {

/**
 * Working storage of one Tarjan walk. One instance per thread is
 * reused walk after walk; the vectors only grow, so repeated walks
 * over same-sized graphs allocate nothing.
 */
struct TarjanScratch
{
    struct Frame
    {
        OpId v;
        size_t edge_pos;
    };

    std::vector<int> index;
    std::vector<int> lowlink;
    std::vector<OpId> stack;
    std::vector<Frame> frames;
};

/** Iterative Tarjan SCC (explicit stack; DDGs can be deep). */
void
tarjan(const Ddg &ddg, SccVisitor visit, void *ctx, TarjanScratch &s)
{
    const size_t n = static_cast<size_t>(ddg.numOps());
    s.index.assign(n, -1);
    s.lowlink.assign(n, -1);
    s.stack.clear();
    s.frames.clear();
    int next_index = 0;

    auto open = [&](OpId v) {
        size_t vi = static_cast<size_t>(v);
        s.index[vi] = next_index;
        s.lowlink[vi] = next_index;
        ++next_index;
        s.stack.push_back(v);
        s.frames.push_back({v, 0});
    };

    for (OpId root = 0; root < ddg.numOps(); ++root) {
        if (!ddg.opLive(root) ||
            s.index[static_cast<size_t>(root)] >= 0) {
            continue;
        }
        open(root);
        while (!s.frames.empty()) {
            TarjanScratch::Frame &f = s.frames.back();
            const auto &outs = ddg.op(f.v).outs;
            bool descended = false;
            while (f.edge_pos < outs.size()) {
                EdgeId e = outs[f.edge_pos];
                ++f.edge_pos;
                if (!ddg.edgeActive(e))
                    continue;
                OpId w = ddg.edge(e).dst;
                size_t wi = static_cast<size_t>(w);
                if (s.index[wi] < 0) {
                    open(w); // invalidates f
                    descended = true;
                    break;
                }
                // Emitted ops carry index INT_MAX: no effect.
                size_t vi = static_cast<size_t>(f.v);
                s.lowlink[vi] = std::min(s.lowlink[vi], s.index[wi]);
            }
            if (descended)
                continue;

            // Finished v: pop frame, close SCC if root.
            OpId v = f.v;
            size_t vi = static_cast<size_t>(v);
            s.frames.pop_back();
            if (!s.frames.empty()) {
                size_t pi = static_cast<size_t>(s.frames.back().v);
                s.lowlink[pi] =
                    std::min(s.lowlink[pi], s.lowlink[vi]);
            }
            if (s.lowlink[vi] == s.index[vi]) {
                // Emit the SCC in place from the Tarjan stack: sort
                // its segment, hand it to the visitor, then pop. An
                // emitted op's index becomes INT_MAX, which takes it
                // out of every later lowlink minimum (the on-stack
                // test of textbook Tarjan).
                size_t base = s.stack.size();
                while (true) {
                    --base;
                    OpId m = s.stack[base];
                    s.index[static_cast<size_t>(m)] = INT_MAX;
                    if (m == v)
                        break;
                }
                std::sort(s.stack.begin() +
                              static_cast<std::ptrdiff_t>(base),
                          s.stack.end());
                visit(ctx, s.stack.data() + base,
                      s.stack.size() - base);
                s.stack.resize(base);
            }
        }
    }
}

} // namespace

void
forEachScc(const Ddg &ddg, SccVisitor visit, void *ctx)
{
    thread_local TarjanScratch shared;
    thread_local bool busy = false;
    if (busy) {
        // Called from inside a visitor: the outer walk still owns
        // the shared scratch (its members pointer included).
        TarjanScratch own;
        tarjan(ddg, visit, ctx, own);
        return;
    }
    busy = true;
    struct Release
    {
        ~Release() { busy = false; } // a throwing visitor included
    } release;
    tarjan(ddg, visit, ctx, shared);
}

bool
hasRecurrence(const Ddg &ddg)
{
    // A non-trivial SCC or a self-loop means a dependence cycle.
    for (EdgeId e = 0; e < ddg.numEdges(); ++e) {
        if (ddg.edgeActive(e) && ddg.edge(e).src == ddg.edge(e).dst)
            return true;
    }
    bool cyclic = false;
    forEachScc(ddg,
               [&](const OpId *, size_t n) { cyclic |= n > 1; });
    return cyclic;
}

} // namespace dms
