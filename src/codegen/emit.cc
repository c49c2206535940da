#include "codegen/emit.h"

#include <string_view>

#include "regalloc/queue_alloc.h"
#include "support/strings.h"

namespace dms {

namespace {

/**
 * Per-op queue annotations: for every lifetime the op produces,
 * the file (LRF cluster or CQRF link endpoints) and queue index
 * assigned by the allocator. All notes live in one per-thread
 * buffer; op i's are text[at[i], at[i + 1]), its lifetimes in
 * allocation order.
 */
struct QueueNotes
{
    std::string text;
    std::vector<std::uint32_t> at;

    std::string_view
    of(OpId op) const
    {
        const size_t i = static_cast<size_t>(op);
        return std::string_view(text).substr(at[i], at[i + 1] - at[i]);
    }
};

const QueueNotes &
queueNotes(const Ddg &ddg, const QueueAllocation *queues)
{
    thread_local QueueNotes notes;
    thread_local std::vector<std::uint32_t> order;
    const size_t n = static_cast<size_t>(ddg.numOps());
    notes.text.clear();
    notes.at.assign(n + 1, 0);
    if (queues == nullptr)
        return notes;
    // Counting sort of the lifetimes by defining op, stable, so
    // each op's notes keep the allocator's order.
    const std::vector<Lifetime> &lts = queues->lifetimes;
    std::vector<std::uint32_t> &next = notes.at;
    for (const Lifetime &lt : lts)
        ++next[static_cast<size_t>(lt.def) + 1];
    for (size_t i = 0; i < n; ++i)
        next[i + 1] += next[i];
    order.resize(lts.size());
    for (size_t k = 0; k < lts.size(); ++k)
        order[next[static_cast<size_t>(lts[k].def)]++] =
            static_cast<std::uint32_t>(k);
    // next[i] now ends op i's run; render the runs in op order and
    // turn the ends into starts.
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
        const std::uint32_t end = next[i];
        next[i] = static_cast<std::uint32_t>(notes.text.size());
        for (; k < end; ++k) {
            const Lifetime &lt = lts[order[k]];
            if (lt.location == QueueLocation::Lrf) {
                append(notes.text, ">c", lt.cluster, ".q",
                       lt.queueIndex);
            } else {
                const InterClusterLink &link =
                    queues->links[static_cast<size_t>(lt.link)];
                append(notes.text, ">c", link.src, "-c", link.dst,
                       ".q", lt.queueIndex);
            }
        }
    }
    next[n] = static_cast<std::uint32_t>(notes.text.size());
    return notes;
}

/** One slot: "[i<iteration>]", or "(s<stage>)" when @p iteration
 *  is negative, then the op's queue notes. */
void
appendSlot(std::string &out, const Ddg &ddg, const KernelSlot &s,
           int iteration, const QueueNotes &notes)
{
    append(out, ' ', opcodeName(ddg.op(s.op).opc), s.op);
    if (iteration >= 0)
        append(out, "[i", iteration, ']');
    else
        append(out, "(s", s.stage, ')');
    out += notes.of(s.op);
}

/** Line @p t: "  [t]" (right-aligned in @p width), its slots or
 *  " nop", "\n". */
template <typename Slots>
void
appendLine(std::string &out, int t, int width, const Slots &slots)
{
    out += "  [";
    appendInt(out, t, width);
    out += ']';
    const size_t mark = out.size();
    slots();
    out += out.size() == mark ? " nop\n" : "\n";
}

/** One kernel word: the slots of each cluster in turn. */
void
appendRow(std::string &out, const Ddg &ddg, const MachineModel &machine,
          const std::vector<KernelSlot> &row,
          const QueueNotes &notes)
{
    for (ClusterId c = 0; c < machine.numClusters(); ++c) {
        if (machine.clustered())
            append(out, " | c", c, ':');
        const size_t mark = out.size();
        for (const KernelSlot &s : row) {
            if (s.cluster == c)
                appendSlot(out, ddg, s, -1, notes);
        }
        if (out.size() == mark)
            out += " nop";
    }
}

} // namespace

std::string
emitKernel(const Ddg &ddg, const MachineModel &machine,
           const PipelinedLoop &loop, const QueueAllocation *queues)
{
    const QueueNotes &notes = queueNotes(ddg, queues);
    std::string out;
    out.reserve(64 + 12 * static_cast<size_t>(loop.ii) +
                24 * static_cast<size_t>(ddg.liveOpCount()));
    append(out, "kernel: II=", loop.ii, ", SC=", loop.stageCount, '\n');
    for (int r = 0; r < loop.ii; ++r) {
        appendLine(out, r, 2, [&] {
            appendRow(out, ddg, machine,
                      loop.rows[static_cast<size_t>(r)], notes);
        });
    }
    return out;
}

std::string
emitPipelinedCode(const Ddg &ddg, const MachineModel &machine,
                  const PipelinedLoop &loop,
                  const QueueAllocation *queues)
{
    const QueueNotes &notes = queueNotes(ddg, queues);
    const int sc = loop.stageCount;
    const int ii = loop.ii;
    std::string out;
    // Every slot is rendered SC times: SC-1-stage times in the
    // prologue, once in the kernel, stage times in the epilogue.
    out.reserve(64 + 12 * static_cast<size_t>((2 * sc - 1) * ii) +
                24 * static_cast<size_t>(sc * ddg.liveOpCount()));
    append(out, "; pipelined loop: II=", ii, " SC=", sc,
           " prologue=", loop.rampCycles(), " cycles\n");

    // Prologue: cycles 0 .. (SC-1)*II - 1. At global cycle t, the
    // op copies live are those of stages 0..t/II; an op of stage s
    // executes iteration (t/II - s).
    out += "prologue:\n";
    for (int t = 0; t < (sc - 1) * ii; ++t) {
        appendLine(out, t, 3, [&] {
            for (const KernelSlot &s :
                 loop.rows[static_cast<size_t>(t % ii)]) {
                if (t / ii >= s.stage)
                    appendSlot(out, ddg, s, t / ii - s.stage, notes);
            }
        });
    }

    out += "kernel (repeat):\n";
    for (int r = 0; r < ii; ++r) {
        appendLine(out, r, 3, [&] {
            appendRow(out, ddg, machine,
                      loop.rows[static_cast<size_t>(r)], notes);
        });
    }

    // Epilogue: the last SC-1 stages drain. With N iterations, at
    // epilogue cycle t an op of stage s runs iteration
    // N - 1 - (stages remaining); emit with symbolic subscripts.
    out += "epilogue:\n";
    for (int t = 0; t < (sc - 1) * ii; ++t) {
        appendLine(out, t, 3, [&] {
            for (const KernelSlot &s :
                 loop.rows[static_cast<size_t>(t % ii)]) {
                // Stages s > t/II are still draining.
                if (s.stage > t / ii)
                    append(out, ' ', opcodeName(ddg.op(s.op).opc), s.op,
                           "[N-", s.stage - t / ii, ']');
            }
        });
    }
    return out;
}

} // namespace dms
