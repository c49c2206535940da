#include "workload/text.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ir/scc.h"
#include "ir/verify.h"
#include "support/diag.h"
#include "support/strings.h"

namespace dms {

namespace {

/**
 * One directive line, split in place: its space-separated fields
 * and the "key=value" attributes after the operands. The buffers
 * are reused from line to line, so parsing allocates nothing per
 * token. Every check returns false after fail(); the public entry
 * points either propagate the message or fatal() with it, so the
 * CLI keeps its one-exit-per-line behaviour while the service can
 * reject a request without dying.
 */
struct Line
{
    int no = 0;
    std::vector<std::string_view> f;
    std::vector<std::pair<std::string_view, std::string_view>> attrs;
    std::string error;

    /** "line N: " + the message. */
    __attribute__((format(printf, 2, 3))) bool
    fail(const char *fmt, ...)
    {
        va_list ap;
        va_start(ap, fmt);
        error = strfmt("line %d: ", no) + vstrfmt(fmt, ap);
        va_end(ap);
        return false;
    }

    /** Collect f[from..] as attributes; each needs exactly one '='. */
    bool
    splitAttrs(size_t from)
    {
        attrs.clear();
        for (size_t i = from; i < f.size(); ++i) {
            const size_t eq = f[i].find('=');
            if (eq == std::string_view::npos ||
                f[i].find('=', eq + 1) != std::string_view::npos)
                return fail("bad attribute '%s'", quoted(i).c_str());
            attrs.emplace_back(f[i].substr(0, eq), f[i].substr(eq + 1));
        }
        return true;
    }

    /**
     * Integer attribute @p key (the last one given wins), or
     * @p fallback when absent. Offsets and const literals are signed
     * in the format; ids, distances, slots and latencies are not.
     */
    bool
    intAttr(const char *key, int fallback, int &out,
            bool allow_negative = false)
    {
        out = fallback;
        for (auto a = attrs.rbegin(); a != attrs.rend(); ++a) {
            if (a->first != key)
                continue;
            if (allow_negative ? parseSignedInt(a->second, out)
                               : parseInt(a->second, out))
                return true;
            return fail("bad integer for %s", key);
        }
        return true;
    }

    /** Field @p i as a C string for a message: %s stops at an
     *  embedded NUL. */
    std::string quoted(size_t i) const { return std::string(f[i]); }

    /** Split @p line into its non-empty space-separated fields. */
    void
    split(std::string_view line)
    {
        f.clear();
        for (size_t pos = 0; pos < line.size();) {
            const size_t sp = std::min(line.find(' ', pos), line.size());
            if (sp > pos)
                f.push_back(line.substr(pos, sp - pos));
            pos = sp + 1;
        }
    }
};

bool
parseLoop(Line &l, Loop &out)
{
    if (l.f.size() < 2)
        return l.fail("loop needs a name");
    out.name = l.f[1];
    if (l.f.size() < 4 || l.f[2] != "trip")
        return true;
    int trip = 0;
    if (!parseInt(l.f[3], trip))
        return l.fail("bad trip count");
    out.tripCount = trip;
    return true;
}

/**
 * File op id -> graph id: a flat table for ids below its size (set
 * from the pre-scan's op count, so dense and gapped numberings fit)
 * and a map for the rest.
 */
struct FileIds
{
    std::vector<OpId> flat;
    std::unordered_map<int, OpId> sparse;

    /** Empty the table for a text with @p op_lines op lines. */
    void
    reset(int op_lines)
    {
        flat.assign(8 * static_cast<size_t>(op_lines) + 256, kInvalidOp);
        sparse.clear();
    }

    /** The graph id of file id @p fid, or kInvalidOp. */
    OpId
    find(int fid) const
    {
        if (static_cast<size_t>(fid) < flat.size())
            return flat[static_cast<size_t>(fid)];
        const auto it = sparse.find(fid);
        return it == sparse.end() ? kInvalidOp : it->second;
    }

    void
    insert(int fid, OpId id)
    {
        if (static_cast<size_t>(fid) < flat.size())
            flat[static_cast<size_t>(fid)] = id;
        else
            sparse.emplace(fid, id);
    }
};

bool
parseOp(Line &l, Loop &out, FileIds &ids)
{
    if (l.f.size() < 3)
        return l.fail("op needs id and opcode");
    int fid = 0;
    if (!parseInt(l.f[1], fid))
        return l.fail("bad op id");
    if (ids.find(fid) != kInvalidOp)
        return l.fail("duplicate op id %d", fid);
    int opc = 0;
    while (opc < kNumOpcodes &&
           l.f[2] != opcodeName(static_cast<Opcode>(opc)))
        ++opc;
    if (opc == kNumOpcodes)
        return l.fail("unknown opcode '%s'", l.quoted(2).c_str());
    int stream = -1;
    int offset = 0;
    int literal = 0;
    if (!l.splitAttrs(3) || !l.intAttr("stream", -1, stream) ||
        !l.intAttr("offset", 0, offset, /*allow_negative=*/true) ||
        !l.intAttr("lit", 0, literal, /*allow_negative=*/true))
        return false;
    OpId id = out.ddg.addOp(static_cast<Opcode>(opc));
    out.ddg.op(id).memStream = stream;
    out.ddg.op(id).memOffset = offset;
    out.ddg.op(id).literal = literal;
    ids.insert(fid, id);
    return true;
}

bool
parseEdge(Line &l, Loop &out, const FileIds &ids,
          const LatencyModel &lat)
{
    if (l.f.size() < 4)
        return l.fail("edge needs src dst kind");
    int src = 0;
    int dst = 0;
    if (!parseInt(l.f[1], src) || !parseInt(l.f[2], dst))
        return l.fail("bad edge endpoints");
    const OpId s = ids.find(src);
    const OpId d = ids.find(dst);
    if (s == kInvalidOp || d == kInvalidOp)
        return l.fail("edge references unknown op");
    DepKind kind = DepKind::Flow;
    while (l.f[3] != depKindName(kind)) {
        if (kind == DepKind::Memory)
            return l.fail("unknown dependence kind '%s'",
                          l.quoted(3).c_str());
        kind = static_cast<DepKind>(static_cast<int>(kind) + 1);
    }
    int dist = 0;
    if (!l.splitAttrs(4) || !l.intAttr("dist", 0, dist))
        return false;
    if (kind != DepKind::Flow) {
        int latency = 0;
        if (!l.intAttr("lat", kind == DepKind::Anti ? 0 : 1, latency))
            return false;
        out.ddg.addEdge(s, d, kind, dist, latency);
        return true;
    }
    int slot = 0;
    if (!l.intAttr("slot", 0, slot))
        return false;
    if (slot != 0 && slot != 1)
        return l.fail("flow slot must be 0 or 1 (got %d)", slot);
    const Opcode opc = out.ddg.op(s).opc;
    if (!producesValue(opc))
        return l.fail("flow edge from op %d, which produces no value",
                      src);
    out.ddg.addEdge(s, d, kind, dist, lat.of(opc), slot);
    return true;
}

/**
 * Call @p fn on every line of @p text, trimmed; the last line may
 * lack its newline. Stops when @p fn returns false.
 */
template <typename Fn>
void
forEachLine(std::string_view text, Fn &&fn)
{
    for (size_t pos = 0; pos <= text.size();) {
        const size_t nl = std::min(text.find('\n', pos), text.size());
        if (!fn(trimView(text.substr(pos, nl - pos))))
            return;
        pos = nl + 1;
    }
}

/** True when @p line's first field is @p word. */
bool
startsWithField(std::string_view line, std::string_view word)
{
    return line.substr(0, word.size()) == word &&
           (line.size() == word.size() || line[word.size()] == ' ');
}

} // namespace

std::string
loopToText(const Loop &loop)
{
    const Ddg &g = loop.ddg;
    std::string out;
    out.reserve(32 + loop.name.size() +
                24 * static_cast<size_t>(g.numOps()) +
                32 * static_cast<size_t>(g.numEdges()));
    // The name ends at an embedded NUL, like every quoted field.
    append(out, "loop ", loop.name.c_str(), " trip ", loop.tripCount,
           '\n');
    // Canonical ids: live ops renumbered densely in id order, so a
    // graph with holes (dead ops) serializes identically to its
    // re-parsed self and the text is a stable cache key.
    std::vector<int> dense(static_cast<size_t>(g.numOps()), -1);
    int next = 0;
    for (OpId id = 0; id < g.numOps(); ++id) {
        if (!g.opLive(id))
            continue;
        dense[static_cast<size_t>(id)] = next;
        const Operation &o = g.op(id);
        append(out, "op ", next++, ' ', opcodeName(o.opc));
        if (o.memStream >= 0)
            append(out, " stream=", o.memStream);
        if (o.memOffset != 0)
            append(out, " offset=", o.memOffset);
        if (o.opc == Opcode::Const)
            append(out, " lit=", o.literal);
        out += '\n';
    }
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (!g.edgeLive(e))
            continue;
        const Edge &ed = g.edge(e);
        append(out, "edge ", dense[static_cast<size_t>(ed.src)], ' ',
               dense[static_cast<size_t>(ed.dst)], ' ',
               depKindName(ed.kind), " dist=", ed.distance);
        if (ed.kind == DepKind::Flow)
            append(out, " slot=", ed.operandIndex, '\n');
        else
            append(out, " lat=", ed.latency, '\n');
    }
    return out;
}

namespace {

/** LEB128: seven bits a byte, low first; prefix-free. */
void
appendVarint(std::string &out, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        out += static_cast<char>((v & 0x7f) | 0x80);
    out += static_cast<char>(v);
}

/** Zig-zag a signed value so small magnitudes stay one byte. */
void
appendSignedVarint(std::string &out, std::int64_t v)
{
    appendVarint(out, (static_cast<std::uint64_t>(v) << 1) ^
                          static_cast<std::uint64_t>(v >> 63));
}

} // namespace

void
appendLoopKey(std::string &out, const Loop &loop)
{
    const Ddg &g = loop.ddg;
    const size_t name_len = std::strlen(loop.name.c_str());
    appendVarint(out, name_len);
    out.append(loop.name.data(), name_len);
    appendSignedVarint(out, loop.tripCount);
    // Dense ids, as loopToText numbers them.
    thread_local std::vector<int> dense;
    dense.assign(static_cast<size_t>(g.numOps()), -1);
    int next = 0;
    for (OpId id = 0; id < g.numOps(); ++id)
        if (g.opLive(id))
            dense[static_cast<size_t>(id)] = next++;
    appendVarint(out, static_cast<std::uint64_t>(g.liveOpCount()));
    for (OpId id = 0; id < g.numOps(); ++id) {
        if (!g.opLive(id))
            continue;
        const Operation &o = g.op(id);
        out += static_cast<char>(o.opc);
        appendVarint(out, static_cast<std::uint64_t>(
                              std::max<std::int64_t>(o.memStream, -1) + 1));
        appendSignedVarint(out, o.memOffset);
        if (o.opc == Opcode::Const)
            appendSignedVarint(out, o.literal);
    }
    int live_edges = 0;
    for (EdgeId e = 0; e < g.numEdges(); ++e)
        live_edges += g.edgeLive(e) ? 1 : 0;
    appendVarint(out, static_cast<std::uint64_t>(live_edges));
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
        if (!g.edgeLive(e))
            continue;
        const Edge &ed = g.edge(e);
        appendSignedVarint(out, dense[static_cast<size_t>(ed.src)]);
        appendSignedVarint(out, dense[static_cast<size_t>(ed.dst)]);
        out += static_cast<char>(ed.kind);
        appendSignedVarint(out, ed.distance);
        appendSignedVarint(out, ed.kind == DepKind::Flow
                                    ? ed.operandIndex
                                    : ed.latency);
    }
}

bool
loopFromText(const std::string &text, Loop &out, std::string &error,
             const LatencyModel &lat)
{
    // Count the op and edge lines first so the graph's arrays are
    // allocated once, at their final size.
    int op_lines = 0;
    int edge_lines = 0;
    forEachLine(text, [&](std::string_view line) {
        op_lines += startsWithField(line, "op") ? 1 : 0;
        edge_lines += startsWithField(line, "edge") ? 1 : 0;
        return true;
    });
    out = Loop();
    out.name = "unnamed";
    out.ddg.reserve(op_lines, edge_lines);

    // The line buffers and the id table are reused by every parse
    // on this thread.
    thread_local Line l;
    thread_local FileIds ids;
    l.no = 0;
    l.error.clear();
    ids.reset(op_lines);
    forEachLine(text, [&](std::string_view line) {
        ++l.no;
        l.split(line);
        if (l.f.empty() || l.f[0][0] == '#')
            return true;
        const std::string_view directive = l.f[0];
        if (directive == "loop") {
            parseLoop(l, out);
        } else if (directive == "op") {
            parseOp(l, out, ids);
        } else if (directive == "edge") {
            parseEdge(l, out, ids, lat);
        } else {
            l.fail("unknown directive '%s'", l.quoted(0).c_str());
        }
        return l.error.empty();
    });

    if (!l.error.empty()) {
        error = std::move(l.error);
        l.error.clear();
        return false;
    }
    auto problems = verifyDdg(out.ddg);
    if (!problems.empty()) {
        error = strfmt("invalid loop '%s': %s", out.name.c_str(),
                       problems[0].c_str());
        return false;
    }
    out.recurrence = hasRecurrence(out.ddg);
    return true;
}

Loop
loopFromText(const std::string &text, const LatencyModel &lat)
{
    Loop loop;
    std::string error;
    if (!loopFromText(text, loop, error, lat))
        fatal("%s", error.c_str());
    return loop;
}

bool
loadLoopSpec(const std::string &spec, Loop &out, std::string &error,
             const LatencyModel &lat)
{
    if (spec.rfind("kernel:", 0) == 0) {
        std::string name = spec.substr(7);
        for (Loop &k : namedKernels()) {
            if (k.name == name) {
                out = std::move(k);
                return true;
            }
        }
        error = strfmt("unknown kernel '%s'", name.c_str());
        return false;
    }
    std::ifstream in(spec);
    if (!in) {
        error = strfmt("cannot open '%s'", spec.c_str());
        return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    return loopFromText(ss.str(), out, error, lat);
}

} // namespace dms
