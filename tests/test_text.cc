/**
 * @file
 * Textual DDG serialization: round trips, error handling, and
 * semantic equivalence of parsed loops.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/reference.h"
#include "support/diag.h"
#include "workload/synth.h"
#include "workload/text.h"

namespace dms {
namespace {

TEST(Text, SerializeMentionsEverything)
{
    Loop k = kernelDotProduct();
    std::string txt = loopToText(k);
    EXPECT_NE(txt.find("loop dot_product trip 500"),
              std::string::npos);
    EXPECT_NE(txt.find("op 2 mul"), std::string::npos);
    EXPECT_NE(txt.find("dist=1"), std::string::npos);
    EXPECT_NE(txt.find("slot=1"), std::string::npos);
}

TEST(Text, RoundTripAllKernels)
{
    for (const Loop &k : namedKernels()) {
        Loop back = loopFromText(loopToText(k));
        EXPECT_EQ(back.name, k.name);
        EXPECT_EQ(back.tripCount, k.tripCount);
        EXPECT_EQ(back.ddg.liveOpCount(), k.ddg.liveOpCount());
        EXPECT_EQ(back.recurrence, k.recurrence);
        // Semantics: identical store logs.
        auto problems = compareStoreLogs(
            referenceExecute(k.ddg, 12),
            referenceExecute(back.ddg, 12));
        EXPECT_TRUE(problems.empty())
            << k.name << ": "
            << (problems.empty() ? "" : problems[0]);
    }
}

TEST(Text, RoundTripSyntheticLoops)
{
    for (const Loop &k : synthesizeSuite(99, 25)) {
        Loop back = loopFromText(loopToText(k));
        EXPECT_EQ(back.ddg.liveOpCount(), k.ddg.liveOpCount());
        auto problems = compareStoreLogs(
            referenceExecute(k.ddg, 8),
            referenceExecute(back.ddg, 8));
        EXPECT_TRUE(problems.empty()) << k.name;
    }
}

/**
 * The canonical form is load-bearing as the serve-cache key: one
 * parse must be a fixed point, i.e. serializing the re-parsed loop
 * reproduces the text byte for byte. Fuzz over the synthetic
 * generator (several seeds) plus every named kernel.
 */
TEST(Text, FuzzCanonicalRoundTripIsFixedPoint)
{
    std::vector<Loop> loops;
    for (std::uint64_t seed : {1ULL, 42ULL, 0xfeedULL}) {
        for (Loop &l : synthesizeSuite(seed, 60))
            loops.push_back(std::move(l));
    }
    for (Loop &k : namedKernels())
        loops.push_back(std::move(k));

    for (const Loop &l : loops) {
        std::string t1 = loopToText(l);
        Loop back = loopFromText(t1);
        std::string t2 = loopToText(back);
        ASSERT_EQ(t2, t1) << "canonicalization drift for '"
                          << l.name << "'";
    }
}

/**
 * Dead ops leave id gaps in the graph; the canonical serialization
 * renumbers densely so the text of a gappy graph equals the text
 * of its re-parsed (dense) self.
 */
TEST(Text, DeadOpsSerializeDense)
{
    Loop l = kernelDotProduct();
    // Graft a dead op into the middle: add and remove again.
    OpId extra = l.ddg.addOp(Opcode::Add);
    l.ddg.removeOp(extra);
    std::string t1 = loopToText(l);
    EXPECT_EQ(t1, loopToText(loopFromText(t1)));
    // Dense ids: the serialized op count is the live count, and no
    // id beyond it appears.
    EXPECT_EQ(t1.find(strfmt("op %d", l.ddg.liveOpCount())),
              std::string::npos);
}

/**
 * offset= and lit= are signed in the format (negative stencil
 * offsets, negative constants); the parser must accept what the
 * serializer emits.
 */
TEST(Text, NegativeOffsetAndLiteralRoundTrip)
{
    Loop l;
    l.name = "neg";
    l.tripCount = 10;
    OpId ld = l.ddg.addOp(Opcode::Load);
    l.ddg.op(ld).memStream = 0;
    l.ddg.op(ld).memOffset = -2;
    OpId c = l.ddg.addOp(Opcode::Const);
    l.ddg.op(c).literal = -7;
    OpId add = l.ddg.addOp(Opcode::Add);
    OpId st = l.ddg.addOp(Opcode::Store);
    l.ddg.op(st).memStream = 1;
    l.ddg.op(st).memOffset = -1;
    l.ddg.addEdge(ld, add, DepKind::Flow, 0, 2, 0);
    l.ddg.addEdge(c, add, DepKind::Flow, 0, 0, 1);
    l.ddg.addEdge(add, st, DepKind::Flow, 0, 1, 0);

    std::string t1 = loopToText(l);
    EXPECT_NE(t1.find("offset=-2"), std::string::npos);
    EXPECT_NE(t1.find("lit=-7"), std::string::npos);
    Loop back = loopFromText(t1);
    EXPECT_EQ(back.ddg.op(0).memOffset, -2);
    EXPECT_EQ(back.ddg.op(1).literal, -7);
    EXPECT_EQ(loopToText(back), t1);
}

TEST(Text, NonFatalParseReportsErrors)
{
    Loop out;
    std::string error;
    EXPECT_FALSE(loopFromText("op 0 frobnicate\n", out, error));
    EXPECT_NE(error.find("unknown opcode"), std::string::npos);
    EXPECT_NE(error.find("line 1"), std::string::npos);

    error.clear();
    EXPECT_TRUE(loopFromText(loopToText(kernelFir8()), out, error));
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(out.name, "fir8");
}

TEST(Text, LoadLoopSpecSharedLoader)
{
    Loop out;
    std::string error;
    EXPECT_TRUE(loadLoopSpec("kernel:daxpy", out, error));
    EXPECT_EQ(out.name, "daxpy");
    EXPECT_FALSE(loadLoopSpec("kernel:nosuch", out, error));
    EXPECT_NE(error.find("unknown kernel"), std::string::npos);
    EXPECT_FALSE(loadLoopSpec("/nonexistent/path.loop", out,
                              error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(Text, ParsesCommentsAndBlanks)
{
    Loop l = loopFromText("# header\n\nloop t trip 7\n"
                          "op 0 load stream=3 offset=2\n"
                          "# mid comment\n"
                          "op 1 store stream=4\n"
                          "edge 0 1 flow dist=0 slot=0\n");
    EXPECT_EQ(l.name, "t");
    EXPECT_EQ(l.tripCount, 7);
    EXPECT_EQ(l.ddg.op(0).memStream, 3);
    EXPECT_EQ(l.ddg.op(0).memOffset, 2);
    EXPECT_FALSE(l.recurrence);
}

TEST(Text, ParsesConstLiteral)
{
    Loop l = loopFromText("loop c trip 1\n"
                          "op 0 const lit=42\n"
                          "op 1 store stream=0\n"
                          "edge 0 1 flow dist=0 slot=0\n");
    EXPECT_EQ(l.ddg.op(0).literal, 42);
}

TEST(Text, NonFlowEdgesTakeExplicitLatency)
{
    Loop l = loopFromText("loop m trip 1\n"
                          "op 0 load stream=0\n"
                          "op 1 store stream=0\n"
                          "edge 0 1 flow dist=0 slot=0\n"
                          "edge 1 0 memory dist=1 lat=3\n");
    bool found = false;
    for (EdgeId e = 0; e < l.ddg.numEdges(); ++e) {
        if (l.ddg.edge(e).kind == DepKind::Memory) {
            EXPECT_EQ(l.ddg.edge(e).latency, 3);
            EXPECT_EQ(l.ddg.edge(e).distance, 1);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Text, FlowLatencyComesFromModel)
{
    LatencyModel lat;
    lat.set(Opcode::Load, 9);
    Loop l = loopFromText("loop x trip 1\n"
                          "op 0 load stream=0\n"
                          "op 1 store stream=1\n"
                          "edge 0 1 flow dist=0 slot=0\n",
                          lat);
    EXPECT_EQ(l.ddg.edge(0).latency, 9);
}

/**
 * Every rejection message, byte for byte: the service returns these
 * as Invalid results, so a parser rewrite must reproduce them.
 */
TEST(Text, ErrorStringsUnchanged)
{
    const std::string two_ops = "op 0 load\nop 1 store\n";
    const std::string two_loads = "op 0 load\nop 1 load\n";
    const struct
    {
        std::string text;
        const char *error;
    } cases[] = {
        {"op 0 load stream\n", "line 1: bad attribute 'stream'"},
        {"op 0 load a=b=c\n", "line 1: bad attribute 'a=b=c'"},
        {"op 0 load stream\r\n", "line 1: bad attribute 'stream'"},
        {"op 0 load lit=x stream\n", "line 1: bad attribute 'stream'"},
        {"op 0 load stream=-1\n", "line 1: bad integer for stream"},
        {"op 0 load stream=\n", "line 1: bad integer for stream"},
        {"op 0 load stream=x offset=y\n",
         "line 1: bad integer for stream"},
        {"op 0 load offset=--2\n", "line 1: bad integer for offset"},
        {"op 0 load offset=2147483648\n",
         "line 1: bad integer for offset"},
        {"op 0 const lit=1.5\n", "line 1: bad integer for lit"},
        {two_ops + "edge 0 1 flow dist=x slot=0\n",
         "line 3: bad integer for dist"},
        {two_ops + "edge 0 1 flow dist=-1 slot=0\n",
         "line 3: bad integer for dist"},
        {two_ops + "edge 0 1 flow dist=0 slot=-1\n",
         "line 3: bad integer for slot"},
        {two_ops + "edge 0 1 flow dist=0 slot=2\n",
         "line 3: flow slot must be 0 or 1 (got 2)"},
        {two_loads + "edge 0 1 memory dist=0 lat=1x\n",
         "line 3: bad integer for lat"},
        {two_loads + "edge 0 1 anti lat=\n",
         "line 3: bad integer for lat"},
        {"op 0 store\nop 1 load\nedge 0 1 flow dist=0 slot=0\n",
         "line 3: flow edge from op 0, which produces no value"},
        {two_ops + "edge 0 1 sideways\n",
         "line 3: unknown dependence kind 'sideways'"},
        {two_ops + "edge 0 1 flow stream\n",
         "line 3: bad attribute 'stream'"},
        {"op 0 load\nedge 0 5 flow slot=0\n",
         "line 2: edge references unknown op"},
        {"op 0 load\nedge 0 y flow\n", "line 2: bad edge endpoints"},
        {"op 0 load\nedge 0 1\n", "line 2: edge needs src dst kind"},
        {"op 0 load\nop 0 load\n", "line 2: duplicate op id 0"},
        {"op 0 load\nop -0 load\n", "line 2: duplicate op id 0"},
        {"op 0\n", "line 1: op needs id and opcode"},
        {"op x load\n", "line 1: bad op id"},
        {"op 0 frobnicate\n", "line 1: unknown opcode 'frobnicate'"},
        {"op 0 load\t\tx\n", "line 1: unknown opcode 'load\t\tx'"},
        {"loop\n", "line 1: loop needs a name"},
        {"loop x trip -3\n", "line 1: bad trip count"},
        {"banana 1 2\n", "line 1: unknown directive 'banana'"},
        {"op\t0 load\n", "line 1: unknown directive 'op\t0'"},
        {"# c\n\n   \n  op 0 load stream=x\n",
         "line 4: bad integer for stream"},
        {"loop z trip 1\nop 0 add\nop 1 add\n"
         "edge 0 1 flow dist=0 slot=0\nedge 1 0 flow dist=0 slot=0\n",
         "invalid loop 'z': zero-distance dependence cycle present"},
        // An embedded NUL ends a quoted token.
        {std::string("op 0 load\0x\n", 12),
         "line 1: unknown opcode 'load'"},
    };
    for (const auto &c : cases) {
        Loop out;
        std::string error;
        EXPECT_FALSE(loopFromText(c.text, out, error)) << c.text;
        EXPECT_EQ(error, c.error) << c.text;
    }
}

/**
 * The lenient corners of the grammar stay accepted: whitespace
 * around integers, a leading '+', "-0" ids, last-wins duplicate
 * and ignored unknown attributes, a trip clause that is not one.
 */
TEST(Text, AcceptedInputsUnchanged)
{
    const struct
    {
        std::string text;
        const char *canonical;
    } cases[] = {
        {"  loop   t   trip  +7  \t\r\n", "loop t trip 7\n"},
        {"loop t tripx 5\n", "loop t trip 100\n"},
        {"loop t trip 5 extra\n", "loop t trip 5\n"},
        {"op -0 load stream=x stream=+2 foo=bar =1\n",
         "loop unnamed trip 100\nop 0 load stream=2\n"},
        {"op 3 load stream=\t3 offset=-0\n",
         "loop unnamed trip 100\nop 0 load stream=3\n"},
        {"op 0 load\nop 1 store\n"
         "edge 0 1 flow dist=0 slot=0 lat=x\n",
         "loop unnamed trip 100\nop 0 load\nop 1 store\n"
         "edge 0 1 flow dist=0 slot=0\n"},
        {"op 0 load\nop 1 load\nedge 0 1 memory slot=x\n",
         "loop unnamed trip 100\nop 0 load\nop 1 load\n"
         "edge 0 1 memory dist=0 lat=1\n"},
        {"op 0 const\n", "loop unnamed trip 100\nop 0 const lit=0\n"},
        {std::string("loop ab\0c trip 3\nop 0 load stream=4\0z\n", 38),
         "loop ab trip 3\nop 0 load stream=4\n"},
    };
    for (const auto &c : cases) {
        Loop out;
        std::string error;
        ASSERT_TRUE(loopFromText(c.text, out, error))
            << c.text << ": " << error;
        EXPECT_EQ(loopToText(out), c.canonical) << c.text;
    }
}

using TextDeath = ::testing::Test;

TEST(TextDeath, RejectsUnknownOpcode)
{
    EXPECT_EXIT(loopFromText("op 0 frobnicate\n"),
                ::testing::ExitedWithCode(1), "unknown opcode");
}

TEST(TextDeath, RejectsUnknownDirective)
{
    EXPECT_EXIT(loopFromText("banana 1 2\n"),
                ::testing::ExitedWithCode(1), "unknown directive");
}

TEST(TextDeath, RejectsDanglingEdge)
{
    EXPECT_EXIT(loopFromText("op 0 load\nedge 0 5 flow slot=0\n"),
                ::testing::ExitedWithCode(1), "unknown op");
}

TEST(TextDeath, RejectsDuplicateOpId)
{
    EXPECT_EXIT(loopFromText("op 0 load\nop 0 load\n"),
                ::testing::ExitedWithCode(1), "duplicate");
}

TEST(TextDeath, RejectsZeroDistanceCycle)
{
    EXPECT_EXIT(loopFromText("loop z trip 1\n"
                             "op 0 add\nop 1 add\n"
                             "edge 0 1 flow dist=0 slot=0\n"
                             "edge 1 0 flow dist=0 slot=0\n"),
                ::testing::ExitedWithCode(1), "invalid loop");
}

} // namespace
} // namespace dms
