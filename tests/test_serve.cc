/**
 * @file
 * Compile-service tests: env-knob hardening, cold/warm parity
 * (bit-identical cached results), single-flight dedup under
 * concurrent duplicate requests (the ASan/TSan-relevant hammer),
 * sweep routing equivalence, capacity eviction, graceful
 * rejection of malformed requests, and the two ServeStats fields
 * the metrics snapshot does not carry (rejected, the percentiles).
 */

#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/emit.h"
#include "core/dms.h"
#include "eval/runner.h"
#include "machine/desc.h"
#include "obs/metrics.h"
#include "sched/mii.h"
#include "sched/scheduler.h"
#include "serve/cache.h"
#include "serve/service.h"
#include "support/rng.h"
#include "support/strings.h"
#include "workload/suite.h"
#include "workload/text.h"

namespace dms {
namespace {

/** Canonical request for one named kernel on the paper's ring. */
CompileRequest
kernelRequest(const char *kernel, bool codegen = true)
{
    Loop loop;
    std::string error;
    EXPECT_TRUE(loadLoopSpec(
        (std::string("kernel:") + kernel).c_str(), loop, error))
        << error;
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    po.codegen = codegen;
    return makeRequest(loop, MachineModel::clusteredRing(4), po);
}

TEST(ServeOptionsEnv, StrictKnobParsing)
{
    // Garbage, trailing junk, overflow and out-of-range values all
    // fall back to the defaults (same strict path as DMS_JOBS).
    ::setenv("DMS_SERVE_QUEUE_DEPTH", "12x", 1);
    ::setenv("DMS_SERVE_SHARDS", "99999999999999", 1);
    ::setenv("DMS_SERVE_CACHE_CAP", "0", 1);
    ::setenv("DMS_SERVE_WORKERS", "banana", 1);
    ServeOptions defaults;
    ServeOptions opts = ServeOptions::fromEnv();
    EXPECT_EQ(opts.queueDepth, defaults.queueDepth);
    EXPECT_EQ(opts.shards, defaults.shards);
    EXPECT_EQ(opts.cacheCapacity, defaults.cacheCapacity);
    EXPECT_EQ(opts.workers, defaults.workers);

    ::setenv("DMS_SERVE_QUEUE_DEPTH", "17", 1);
    ::setenv("DMS_SERVE_SHARDS", "3", 1);
    ::setenv("DMS_SERVE_CACHE_CAP", "100", 1);
    ::setenv("DMS_SERVE_WORKERS", "2", 1);
    opts = ServeOptions::fromEnv();
    EXPECT_EQ(opts.queueDepth, 17);
    EXPECT_EQ(opts.shards, 3);
    EXPECT_EQ(opts.cacheCapacity, 100);
    EXPECT_EQ(opts.workers, 2);

    ::unsetenv("DMS_SERVE_QUEUE_DEPTH");
    ::unsetenv("DMS_SERVE_SHARDS");
    ::unsetenv("DMS_SERVE_CACHE_CAP");
    ::unsetenv("DMS_SERVE_WORKERS");
}

TEST(ServeCache, FnvMatchesReference)
{
    // FNV-1a reference values (RFC draft test vectors).
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

/**
 * The acceptance-criteria parity test: a warm cache hit returns
 * results bit-identical to the cold compile — the same LoopRun
 * (every placement-derived field) and the same emitted kernel text
 * — and identical to the direct (service-less) pipeline.
 */
TEST(Serve, WarmHitBitIdenticalToColdCompile)
{
    ServeOptions so;
    so.workers = 2;
    CompileService service(so);

    CompileRequest req = kernelRequest("fir8");
    CompileService::ResultPtr cold = service.compile(req);
    ASSERT_TRUE(cold->parsed);
    ASSERT_TRUE(cold->ok);

    CompileService::Ticket warm_ticket = service.submit(req);
    EXPECT_EQ(warm_ticket.source, CompileService::Source::Hit);
    CompileService::ResultPtr warm = warm_ticket.future.get();

    // A hit returns the *same* cached object...
    EXPECT_EQ(warm.get(), cold.get());
    // ...and the direct pipeline produces the identical artifacts.
    Loop loop;
    std::string error;
    ASSERT_TRUE(loadLoopSpec("kernel:fir8", loop, error));
    MachineModel machine = MachineModel::clusteredRing(4);
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    po.codegen = true;
    Pipeline pipeline(po);
    CompilationContext ctx;
    LoopRun direct = runLoop(pipeline, loop, machine, ctx);
    EXPECT_TRUE(warm->run == direct);
    std::string direct_kernel = emitPipelinedCode(
        ctx.scheduledDdg(), machine, ctx.kernel,
        ctx.queuesValid ? &ctx.queues : nullptr);
    EXPECT_EQ(warm->kernelText, direct_kernel);
    EXPECT_FALSE(warm->kernelText.empty());

    ServeStats stats = service.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
}

/** Different spellings of one request land on one cache entry. */
TEST(Serve, CanonicalizationUnifiesSpellings)
{
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);

    CompileRequest req = kernelRequest("daxpy",
                                       /*codegen=*/false);
    CompileService::ResultPtr first = service.compile(req);
    ASSERT_TRUE(first->ok);

    // Same loop, different spelling: comments, blank lines, and a
    // gap in the op numbering (ids 10, 20, ... instead of dense).
    CompileRequest alias = req;
    std::string respelled = "# a comment\n";
    for (const std::string &line : split(req.loopText, '\n')) {
        respelled += line;
        respelled += "\n\n";
    }
    alias.loopText = respelled;
    CompileService::Ticket t = service.submit(alias);
    EXPECT_EQ(t.source, CompileService::Source::Hit);
    EXPECT_EQ(t.future.get().get(), first.get());
}

/**
 * The hammer: many threads submit the same requests concurrently.
 * Single-flight dedup must compile each distinct request exactly
 * once, every duplicate must coalesce or hit, and every client
 * must see the same result object. Run under the ASan/UBSan CI
 * job, this is also the data-race check for the queue and cache.
 */
TEST(Serve, SingleFlightDedupUnderConcurrency)
{
    ServeOptions so;
    so.workers = 3;
    so.queueDepth = 8; // small: exercise producer backpressure
    CompileService service(so);

    const char *kernels[] = {"fir8", "daxpy", "iir2", "horner"};
    constexpr int kClients = 8;
    constexpr int kPerClient = 40;

    std::vector<CompileRequest> requests;
    for (const char *k : kernels)
        requests.push_back(kernelRequest(k));

    std::vector<CompileService::ResultPtr>
        seen(kClients * kPerClient);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (int i = 0; i < kPerClient; ++i) {
                const CompileRequest &req =
                    requests[static_cast<size_t>(i) %
                             requests.size()];
                seen[static_cast<size_t>(c * kPerClient + i)] =
                    service.compile(req);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    // Every duplicate resolved to the one cached object per key.
    for (int i = 0; i < kClients * kPerClient; ++i) {
        size_t key = static_cast<size_t>(i) % requests.size();
        ASSERT_TRUE(seen[static_cast<size_t>(i)] != nullptr);
        EXPECT_EQ(seen[static_cast<size_t>(i)].get(),
                  seen[key].get());
    }

    ServeStats stats = service.stats();
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kClients * kPerClient));
    // Exactly one cold compile per distinct request; everything
    // else was deduplicated (hit or coalesced).
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits + stats.coalesced,
              stats.requests - stats.misses);
    EXPECT_EQ(stats.invalid, 0u);
}

/** Malformed requests are rejected without killing the service. */
TEST(Serve, InvalidRequestsRejectedGracefully)
{
    ServeOptions so;
    so.workers = 1;
    CompileService service(so);

    CompileRequest bad;
    bad.loopText = "op 0 frobnicate\n";
    bad.machineText = machineToText(MachineModel::clusteredRing(2));
    CompileService::ResultPtr r = service.compile(bad);
    EXPECT_FALSE(r->parsed);
    EXPECT_NE(r->error.find("unknown opcode"), std::string::npos);

    CompileRequest bad_machine = kernelRequest("daxpy");
    bad_machine.machineText = "clusters banana\n";
    r = service.compile(bad_machine);
    EXPECT_FALSE(r->parsed);
    EXPECT_FALSE(r->error.empty());

    // Unknown scheduler names and scheduler/machine mismatches
    // are data errors too: rejected in submit(), never handed to
    // a worker (whose fatal() would kill the whole service).
    CompileRequest bad_sched = kernelRequest("daxpy");
    bad_sched.options.scheduler = "bogus";
    r = service.compile(bad_sched);
    EXPECT_FALSE(r->parsed);
    EXPECT_NE(r->error.find("unknown scheduler"),
              std::string::npos);

    CompileRequest mismatched = kernelRequest("daxpy");
    mismatched.options.scheduler = "dms";
    mismatched.machineText =
        machineToText(MachineModel::unclustered(4));
    r = service.compile(mismatched);
    EXPECT_FALSE(r->parsed);
    EXPECT_NE(r->error.find("does not support"),
              std::string::npos);

    // The service still works afterwards.
    CompileService::ResultPtr good =
        service.compile(kernelRequest("daxpy"));
    EXPECT_TRUE(good->ok);
    EXPECT_EQ(service.stats().invalid, 4u);
}

/**
 * Flow-edge latencies in the loop text come from the machine's
 * latency model (overrides included), so a request against a
 * `latency`-overridden machine schedules with the same edges the
 * direct pipeline sees for a loop built against that model.
 */
TEST(Serve, MachineLatencyModelShapesFlowEdges)
{
    std::string machine_text = "clusters 2\n"
                               "topology ring\n"
                               "regfile queues\n"
                               "fus ldst=1 add=1 mul=1 copy=1\n"
                               "latency mul=5\n";
    MachineModel machine = machineFromTextOrDie(machine_text);

    CompileRequest req;
    req.loopText = loopToText(kernelIir2());
    req.machineText = machine_text;
    req.options.scheduler = "dms";
    req.options.regalloc = true;

    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    CompileService::ResultPtr served = service.compile(req);
    ASSERT_TRUE(served->parsed) << served->error;
    ASSERT_TRUE(served->ok);

    Loop direct_loop =
        loopFromText(req.loopText, machine.latency());
    PipelineOptions po;
    po.scheduler = "dms";
    po.regalloc = true;
    Pipeline pipeline(po);
    CompilationContext ctx;
    LoopRun direct = runLoop(pipeline, direct_loop, machine, ctx);
    EXPECT_TRUE(served->run == direct);
    // The override actually bit: iir2's recurrence runs through a
    // mul, so mul=5 pushes the recurrence-bound II beyond the
    // default-latency machine's.
    CompilationContext ctx2;
    LoopRun default_lat = runLoop(
        pipeline, loopFromText(req.loopText),
        MachineModel::clusteredRing(2), ctx2);
    EXPECT_GT(direct.ii, default_lat.ii);
}

/** Capacity-bounded: old ready entries are evicted and recompile. */
TEST(Serve, EvictionRecompilesEvictedKeys)
{
    ServeOptions so;
    so.workers = 1;
    so.shards = 1; // one shard => strict FIFO eviction order
    so.cacheCapacity = 2;
    CompileService service(so);

    const char *kernels[] = {"fir8", "daxpy", "iir2", "horner"};
    for (const char *k : kernels)
        ASSERT_TRUE(service.compile(kernelRequest(k))->ok) << k;
    ServeStats stats = service.stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_GT(stats.evictions, 0u);

    // fir8 was evicted: recompiles (a miss, not a hit) and still
    // produces the bit-identical result.
    CompileService::ResultPtr again =
        service.compile(kernelRequest("fir8"));
    stats = service.stats();
    EXPECT_EQ(stats.misses, 5u);
    EXPECT_TRUE(again->ok);
}

// --- eviction policies --------------------------------------------------

/** Insert @p key as a ready entry with the given compile cost. */
void
insertReady(ResultCache &cache, const std::string &key,
            double costMs = 1.0)
{
    std::shared_ptr<CacheEntry> entry;
    ASSERT_EQ(cache.acquire(key, fnv1a64(key), entry),
              ResultCache::Lookup::Inserted)
        << key;
    entry->costMs.store(costMs, std::memory_order_relaxed);
    entry->ready.store(true, std::memory_order_release);
    entry->promise.set_value(std::make_shared<CompileResult>());
}

bool
resident(ResultCache &cache, const std::string &key)
{
    return cache.find(key, fnv1a64(key)) != nullptr;
}

/** LRU: a find() refreshes recency, so the victim is the coldest. */
TEST(CacheEviction, LruEvictsLeastRecentlyTouched)
{
    ResultCache cache(/*shards=*/1, /*capacity=*/3,
                      EvictPolicy::Lru);
    insertReady(cache, "a");
    insertReady(cache, "b");
    insertReady(cache, "c");
    // Touch a then b: c is now the least recently used.
    EXPECT_TRUE(resident(cache, "a"));
    EXPECT_TRUE(resident(cache, "b"));
    insertReady(cache, "d");
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(resident(cache, "c"));
    EXPECT_TRUE(resident(cache, "a"));
    EXPECT_TRUE(resident(cache, "b"));
    EXPECT_TRUE(resident(cache, "d"));
}

/** FIFO ignores touches: insertion order alone picks the victim. */
TEST(CacheEviction, FifoIgnoresRecency)
{
    ResultCache cache(/*shards=*/1, /*capacity=*/3,
                      EvictPolicy::Fifo);
    insertReady(cache, "a");
    insertReady(cache, "b");
    insertReady(cache, "c");
    EXPECT_TRUE(resident(cache, "a")); // touch changes nothing
    insertReady(cache, "d");
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(resident(cache, "a"));
    EXPECT_TRUE(resident(cache, "b"));
}

/** Cost-aware keeps the expensive entries, evicts the cheap one. */
TEST(CacheEviction, CostEvictsTheCheapestEntry)
{
    ResultCache cache(/*shards=*/1, /*capacity=*/3,
                      EvictPolicy::Cost);
    insertReady(cache, "pricey", 400.0);
    insertReady(cache, "cheap", 2.0);
    insertReady(cache, "mid", 60.0);
    insertReady(cache, "new", 10.0);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(resident(cache, "cheap"));
    EXPECT_TRUE(resident(cache, "pricey"));
    EXPECT_TRUE(resident(cache, "mid"));
    EXPECT_TRUE(resident(cache, "new"));
}

TEST(CacheEviction, PolicyNamesRoundTrip)
{
    for (EvictPolicy p : {EvictPolicy::Fifo, EvictPolicy::Lru,
                          EvictPolicy::Cost}) {
        EvictPolicy back = EvictPolicy::Fifo;
        EXPECT_TRUE(evictPolicyFromName(evictPolicyName(p), back));
        EXPECT_EQ(back, p);
    }
    EvictPolicy p = EvictPolicy::Lru;
    EXPECT_FALSE(evictPolicyFromName("mru", p));
    EXPECT_EQ(p, EvictPolicy::Lru); // unchanged on reject
}

TEST(CacheEviction, EnvKnobSelectsThePolicy)
{
    ::setenv("DMS_SERVE_EVICT", "cost", 1);
    EXPECT_EQ(ServeOptions::fromEnv().eviction, EvictPolicy::Cost);
    ::setenv("DMS_SERVE_EVICT", "lru", 1);
    EXPECT_EQ(ServeOptions::fromEnv().eviction, EvictPolicy::Lru);
    // Unknown names warn and keep the default.
    ::setenv("DMS_SERVE_EVICT", "banana", 1);
    EXPECT_EQ(ServeOptions::fromEnv().eviction, EvictPolicy::Fifo);
    ::unsetenv("DMS_SERVE_EVICT");
}

/**
 * Sweep routing: a matrix run through the service must be
 * bit-identical to the direct path, and a second run must be
 * served from the cache.
 */
TEST(Serve, MatrixViaServiceBitIdentical)
{
    std::vector<Loop> suite = standardSuite(kSuiteSeed, 4);
    suite.resize(6); // 4 synth + 2 kernels: keep the test quick

    RunnerOptions direct;
    direct.maxClusters = 3;
    direct.progress = false;
    direct.jobs = 1;
    std::vector<ConfigRun> want = runMatrix(suite, direct);

    ServeOptions so;
    so.workers = 2;
    CompileService service(so);
    RunnerOptions routed = direct;
    routed.service = &service;
    std::vector<ConfigRun> got = runMatrix(suite, routed);
    EXPECT_TRUE(got == want);

    ServeStats after_first = service.stats();
    EXPECT_EQ(after_first.hits + after_first.coalesced, 0u);

    // Second sweep: every cell is a cache hit, same matrix.
    std::vector<ConfigRun> warm = runMatrix(suite, routed);
    EXPECT_TRUE(warm == want);
    ServeStats after_second = service.stats();
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_EQ(after_second.hits - after_first.hits,
              after_first.misses);
}

/**
 * DMS behind a deliberately corrupt RecMII hint: the regression
 * shape for the computeHeights budget-exhaustion panic. A hostile
 * knownRecMii below the true RecMII used to drive height relaxation
 * into its divergence budget and fatal() the worker — killing the
 * whole daemon. It must instead surface as a failed attempt
 * (recovered at a legal II) or, with a capped ladder, as a
 * structured Unschedulable result.
 */
class HostileHintScheduler : public Scheduler
{
  public:
    const char *name() const override { return "hostile-hints"; }

    bool
    supports(const MachineModel &machine) const override
    {
        return machine.clustered();
    }

    void
    schedule(const Ddg &body, const MachineModel &machine,
             const SchedulerConfig &config,
             SchedulerResult &result) override
    {
        DmsParams params = config.dms;
        params.knownRecMii = 1; // the lie: true RecMII is larger
        DmsOutcome out = scheduleDms(body, machine, params);
        result.sched = std::move(out.sched);
        result.ddg = std::move(out.ddg);
    }
};

std::unique_ptr<Scheduler>
makeHostileHintScheduler()
{
    return std::make_unique<HostileHintScheduler>();
}

TEST(Serve, HostileMiiHintIsRecoverableNotFatal)
{
    SchedulerRegistry::instance().add("hostile-hints",
                                      &makeHostileHintScheduler);

    // acc = acc * x + y: the two-op recurrence puts the true RecMII
    // (mul + add latency) well above the resource bound the hostile
    // hint lets the ladder start from.
    LoopBuilder b;
    OpId ld = b.load(0);
    OpId ml = b.mul1(ld);
    OpId ad = b.add1(ml);
    b.flow(ad, ml, 1, 1);
    b.store(1, ad);
    Loop loop;
    loop.name = "hostile";
    loop.ddg = b.take();
    const int rec = recMii(loop.ddg);
    ASSERT_GT(rec, 1);

    ServeOptions so;
    so.workers = 1;
    CompileService service(so);
    MachineModel machine = MachineModel::clusteredRing(2);

    PipelineOptions po;
    po.scheduler = "hostile-hints";

    // Uncapped ladder: the early rungs diverge (II below RecMII)
    // but count as failed attempts, and the ladder succeeds at a
    // legal II instead of taking the process down.
    CompileService::ResultPtr ok =
        service.compile(makeRequest(loop, machine, po));
    ASSERT_EQ(ok->status, CompileStatus::Ok);
    EXPECT_GE(ok->run.ii, rec);

    // Ladder capped below the true RecMII: every rung diverges and
    // the request resolves as structured Unschedulable.
    po.config.dms.maxII = rec - 1;
    CompileService::ResultPtr failed =
        service.compile(makeRequest(loop, machine, po));
    EXPECT_EQ(failed->status, CompileStatus::Unschedulable);
    EXPECT_FALSE(failed->ok);

    // The daemon survived: an ordinary request still compiles.
    CompileService::ResultPtr after =
        service.compile(kernelRequest("daxpy"));
    EXPECT_EQ(after->status, CompileStatus::Ok);
}

// --- derived ServeStats fields ------------------------------------------

/**
 * rejected is not a metric: the view derives it, so its identity
 * with shed + quarantined holds by construction and no lint can
 * audit it. Pin the derivation and that no snapshot carries it.
 */
TEST(ServeStatsView, RejectedIsShedPlusQuarantined)
{
    obs::MetricsSnapshot snap;
    snap.addCounter("serve.shed", 7);
    snap.addCounter("serve.quarantined", 5);
    EXPECT_EQ(serveStatsFromMetrics(snap).rejected, 12u);

    CompileService service;
    service.compile(kernelRequest("fir8"));
    const obs::MetricsSnapshot live = service.metrics();
    EXPECT_EQ(live.findCounter("serve.rejected"), nullptr);
    const ServeStats s = serveStatsFromMetrics(live);
    EXPECT_EQ(s.rejected, s.shed + s.quarantined);
}

/**
 * The percentiles are not metrics either: they are read off the
 * serve.latency_ms buckets, whose conservation the lint audits.
 * Nearest-rank over sorted buckets makes p50 <= p90 <= p99, and
 * each is the midpoint of a bucket no higher than the maximum's,
 * for any sample set and after the text round trip.
 */
TEST(ServeStatsView, PercentilesAreMonotone)
{
    Rng rng(0x9e1f0ULL);
    for (int trial = 0; trial < 64; ++trial) {
        obs::LatencyHistogram hist;
        const int n = 1 + rng.range(0, 400);
        const double scale = 0.001 * (1 << rng.range(0, 20));
        for (int i = 0; i < n; ++i) {
            const double u = rng.uniform();
            hist.record(trial % 2 == 0 ? scale * u
                                       : scale / (0.01 + u * u));
        }
        obs::MetricsSnapshot snap;
        snap.addHistogram("serve.latency_ms", hist.snapshot());
        obs::MetricsSnapshot back;
        std::string error;
        ASSERT_TRUE(obs::metricsFromText(obs::metricsToText(snap),
                                         back, error))
            << error;
        for (const obs::MetricsSnapshot *m : {&snap, &back}) {
            const ServeStats s = serveStatsFromMetrics(*m);
            EXPECT_LE(s.p50Ms, s.p90Ms) << trial;
            EXPECT_LE(s.p90Ms, s.p99Ms) << trial;
            EXPECT_LT(s.p99Ms,
                      obs::LatencyHistogram::bucketHiMs(
                          obs::LatencyHistogram::bucketFor(s.maxMs)))
                << trial;
        }
    }

    // A midpoint may exceed the exact maximum, so p99 <= max is
    // not an identity: one sample at a bucket's low edge.
    obs::LatencyHistogram one;
    one.record(obs::LatencyHistogram::bucketLoMs(200));
    obs::MetricsSnapshot snap;
    snap.addHistogram("serve.latency_ms", one.snapshot());
    const ServeStats s = serveStatsFromMetrics(snap);
    EXPECT_GT(s.p99Ms, s.maxMs);
}

} // namespace
} // namespace dms
