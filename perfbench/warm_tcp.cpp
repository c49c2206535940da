/**
 * @file
 * warm_tcp: a loopback NetServer in front of a CompileService,
 * driven by four closed-loop connections. Requests follow Zipf(1.1)
 * over a hot pool of 512 synthetic loops (cold_compile's fixed
 * prefix) plus the 16 named kernels, with the cold_compile machine
 * and options; the run's seed picks which loops are hottest and the
 * request sequence. Set-up primes the whole pool in process, and
 * the pool is far below the cache capacity, so every timed request
 * is a hit answered by the raw-text alias lookup: the wire, the
 * lookup and latency recording do the work, and no pipeline stage
 * runs. The pool is fixed, so the schedule-quality metrics over its
 * primed results repeat exactly across runs.
 */

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "serve/cache.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/service.h"
#include "support/rng.h"
#include "support/strings.h"

namespace perfbench {

using namespace dms;

namespace {

constexpr int kSynthLoops = 512;
constexpr int kConnections = 4;
constexpr size_t kPicksPerConnection = 1 << 16;

struct Rig
{
    std::vector<CompileRequest> requests;
    std::vector<CompileService::ResultPtr> primed;
    std::vector<std::vector<std::uint32_t>> picks; ///< per connection
    std::unique_ptr<CompileService> service;
    std::unique_ptr<NetServer> server;
    std::vector<std::unique_ptr<NetClient>> clients;
    std::string error;

    ~Rig()
    {
        clients.clear();
        if (server != nullptr)
            server->stop();
    }
};

std::unique_ptr<Rig>
setUp(std::uint64_t seed)
{
    auto rig = std::make_unique<Rig>();
    const std::string machineText = servingMachineText();
    std::vector<std::string> texts;
    for (int i = 0; i < kSynthLoops; ++i)
        texts.push_back(coldLoopText(kQualitySeed, i));
    for (std::string &t : hotKernelTexts())
        texts.push_back(std::move(t));
    for (std::string &t : texts) {
        CompileRequest req;
        req.loopText = std::move(t);
        req.machineText = machineText;
        req.options = servingOptions();
        rig->requests.push_back(std::move(req));
    }

    // Zipf rank -> pool loop: a seeded shuffle, so each seed has
    // its own hot set.
    Rng rng(seed);
    std::vector<std::uint32_t> byRank(rig->requests.size());
    for (size_t i = 0; i < byRank.size(); ++i)
        byRank[i] = static_cast<std::uint32_t>(i);
    for (size_t i = byRank.size() - 1; i > 0; --i)
        std::swap(byRank[i], byRank[static_cast<size_t>(rng.range(
                                 0, static_cast<int>(i)))]);
    const ZipfPicker zipf(byRank.size(), 1.1);
    for (int c = 0; c < kConnections; ++c) {
        std::vector<std::uint32_t> seq(kPicksPerConnection);
        for (std::uint32_t &x : seq)
            x = byRank[zipf.pick(rng)];
        rig->picks.push_back(std::move(seq));
    }

    ServeOptions so;
    so.workers = 1;
    rig->service = std::make_unique<CompileService>(so);
    for (const CompileRequest &req : rig->requests)
        rig->primed.push_back(rig->service->compile(req));

    rig->server = std::make_unique<NetServer>(*rig->service);
    if (!rig->server->start(rig->error))
        return rig;
    for (int c = 0; c < kConnections; ++c) {
        auto client = std::make_unique<NetClient>();
        if (!client->connect("127.0.0.1", rig->server->port(), 5000,
                             rig->error))
            return rig;
        rig->clients.push_back(std::move(client));
    }
    return rig;
}

bool
sameResult(const CompileResult &a, const CompileResult &b)
{
    return a.status == b.status && a.parsed == b.parsed &&
           a.ok == b.ok && a.error == b.error &&
           a.failSite == b.failSite && a.run == b.run &&
           a.kernelText == b.kernelText;
}

/** Per-connection tallies of the timed phase. */
struct Tally
{
    long requests = 0;
    long transportErrors = 0;
    long mismatches = 0;
    std::string firstMismatch;

    /** Traced run only. */
    TraceBook book;
    double requestBytes = 0, resultBytes = 0, transportUs = 0;
};

/**
 * The traced half of one request: the same request once more
 * through each layer's public functions, in process.
 */
void
shadowRequest(obs::Trace *trace, CompileService &service,
              ResultCache &standalone, const std::string &rawKey,
              const CompileRequest &req, Tally &tally)
{
    obs::ScopedSpan shadow(trace, "shadow");
    WireRequest wire;
    wire.request = req;
    std::string line;
    {
        obs::ScopedSpan s(trace, "net.request_encode");
        line = wireRequestToLine(wire);
    }
    tally.requestBytes += static_cast<double>(line.size() + 1);
    {
        obs::ScopedSpan s(trace, "net.request_parse");
        WireRequest parsed;
        std::string error;
        wireRequestFromLine(line, parsed, error);
    }
    {
        obs::ScopedSpan s(trace, "cache.find");
        standalone.find(rawKey, fnv1a64(rawKey));
    }
    CompileService::Ticket ticket;
    {
        obs::ScopedSpan s(trace, "service.submit");
        ticket = service.submit(req);
    }
    CompileService::ResultPtr result;
    {
        obs::ScopedSpan s(trace, "service.wait");
        result = ticket.future.get();
    }
    {
        obs::ScopedSpan s(trace, "net.result_encode");
        line = wireResultToLine(*result);
    }
    tally.resultBytes += static_cast<double>(line.size() + 1);
    obs::ScopedSpan s(trace, "net.result_parse");
    CompileResult parsed;
    std::string error;
    wireResultFromLine(line, parsed, error);
}

} // namespace

Outcome
runWarmTcp(const Args &args)
{
    Outcome out;
    const auto makeRig = [&] { return setUp(args.seed); };
    std::unique_ptr<Rig> rig;
    std::vector<double> setupS;
    timeSetups(kSetupReps, makeRig, rig, setupS);
    if (static_cast<int>(rig->clients.size()) != kConnections) {
        out.problems.push_back("set-up failed: " + rig->error);
        out.attempted = 1;
        out.failed = 1;
        return out;
    }
    std::vector<LoopRun> primedRuns;
    for (const auto &r : rig->primed) {
        primedRuns.push_back(r->run);
        if (r->status != CompileStatus::Ok &&
            r->status != CompileStatus::Unschedulable)
            out.problems.push_back(strfmt(
                "priming: status %s", compileStatusName(r->status)));
    }

    // Traced-run instrument: a standalone cache holding the pool's
    // raw-spelling keys, the way the service's alias map holds them.
    const ServeOptions defaults;
    ResultCache standalone(defaults.shards, defaults.cacheCapacity,
                           defaults.eviction);
    std::vector<std::string> rawKeys;
    for (const CompileRequest &req : rig->requests) {
        if (!args.trace)
            break;
        std::string key =
            req.loopText + '\x01' + req.machineText + kServingOptionsKey;
        std::shared_ptr<CacheEntry> entry;
        standalone.acquire(key, fnv1a64(key), entry);
        entry->promise.set_value(
            std::make_shared<const CompileResult>());
        entry->ready.store(true, std::memory_order_release);
        rawKeys.push_back(std::move(key));
    }

    CompileService &service = *rig->service;
    const ServeStats before = service.stats();
    std::vector<Tally> tallies(kConnections);
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    Clock::time_point start, end;
    std::unique_ptr<Windows> windows;
    auto connection = [&](int c) {
        NetClient &client = *rig->clients[static_cast<size_t>(c)];
        const std::vector<std::uint32_t> &picks =
            rig->picks[static_cast<size_t>(c)];
        Tally &tally = tallies[static_cast<size_t>(c)];
        CompileResult reply;
        std::string error;
        ++ready;
        while (!go.load(std::memory_order_acquire))
            std::this_thread::yield();
        for (size_t i = 0; Clock::now() < end; ++i) {
            const std::uint32_t index = picks[i % picks.size()];
            const CompileRequest &req = rig->requests[index];
            std::shared_ptr<obs::Trace> trace;
            if (args.trace)
                trace = std::make_shared<obs::Trace>();
            bool sent;
            const Clock::time_point t0 = Clock::now();
            {
                obs::ScopedSpan request(trace.get(), "request");
                obs::ScopedSpan span(trace.get(), "net.round_trip");
                sent = client.compile(req, reply, error);
            }
            const Clock::time_point t1 = Clock::now();
            ++tally.requests;
            if (!sent) {
                ++tally.transportErrors;
                client.connect("127.0.0.1", rig->server->port(),
                               5000, error);
                continue;
            }
            windows->add(t1, msBetween(t0, t1));
            // Response validation: client think time, after the
            // latency clock has stopped.
            if (args.defect == "response" && c == 0 && i == 0) {
                if (reply.kernelText.empty())
                    reply.error += '!';
                else
                    reply.kernelText[0] ^= 1;
            }
            if (!sameResult(reply, *rig->primed[index])) {
                if (tally.mismatches++ == 0)
                    tally.firstMismatch = strfmt(
                        "connection %d, request %zu (pool loop %u): "
                        "response differs from the primed result",
                        c, i, index);
            }
            if (args.trace) {
                shadowRequest(trace.get(), service, standalone,
                              rawKeys[index], req, tally);
                trace->finish();
                SpanTotals one;
                one.add(*trace);
                tally.transportUs +=
                    one.sumUs({"net.round_trip"}) -
                    one.sumUs({"service.submit", "service.wait"});
                tally.book.add(std::move(trace));
            }
        }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back(connection, c);
    while (ready.load() < kConnections)
        std::this_thread::yield();
    start = Clock::now();
    end = start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
    windows = std::make_unique<Windows>(start, args.seconds);
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    const double elapsed = secondsSince(start);
    const ServeStats after = service.stats();

    long requests = 0, transportErrors = 0, mismatches = 0;
    for (Tally &t : tallies) {
        requests += t.requests;
        transportErrors += t.transportErrors;
        mismatches += t.mismatches;
        if (!t.firstMismatch.empty())
            out.problems.push_back(t.firstMismatch);
    }
    if (mismatches > 0)
        out.problems.push_back(strfmt(
            "%ld of %ld responses differ from the primed results",
            mismatches, requests));
    const std::uint64_t hits = after.hits - before.hits;
    const std::uint64_t submits = after.requests - before.requests;
    if (hits != submits)
        out.problems.push_back(strfmt(
            "workload invariant: %llu of %llu timed requests hit",
            static_cast<unsigned long long>(hits),
            static_cast<unsigned long long>(submits)));

    out.attempted = requests;
    out.failed = transportErrors + mismatches;
    const double rps = windows->rate();
    const double p50 = windows->percentileMs(50);
    const double p99 = windows->percentileMs(99);
    const Quality q = qualityOf(primedRuns);

    out.record["clients"] = std::to_string(kConnections);
    out.record["workers"] = std::to_string(service.workers());
    out.record["latency_samples"] =
        std::to_string(windows->all().count);
    out.record["windows"] = std::to_string(windows->size());
    out.record["pool"] = std::to_string(rig->requests.size());

    if (!args.trace) {
        const double rssMb = peakRssMb();
        rig.reset();
        timeSetups(kSetupReps, makeRig, rig, setupS);
        rig.reset();
        out.record["setup_reps"] = std::to_string(setupS.size());
        out.add("setup_s", median(setupS), "s");
        out.add("ops_per_s", rps, "1/s");
        out.add("latency_p50_ms", p50, "ms");
        out.add("latency_p99_ms", p99, "ms");
        out.add("peak_rss_mb", rssMb, "MiB");
        out.add("ipc", q.ipc, "ratio");
        out.add("ii_over_mii", q.iiOverMii, "ratio");
        out.note("run.ops_per_s",
                 static_cast<double>(requests - transportErrors) /
                     elapsed,
                 "1/s");
        out.note("run.latency_p50_ms", windows->all().percentile(50),
                 "ms");
        out.note("run.latency_p99_ms", windows->all().percentile(99),
                 "ms");
        out.note("error_rate",
                 static_cast<double>(out.failed) /
                     static_cast<double>(std::max<long>(requests, 1)),
                 "ratio");
        return out;
    }

    TraceBook book;
    double requestBytes = 0, resultBytes = 0, transportUs = 0;
    for (Tally &t : tallies) {
        book.merge(t.book);
        requestBytes += t.requestBytes;
        resultBytes += t.resultBytes;
        transportUs += t.transportUs;
    }
    const double traced = static_cast<double>(
        std::max<long>(book.recorded, 1));
    std::map<std::string, double> extra;
    extra["net.request_bytes"] = requestBytes / traced;
    extra["net.result_bytes"] = resultBytes / traced;
    extra["net.transport_us"] = transportUs / traced;
    extra["service.hit_ratio"] =
        static_cast<double>(hits) /
        static_cast<double>(std::max<std::uint64_t>(submits, 1));
    extra["service.queue_peak"] = after.peakQueueDepth;
    addLayerMetrics(out, book.spans, LayerCounts{}, extra);
    exportTraces(args, book, out);

    out.note("traced.ops_per_s", rps, "1/s");
    out.note("traced.latency_p50_ms", p50, "ms");
    out.note("traced.latency_p99_ms", p99, "ms");
    return out;
}

} // namespace perfbench
